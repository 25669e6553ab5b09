"""axisym command line: config-driven solves and verification.

Subcommands:
    minimize    2D energy minimization; writes field/mode CSVs + JSON reports
    reduce      1D profile minimization (both variants, Dirichlet rows
                pinned; a variant whose sweep cannot meet the ring data is
                skipped and named in the report) + optional 2D comparison
    verify      certificate suite; exit 1 on any failed applicable
                certificate
    annulus     the linear annulus boundary-value problem (flag-driven)
    symmetrize  field CSV in -> symmetrized field CSV + chain report

Configs are strict JSON ("axisym-run/1").  axisym.runconfig loads and
builds them (load_config, build_run, ConfigError and RUN_SCHEMA are
re-exported here).  Each verify certificate file states its instance
once, as {"name", "config"}: `minimize --config` reruns the config
(`verify --config` for annulus_pde).  All artifacts are deterministic
(sorted keys, 17 significant digits, LF endings) and carry the config
hash and seed.
Exit codes: 0 ok/converged (of a solve: its winning restart met the
gradient tolerance; report.json's stop_reasons gives every restart), 1
failed certificate, 2 not converged (the winning restart did not meet the
tolerance), singular system, or a solve whose energy overflows ("solve
non-finite", nothing written), 3 input error: any input error exits 3
and names the config key, flag, file line or cell, never with a
traceback (README.md lists the cases).  reduce checks prior_2d before it
solves or writes anything; verify checks the instance sections as minimize
does and the suite section by runconfig.suite_config alone.  Restarts run
one after another in one thread.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import ioutil
from .energy import H1OperatorError, NonDifferentiableError
from .geometry import VARIANTS
from .fields import field_from_csv, field_to_csv, grid_to_csv, profile_to_csv
from .runconfig import (RUN_SCHEMA, ConfigError, annulus_grid, build_run,
                        load_config, suite_config)
from .solvers import (
    BoundaryVariantError,
    NonFiniteSolveError,
    SingularSystemError,
    annulus_boundary_from_vector,
    minimize_1d_profile,
    minimize_2d,
    solve_annulus_example,
    symmetrize_and_certify,
)
from .verify import run_suite

EXIT_OK = 0
EXIT_CERT_FAILED = 1
EXIT_NOT_CONVERGED = 2
EXIT_CONFIG = 3


# ---------------------------------------------------------------------------
# output directory, input files and artifact writers
# ---------------------------------------------------------------------------

def _provenance(cfg, seed):
    digest = ioutil.sha256_of(cfg)
    return f"config_sha256={digest} seed={seed}", digest


def _out_dir(args, cfg, default, create=True):
    """--out, else config.outputs, else default (None: no directory), as a
    Path, created unless create is false.  An empty path, or one that
    cannot be a directory (an existing file, or a path below one), is a
    ConfigError naming it.  The solving commands call it with create=False
    before they solve and create the directory after, so a bad location
    costs no solve and a failed solve writes nothing."""
    where = "config.outputs" if args.out is None and "outputs" in cfg \
        else "--out"
    out = cfg.get("outputs", default) if args.out is None else args.out
    if out is None:
        return None
    if not out:
        raise ConfigError(f"{where}: an empty path names no directory")
    out = Path(out)
    try:
        existing = next((p for p in (out, *out.parents) if p.exists()), None)
        if existing is not None and not existing.is_dir():
            raise NotADirectoryError(f"{existing} exists and is not a directory")
        if create:
            out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    return out


def _read(where, read, *args):
    """read(*args), an input it cannot read a ConfigError naming where."""
    try:
        return read(*args)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _write_mode_csv(path, t, dec, comment):
    """One row per t node of the first-harmonic decomposition dec."""
    alpha, beta, mean = (np.fromiter(map(np.linalg.norm, v), float, len(t))
                         for v in (dec.alpha_perp, dec.beta_perp, dec.mean_perp))
    dots = np.fromiter(map(np.dot, dec.alpha_perp, dec.beta_perp), float, len(t))
    ioutil.write_csv(path, ["t", "alpha_perp_norm", "beta_perp_norm",
                            "alpha_dot_beta", "eta", "mean_perp_norm"],
                     [t, alpha, beta, dots, dec.eta, mean], comment)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_minimize(args):
    cfg = load_config(args.config)
    mesh, target, params, sc = build_run(cfg, args.seed, _parse_grid(args.grid))
    _out_dir(args, cfg, "out", create=False)
    report = minimize_2d(mesh, target, params, sc)
    out = _out_dir(args, cfg, "out")
    comment, digest = _provenance(cfg, sc.seed)
    field_to_csv(report.best_field, out / "field.csv", comment)
    _write_mode_csv(out / "mode.csv", mesh.t, report.mode, comment)
    ioutil.write_json(out / "breakdown.json",
                      dict(report.best_energy.to_dict(), config_sha256=digest,
                           seed=sc.seed))
    ioutil.write_json(out / "report.json",
                      dict(report.to_dict(), config_sha256=digest))
    print(f"minimize: total={report.best_energy.total:.12g} "
          f"converged={report.converged} -> {out}")
    return EXIT_OK if report.converged else EXIT_NOT_CONVERGED


def _read_prior(prior, mesh, target, boundary):
    """(best energy, best field) of the 2D run in the directory prior: a
    finite number at best_energy.total of its report.json, and its
    field.csv on the grid; or ConfigError naming config.prior_2d."""
    where = "config.prior_2d"
    report = _read(where, ioutil.read_json, Path(prior) / "report.json")
    try:
        energy = report["best_energy"]["total"]
    except (KeyError, TypeError):
        energy = None
    if (isinstance(energy, bool) or not isinstance(energy, (int, float))
            or not math.isfinite(energy)):
        raise ConfigError(f"{where}: report.json needs a finite number at "
                          f"best_energy.total, got {energy!r}")
    field = _read(where, field_from_csv, Path(prior) / "field.csv", mesh,
                  target, boundary)
    return float(energy), field


def cmd_reduce(args):
    cfg = load_config(args.config)
    mesh, target, params, sc = build_run(cfg, args.seed, _parse_grid(args.grid))
    _out_dir(args, cfg, "out", create=False)
    prior = cfg.get("prior_2d")
    if prior:
        e2d, prior_field = _read_prior(prior, mesh, target, params.boundary)
    comment, digest = _provenance(cfg, sc.seed)
    payload = {"config_sha256": digest, "seed": sc.seed}
    converged = True
    reports = {}
    # both solves first: a solve that fails leaves no artifact behind
    for variant in VARIANTS:
        try:
            reports[variant] = minimize_1d_profile(
                mesh, target, params, variant, sc)
        except BoundaryVariantError as exc:
            # its swept fields would break the Dirichlet rows: no profile
            payload[f"{variant}_skipped"] = str(exc)
    out = _out_dir(args, cfg, "out")
    for variant, rep in reports.items():
        profile_to_csv(rep.best_profile, out / f"profile_{variant}.csv", comment)
        payload[variant] = rep.to_dict()
        converged &= rep.converged
        if rep.diagnostics.get("variant_mismatch_warning"):
            payload[f"{variant}_warning"] = ("anisotropy variant differs from "
                                             "profile variant")
    if prior:
        best_variant = min(reports, key=lambda v: reports[v].best_energy.total)
        rep = reports[best_variant]
        gap = abs(rep.best_energy.total - e2d) / max(abs(e2d), 1e-30)
        diff = rep.best_field.values - prior_field.values
        l2 = float(np.sqrt(np.sum(mesh.quad_weights * np.sum(diff ** 2, -1))))
        payload["comparison"] = {"best_variant": best_variant,
                                 "energy_2d": e2d,
                                 "energy_1d": rep.best_energy.total,
                                 "relative_gap": gap,
                                 "l2_distance": l2}
    ioutil.write_json(out / "reduce_report.json", payload)
    print(f"reduce: wrote profiles -> {out}")
    return EXIT_OK if converged else EXIT_NOT_CONVERGED


def cmd_verify(args):
    cfg = load_config(args.config) if args.config else {"schema": RUN_SCHEMA}
    grid = _parse_grid(args.grid)
    # the config's instance sections are checked as minimize checks them
    build_run(cfg, args.seed, grid)
    suite_cfg = suite_config(cfg.get("suite"), args.seed, grid)
    certs, summary = run_suite(suite_cfg, out_dir=_out_dir(args, cfg, None))
    applicable = [c for c in certs if c.applicable]
    print(f"verify: {summary['n_passed']}/{len(applicable)} applicable "
          f"certificates passed ({summary['n_certificates']} total)")
    for c in applicable:
        if not c.passed:
            print(f"  FAILED {c.theorem} on {c.instance.get('name', '?')}")
    return EXIT_OK if summary["all_pass"] else EXIT_CERT_FAILED


def _ring_vector(text, flag):
    try:
        vector = [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"{flag}: {exc}") from exc
    if len(vector) != 3:
        raise ConfigError(f"{flag}: boundary vectors need three components")
    # the report holds norms of the solution, which the ring data scales
    if not math.isfinite(sum(v * v for v in vector)):
        raise ConfigError(f"{flag}: components must be finite, with a "
                          f"squared norm in the range of a double, "
                          f"got {text!r}")
    return vector


def cmd_annulus(args):
    if not math.isfinite(args.kappa):
        raise ConfigError(f"--kappa: must be finite, got {args.kappa!r}")
    annulus_grid(args.n_t, args.n_phi)
    inner = _ring_vector(args.inner, "--inner")
    outer = _ring_vector(args.outer, "--outer")
    _out_dir(args, {}, "out", create=False)
    b1 = annulus_boundary_from_vector(args.n_phi, inner)
    b2 = annulus_boundary_from_vector(args.n_phi, outer)
    rep = solve_annulus_example(args.n_t, args.n_phi, args.kappa, b1, b2)
    out = _out_dir(args, {}, "out")
    ioutil.write_csv(out / "radial_mean.csv", ["t", "mean_perp_norm"],
                     [rep.t_grid, np.fromiter(map(np.linalg.norm, rep.mean_perp),
                                              float, len(rep.t_grid))])
    grid_to_csv(rep.phi, rep.t_grid, rep.solution, out / "solution.csv")
    ioutil.write_json(out / "annulus_report.json", rep.to_dict())
    print(f"annulus: kappa={args.kappa:g} max|<m_perp>|={rep.max_mean_perp:.3e} "
          f"-> {out}")
    return EXIT_OK


def cmd_symmetrize(args):
    cfg = load_config(args.config)
    mesh, target, params, sc = build_run(cfg, args.seed, _parse_grid(args.grid))
    if "input_field" not in cfg:
        raise ConfigError("config.input_field: required for symmetrize")
    field = _read("config.input_field", field_from_csv, cfg["input_field"],
                  mesh, target, params.boundary)
    variant = cfg.get("variant", params.aniso.variant)   # checked on load
    _out_dir(args, cfg, "out", create=False)
    u, chain = symmetrize_and_certify(field, params, variant)
    out = _out_dir(args, cfg, "out")
    comment, digest = _provenance(cfg, sc.seed)
    field_to_csv(u, out / "symmetrized.csv", comment)
    ioutil.write_json(out / "chain_report.json",
                      dict(chain.to_dict(), config_sha256=digest))
    print(f"symmetrize: certified={chain.certified} "
          f"hypothesis_violation={chain.hypothesis_violation} -> {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _parse_grid(text):
    if not text:
        return None
    try:
        n_phi, n_t = text.lower().split("x")
        return int(n_phi), int(n_t)
    except ValueError as exc:
        raise ConfigError(f"--grid: expected NxM, got {text!r}") from exc


def build_parser():
    p = argparse.ArgumentParser(prog="axisym", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    for name, fn in (("minimize", cmd_minimize), ("reduce", cmd_reduce),
                     ("verify", cmd_verify), ("symmetrize", cmd_symmetrize)):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=name != "verify",
                        help="JSON run config")
        sp.add_argument("--out", help="output directory (overrides config)")
        sp.add_argument("--seed", type=int, help="seed override")
        sp.add_argument("--grid", help="grid override, e.g. 64x64")
        sp.set_defaults(func=fn)

    sp = sub.add_parser("annulus")
    sp.add_argument("--kappa", type=float, default=1.0)
    sp.add_argument("--n-t", dest="n_t", type=int, default=64)
    sp.add_argument("--n-phi", dest="n_phi", type=int, default=32)
    sp.add_argument("--inner", default="1,0,0", help="inner ring vector x,y,z")
    sp.add_argument("--outer", default="0,0,1", help="outer ring vector x,y,z")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_annulus)
    return p


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:    # argparse printed why; --help exits 0
        return EXIT_CONFIG if exc.code else EXIT_OK
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NonDifferentiableError as exc:
        print(f"config error: config.potential.table: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except H1OperatorError as exc:
        print(f"config error: config.base_surface: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NonFiniteSolveError, SingularSystemError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_CONVERGED


if __name__ == "__main__":
    sys.exit(main())
