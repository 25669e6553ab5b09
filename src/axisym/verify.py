"""Certificate harness: checks the symmetry predictions on solved instances.

Each certificate records one conditional claim checked on one instance:

    main0_form            best found field has the first-harmonic form
                          (horizontal k = +-1, vertical k = 0) and an
                          equal-energy rotation-(contra)variant companion,
                          under the strict margin h1 W > sqrt(2 pi)
    main1_line_symmetry   adds per-row line-symmetry labels and the
                          orthogonality relations |alpha| = |beta|,
                          alpha . beta = 0, under never-flat targets
    main3_null_average    with no penalty term: if the found minimizer is
                          axially null-average it must have the form above
    chain_monotonicity    the symmetrization inequality chain on a corpus
                          of random fields
    pw_inequality         the discrete Poincare-Wirtinger inequality per
                          row, equality exactly on first harmonics
    annulus_null_average  the ring averages of the annulus boundary-value
                          problem vanish for symmetric ring data

Instances are axisym-run/1 configs (runconfig.DEFAULT_INSTANCES, built
with runconfig.build_run), and each certificate records its instance as
{"name", "config"}, so `axisym minimize --config` reruns it.
Hypothesis gating happens before conclusions: an instance that fails a
hypothesis yields an *inapplicable* certificate, never a failed one.
Certificates carry no timestamps and serialize deterministically, so a
rerun with the same seeds is byte-identical.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import ioutil
from .energy import hypothesis_margin
from .fields import mode_decompose, random_field, symmetry_defect
from .geometry import never_flat_check
from .runconfig import (CORPUS_STRIDE, DEFAULT_INSTANCES, RUN_SCHEMA,
                        SUITE_NAMES, build_run, suite_config)
from .solvers import (
    CHAIN_SLACK,
    annulus_boundary_from_vector,
    minimize_2d,
    solve_annulus_example,
    symmetrize_and_certify,
)

DEFAULT_TOLERANCES = {
    "form_residual": 1e-4,        # relative first-harmonic residual
    "null_average": 1e-4,         # max ring mean, relative to field scale
    "null_average_strict": 1e-6,  # the main3 hypothesis test
    "defect": 1e-10,              # symmetry defect of the companion field
    "energy_gap": 1e-6,           # relative companion energy gap
    "orthogonality": 1e-3,
    "chain_slack": CHAIN_SLACK,
    "pw_slack": 1e-9,
    "annulus_mean": 1e-8,
}

CERT_SCHEMA = "axisym-cert/1"


@dataclass(frozen=True)
class TheoremCertificate:
    theorem: str
    instance: dict
    applicable: bool
    passed: bool
    residuals: dict
    tolerances: dict
    note: str = ""

    def to_dict(self):
        return {
            "schema": CERT_SCHEMA,
            "theorem": self.theorem,
            "instance": dict(self.instance),
            "applicable": bool(self.applicable),
            "pass": bool(self.passed),
            "residuals": {k: float(v) for k, v in self.residuals.items()},
            "tolerances": {k: float(v) for k, v in self.tolerances.items()},
            "note": self.note,
        }


# ---------------------------------------------------------------------------
# instances
# ---------------------------------------------------------------------------

def instance(name, n_phi, n_t, solver=None, seed=0):
    """A certificate's instance: {"name", "config"}, with config the
    complete axisym-run/1 config of a registered instance at this grid and
    solver settings (runconfig.build_run builds it, `axisym minimize
    --config` reruns it)."""
    config = dict(copy.deepcopy(DEFAULT_INSTANCES[name]), schema=RUN_SCHEMA,
                  grid={"n_phi": int(n_phi), "n_t": int(n_t)},
                  solver=dict(solver or {}, seed=int(seed)))
    return {"name": name, "config": config}


CHAIN_INSTANCES = ("sphere_quartic_margin", "cylinder2_quadratic_const1",
                   "annulus_quartic_const")

PW_INSTANCES = ("sphere_quartic_margin", "cylinder2_quadratic_const1")

# The chain and Poincare-Wirtinger corpora are drawn and certified a stack
# of fields at a time, each stack at most this many doubles of field values
# (64 kB, 3 fields at 32 x 24), so the memory a corpus takes is bounded
# whatever its size.  Larger stacks run faster but leave a larger heap
# behind: on the verify-suite benchmark (a 2-core x86 VM, 5 runs each),
# 2 ** 14 doubles (7 fields) made a pass 10% faster than this bound but
# raised the median peak RSS by 0.26 MB over one field at a time, where
# this bound left it 0.06 MB below.
STACK_DOUBLES = 2 ** 13


# ---------------------------------------------------------------------------
# certificate builders
# ---------------------------------------------------------------------------

def _form_check(diag):
    """(residuals, ok) of the first-harmonic form: the mass outside
    horizontal k = +-1 and vertical k = 0, and the vertical
    phi-derivative mass, each relative to the energy."""
    residuals = {"form_residual": diag["residual_over_total"],
                 "vertical_mode_residual": diag["dphi_vertical_over_total"]}
    return residuals, all(v <= DEFAULT_TOLERANCES["form_residual"]
                          for v in residuals.values())


def _line_symmetry_check(diag):
    """(residuals, ok) of line symmetry: the orthogonality relations
    |alpha| = |beta| and alpha . beta = 0, and no row of neither kind."""
    residuals = {"orthogonality_norm": diag["orthogonality_norm_residual"],
                 "orthogonality_dot": diag["orthogonality_dot_residual"],
                 "neither_rows": float(diag["neither_rows"])}
    tol = DEFAULT_TOLERANCES["orthogonality"]
    ok = (residuals["orthogonality_norm"] <= tol
          and residuals["orthogonality_dot"] <= tol
          and diag["neither_rows"] == 0)
    return residuals, ok


def verify_main0(instance_desc, report, params):
    """First-harmonic form of the best found field under the strict margin."""
    state = report.margin.state
    diag = report.diagnostics
    tolerances = {k: DEFAULT_TOLERANCES[k] for k in
                  ("form_residual", "null_average", "defect", "energy_gap")}
    if state in ("zero", "below"):
        return TheoremCertificate(
            "main0_form", instance_desc, False, True, {},
            tolerances, f"inapplicable: margin {state}")
    u, chain = symmetrize_and_certify(report.best_field, params,
                                      params.aniso.variant)
    residuals, ok = _form_check(diag)
    residuals["companion_energy_gap"] = \
        abs(chain.energy_u.total - chain.energy_m.total) \
        / (1 + abs(chain.energy_m.total))
    residuals["companion_defect"] = symmetry_defect(u, params.aniso.variant)
    ok = (ok and residuals["companion_energy_gap"] <= tolerances["energy_gap"]
          and residuals["companion_defect"] <= tolerances["defect"])
    note = ""
    if state == "strict":
        residuals["null_average"] = (diag["null_average_norm"]
                                     / max(diag["field_scale"], 1e-9))
        ok = ok and residuals["null_average"] <= tolerances["null_average"]
    else:
        note = "borderline margin: ring-mean term retained in the form"
    return TheoremCertificate("main0_form", instance_desc, True, bool(ok),
                              residuals, tolerances, note)


def verify_main1(main0, report, target):
    """Adds line-symmetry labels and orthogonality under never-flat targets.

    main0 is verify_main0's certificate of the same report; this one
    extends its residuals and passes only where it passed.
    """
    state = report.margin.state
    tolerances = {k: DEFAULT_TOLERANCES[k]
                  for k in ("form_residual", "orthogonality")}
    if state != "strict" or not never_flat_check(target).ok:
        why = "margin not strict" if state != "strict" else "target has flat bands"
        return TheoremCertificate("main1_line_symmetry", main0.instance,
                                  False, True, {}, tolerances,
                                  f"inapplicable: {why}")
    residuals, ok = _line_symmetry_check(report.diagnostics)
    return TheoremCertificate("main1_line_symmetry", main0.instance, True,
                              bool(main0.passed and ok),
                              dict(main0.residuals, **residuals), tolerances)


def verify_main3(instance_desc, report, target):
    """No-penalty functional: null-average minimizers must have the form.

    The null-average property is the gate: when the found minimizer is not
    null-average the certificate records that the hypothesis is unmet (the
    claim is conditional), without failing.
    """
    tolerances = {k: DEFAULT_TOLERANCES[k] for k in
                  ("null_average_strict", "form_residual", "orthogonality")}
    if report.margin.state != "zero":
        return TheoremCertificate("main3_null_average", instance_desc,
                                  False, True, {}, tolerances,
                                  "inapplicable: instance has a penalty term")
    diag = report.diagnostics
    residuals = {"null_average": diag["null_average_norm"]
                 / max(diag["field_scale"], 1e-9)}
    if residuals["null_average"] > tolerances["null_average_strict"]:
        return TheoremCertificate("main3_null_average", instance_desc,
                                  False, True, residuals, tolerances,
                                  "hypothesis unmet: found minimizer is not "
                                  "axially null-average")
    form, ok = _form_check(diag)
    residuals.update(form)
    note = ""
    if never_flat_check(target).ok:
        line, line_ok = _line_symmetry_check(diag)
        residuals.update(line)
        ok = ok and line_ok
    else:
        note = "target not never-flat: orthogonality checks skipped"
    return TheoremCertificate("main3_null_average", instance_desc, True,
                              bool(ok), residuals, tolerances, note)


def _stacks(mesh, seeds):
    """seeds in slices whose random fields stack to at most STACK_DOUBLES
    doubles of values (to one field where one field is larger)."""
    size = max(1, STACK_DOUBLES // (3 * mesh.n_phi * mesh.n_t))
    return [seeds[i:i + size] for i in range(0, len(seeds), size)]


def verify_chain(desc, seeds, n_fields):
    """Symmetrization chain on a seeded random-field corpus of one instance
    (desc as made by instance())."""
    mesh, target, params, _ = build_run(desc["config"])
    margin = hypothesis_margin(mesh, params.weight)
    tolerances = {"chain_slack": DEFAULT_TOLERANCES["chain_slack"]}
    if not margin.strict:
        return TheoremCertificate("chain_monotonicity", desc, False, True,
                                  {}, tolerances, "inapplicable: margin not strict")
    worst = dict.fromkeys(("slice_vs_mean", "poincare_wirtinger",
                           "vertical_mode", "total_gap"), np.inf)
    corpus = [s * CORPUS_STRIDE + k for s in seeds for k in range(n_fields)]
    for stack in _stacks(mesh, corpus):
        rep = symmetrize_and_certify(random_field(mesh, target, stack), params,
                                     params.aniso.variant)[1]
        scale = 1 + abs(rep.energy_m.total)
        for key in worst:
            worst[key] = min(worst[key],
                             float(np.min(rep.residuals[key] / scale)))
    if not corpus:
        return TheoremCertificate("chain_monotonicity", desc, False, True,
                                  {"fields_checked": 0.0}, tolerances,
                                  "inapplicable: empty corpus, no field checked")
    residuals = {f"min_{k}": v for k, v in worst.items()}
    residuals["fields_checked"] = float(len(corpus))
    ok = all(v >= -tolerances["chain_slack"] for v in worst.values())
    return TheoremCertificate("chain_monotonicity", desc, True, bool(ok),
                              residuals, tolerances)


def _pw_stack(mesh, target, seeds):
    """(largest relative violation, equality detector mismatches, rows) of
    the Poincare-Wirtinger check on the random fields of seeds, one stack:
    its mode decomposition is freed before the next stack is drawn."""
    k2 = np.arange(mesh.n_phi // 2 + 1, dtype=float)[:, None, None] ** 2
    dec = mode_decompose(random_field(mesh, target, seeds))
    mass = dec.mass[..., :2]                      # (fields, modes, n_t, 2)
    lhs = 2 * np.pi * np.sum(mass[:, 1:], axis=(-3, -1))
    rhs = 2 * np.pi * np.sum(k2 * mass, axis=(-3, -1))
    scale = 1 + rhs
    tight = (rhs - lhs) <= 1e-9 * scale
    high_mass = np.sum(mass[:, 2:], axis=(-3, -1))
    pure = high_mass <= 1e-9 * (
        1 + np.sum(np.abs(dec.coeff[..., :2]) ** 2, axis=(-3, -1)))
    return (float(np.max((lhs - rhs) / scale)), int(np.sum(tight != pure)),
            lhs.size)


def verify_pw(desc, seeds, n_fields):
    """Row-wise Poincare-Wirtinger inequality with equality detection.

    Both sides are Parseval sums of the horizontal components, read from
    the mode masses of mode_decompose; the equality detector (mode mass
    outside k in {0, +-1}) must coincide with the rows where the inequality
    is tight.  desc as made by instance().
    """
    mesh, target, params, _ = build_run(desc["config"])
    tolerances = {"pw_slack": DEFAULT_TOLERANCES["pw_slack"]}
    corpus = [s * CORPUS_STRIDE + 77 * k
              for s in seeds for k in range(n_fields)]
    stacks = [_pw_stack(mesh, target, stack) for stack in _stacks(mesh, corpus)]
    if not stacks:
        return TheoremCertificate("pw_inequality", desc, False, True,
                                  {"rows_checked": 0.0}, tolerances,
                                  "inapplicable: empty corpus, no row checked")
    worst_violation = max(v for v, _, _ in stacks)
    mismatches = sum(m for _, m, _ in stacks)
    rows = sum(r for _, _, r in stacks)
    residuals = {"max_violation": worst_violation,
                 "equality_detector_mismatches": float(mismatches),
                 "rows_checked": float(rows)}
    ok = worst_violation <= tolerances["pw_slack"] and mismatches == 0
    return TheoremCertificate("pw_inequality", desc, True, bool(ok),
                              residuals, tolerances)


def verify_annulus(kappas, n_t, n_phi, seed):
    """Ring averages of the annulus solutions vanish for symmetric data."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for kappa in kappas:
        b1 = annulus_boundary_from_vector(n_phi, rng.normal(size=3))
        b2 = annulus_boundary_from_vector(n_phi, rng.normal(size=3))
        rep = solve_annulus_example(n_t, n_phi, kappa, b1, b2)
        worst = max(worst, rep.max_mean_perp)
    desc = {"name": "annulus_pde", "kappas": [float(k) for k in kappas],
            "grid": [int(n_phi), int(n_t)], "seed": int(seed)}
    tolerances = {"annulus_mean": DEFAULT_TOLERANCES["annulus_mean"]}
    if not kappas:
        return TheoremCertificate("annulus_null_average", desc, False, True,
                                  {}, tolerances,
                                  "inapplicable: no kappa, nothing solved")
    return TheoremCertificate("annulus_null_average", desc, True,
                              bool(worst <= tolerances["annulus_mean"]),
                              {"max_mean_perp": worst}, tolerances)


# ---------------------------------------------------------------------------
# suite driver
# ---------------------------------------------------------------------------

def run_suite(config=None, out_dir=None):
    """Run the registered instance matrix and emit certificates.

    config is merged over runconfig.DEFAULT_SUITE_CONFIG and checked by
    runconfig.suite_config (a ConfigError for a bad value or a suite that
    checks nothing).  Returns (certificates, summary); summary["all_pass"]
    needs at least one certificate and no failed applicable one.  With
    out_dir set, writes one JSON file per instance (its certificate list)
    plus summary.json.  The run is deterministic under fixed seeds:
    certificates carry no timestamps and reruns are byte-identical.
    """
    cfg = suite_config(config)
    grid = (cfg["grid"]["n_phi"], cfg["grid"]["n_t"])
    names = cfg["instances"] or SUITE_NAMES     # None selects every one

    per_instance = {}
    certs = []

    def emit(key, cert):
        per_instance.setdefault(key, []).append(cert)
        certs.append(cert)

    for name in [n for n in DEFAULT_INSTANCES if n in names]:
        for seed in cfg["seeds"]:
            desc = instance(name, *grid, cfg["solver"], seed)
            mesh, target, params, sc = build_run(desc["config"])
            report = minimize_2d(mesh, target, params, sc)
            key = f"{name}_s{seed}"
            main0 = verify_main0(desc, report, params)
            emit(key, main0)
            emit(key, verify_main1(main0, report, target))
            emit(key, verify_main3(desc, report, target))

    first_seed = cfg["seeds"][0]
    for kind, check, pool, n_fields in (
            ("chain", verify_chain, CHAIN_INSTANCES, cfg["chain_fields"]),
            ("pw", verify_pw, PW_INSTANCES, cfg["pw_fields"])):
        for name in [n for n in pool if n in names]:
            desc = instance(name, *grid, cfg["solver"], first_seed)
            emit(f"{kind}_{name}", check(desc, cfg["seeds"], n_fields))
    if "annulus_pde" in names:
        ann = cfg["annulus"]
        emit("annulus_pde", verify_annulus(ann["kappas"], ann["n_t"],
                                           ann["n_phi"], first_seed))

    applicable = [c for c in certs if c.applicable]
    summary = {
        "schema": CERT_SCHEMA,
        "config": copy.deepcopy(cfg),
        "n_certificates": len(certs),
        "n_applicable": len(applicable),
        "n_passed": sum(1 for c in applicable if c.passed),
        "n_failed": sum(1 for c in applicable if not c.passed),
        "failed": sorted(f"{c.theorem}:{c.instance.get('name', '?')}"
                         for c in applicable if not c.passed),
        # a suite that emitted no certificate checked nothing: no pass
        "all_pass": bool(certs) and all(c.passed for c in applicable),
        "by_theorem": _theorem_counts(certs),
    }
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for key, group in sorted(per_instance.items()):
            ioutil.write_json(out / f"cert_{key}.json", {
                "schema": CERT_SCHEMA, "instance_key": key,
                "certificates": [c.to_dict() for c in group]})
        ioutil.write_json(out / "summary.json", summary)
    return certs, summary


def _theorem_counts(certs):
    counts = {}
    for c in certs:
        d = counts.setdefault(c.theorem, {"applicable": 0, "passed": 0,
                                          "inapplicable": 0})
        d["applicable" if c.applicable else "inapplicable"] += 1
        d["passed"] += int(c.applicable and c.passed)
    return counts
