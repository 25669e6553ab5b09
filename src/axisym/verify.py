"""Certificate harness: checks the symmetry predictions on solved instances.

Each certificate records one conditional claim checked on one instance:

    main0_form            best found field has the first-harmonic form
                          (horizontal k = +-1, vertical k = 0) and its
                          symmetrized companion has equal energy, under
                          the margin hypothesis (MarginReport.holds)
    main1_line_symmetry   the per-row line-symmetry labels and the
                          orthogonality relations |alpha| = |beta|,
                          alpha . beta = 0, under never-flat targets; it
                          passes only where main0_form passed
    main3_null_average    with no penalty term: if the found minimizer is
                          axially null-average it must have the form above
    chain_monotonicity    the symmetrization inequality chain on a corpus
                          of random fields (runconfig.corpus_seeds)
    pw_inequality         the discrete Poincare-Wirtinger inequality per
                          row of a random-field corpus
    annulus_null_average  the ring averages of the annulus boundary-value
                          problem vanish for symmetric ring data

Instances are axisym-run/1 configs (runconfig.DEFAULT_INSTANCES, built
with runconfig.build_run).  Each axisym-cert/2 file states its instance
once as {"name", "config"}, a config that `axisym minimize --config`
reruns (`axisym verify --config` for annulus_pde, a one-instance suite).
Hypothesis gating happens before conclusions: an instance that fails a
hypothesis yields an *inapplicable* certificate (_inapplicable), never a
failed one, and its verdict is None ("pass": null): nothing was checked.
Certificates carry no timestamps and serialize deterministically, so a
rerun with the same seeds is byte-identical.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import ioutil
from .energy import hypothesis_margin, phi_symbol
from .fields import mode_decompose, random_field
from .geometry import never_flat_check
from .runconfig import (DEFAULT_INSTANCES, RUN_SCHEMA, SUITE_NAMES,
                        build_run, corpus_seeds, suite_config)
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
    "energy_gap": 1e-6,           # relative companion energy gap
    "orthogonality": 1e-3,
    "chain_slack": CHAIN_SLACK,
    "pw_slack": 1e-9,
    "annulus_mean": 1e-8,
}

CERT_SCHEMA = "axisym-cert/2"


@dataclass(frozen=True)
class TheoremCertificate:
    theorem: str
    instance: dict
    applicable: bool
    passed: bool | None             # None: inapplicable, nothing checked
    residuals: dict
    tolerances: dict
    note: str = ""

    def to_dict(self):
        return {
            "theorem": self.theorem,
            "applicable": bool(self.applicable),
            "pass": self.passed,
            "residuals": {k: float(v) for k, v in self.residuals.items()},
            "tolerances": {k: float(v) for k, v in self.tolerances.items()},
            "note": self.note,
        }


def _inapplicable(theorem, instance, tolerances, note, residuals=None):
    """The certificate of a claim whose hypothesis fails: inapplicable, so
    it has no verdict and no pass or fail count of the summary holds it."""
    return TheoremCertificate(theorem, instance, False, None,
                              residuals or {}, tolerances, note)


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


def _null_average(diag):
    """The largest ring mean of the found field, relative to its scale."""
    return diag["null_average_norm"] / max(diag["field_scale"], 1e-9)


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
    """First-harmonic form of the best found field under the margin."""
    diag = report.diagnostics
    tolerances = {k: DEFAULT_TOLERANCES[k] for k in
                  ("form_residual", "null_average", "energy_gap")}
    if not report.margin.holds:
        return _inapplicable("main0_form", instance_desc, tolerances,
                             f"inapplicable: margin {report.margin.state}")
    chain = symmetrize_and_certify(report.best_field, params,
                                   params.aniso.variant)[1]
    residuals, ok = _form_check(diag)
    residuals["companion_energy_gap"] = \
        abs(chain.energy_u.total - chain.energy_m.total) \
        / (1 + abs(chain.energy_m.total))
    ok = ok and residuals["companion_energy_gap"] <= tolerances["energy_gap"]
    note = ""
    if report.margin.strict:
        residuals["null_average"] = _null_average(diag)
        ok = ok and residuals["null_average"] <= tolerances["null_average"]
    else:
        note = "borderline margin: ring-mean term retained in the form"
    return TheoremCertificate("main0_form", instance_desc, True, bool(ok),
                              residuals, tolerances, note)


def verify_main1(main0, report, target):
    """Line-symmetry labels and orthogonality under never-flat targets.

    main0 is verify_main0's certificate of the same report; this one
    carries only its own residuals and passes only where main0 passed.
    """
    strict = report.margin.strict
    tolerances = {"orthogonality": DEFAULT_TOLERANCES["orthogonality"]}
    if not strict or not never_flat_check(target).ok:
        why = "target has flat bands" if strict else "margin not strict"
        return _inapplicable("main1_line_symmetry", main0.instance,
                             tolerances, f"inapplicable: {why}")
    residuals, ok = _line_symmetry_check(report.diagnostics)
    return TheoremCertificate("main1_line_symmetry", main0.instance, True,
                              bool(main0.passed and ok), residuals, tolerances,
                              "" if main0.passed else "main0_form failed")


def verify_main3(instance_desc, report, target):
    """No-penalty functional: null-average minimizers must have the form.

    The null-average property is the gate: when the found minimizer is not
    null-average the certificate records that the hypothesis is unmet (the
    claim is conditional), without failing.
    """
    tolerances = {k: DEFAULT_TOLERANCES[k] for k in
                  ("null_average_strict", "form_residual", "orthogonality")}
    if report.margin.state != "zero":
        return _inapplicable("main3_null_average", instance_desc, tolerances,
                             "inapplicable: instance has a penalty term")
    diag = report.diagnostics
    residuals = {"null_average": _null_average(diag)}
    if residuals["null_average"] > tolerances["null_average_strict"]:
        return _inapplicable("main3_null_average", instance_desc, tolerances,
                             "hypothesis unmet: found minimizer is not "
                             "axially null-average", residuals)
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
    tolerances = {"chain_slack": DEFAULT_TOLERANCES["chain_slack"]}
    if not hypothesis_margin(mesh, params.weight).strict:
        return _inapplicable("chain_monotonicity", desc, tolerances,
                             "inapplicable: margin not strict")
    worst = dict.fromkeys(("slice_vs_mean", "poincare_wirtinger",
                           "vertical_mode", "total_gap"), np.inf)
    corpus = corpus_seeds(seeds, n_fields, 1)
    ok = True
    for stack in _stacks(mesh, corpus):
        rep = symmetrize_and_certify(random_field(mesh, target, stack), params,
                                     params.aniso.variant)[1]
        scale = 1 + abs(rep.energy_m.total)
        for key in worst:
            worst[key] = min(worst[key],
                             float(np.min(rep.residuals[key] / scale)))
        ok = ok and bool(np.all(rep.certified))
    if not corpus:
        return _inapplicable("chain_monotonicity", desc, tolerances,
                             "inapplicable: empty corpus, no field checked",
                             {"fields_checked": 0.0})
    residuals = {f"min_{k}": v for k, v in worst.items()}
    residuals["fields_checked"] = float(len(corpus))
    return TheoremCertificate("chain_monotonicity", desc, True, ok,
                              residuals, tolerances)


def _pw_violation(mesh, target, seeds):
    """The largest relative Poincare-Wirtinger violation over the rows of
    the random fields of seeds, one stack: its mode decomposition is freed
    before the next stack is drawn."""
    k2 = phi_symbol(mesh.n_phi)[:, None, None]
    dec = mode_decompose(random_field(mesh, target, seeds))
    mass = dec.mass[..., :2]                      # (fields, modes, n_t, 2)
    lhs = 2 * np.pi * np.sum(mass[:, 1:], axis=(-3, -1))
    rhs = 2 * np.pi * np.sum(k2 * mass, axis=(-3, -1))
    scale = 1 + rhs
    return float(np.max((lhs - rhs) / scale))


def verify_pw(desc, seeds, n_fields):
    """Row-wise Poincare-Wirtinger inequality on a random-field corpus.

    Both sides are Parseval sums of the horizontal components, read from
    the mode masses of mode_decompose.  desc as made by instance().
    """
    mesh, target, params, _ = build_run(desc["config"])
    tolerances = {"pw_slack": DEFAULT_TOLERANCES["pw_slack"]}
    corpus = corpus_seeds(seeds, n_fields, 77)
    violations = [_pw_violation(mesh, target, stack)
                  for stack in _stacks(mesh, corpus)]
    if not violations:
        return _inapplicable("pw_inequality", desc, tolerances,
                             "inapplicable: empty corpus, no row checked")
    worst = max(violations)
    return TheoremCertificate("pw_inequality", desc, True,
                              bool(worst <= tolerances["pw_slack"]),
                              {"max_violation": worst}, tolerances)


def verify_annulus(kappas, n_t, n_phi, seed):
    """Ring averages of the annulus solutions vanish for symmetric data."""
    if not kappas:
        raise ValueError("verify_annulus needs at least one kappa")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for kappa in kappas:
        b1 = annulus_boundary_from_vector(n_phi, rng.normal(size=3))
        b2 = annulus_boundary_from_vector(n_phi, rng.normal(size=3))
        rep = solve_annulus_example(n_t, n_phi, kappa, b1, b2)
        worst = max(worst, rep.max_mean_perp)
    annulus = {"kappas": [float(k) for k in kappas], "n_t": int(n_t),
               "n_phi": int(n_phi)}
    desc = {"name": "annulus_pde", "config": {"schema": RUN_SCHEMA, "suite": {
        "instances": ["annulus_pde"], "seeds": [int(seed)],
        "annulus": annulus}}}
    tolerances = {"annulus_mean": DEFAULT_TOLERANCES["annulus_mean"]}
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
    out_dir set, writes one JSON file per instance (the instance and its
    certificates) plus summary.json.  The run is deterministic under fixed
    seeds: certificates carry no timestamps and reruns are byte-identical.
    """
    cfg = suite_config(config)
    grid = (cfg["grid"]["n_phi"], cfg["grid"]["n_t"])
    names = cfg["instances"] or SUITE_NAMES     # None selects every one

    groups = {}                 # file key -> its instance's certificates
    for name in [n for n in DEFAULT_INSTANCES if n in names]:
        for seed in cfg["seeds"]:
            desc = instance(name, *grid, cfg["solver"], seed)
            mesh, target, params, sc = build_run(desc["config"])
            report = minimize_2d(mesh, target, params, sc)
            main0 = verify_main0(desc, report, params)
            groups[f"{name}_s{seed}"] = [
                main0, verify_main1(main0, report, target),
                verify_main3(desc, report, target)]

    first_seed = cfg["seeds"][0]
    for kind, check, pool, n_fields in (
            ("chain", verify_chain, CHAIN_INSTANCES, cfg["chain_fields"]),
            ("pw", verify_pw, PW_INSTANCES, cfg["pw_fields"])):
        for name in [n for n in pool if n in names]:
            desc = instance(name, *grid, cfg["solver"], first_seed)
            groups[f"{kind}_{name}"] = [check(desc, cfg["seeds"], n_fields)]
    if "annulus_pde" in names:
        ann = cfg["annulus"]
        groups["annulus_pde"] = [verify_annulus(ann["kappas"], ann["n_t"],
                                                ann["n_phi"], first_seed)]

    certs = [c for group in groups.values() for c in group]
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
        for key, group in sorted(groups.items()):
            ioutil.write_json(out / f"cert_{key}.json", {
                "schema": CERT_SCHEMA, "instance_key": key,
                "instance": group[0].instance,
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
