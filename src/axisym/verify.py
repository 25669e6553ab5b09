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

Hypothesis gating happens before conclusions: an instance that fails a
hypothesis yields an *inapplicable* certificate, never a failed one.
Certificates carry no timestamps and serialize deterministically, so a
rerun with the same seeds is byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from . import ioutil
from .energy import (
    BoundaryCondition,
    aniso_constant_e3,
    aniso_profile,
    aniso_surface_normal,
    dirichlet_rows_from_vector,
    easy_normal_potential,
    hypothesis_margin,
    make_params,
    quadratic_potential,
    quartic_potential,
    weight_constant,
    weight_margin_profile,
    weight_zero,
)
from .fields import random_field
from .geometry import build_mesh, never_flat_check, surface
from .solvers import (
    SolveConfig,
    annulus_boundary_from_vector,
    minimize_2d,
    solve_annulus_example,
    symmetrize_and_certify,
)

SQRT_2PI = float(np.sqrt(2 * np.pi))

DEFAULT_TOLERANCES = {
    "form_residual": 1e-4,        # relative first-harmonic residual
    "null_average": 1e-4,         # max ring mean, relative to field scale
    "null_average_strict": 1e-6,  # the main3 hypothesis test
    "defect": 1e-10,              # symmetry defect of the companion field
    "energy_gap": 1e-6,           # relative companion energy gap
    "orthogonality": 1e-3,
    "chain_slack": 1e-9,
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
# instance registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InstanceSpec:
    """Everything needed to rebuild one energy instance deterministically."""

    name: str
    base: str
    target: str
    potential: tuple            # (kind, value)
    aniso: str
    weight: tuple               # (kind, value)
    base_kw: dict = dc_field(default_factory=dict)
    target_kw: dict = dc_field(default_factory=dict)
    boundary: str = "free"      # "free" | "dirichlet:x,y,z" (top ring)
    solver: dict = dc_field(default_factory=dict)

    def describe(self, n_phi, n_t, seed):
        return {
            "name": self.name,
            "base": self.base, "base_kw": self.base_kw,
            "target": self.target, "target_kw": self.target_kw,
            "potential": list(self.potential), "aniso": self.aniso,
            "weight": list(self.weight), "boundary": self.boundary,
            "grid": [int(n_phi), int(n_t)], "seed": int(seed),
        }


def build_potential(kind, value):
    if kind == "quartic":
        return quartic_potential(value)
    if kind == "quadratic":
        return quadratic_potential(value)
    if kind == "easy_normal":
        return easy_normal_potential(value)
    raise ValueError(f"unknown potential kind {kind!r}")


def build_instance(spec, n_phi, n_t):
    """(mesh, target, params) for an InstanceSpec at the given grid."""
    mesh = build_mesh(surface(spec.base, **spec.base_kw), n_phi, n_t)
    target = surface(spec.target, role="target", **spec.target_kw)
    pot = build_potential(*spec.potential)
    if spec.aniso == "surface_normal":
        an = aniso_surface_normal(mesh)
    elif spec.aniso == "constant_e3":
        an = aniso_constant_e3(mesh)
    elif spec.aniso == "antisymmetric_profile":
        prof = np.broadcast_to([0.6, 0.0, 0.8], (mesh.n_t, 3)).copy()
        an = aniso_profile(mesh, prof, "antisymmetric")
    elif spec.aniso == "symmetric_profile":
        prof = np.broadcast_to([0.6, 0.0, 0.8], (mesh.n_t, 3)).copy()
        an = aniso_profile(mesh, prof, "symmetric")
    else:
        raise ValueError(f"unknown anisotropy kind {spec.aniso!r}")
    wkind, wval = spec.weight
    if wkind == "zero":
        w = weight_zero(mesh)
    elif wkind == "constant":
        w = weight_constant(mesh, wval)
    elif wkind == "margin":
        w = weight_margin_profile(mesh, wval)
    else:
        raise ValueError(f"unknown weight kind {wkind!r}")
    bc = None
    if spec.boundary.startswith("dirichlet:"):
        vec = [float(v) for v in spec.boundary.split(":", 1)[1].split(",")]
        bc = BoundaryCondition("dirichlet", None,
                               dirichlet_rows_from_vector(mesh, vec), "symmetric")
    params = make_params(mesh, target, pot, an, w, bc)
    return mesh, target, params


DEFAULT_INSTANCES = (
    InstanceSpec("sphere_quartic_margin", "sphere", "sphere",
                 ("quartic", 5.0), "surface_normal", ("margin", 1.5)),
    InstanceSpec("sphere_quartic_margin_weak", "sphere", "sphere",
                 ("quartic", 5.0), "surface_normal", ("margin", 1.1)),
    InstanceSpec("sphere_quadratic_margin", "sphere", "sphere",
                 ("quadratic", 1.0), "surface_normal", ("margin", 1.5)),
    InstanceSpec("sphere_easy_normal_free", "sphere", "sphere",
                 ("quartic", 20.0), "surface_normal", ("zero", 0.0)),
    InstanceSpec("cylinder2_quadratic_const1", "cylinder", "sphere",
                 ("quadratic", 1.0), "constant_e3", ("constant", 1.0),
                 base_kw={"radius": 2.0}),
    InstanceSpec("cylinder2_quartic_const1", "cylinder", "sphere",
                 ("quartic", 3.0), "constant_e3", ("constant", 1.0),
                 base_kw={"radius": 2.0}),
    InstanceSpec("cylinder2_inplane_free", "cylinder", "sphere",
                 ("quadratic", 1.0), "constant_e3", ("zero", 0.0),
                 base_kw={"radius": 2.0}),
    InstanceSpec("cylinder1_borderline", "cylinder", "sphere",
                 ("quadratic", 1.0), "constant_e3", ("constant", 1.0),
                 base_kw={"radius": 1.0}),
    InstanceSpec("annulus_quartic_const", "annulus", "sphere",
                 ("quartic", 2.0), "constant_e3", ("constant", 1.3)),
    InstanceSpec("torus_band_self_margin", "torus_band", "torus_band",
                 ("quadratic", 0.5), "surface_normal", ("margin", 1.2)),
    InstanceSpec("ellipsoid_band_sphere", "ellipsoid_band", "sphere",
                 ("easy_normal", 3.0), "surface_normal", ("constant", 3.0)),
    InstanceSpec("disk_target_flat", "cylinder", "disk",
                 ("quadratic", 1.0), "constant_e3", ("constant", 1.0),
                 base_kw={"radius": 2.0}),
    InstanceSpec("disk_base_inplane_free", "disk", "sphere",
                 ("quadratic", 2.0), "constant_e3", ("zero", 0.0)),
    InstanceSpec("cylinder2_antisym_profile", "cylinder", "sphere",
                 ("quadratic", 1.0), "antisymmetric_profile", ("constant", 1.0),
                 base_kw={"radius": 2.0}),
    InstanceSpec("cylinder2_dirichlet_top", "cylinder", "sphere",
                 ("quadratic", 1.0), "constant_e3", ("constant", 1.0),
                 base_kw={"radius": 2.0}, boundary="dirichlet:0,0,1"),
)

# every name a suite's "instances" filter can select
SUITE_NAMES = tuple(s.name for s in DEFAULT_INSTANCES) + ("annulus_pde",)

CHAIN_INSTANCES = ("sphere_quartic_margin", "cylinder2_quadratic_const1",
                   "annulus_quartic_const")

PW_INSTANCES = ("sphere_quartic_margin", "cylinder2_quadratic_const1")


# ---------------------------------------------------------------------------
# certificate builders
# ---------------------------------------------------------------------------

def _margin_state(margin, weight):
    if float(np.max(weight.W2)) == 0.0:
        return "zero"
    if margin.strict:
        return "strict"
    if margin.borderline:
        return "borderline"
    return "below"


def verify_main0(instance_desc, report, params, tols=DEFAULT_TOLERANCES):
    """First-harmonic form of the best found field under the strict margin."""
    state = _margin_state(report.margin, params.weight)
    diag = report.diagnostics
    tolerances = {k: tols[k] for k in
                  ("form_residual", "null_average", "defect", "energy_gap")}
    if state in ("zero", "below"):
        return TheoremCertificate(
            "main0_form", instance_desc, False, True, {},
            tolerances, f"inapplicable: margin {state}")
    u, chain = symmetrize_and_certify(report.best_field, params,
                                      params.aniso.variant)
    from .fields import symmetry_defect
    gap = abs(chain.energy_u.total - chain.energy_m.total) \
        / (1 + abs(chain.energy_m.total))
    residuals = {
        "form_residual": diag["residual_over_total"],
        "vertical_mode_residual": diag["dphi_vertical_over_total"],
        "companion_energy_gap": gap,
        "companion_defect": symmetry_defect(u, params.aniso.variant),
    }
    checks = [
        residuals["form_residual"] <= tols["form_residual"],
        residuals["vertical_mode_residual"] <= tols["form_residual"],
        residuals["companion_energy_gap"] <= tols["energy_gap"],
        residuals["companion_defect"] <= tols["defect"],
    ]
    note = ""
    if state == "strict":
        residuals["null_average"] = (diag["null_average_norm"]
            / max(diag["field_scale"], 1e-9))
        checks.append(residuals["null_average"] <= tols["null_average"])
    else:
        note = "borderline margin: ring-mean term retained in the form"
    return TheoremCertificate("main0_form", instance_desc, True,
                              bool(all(checks)), residuals, tolerances, note)


def verify_main1(instance_desc, report, params, target,
                 tols=DEFAULT_TOLERANCES):
    """Adds line-symmetry labels and orthogonality under never-flat targets."""
    state = _margin_state(report.margin, params.weight)
    flat = never_flat_check(target)
    tolerances = {k: tols[k] for k in ("form_residual", "orthogonality")}
    if state != "strict" or not flat.ok:
        why = "margin not strict" if state != "strict" else "target has flat bands"
        return TheoremCertificate("main1_line_symmetry", instance_desc,
                                  False, True, {}, tolerances,
                                  f"inapplicable: {why}")
    base = verify_main0(instance_desc, report, params, tols)
    diag = report.diagnostics
    residuals = dict(base.residuals)
    residuals.update({
        "orthogonality_norm": diag["orthogonality_norm_residual"],
        "orthogonality_dot": diag["orthogonality_dot_residual"],
        "neither_rows": float(diag["neither_rows"]),
    })
    ok = (base.passed
          and residuals["orthogonality_norm"] <= tols["orthogonality"]
          and residuals["orthogonality_dot"] <= tols["orthogonality"]
          and diag["neither_rows"] == 0)
    return TheoremCertificate("main1_line_symmetry", instance_desc, True,
                              bool(ok), residuals, tolerances)


def verify_main3(instance_desc, report, params, target,
                 tols=DEFAULT_TOLERANCES):
    """No-penalty functional: null-average minimizers must have the form.

    The null-average property is the gate: when the found minimizer is not
    null-average the certificate records that the hypothesis is unmet (the
    claim is conditional), without failing.
    """
    tolerances = {k: tols[k] for k in
                  ("null_average_strict", "form_residual", "orthogonality")}
    if float(np.max(params.weight.W2)) != 0.0:
        return TheoremCertificate("main3_null_average", instance_desc,
                                  False, True, {}, tolerances,
                                  "inapplicable: instance has a penalty term")
    diag = report.diagnostics
    rel_mean = diag["null_average_norm"] / max(diag["field_scale"], 1e-9)
    residuals = {"null_average": rel_mean}
    if rel_mean > tols["null_average_strict"]:
        return TheoremCertificate("main3_null_average", instance_desc,
                                  False, True, residuals, tolerances,
                                  "hypothesis unmet: found minimizer is not "
                                  "axially null-average")
    residuals["form_residual"] = diag["residual_over_total"]
    residuals["vertical_mode_residual"] = diag["dphi_vertical_over_total"]
    checks = [residuals["form_residual"] <= tols["form_residual"],
              residuals["vertical_mode_residual"] <= tols["form_residual"]]
    note = ""
    if never_flat_check(target).ok:
        residuals["orthogonality_norm"] = diag["orthogonality_norm_residual"]
        residuals["orthogonality_dot"] = diag["orthogonality_dot_residual"]
        residuals["neither_rows"] = float(diag["neither_rows"])
        checks += [residuals["orthogonality_norm"] <= tols["orthogonality"],
                   residuals["orthogonality_dot"] <= tols["orthogonality"],
                   diag["neither_rows"] == 0]
    else:
        note = "target not never-flat: orthogonality checks skipped"
    return TheoremCertificate("main3_null_average", instance_desc, True,
                              bool(all(checks)), residuals, tolerances, note)


def verify_chain(spec, n_phi, n_t, seeds, n_fields, tols=DEFAULT_TOLERANCES):
    """Symmetrization chain on a seeded random-field corpus of one instance."""
    mesh, target, params = build_instance(spec, n_phi, n_t)
    desc = spec.describe(n_phi, n_t, seeds[0] if seeds else 0)
    margin = hypothesis_margin(mesh, params.weight)
    tolerances = {"chain_slack": tols["chain_slack"]}
    if not margin.strict:
        return TheoremCertificate("chain_monotonicity", desc, False, True,
                                  {}, tolerances, "inapplicable: margin not strict")
    worst = {"slice_vs_mean": np.inf, "poincare_wirtinger": np.inf,
             "vertical_mode": np.inf, "total_gap": np.inf}
    count = 0
    for seed in seeds:
        for k in range(n_fields):
            f = random_field(mesh, target, seed=seed * 10_000 + k)
            _, rep = symmetrize_and_certify(f, params, params.aniso.variant)
            scale = 1 + abs(rep.energy_m.total)
            for key in worst:
                worst[key] = min(worst[key], rep.residuals[key] / scale)
            count += 1
    if count == 0:
        return TheoremCertificate("chain_monotonicity", desc, False, True,
                                  {"fields_checked": 0.0}, tolerances,
                                  "inapplicable: empty corpus, no field checked")
    residuals = {f"min_{k}": v for k, v in worst.items()}
    residuals["fields_checked"] = float(count)
    ok = all(v >= -tols["chain_slack"] for v in worst.values())
    return TheoremCertificate("chain_monotonicity", desc, True, bool(ok),
                              residuals, tolerances)


def verify_pw(spec, n_phi, n_t, seeds, n_fields, tols=DEFAULT_TOLERANCES):
    """Row-wise Poincare-Wirtinger inequality with equality detection.

    Both sides are Parseval sums of the horizontal components; the equality
    detector (mode mass outside k in {0, +-1}) must coincide with the rows
    where the inequality is tight.
    """
    mesh, target, params = build_instance(spec, n_phi, n_t)
    desc = spec.describe(n_phi, n_t, seeds[0] if seeds else 0)
    tolerances = {"pw_slack": tols["pw_slack"]}
    worst_violation = -np.inf
    mismatches = 0
    rows = 0
    for seed in seeds:
        for k in range(n_fields):
            f = random_field(mesh, target, seed=seed * 10_000 + 77 * k)
            n = mesh.n_phi
            coeff = np.fft.rfft(f.values[..., :2], axis=0) / n
            w = np.full(n // 2 + 1, 2.0)
            w[0] = 1.0
            w[-1] = 1.0
            k2 = np.arange(n // 2 + 1, dtype=float) ** 2
            lhs = 2 * np.pi * np.sum(w[1:, None, None] * np.abs(coeff[1:]) ** 2,
                                     axis=(0, 2))
            rhs = 2 * np.pi * np.sum((w * k2)[:, None, None] * np.abs(coeff) ** 2,
                                     axis=(0, 2))
            scale = 1 + rhs
            worst_violation = max(worst_violation,
                                  float(np.max((lhs - rhs) / scale)))
            tight = (rhs - lhs) <= 1e-9 * scale
            high_mass = np.sum(w[2:, None, None] * np.abs(coeff[2:]) ** 2,
                               axis=(0, 2))
            pure = high_mass <= 1e-9 * (1 + np.sum(np.abs(coeff) ** 2, axis=(0, 2)))
            mismatches += int(np.sum(tight != pure))
            rows += lhs.size
    if rows == 0:
        return TheoremCertificate("pw_inequality", desc, False, True,
                                  {"rows_checked": 0.0}, tolerances,
                                  "inapplicable: empty corpus, no row checked")
    residuals = {"max_violation": worst_violation,
                 "equality_detector_mismatches": float(mismatches),
                 "rows_checked": float(rows)}
    ok = worst_violation <= tols["pw_slack"] and mismatches == 0
    return TheoremCertificate("pw_inequality", desc, True, bool(ok),
                              residuals, tolerances)


def verify_annulus(kappas, n_t, n_phi, seed, tols=DEFAULT_TOLERANCES):
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
    tolerances = {"annulus_mean": tols["annulus_mean"]}
    if not kappas:
        return TheoremCertificate("annulus_null_average", desc, False, True,
                                  {}, tolerances,
                                  "inapplicable: no kappa, nothing solved")
    return TheoremCertificate("annulus_null_average", desc, True,
                              bool(worst <= tols["annulus_mean"]),
                              {"max_mean_perp": worst}, tolerances)


# ---------------------------------------------------------------------------
# suite driver
# ---------------------------------------------------------------------------

DEFAULT_SUITE_CONFIG = {
    "grid": {"n_phi": 32, "n_t": 24},
    # grad_tol well below 1e-6 keeps solver noise out of the 1e-6
    # qualifying-row threshold of the orthogonality checks
    "solver": {"restarts": 2, "max_iters": 4000, "grad_tol": 1e-9},
    "seeds": [0],
    "chain_fields": 12,
    "pw_fields": 6,
    "annulus": {"kappas": [0.0, 0.5, 1.0, 5.0], "n_t": 48, "n_phi": 32},
    "instances": None,        # optional name filter
    "plant_failure": False,   # synthetic failing certificate (harness test)
}


def run_suite(config=None, out_dir=None, tols=DEFAULT_TOLERANCES):
    """Run the registered instance matrix and emit certificates.

    Returns (certificates, summary); summary["all_pass"] needs at least
    one certificate and no failed applicable one.  With out_dir set, writes
    one JSON file per instance (its certificate list) plus summary.json.
    The run is deterministic under fixed seeds: certificates carry no
    timestamps and reruns are byte-identical.
    """
    cfg = dict(DEFAULT_SUITE_CONFIG)
    cfg.update(config or {})
    n_phi = cfg["grid"]["n_phi"]
    n_t = cfg["grid"]["n_t"]
    names = cfg["instances"]
    selected = [s for s in DEFAULT_INSTANCES if names is None or s.name in names]

    per_instance = {}
    certs = []

    def emit(key, cert):
        per_instance.setdefault(key, []).append(cert)
        certs.append(cert)

    for spec in selected:
        for seed in cfg["seeds"]:
            mesh, target, params = build_instance(spec, n_phi, n_t)
            solver_kw = dict(cfg["solver"])
            solver_kw.update(spec.solver)
            report = minimize_2d(mesh, target, params,
                                 SolveConfig(seed=seed, **solver_kw))
            desc = spec.describe(n_phi, n_t, seed)
            key = f"{spec.name}_s{seed}"
            emit(key, verify_main0(desc, report, params, tols))
            emit(key, verify_main1(desc, report, params, target, tols))
            emit(key, verify_main3(desc, report, params, target, tols))

    by_name = {s.name: s for s in DEFAULT_INSTANCES}
    chain_names = [n for n in CHAIN_INSTANCES if names is None or n in names]
    for name in chain_names:
        cert = verify_chain(by_name[name], n_phi, n_t, cfg["seeds"],
                            cfg["chain_fields"], tols)
        emit(f"chain_{name}", cert)
    pw_names = [n for n in PW_INSTANCES if names is None or n in names]
    for name in pw_names:
        cert = verify_pw(by_name[name], n_phi, n_t, cfg["seeds"],
                         cfg["pw_fields"], tols)
        emit(f"pw_{name}", cert)
    if names is None or "annulus_pde" in (names or []):
        ann = cfg["annulus"]
        emit("annulus_pde", verify_annulus(ann["kappas"], ann["n_t"],
                                           ann["n_phi"], cfg["seeds"][0], tols))

    if cfg.get("plant_failure"):
        emit("planted_failure", TheoremCertificate(
            "chain_monotonicity", {"name": "planted_failure"}, True, False,
            {"planted": -1.0}, {"chain_slack": tols["chain_slack"]},
            "synthetic failing certificate for harness tests"))

    applicable = [c for c in certs if c.applicable]
    summary = {
        "schema": CERT_SCHEMA,
        "config": _jsonable(cfg),
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
            payload = {"schema": CERT_SCHEMA, "instance_key": key,
                       "certificates": [c.to_dict() for c in group]}
            (out / f"cert_{key}.json").write_text(ioutil.dumps(payload, indent=2),
                                                  encoding="utf-8")
        (out / "summary.json").write_text(ioutil.dumps(summary, indent=2),
                                          encoding="utf-8")
    return certs, summary


def _theorem_counts(certs):
    counts = {}
    for c in certs:
        d = counts.setdefault(c.theorem, {"applicable": 0, "passed": 0,
                                          "inapplicable": 0})
        if c.applicable:
            d["applicable"] += 1
            d["passed"] += int(c.passed)
        else:
            d["inapplicable"] += 1
    return counts


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj
