"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.  The
expensive 64x64 solves are shared between the form and orthogonality
criteria via module-scoped fixtures.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from axisym.energy import (
    chain_terms,
    dirichlet_energy,
    total_energy,
)
from axisym.fields import DiscreteField, random_field
from axisym.geometry import build_mesh, surface, surface_normal
from axisym.solvers import (
    SolveConfig,
    annulus_boundary_from_vector,
    minimize_1d_profile,
    minimize_2d,
    profile_energy,
    solve_annulus_example,
    symmetrize_and_certify,
)
from conftest import make_instance

EIGHT_PI = 8 * np.pi

STRICT_INSTANCES = {
    "sphere": dict(potential=("quartic", 5.0), aniso="surface_normal",
                   weight=("margin", 1.5)),
    "cylinder": dict(base="cylinder", base_kw={"radius": 2.0}, target="sphere",
                     potential=("quadratic", 1.0), aniso="constant_e3",
                     weight=("constant", 1.0)),
    "annulus": dict(base="annulus", target="sphere",
                    potential=("quartic", 2.0), aniso="constant_e3",
                    weight=("constant", 1.3)),
}


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def form_solves():
    """Criterion 3/4 solves: strict-margin sphere and cylinder at 64x64
    with 8 restarts."""
    out = {}
    cfg = SolveConfig(restarts=8, seed=0, max_iters=3000, grad_tol=1e-9)
    for name in ("sphere", "cylinder"):
        mesh, tgt, params = make_instance(n_phi=64, n_t=64,
                                          **STRICT_INSTANCES[name])
        out[name] = (mesh, tgt, params, minimize_2d(mesh, tgt, params, cfg))
    return out


def corpus_fields(n_total=100):
    """100 seeded random fields spread over three strict-margin instances."""
    sizes = (34, 33, 33)
    for (name, kw), count in zip(STRICT_INSTANCES.items(), sizes):
        mesh, tgt, params = make_instance(**kw)
        for k in range(count):
            yield name, params, random_field(mesh, tgt, seed=1000 + k)


def test_criterion_1_dirichlet_oracle():
    # oracle: |grad n|^2 = 2 on the unit sphere => energy 8 pi
    tgt = surface("sphere", role="target")
    errs = {}
    for n in (32, 64, 128):
        mesh = build_mesh(surface("sphere"), n, n)
        d = dirichlet_energy(DiscreteField(mesh, tgt, surface_normal(mesh)))
        errs[n] = abs(d - EIGHT_PI)
    rel = errs[128] / EIGHT_PI
    slope = -np.polyfit(np.log([32, 64, 128]),
                        np.log([errs[32], errs[64], errs[128]]), 1)[0]
    ok = rel < 0.01 and 1.8 <= slope <= 2.5
    report(1, ok, f"dirichlet(normal)@128 rel err {rel:.2e} (<1%), "
                  f"order {slope:.2f} in [1.8, 2.5]")


def test_criterion_2_symmetrization_monotonicity():
    worst = np.inf
    count = 0
    for name, params, f in corpus_fields():
        variant = params.aniso.variant
        _, rep = symmetrize_and_certify(f, params, variant)
        slack = 1e-9 * (1 + abs(rep.energy_m.total))
        vals = [rep.residuals[k] for k in
                ("slice_vs_mean", "poincare_wirtinger", "vertical_mode",
                 "total_gap")]
        worst = min(worst, min(vals) / slack)
        count += 1
    ok = worst >= -1.0 and count == 100
    report(2, ok, f"{count} fields on 3 strict-margin instances; worst "
                  f"residual/slack = {worst:.3f} (>= -1)")


def test_criterion_3_minimizer_form(form_solves):
    details = []
    ok = True
    for name, (mesh, tgt, params, rep) in form_solves.items():
        d = rep.diagnostics
        null_rel = d["null_average_norm"] / max(d["field_scale"], 1e-9)
        ok &= d["residual_over_total"] <= 1e-4
        ok &= null_rel <= 1e-4
        ok &= d["dphi_vertical_over_total"] <= 1e-4
        details.append(f"{name}: resid/total={d['residual_over_total']:.1e}, "
                       f"|<m_perp>|={null_rel:.1e}, "
                       f"dphi_vert/total={d['dphi_vertical_over_total']:.1e}")
    report(3, ok, "; ".join(details) + " (all <= 1e-4)")


def test_criterion_4_orthogonality(form_solves):
    details = []
    ok = True
    for name, (mesh, tgt, params, rep) in form_solves.items():
        d = rep.diagnostics
        ok &= d["orthogonality_norm_residual"] <= 1e-3
        ok &= d["orthogonality_dot_residual"] <= 1e-3
        ok &= d["neither_rows"] == 0
        details.append(f"{name}: | |a|-|b| |={d['orthogonality_norm_residual']:.1e}, "
                       f"|a.b|={d['orthogonality_dot_residual']:.1e}, "
                       f"neither={d['neither_rows']}")
    report(4, ok, "; ".join(details) + " (<= 1e-3, no 'neither' rows)")


def test_criterion_5_profile_reduction():
    details = []
    ok = True
    for name in ("sphere", "cylinder"):
        mesh, tgt, params = make_instance(n_phi=48, n_t=32,
                                          **STRICT_INSTANCES[name])
        cfg = SolveConfig(restarts=4, seed=0, max_iters=4000, grad_tol=1e-9)
        rep1 = minimize_1d_profile(mesh, tgt, params, "symmetric", cfg)
        rep2 = minimize_2d(mesh, tgt, params, cfg)
        gap = abs(rep1.best_energy.total - rep2.best_energy.total) \
            / max(abs(rep2.best_energy.total), 1e-30)
        exact = abs(profile_energy(mesh, tgt, params, rep1.best_profile).total
                    - rep1.best_energy.total)
        ok &= gap <= 0.02 and exact <= 1e-10
        details.append(f"{name}: gap={gap:.2e} (<=2%), "
                       f"reduced-vs-swept={exact:.1e} (<=1e-10)")
    report(5, ok, "; ".join(details))


def test_criterion_6_easy_normal_ground_state():
    mesh, tgt, params = make_instance(n_phi=48, n_t=48,
                                      potential=("easy_normal", 20.0),
                                      aniso="surface_normal",
                                      weight=("zero", 0))
    cfg = SolveConfig(restarts=8, seed=0, max_iters=25_000, grad_tol=1e-6)
    rep = minimize_2d(mesh, tgt, params, cfg, keep_fields=True)
    nu = surface_normal(mesh)
    rels, dists = [], []
    for e, f in zip(rep.restart_energies[:8], rep.restart_fields[:8]):
        rels.append(abs(e - EIGHT_PI) / EIGHT_PI)
        dists.append(min(
            float(np.sqrt(np.sum(mesh.quad_weights
                                 * np.sum((f.values - s * nu) ** 2, -1))))
            for s in (1.0, -1.0)))
    ok = max(rels) < 0.01 and max(dists) <= 0.05
    report(6, ok, f"8 restarts: max rel energy err {max(rels):.4%} (<1%), "
                  f"max L2 dist to ±n {max(dists):.4f} (<=0.05)")


def test_criterion_7_annulus_null_average():
    rng = np.random.default_rng(11)
    worst = 0.0
    for kappa in (0.0, 0.5, 1.0, 5.0):
        b1 = annulus_boundary_from_vector(48, rng.normal(size=3))
        b2 = annulus_boundary_from_vector(48, rng.normal(size=3))
        rep = solve_annulus_example(48, 48, kappa, b1, b2)
        worst = max(worst, rep.max_mean_perp)
    ok = worst <= 1e-8
    report(7, ok, f"kappa in {{0, 0.5, 1, 5}}: max ring mean {worst:.2e} (<=1e-8)")


def test_criterion_8_poincare_wirtinger():
    worst = -np.inf
    mismatches = 0
    rows = 0
    for name, params, f in corpus_fields():
        n = f.mesh.n_phi
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
        worst = max(worst, float(np.max((lhs - rhs) / scale)))
        tight = (rhs - lhs) <= 1e-9 * scale
        high = np.sum(w[2:, None, None] * np.abs(coeff[2:]) ** 2, axis=(0, 2))
        pure = high <= 1e-9 * (1 + np.sum(np.abs(coeff) ** 2, axis=(0, 2)))
        mismatches += int(np.sum(tight != pure))
        rows += lhs.size
    ok = worst <= 1e-9 and mismatches == 0
    report(8, ok, f"{rows} rows: max violation {worst:.2e} (<=1e-9), "
                  f"equality-detector mismatches {mismatches}")


def test_criterion_9_gradient_correctness():
    from axisym.energy import euclidean_gradient
    kinds = []
    for pot in (("quadratic", 1.0), ("easy_normal", 2.0), ("quartic", 3.0)):
        for an in ("surface_normal", "constant_e3", "symmetric_profile",
                   "antisymmetric_profile"):
            for wt in (("zero", 0.0), ("constant", 1.0), ("margin", 1.4)):
                kinds.append((pot, an, wt))
    worst = 0.0
    h = 1e-6
    for pot, an, wt in kinds:
        mesh, tgt, params = make_instance(base="cylinder",
                                          base_kw={"radius": 2.0},
                                          target="sphere", n_phi=16, n_t=12,
                                          potential=pot, aniso=an, weight=wt)
        f = random_field(mesh, tgt, seed=99)
        grad = euclidean_gradient(f, params)
        scale = max(1.0, float(np.max(np.abs(grad))))
        rng = np.random.default_rng(7)
        for flat in rng.integers(0, f.values.size, size=50):
            i, j, c = np.unravel_index(flat, f.values.shape)
            vp = f.values.copy()
            vp[i, j, c] += h
            vm = f.values.copy()
            vm[i, j, c] -= h
            fd = (total_energy(DiscreteField(mesh, tgt, vp), params).total
                  - total_energy(DiscreteField(mesh, tgt, vm), params).total) \
                / (2 * h)
            worst = max(worst, abs(fd - grad[i, j, c]) / scale)
    ok = worst <= 1e-5
    report(9, ok, f"{len(kinds)} instance kinds x 50 coords: worst relative "
                  f"gradient error {worst:.2e} (<=1e-5)")


def test_criterion_10_determinism(tmp_path):
    cfg = {
        "schema": "axisym-run/1",
        "base_surface": {"preset": "cylinder", "params": {"radius": 2.0}},
        "target_surface": {"preset": "sphere"},
        "grid": {"n_phi": 16, "n_t": 12},
        "potential": {"kind": "quadratic", "kappa": 1.0},
        "aniso_field": {"kind": "constant_e3"},
        "weight": {"kind": "constant", "lam": 1.0},
        "solver": {"restarts": 3, "max_iters": 1200, "grad_tol": 1e-8,
                   "seed": 2},
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    artifacts = ("field.csv", "mode.csv", "breakdown.json", "report.json")
    digests = []
    for run, threads in (("a", "1"), ("b", "1"), ("c", "4")):
        out = tmp_path / run
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "axisym.cli", "minimize", "--config",
             str(cfg_path), "--out", str(out)],
            env=env, capture_output=True, text=True)
        assert proc.returncode in (0, 2), proc.stderr
        digests.append(tuple((out / a).read_bytes() for a in artifacts))
    ok = digests[0] == digests[1] == digests[2]
    report(10, ok, "byte-identical CSV/JSON artifacts across two runs and "
                   "BLAS/OpenMP thread counts {1, 4}")
