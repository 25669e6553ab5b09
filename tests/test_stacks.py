"""Stacks of fields, values (..., n_phi, n_t, 3), against one field at a time.

The energy and field kernels give each field of a stack the bits it gets
alone, and the chain and Poincare-Wirtinger certificates, which run their
corpora in stacks, give the residuals of a per-field loop.
"""

import numpy as np
import pytest

from axisym import verify
from axisym.energy import chain_terms, euclidean_gradient, total_energy
from axisym.fields import mode_decompose, random_field
from axisym.geometry import VARIANTS, project_points, spline_curve
from axisym.runconfig import build_run
from axisym.solvers import symmetrize_and_certify
from axisym.verify import instance, verify_chain, verify_pw

SEEDS = [3, 10_000, 7_777_777, 12, 5]


def same(a, b):
    """Bit for bit: the same shape and the same bytes."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _ellipse_target():
    t = np.linspace(0.0, np.pi, 41)
    return spline_curve(t, np.sin(t), 1.5 * np.cos(t))


# a closed-form projection (sphere), the bisection of a spline target, a
# closed base curve (the torus band: t_diff's seam) and Dirichlet rows
CASES = {
    "sphere": ("sphere_quartic_margin", None),
    "spline": ("cylinder2_quadratic_const1", _ellipse_target),
    "torus": ("torus_band_self_margin", None),
    "dirichlet": ("cylinder2_dirichlet_top", None),
}


@pytest.fixture(scope="module", params=list(CASES))
def case(request):
    name, target = CASES[request.param]
    mesh, tgt, params, _ = build_run(instance(name, 16, 12)["config"])
    return mesh, (target() if target else tgt), params


def _drawn_row_by_row(mesh, target, seed):
    """A random field as drawn one envelope row at a time: 21 draws of 4
    normals, each a vector-matrix product with the t powers."""
    rng = np.random.default_rng(seed)
    tt = (mesh.t - mesh.t[0]) / (mesh.t[-1] - mesh.t[0] + 1e-300)
    tpows = np.stack([tt ** p for p in range(4)])
    vals = np.zeros(mesh.shape + (3,))
    for k in range(4):
        ck = np.cos(k * mesh.phi)[:, None]
        sk = np.sin(k * mesh.phi)[:, None]
        for c in range(3):
            a = rng.normal(size=4) @ tpows
            b = rng.normal(size=4) @ tpows if k > 0 else 0.0
            vals[..., c] += ck * a[None, :] + (sk * b[None, :] if k > 0 else 0.0)
    vals[..., 0] += 0.1
    return project_points(target, vals)[0]


def test_random_field_stack_is_each_seed(case):
    mesh, target, _ = case
    stack = random_field(mesh, target, SEEDS)
    assert stack.values.shape == (len(SEEDS),) + mesh.shape + (3,)
    for seed, values in zip(SEEDS, stack.values):
        one = random_field(mesh, target, seed).values
        assert same(values, one)
        assert same(one, _drawn_row_by_row(mesh, target, seed))


def test_energy_and_modes_of_a_stack_are_each_field(case):
    mesh, target, params = case
    stack = random_field(mesh, target, SEEDS)
    bd, ct = total_energy(stack, params), chain_terms(stack, params)
    dec, grad = mode_decompose(stack), euclidean_gradient(stack, params)
    for r, seed in enumerate(SEEDS):
        f = random_field(mesh, target, seed)
        one, ct1, dec1 = total_energy(f, params), chain_terms(f, params), \
            mode_decompose(f)
        for key, value in one.to_dict().items():
            assert type(value) is float and same(bd.to_dict()[key][r], value)
        for key in ("eq1", "eq2", "phi_star"):
            assert type(getattr(ct1, key)) is float
            assert same(getattr(ct, key)[r], getattr(ct1, key))
        assert same(ct.slice_energies[r], ct1.slice_energies)
        assert same(ct.energy_m.total[r], ct1.energy_m.total)
        assert type(dec1.residual_energy) is float
        for key in ("mean_perp", "alpha_perp", "beta_perp", "eta",
                    "residual_energy", "coeff", "mass"):
            assert same(getattr(dec, key)[r], getattr(dec1, key))
        assert same(grad[r], euclidean_gradient(f, params))


@pytest.mark.parametrize("variant", VARIANTS)
def test_symmetrize_and_certify_of_a_stack_is_each_field(case, variant):
    mesh, target, params = case
    u, rep = symmetrize_and_certify(random_field(mesh, target, SEEDS),
                                    params, variant)
    # the corpus covers more than one slice angle
    assert len(set(rep.phi_star.tolist())) > 1
    for r, seed in enumerate(SEEDS):
        u1, rep1 = symmetrize_and_certify(random_field(mesh, target, seed),
                                          params, variant)
        assert same(u.values[r], u1.values)
        assert type(rep1.certified) is bool
        assert rep.certified[r] == rep1.certified
        for key in ("phi_star", "eq1", "eq2"):
            assert same(getattr(rep, key)[r], getattr(rep1, key))
        for key, value in rep1.residuals.items():
            assert same(rep.residuals[key][r], value)
        for bd, bd1 in ((rep.energy_m, rep1.energy_m),
                        (rep.energy_u, rep1.energy_u)):
            for key, value in bd1.to_dict().items():
                assert same(bd.to_dict()[key][r], value)


def _chain_oracle(desc, seeds, n_fields):
    """verify_chain's residuals from one field at a time."""
    mesh, target, params, _ = build_run(desc["config"])
    worst = dict.fromkeys(("slice_vs_mean", "poincare_wirtinger",
                           "vertical_mode", "total_gap"), np.inf)
    count = 0
    for seed in seeds:
        for k in range(n_fields):
            f = random_field(mesh, target, seed * 10_000 + k)
            _, rep = symmetrize_and_certify(f, params, params.aniso.variant)
            scale = 1 + abs(rep.energy_m.total)
            for key in worst:
                worst[key] = min(worst[key], rep.residuals[key] / scale)
            count += 1
    return dict({f"min_{k}": v for k, v in worst.items()},
                fields_checked=float(count))


def _pw_oracle(desc, seeds, n_fields):
    """verify_pw's residuals from one field at a time."""
    mesh, target, _, _ = build_run(desc["config"])
    k2 = np.arange(mesh.n_phi // 2 + 1, dtype=float)[:, None, None] ** 2
    worst, mismatches, rows = -np.inf, 0, 0
    for seed in seeds:
        for k in range(n_fields):
            dec = mode_decompose(
                random_field(mesh, target, seed * 10_000 + 77 * k))
            mass = dec.mass[..., :2]
            lhs = 2 * np.pi * np.sum(mass[1:], axis=(0, 2))
            rhs = 2 * np.pi * np.sum(k2 * mass, axis=(0, 2))
            scale = 1 + rhs
            worst = max(worst, float(np.max((lhs - rhs) / scale)))
            tight = (rhs - lhs) <= 1e-9 * scale
            pure = np.sum(mass[2:], axis=(0, 2)) <= 1e-9 * (
                1 + np.sum(np.abs(dec.coeff[..., :2]) ** 2, axis=(0, 2)))
            mismatches += int(np.sum(tight != pure))
            rows += lhs.size
    return {"max_violation": worst,
            "equality_detector_mismatches": float(mismatches),
            "rows_checked": float(rows)}


# 16 x 12 fields have 576 doubles: the module's bound stacks 14 of them, so
# 2 x 15 fields make stacks of 14, 14 and 2; 2304 doubles stack 4 (the
# corpus ends with a stack of 2), and a bound below one field stacks 1
@pytest.mark.parametrize("stack_doubles", [verify.STACK_DOUBLES, 2304, 1])
@pytest.mark.parametrize("name", ["sphere_quartic_margin",
                                  "cylinder2_quadratic_const1"])
def test_corpus_certificates_match_a_per_field_loop(monkeypatch, name,
                                                    stack_doubles):
    monkeypatch.setattr(verify, "STACK_DOUBLES", stack_doubles)
    sizes = []

    def recorded(mesh, target, seed):
        field = random_field(mesh, target, seed)
        sizes.append(len(seed))
        assert field.values.size <= max(stack_doubles, 3 * 16 * 12)
        return field

    monkeypatch.setattr(verify, "random_field", recorded)
    desc = instance(name, 16, 12)
    seeds, n_fields = [0, 1], 15
    chain = verify_chain(desc, seeds, n_fields)
    pw = verify_pw(desc, seeds, n_fields)
    assert chain.applicable and chain.passed and pw.applicable and pw.passed
    assert chain.residuals == _chain_oracle(desc, seeds, n_fields)
    assert pw.residuals == _pw_oracle(desc, seeds, n_fields)
    per_stack = max(1, stack_doubles // (3 * 16 * 12))
    expected = [min(per_stack, 30 - i) for i in range(0, 30, per_stack)]
    assert sizes == expected * 2

