import os
import subprocess
import sys
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from axisym.energy import (
    NonDifferentiableError,
    ProfileFunctional,
    SobolevPreconditioner,
    aniso_constant_e3,
    aniso_surface_normal,
    anisotropy_energy,
    chain_terms,
    dirichlet_energy,
    easy_normal_potential,
    euclidean_gradient,
    hypothesis_margin,
    lphi,
    make_params,
    penalty_energy,
    penalty_energy_raw,
    phi_symbol,
    quadratic_potential,
    quartic_potential,
    riemannian_gradient,
    table_potential,
    total_energy,
    weight_constant,
    weight_margin_profile,
    weight_zero,
)
from axisym.fields import (
    DiscreteField,
    ProfileField,
    build_from_profile,
    random_field,
    symmetrize,
)
from axisym.geometry import (
    GeometryError,
    build_mesh,
    project_points,
    rotate,
    rotate_inverse,
    spline_curve,
    surface,
    surface_normal,
    sweep,
)
from axisym.runconfig import build_run
from axisym.verify import instance
from conftest import make_instance


def normal_field(mesh, target):
    return DiscreteField(mesh, target, surface_normal(mesh))


def constant_field(mesh, target, vec):
    vals = np.broadcast_to(np.asarray(vec, dtype=float), mesh.shape + (3,)).copy()
    return DiscreteField(mesh, target, vals)


# ---------------------------------------------------------------------------
# Dirichlet term
# ---------------------------------------------------------------------------

def test_dirichlet_sphere_normal_8pi():
    # |grad n|^2 = 2 on the unit sphere (sum of squared principal
    # curvatures), so the energy is 2 * 4 pi = 8 pi
    mesh = build_mesh(surface("sphere"), 96, 96)
    tgt = surface("sphere")
    d = dirichlet_energy(normal_field(mesh, tgt))
    assert abs(d - 8 * np.pi) / (8 * np.pi) < 0.01


def test_dirichlet_sphere_normal_convergence_order():
    errs = []
    tgt = surface("sphere")
    for n in (32, 64, 128):
        mesh = build_mesh(surface("sphere"), n, n)
        errs.append(abs(dirichlet_energy(normal_field(mesh, tgt)) - 8 * np.pi))
    slope = np.polyfit(np.log([32, 64, 128]), np.log(errs), 1)[0]
    assert 1.8 <= -slope <= 2.5


def test_dirichlet_constant_field_zero():
    mesh = build_mesh(surface("sphere"), 32, 32)
    tgt = surface("sphere")
    assert dirichlet_energy(constant_field(mesh, tgt, [0, 0, 1.0])) < 1e-14


def test_dirichlet_rotating_field_on_cylinder():
    # m = (cos phi, sin phi, 0): |d_phi m|^2 = 1, h1 = h2 = sqrt(g) = 1,
    # energy = 2 pi * height; a pure first harmonic is exact for the
    # spectral phi-term
    mesh = build_mesh(surface("cylinder"), 32, 16)
    tgt = surface("sphere")
    vals = np.zeros(mesh.shape + (3,))
    vals[..., 0] = np.cos(mesh.phi)[:, None]
    vals[..., 1] = np.sin(mesh.phi)[:, None]
    d = dirichlet_energy(DiscreteField(mesh, tgt, vals))
    assert abs(d - 2 * np.pi) < 1e-10


# ---------------------------------------------------------------------------
# anisotropy term
# ---------------------------------------------------------------------------

def test_anisotropy_normal_with_quartic_zero():
    mesh, tgt, params = make_instance(potential=("quartic", 3.0),
                                      aniso="surface_normal", weight=("zero", 0))
    for sign in (1.0, -1.0):
        f = DiscreteField(mesh, tgt, sign * surface_normal(mesh))
        assert anisotropy_energy(f, params) < 1e-14


def test_anisotropy_constant_field_area():
    mesh, tgt, params = make_instance(potential=("quadratic", 1.0),
                                      aniso="constant_e3", weight=("zero", 0),
                                      n_phi=64, n_t=64)
    f = constant_field(mesh, tgt, [0, 0, 1.0])
    a = anisotropy_energy(f, params)
    assert abs(a - 4 * np.pi) / (4 * np.pi) < 1e-3


def test_anisotropy_normal_quadratic_kappa_area():
    kappa = 2.5
    mesh, tgt, params = make_instance(potential=("quadratic", kappa),
                                      aniso="surface_normal", weight=("zero", 0),
                                      n_phi=64, n_t=64)
    f = normal_field(mesh, tgt)
    assert abs(anisotropy_energy(f, params) - kappa * 4 * np.pi) / (4 * np.pi * kappa) < 1e-3


# ---------------------------------------------------------------------------
# penalty term
# ---------------------------------------------------------------------------

def test_penalty_line_symmetric_zero():
    mesh, tgt, params = make_instance(weight=("margin", 1.5))
    prof = np.stack([np.sin(mesh.t), np.zeros_like(mesh.t), np.cos(mesh.t)], -1)
    for variant in ("symmetric", "antisymmetric"):
        f = build_from_profile(mesh, ProfileField(mesh.t, prof, variant), tgt)
        assert penalty_energy(f, params) < 1e-18


def test_penalty_constant_e1_on_cylinder():
    lam = 0.7
    mesh = build_mesh(surface("cylinder"), 16, 16)
    tgt = surface("sphere")
    params = make_params(mesh, tgt, quadratic_potential(0.0),
                         aniso_constant_e3(mesh), weight_constant(mesh, lam))
    f = constant_field(mesh, tgt, [1.0, 0, 0])
    assert abs(penalty_energy(f, params) - 2 * np.pi * lam ** 2) < 1e-12


def test_penalty_zero_weight():
    mesh, tgt, params = make_instance(weight=("zero", 0))
    f = random_field(mesh, tgt, seed=1)
    assert penalty_energy(f, params) == 0.0


def test_penalty_reduced_equals_raw():
    mesh, tgt, params = make_instance(weight=("margin", 1.3))
    f = random_field(mesh, tgt, seed=2)
    assert abs(penalty_energy(f, params) - penalty_energy_raw(f, params)) < 1e-10


# ---------------------------------------------------------------------------
# total energy
# ---------------------------------------------------------------------------

def test_total_normal_field_is_dirichlet():
    mesh, tgt, params = make_instance(n_phi=64, n_t=64,
                                      potential=("quartic", 5.0),
                                      weight=("margin", 1.5))
    bd = total_energy(normal_field(mesh, tgt), params)
    assert abs(bd.total - bd.dirichlet) < 1e-12
    assert abs(bd.total - 8 * np.pi) / (8 * np.pi) < 0.01
    assert abs(bd.total - (bd.dirichlet + bd.anisotropy + bd.penalty)) \
        <= 1e-12 * max(1.0, abs(bd.total))


def test_total_e3_field_anisotropy_only():
    # int (e3 . n)^2 over the unit sphere = 4 pi / 3
    mesh, tgt, params = make_instance(n_phi=64, n_t=64,
                                      potential=("quadratic", 1.0),
                                      aniso="surface_normal", weight=("zero", 0))
    bd = total_energy(constant_field(mesh, tgt, [0, 0, 1.0]), params)
    assert bd.dirichlet < 1e-14 and bd.penalty == 0
    assert abs(bd.anisotropy - 4 * np.pi / 3) / (4 * np.pi / 3) < 1e-2


@lru_cache(maxsize=None)
def _equivariance_instance(name):
    if name == "sphere":
        return make_instance(weight=("margin", 1.4))
    if name == "torus_band":          # closed curve: the seam edge
        return make_instance(base="torus_band", target="torus_band",
                             n_phi=16, n_t=12, potential=("quadratic", 0.5),
                             weight=("margin", 1.2))
    if name == "antisymmetric_cylinder":
        return make_instance(base="cylinder", base_kw={"radius": 2.0},
                             n_phi=16, n_t=12, potential=("quadratic", 1.0),
                             aniso="antisymmetric_profile",
                             weight=("constant", 1.0))
    return build_run(instance("cylinder2_dirichlet_top", 16, 12)["config"])[:3]


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(["sphere", "torus_band", "antisymmetric_cylinder",
                             "dirichlet_cylinder"]),
       shift=st.integers(1, 63), seed=st.integers(0, 2 ** 16))
@example(name="sphere", shift=1, seed=5)
@example(name="sphere", shift=7, seed=5)
def test_rotation_invariance(name, shift, seed):
    # Z_n equivariance: rolling a field by `shift` phi nodes and rotating
    # its values by phi[shift] (by the anisotropy's rotation law) keeps the
    # energy and carries the gradient along, g(R roll m) = R roll g(m)
    mesh, tgt, params = _equivariance_instance(name)
    shift %= mesh.n_phi
    vals = random_field(mesh, tgt, seed=seed).values
    if params.boundary.top is not None:
        vals[:, -1] = params.boundary.top

    def move(v):
        return sweep(mesh.phi[shift], np.roll(v, shift, axis=0),
                     params.aniso.variant)

    moved = DiscreteField(mesh, tgt, move(vals))
    if params.boundary.top is not None:     # symmetric ring data stay put
        assert np.max(np.abs(moved.values[:, -1] - params.boundary.top)) < 1e-14
    e0 = total_energy(DiscreteField(mesh, tgt, vals), params).total
    e1 = total_energy(moved, params).total
    assert abs(e1 - e0) < 1e-10 * (1 + abs(e0))
    g0 = euclidean_gradient(DiscreteField(mesh, tgt, vals), params)
    g1 = euclidean_gradient(moved, params)
    assert np.max(np.abs(g1 - move(g0))) <= 1e-10 * max(1.0, np.max(np.abs(g0)))


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def fd_check(mesh, tgt, params, seed, n_coords=50, h=1e-6, rtol=1e-5):
    f = random_field(mesh, tgt, seed=seed)
    grad = euclidean_gradient(f, params)
    rng = np.random.default_rng(seed + 1000)
    idx = rng.integers(0, mesh.n_phi * mesh.n_t * 3, size=n_coords)
    scale = max(1.0, float(np.max(np.abs(grad))))
    for flat in idx:
        i, j, c = np.unravel_index(flat, mesh.shape + (3,))
        vp = f.values.copy()
        vp[i, j, c] += h
        vm = f.values.copy()
        vm[i, j, c] -= h
        ep = total_energy(DiscreteField(mesh, tgt, vp), params).total
        em = total_energy(DiscreteField(mesh, tgt, vm), params).total
        fd = (ep - em) / (2 * h)
        assert abs(fd - grad[i, j, c]) <= rtol * scale, (i, j, c)


def test_gradient_matches_finite_differences_basic():
    mesh, tgt, params = make_instance(n_phi=16, n_t=12, weight=("margin", 1.5))
    fd_check(mesh, tgt, params, seed=3)


def test_gradient_matches_fd_on_cylinder_instance(cylinder_instance):
    mesh, tgt, params = cylinder_instance
    fd_check(mesh, tgt, params, seed=4)


def test_riemannian_gradient_tangency():
    mesh, tgt, params = make_instance(n_phi=16, n_t=12)
    f = random_field(mesh, tgt, seed=6)
    g = riemannian_gradient(f, params)
    # on the unit sphere target the tangent plane is the orthogonal
    # complement of the point itself
    dots = np.sum(g * f.values, axis=-1)
    assert np.max(np.abs(dots)) < 1e-10 * (1 + np.max(np.abs(g)))


def test_riemannian_gradient_directional_fd():
    mesh, tgt, params = make_instance(n_phi=16, n_t=12, weight=("constant", 1.0),
                                      base="cylinder", base_kw={"radius": 2.0},
                                      potential=("quadratic", 1.0),
                                      aniso="constant_e3")
    f = random_field(mesh, tgt, seed=8)
    g = riemannian_gradient(f, params)
    rng = np.random.default_rng(9)
    h = 1e-6
    for _ in range(20):
        i = rng.integers(mesh.n_phi)
        j = rng.integers(mesh.n_t)
        w = rng.normal(size=3)
        from axisym.geometry import tangent_project_points
        tw = tangent_project_points(tgt, f.values[i, j], w)
        if np.linalg.norm(tw) < 1e-8:
            continue
        tw = tw / np.linalg.norm(tw)
        vp = f.values.copy()
        vp[i, j] += h * tw
        vm = f.values.copy()
        vm[i, j] -= h * tw
        fd = (total_energy(DiscreteField(mesh, tgt, vp), params).total
              - total_energy(DiscreteField(mesh, tgt, vm), params).total) / (2 * h)
        assert abs(fd - np.dot(g[i, j], tw)) <= 1e-5 * max(1.0, np.max(np.abs(g)))


def test_normal_field_is_critical_point():
    mesh, tgt, params = make_instance(n_phi=128, n_t=128,
                                      potential=("quartic", 5.0),
                                      aniso="surface_normal", weight=("zero", 0))
    for sign in (1.0, -1.0):
        f = DiscreteField(mesh, tgt, sign * surface_normal(mesh))
        g = riemannian_gradient(f, params)
        assert np.max(np.abs(g)) <= 1e-6


def test_constant_e3_on_cylinder_tangent_gradient_zero():
    mesh, tgt, params = make_instance(base="cylinder", target="sphere",
                                      potential=("quadratic", 1.0),
                                      aniso="constant_e3", weight=("zero", 0))
    f = constant_field(mesh, tgt, [0, 0, 1.0])
    g = riemannian_gradient(f, params)
    assert np.max(np.abs(g)) < 1e-12


def test_two_row_table_potential_is_the_line():
    # no second difference, so no kink: the spline is the line through
    # both rows, with its slope as derivative
    pot = table_potential([-1.0, 1.0], [1.0, 2.0])
    s = np.linspace(-1.5, 1.5, 7)
    np.testing.assert_allclose(pot.g(s), 1.5 + 0.5 * s, rtol=1e-15)
    np.testing.assert_allclose(pot.dg(s), 0.5, rtol=1e-15)


def test_table_potential_gradient_and_kink_refusal():
    mesh, tgt, _ = make_instance(n_phi=16, n_t=12)
    s = np.linspace(-1.2, 1.2, 41)
    smooth = table_potential(s, 2.0 * (1 - s**2) ** 2 + 0.05)
    params = make_params(mesh, tgt, smooth, aniso_surface_normal(mesh),
                         weight_zero(mesh))
    fd_check(mesh, tgt, params, seed=12, n_coords=20)
    kinked = table_potential(s, np.abs(s))
    with pytest.raises(NonDifferentiableError):
        kinked.dg(s)
    params_k = make_params(mesh, tgt, kinked, aniso_surface_normal(mesh),
                           weight_zero(mesh))
    f = random_field(mesh, tgt, seed=13)
    with pytest.raises(NonDifferentiableError):
        riemannian_gradient(f, params_k)
    with pytest.raises(NonDifferentiableError):
        ProfileFunctional(mesh, params_k, "symmetric").gradient(f.values[0])


# ---------------------------------------------------------------------------
# reduced profile functional
# ---------------------------------------------------------------------------

REDUCED_INSTANCES = {
    # axis-touching sphere base, matched (symmetric) anisotropy
    "sphere": dict(weight=("margin", 1.3)),
    # anisotropy variant differs from one of the two profile variants
    "sphere_antisym_aniso": dict(aniso="antisymmetric_profile",
                                 weight=("margin", 1.3)),
    # closed generating curve: periodic seam edge
    "torus_band": dict(base="torus_band", target="torus_band",
                       potential=("quadratic", 0.5), weight=("margin", 1.2)),
    # free ends, constant weight
    "cylinder": dict(base="cylinder", base_kw={"radius": 2.0},
                     potential=("easy_normal", 2.0), aniso="constant_e3",
                     weight=("constant", 1.0)),
}


def random_profile(mesh, tgt, seed):
    raw = np.random.default_rng(seed).normal(size=(mesh.n_t, 3)) + [1.2, 0, 0]
    return project_points(tgt, raw)[0]


@pytest.mark.parametrize("variant", ["symmetric", "antisymmetric"])
@pytest.mark.parametrize("name", sorted(REDUCED_INSTANCES))
def test_profile_functional_equals_swept_2d(name, variant):
    mesh, tgt, params = make_instance(n_phi=16, n_t=12,
                                      **REDUCED_INSTANCES[name])
    reduced = ProfileFunctional(mesh, params, variant)
    sweep, pull = ((rotate, rotate_inverse) if variant == "symmetric"
                   else (rotate_inverse, rotate))
    for seed in range(3):
        gamma = random_profile(mesh, tgt, seed)
        f = DiscreteField(mesh, tgt, sweep(mesh.phi[:, None], gamma[None]))
        e2d = total_energy(f, params).total
        assert abs(reduced.value(gamma) - e2d) <= 1e-12 * abs(e2d)
        g2d = pull(mesh.phi[:, None], euclidean_gradient(f, params)).sum(axis=0)
        err = np.max(np.abs(reduced.gradient(gamma) - g2d))
        assert err <= 1e-12 * np.max(np.abs(g2d))


@pytest.mark.parametrize("variant", ["symmetric", "antisymmetric"])
@pytest.mark.parametrize("name", ["sphere_antisym_aniso", "torus_band"])
def test_profile_functional_gradient_central_differences(name, variant):
    mesh, tgt, params = make_instance(n_phi=16, n_t=12,
                                      **REDUCED_INSTANCES[name])
    reduced = ProfileFunctional(mesh, params, variant)
    gamma = random_profile(mesh, tgt, 4)
    grad = reduced.gradient(gamma)
    h = 1e-6
    worst = 0.0
    for j in range(mesh.n_t):
        for c in range(3):
            step = np.zeros_like(gamma)
            step[j, c] = h
            fd = (reduced.value(gamma + step) - reduced.value(gamma - step)) / (2 * h)
            worst = max(worst, abs(fd - grad[j, c]))
    assert worst <= 1e-6 * max(1.0, float(np.max(np.abs(grad))))


# ---------------------------------------------------------------------------
# phi-derivative symbol
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [8, 12, 32])
def test_phi_symbol_is_k_squared_and_lphi_applies_it(n):
    # the rfft modes of n nodes are k = 0..n/2 (the last the Nyquist mode),
    # and lphi is -d^2/dphi^2 on each: cos(k phi) -> k^2 cos(k phi)
    k = np.arange(n // 2 + 1)
    assert np.array_equal(phi_symbol(n), k.astype(float) ** 2)
    phi = 2 * np.pi * np.arange(n) / n
    waves = np.cos(np.outer(phi, k))[:, None, :]    # (n_phi, 1, modes)
    assert np.allclose(lphi(waves), k ** 2 * waves, rtol=0, atol=1e-10)


# ---------------------------------------------------------------------------
# H^1 preconditioner
# ---------------------------------------------------------------------------

def dirichlet_plus_mass(mesh, tgt, params, v):
    """H v: with g = 0 and zero weight the Euclidean gradient is the
    Dirichlet Hessian applied to v; add the quadrature mass."""
    grad = euclidean_gradient(DiscreteField(mesh, tgt, v), params)
    return grad + mesh.dphi * mesh.dt * mesh.sqrtg[None, :, None] * v


@pytest.mark.parametrize("base, dirichlet", [("cylinder", False),
                                             ("sphere", False),
                                             ("cylinder", True)])
def test_preconditioner_inverts_dirichlet_plus_mass(base, dirichlet):
    for n_phi, n_t in ((16, 12), (64, 64), (128, 128)):
        mesh, tgt, params = make_instance(base=base, n_phi=n_phi, n_t=n_t,
                                          potential=("quadratic", 0.0),
                                          weight=("zero", 0.0),
                                          base_kw={"radius": 2.0}
                                          if base == "cylinder" else None)
        frozen = [0, mesh.n_t - 1] if dirichlet else []
        precond = SobolevPreconditioner(mesh, frozen_rows=frozen)
        v = np.random.default_rng(3).normal(size=mesh.shape + (3,))
        v[:, frozen, :] = 0.0
        hv = dirichlet_plus_mass(mesh, tgt, params, v)
        hv[:, frozen, :] = 0.0           # pinned rows are eliminated
        err = np.max(np.abs(precond.solve(hv) - v))
        assert err <= 1e-10 * np.max(np.abs(v)), (n_phi, n_t)
        if dirichlet:
            continue
        # the profile solve inverts the reduced Dirichlet Hessian plus mass:
        # with g = 0 the reduced gradient is that Hessian applied to gamma
        reduced = ProfileFunctional(mesh, params, "symmetric")
        profile = SobolevPreconditioner(mesh, profile=True)
        gamma = v[0]
        mass = 2 * np.pi * mesh.dt * mesh.sqrtg[:, None]
        hg = reduced.gradient(gamma) + mass * gamma
        err = np.max(np.abs(profile.solve(hg) - gamma))
        assert err <= 1e-10 * np.max(np.abs(gamma)), (n_phi, n_t)


_PRECONDITIONER_SCRIPT = """
import hashlib
import numpy as np
from axisym.energy import SobolevPreconditioner
from axisym.geometry import build_mesh, surface
digest = hashlib.sha256()
for n in (64, 128):
    mesh = build_mesh(surface("sphere"), n, n)
    g = np.random.default_rng(0).normal(size=mesh.shape + (3,))
    digest.update(SobolevPreconditioner(mesh).solve(g).tobytes())
    digest.update(SobolevPreconditioner(mesh, profile=True).solve(g[0])
                  .tobytes())
print(digest.hexdigest())
"""


def test_preconditioner_independent_of_blas_threads():
    # the bits of the dense solve may not depend on the BLAS thread count
    # (those of np.linalg.inv in place of the elimination sweep do, at
    # 128 x 128)
    runs = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        runs.add(subprocess.run([sys.executable, "-c", _PRECONDITIONER_SCRIPT],
                                env=env, capture_output=True, text=True,
                                check=True).stdout)
    assert len(runs) == 1


@pytest.mark.parametrize("n_t", [8, 72])
def test_preconditioner_refuses_non_positive_pivot(n_t):
    mesh = build_mesh(surface("cylinder", radius=2.0), 8, n_t)
    SobolevPreconditioner(mesh)
    mesh.sqrtg[3] = -1e3             # an indefinite mass row
    with pytest.raises(np.linalg.LinAlgError):
        SobolevPreconditioner(mesh)
    mesh.sqrtg[3] = np.nan
    with pytest.raises(np.linalg.LinAlgError):
        SobolevPreconditioner(mesh)


def test_preconditioner_symmetric_positive_definite_on_closed_curve():
    # the seam edge is left out, so H differs from the energy's operator on
    # closed curves; the solve must still be symmetric positive definite
    mesh, _, _ = make_instance(base="torus_band", target="torus_band",
                               n_phi=8, n_t=8, potential=("quadratic", 0.5),
                               weight=("margin", 1.2))
    precond = SobolevPreconditioner(mesh)
    n = mesh.n_phi * mesh.n_t
    cols = []
    for k in range(n):
        e = np.zeros(n)
        e[k] = 1.0
        cols.append(precond.solve(np.repeat(e.reshape(mesh.shape)[..., None],
                                            3, axis=-1))[..., 0].reshape(-1))
    inv = np.array(cols).T
    assert np.max(np.abs(inv - inv.T)) <= 1e-12 * np.max(np.abs(inv))
    assert np.min(np.linalg.eigvalsh(0.5 * (inv + inv.T))) > 0


# ---------------------------------------------------------------------------
# slice functional
# ---------------------------------------------------------------------------

def test_phi_slice_constant_for_symmetric_field(sphere_instance):
    mesh, tgt, params = sphere_instance
    prof = np.stack([np.sin(mesh.t), np.zeros_like(mesh.t), np.cos(mesh.t)], -1)
    f = build_from_profile(mesh, ProfileField(mesh.t, prof, "symmetric"), tgt)
    phi_e = chain_terms(f, params).slice_energies
    assert np.max(phi_e) - np.min(phi_e) < 1e-10 * (1 + np.max(phi_e))


def test_phi_slice_zero_for_e3_on_cylinder():
    mesh = build_mesh(surface("cylinder"), 16, 12)
    tgt = surface("sphere")
    params = make_params(mesh, tgt, quadratic_potential(0.0),
                         aniso_constant_e3(mesh), weight_zero(mesh))
    f = constant_field(mesh, tgt, [0, 0, 1.0])
    assert np.max(np.abs(chain_terms(f, params).slice_energies)) < 1e-18


def test_phi_slice_sum_consistency():
    mesh, tgt, params = make_instance(n_phi=16, n_t=12, weight=("margin", 1.2))
    f = random_field(mesh, tgt, seed=14)
    total = mesh.dphi * np.sum(chain_terms(f, params).slice_energies)
    # independent direct double sum with explicit loops
    surf = mesh.surface
    t0 = surf.interval[0]
    direct = 0.0
    for i in range(mesh.n_phi):
        for j in range(mesh.n_t):
            perp2 = f.values[i, j, 0] ** 2 + f.values[i, j, 1] ** 2
            gval = float(params.potential.g(
                float(np.dot(f.values[i, j], params.aniso.node_values[i, j]))))
            direct += (perp2 / mesh.h1[j] ** 2 + gval) \
                * mesh.sqrtg[j] * mesh.dt * mesh.dphi
        for e in range(mesh.n_t - 1):
            te = t0 + (e + 1) * mesh.dt
            h1, h2 = surf.metric(te)
            w = float(h1 * h2 / h2 ** 2)
            diff2 = float(np.sum((f.values[i, e + 1] - f.values[i, e]) ** 2))
            direct += w * diff2 / mesh.dt ** 2 * mesh.dt * mesh.dphi
    assert abs(total - direct) < 1e-10 * (1 + abs(direct))


def test_argmin_phi_slice():
    mesh, tgt, params = make_instance(n_phi=16, n_t=12)
    prof = np.stack([np.sin(mesh.t), np.zeros_like(mesh.t), np.cos(mesh.t)], -1)
    f = build_from_profile(mesh, ProfileField(mesh.t, prof, "symmetric"), tgt)
    assert chain_terms(f, params).phi_star == 0.0
    # plant a strictly lowest slice: axis-directed values have no
    # horizontal part and no variation along t
    mesh0, tgt0, params0 = make_instance(n_phi=16, n_t=12,
                                         potential=("quadratic", 0.0),
                                         aniso="constant_e3", weight=("zero", 0))
    g = random_field(mesh0, tgt0, seed=15)
    vals = g.values.copy()
    k = 11
    vals[k] = [0.0, 0.0, 1.0]
    planted = DiscreteField(mesh0, tgt0, vals)
    ct = chain_terms(planted, params0)
    phi_e = ct.slice_energies
    # brute-force comparison of all slices
    assert int(np.argmin(phi_e)) == k
    assert ct.phi_star == pytest.approx(mesh0.phi[k])
    assert phi_e.min() <= phi_e.mean() + 1e-15


# ---------------------------------------------------------------------------
# hypothesis margin
# ---------------------------------------------------------------------------

def test_hypothesis_margin_cylinder():
    tgt = surface("sphere")
    mesh2 = build_mesh(surface("cylinder", radius=2.0), 8, 8)
    rep = hypothesis_margin(mesh2, weight_constant(mesh2, 1.0))
    assert rep.strict and abs(rep.min_h1w - 2 * np.sqrt(2 * np.pi)) < 1e-12
    mesh1 = build_mesh(surface("cylinder", radius=1.0), 8, 8)
    rep1 = hypothesis_margin(mesh1, weight_constant(mesh1, 1.0))
    assert not rep1.strict and rep1.borderline
    assert abs(rep1.min_h1w - np.sqrt(2 * np.pi)) < 1e-12
    rep0 = hypothesis_margin(mesh1, weight_zero(mesh1))
    assert rep0.min_h1w == 0.0 and not rep0.strict and not rep0.borderline
    assert np.isfinite(rep.sup_h1w)
    low = hypothesis_margin(mesh1, weight_constant(mesh1, 0.5))
    assert [r.state for r in (rep, rep1, rep0, low)] == \
        ["strict", "borderline", "zero", "below"]


# ---------------------------------------------------------------------------
# inequality chain and discrete Poincare-Wirtinger
# ---------------------------------------------------------------------------

def corpus(mesh, tgt, n=20, seed0=100):
    return [random_field(mesh, tgt, seed=seed0 + k) for k in range(n)]


@pytest.mark.parametrize("inst_kw", [
    dict(),                                                     # sphere, margin 1.5
    dict(base="cylinder", base_kw={"radius": 2.0}, target="sphere",
         potential=("quadratic", 1.0), aniso="constant_e3",
         weight=("constant", 1.0)),
    dict(base="annulus", target="sphere", potential=("quartic", 2.0),
         aniso="constant_e3", weight=("constant", 1.3)),
])
def test_chain_inequalities_on_corpus(inst_kw):
    mesh, tgt, params = make_instance(**inst_kw)
    assert hypothesis_margin(mesh, params.weight).strict
    variant = params.aniso.variant
    e1 = np.array([1.0, 0.0, 0.0])
    for f in corpus(mesh, tgt, n=10):
        # the random field; a blend toward the sweep of its first row,
        # where E(u) <= eq1 is nearly tight; and a blend shifted by a ring
        # mean, where eq1 <= eq2 needs the penalty
        swept = symmetrize(f, 0, variant).values
        near = swept + 1e-3 * (f.values - swept)
        shifted = swept + 0.1 * (f.values - swept) + 0.3 * e1
        for g in [f] + [DiscreteField(mesh, tgt, project_points(tgt, v)[0])
                        for v in (near, shifted)]:
            ct = chain_terms(g, params)
            assert ct.energy_m == total_energy(g, params)
            slack = 1e-9 * (1 + abs(ct.energy_m.total))
            u = symmetrize(g, ct.phi_star, variant)
            e_u = total_energy(u, params).total
            # replicating the minimizing slice reproduces its slice value
            assert abs(e_u - 2 * np.pi * np.min(ct.slice_energies)) <= \
                1e-10 * (1 + abs(ct.energy_m.total))
            assert ct.eq1 - e_u >= -slack
            assert ct.eq2 - ct.eq1 >= -slack
            assert ct.energy_m.total - ct.eq2 >= -slack
            assert e_u <= ct.energy_m.total + slack


@st.composite
def _spline_curves(draw):
    """An open cubic-spline generating curve through 4-7 samples on [0, 1]
    with x > 0 and z increasing.  A spline can overshoot between samples,
    so tables whose curve fails the checks of spline_curve or build_mesh
    (x < 0, zero speed, an axis touch) are rejected."""
    n = draw(st.integers(4, 7))
    x = draw(st.lists(st.floats(0.6, 2.5), min_size=n, max_size=n))
    dz = draw(st.lists(st.floats(0.15, 1.0), min_size=n, max_size=n))
    try:
        curve = spline_curve(np.linspace(0.0, 1.0, n), x, np.cumsum(dz))
        build_mesh(curve, 12, 8)
    except GeometryError:
        assume(False)
    return curve


@settings(max_examples=30, deadline=None)
@given(base=_spline_curves(), target=_spline_curves(),
       margin=st.floats(1.05, 3.0), kappa=st.floats(0.1, 5.0),
       normal=st.booleans(), seed=st.integers(0, 2**16),
       blend=st.sampled_from([1e-3, 0.1, 1.0]))
def test_chain_inequalities_on_spline_curves(base, target, margin, kappa,
                                             normal, seed, blend):
    mesh = build_mesh(base, 12, 8)
    aniso = aniso_surface_normal(mesh) if normal else aniso_constant_e3(mesh)
    params = make_params(mesh, target, quadratic_potential(kappa), aniso,
                         weight_margin_profile(mesh, margin))
    assert hypothesis_margin(mesh, params.weight).strict
    # random fields on a spline target, so every node goes through the
    # generic closest-point projection; blend < 1 pulls each toward the
    # sweep of its first row, where the chain is nearly tight
    for f in corpus(mesh, target, n=3, seed0=seed):
        swept = symmetrize(f, 0, "symmetric").values
        f = DiscreteField(mesh, target, project_points(
            target, swept + blend * (f.values - swept))[0])
        ct = chain_terms(f, params)
        slack = 1e-9 * (1 + abs(ct.energy_m.total))
        u = symmetrize(f, ct.phi_star, "symmetric")
        e_u = total_energy(u, params).total
        assert ct.eq1 - e_u >= -slack
        assert ct.eq2 - ct.eq1 >= -slack
        assert ct.energy_m.total - ct.eq2 >= -slack


def test_chain_equalities_for_symmetric_input(sphere_instance):
    mesh, tgt, params = sphere_instance
    prof = np.stack([np.sin(mesh.t), np.zeros_like(mesh.t), np.cos(mesh.t)], -1)
    f = build_from_profile(mesh, ProfileField(mesh.t, prof, "symmetric"), tgt)
    ct = chain_terms(f, params)
    u = symmetrize(f, ct.phi_star, "symmetric")
    assert np.max(np.abs(u.values - f.values)) < 1e-12
    e_u = total_energy(u, params).total
    tol = 1e-10 * (1 + abs(ct.energy_m.total))
    assert abs(ct.eq1 - e_u) < tol
    assert abs(ct.energy_m.total - ct.eq2) < tol


@pytest.mark.parametrize("name", [
    "sphere_quartic_margin", "cylinder2_quadratic_const1",
    "annulus_quartic_const", "cylinder1_borderline", "sphere_easy_normal_free",
])
def test_chain_steps_are_discrete_identities(name):
    """The two inner steps of the chain are exact sums over the phi modes.
    With mass_k the Parseval mass of mode k and w = 2 pi dt sqrt(g)/h1^2
    per row,

        E(m) - eq2 = sum_k k^2 mass_k(m_3) w,
        eq2 - eq1 = sum_{k>=2} (k^2 - 1) mass_k(m_perp) w
                    + sum_j (W^2 - 2 pi/h1^2) |<m_perp>|^2 sqrt(g) dt,

    evaluated here from an rfft of its own."""
    mesh, tgt, params, _ = build_run(instance(name, 32, 24)["config"])
    f = random_field(mesh, tgt, [40, 41, 42, 43])
    ct = chain_terms(f, params)
    n = mesh.n_phi
    coeff = np.fft.rfft(f.values, axis=-3) / n
    pw = np.full(n // 2 + 1, 2.0)
    pw[0] = 1.0
    pw[-1] = 1.0
    mass = pw[:, None, None] * np.abs(coeff) ** 2        # (field, k, row, comp)
    k2 = (np.arange(n // 2 + 1, dtype=float) ** 2)[:, None]
    w = 2 * np.pi * mesh.dt * mesh.sqrtg / mesh.h1 ** 2
    vertical = np.sum(k2 * mass[..., 2] * w, axis=(-2, -1))
    perp = mass[..., :2].sum(axis=-1)
    horizontal = np.sum(((k2 - 1) * perp)[:, 2:] * w, axis=(-2, -1))
    ring = np.sum((params.weight.W2 - 2 * np.pi / mesh.h1 ** 2) * perp[:, 0]
                  * mesh.sqrtg * mesh.dt, axis=-1)
    tol = 1e-12 * (1 + np.abs(ct.energy_m.total))
    assert np.all(np.abs(ct.energy_m.total - ct.eq2 - vertical) <= tol)
    assert np.all(np.abs(ct.eq2 - ct.eq1 - horizontal - ring) <= tol)


def row_pw_terms(field):
    """Independent Fourier evaluation of the two sides of the inequality
    sum |m_perp - mean|^2 dphi <= sum |d_phi m_perp|^2 dphi per row."""
    n = field.mesh.n_phi
    coeff = np.fft.rfft(field.values[..., :2], axis=0) / n
    w = np.full(n // 2 + 1, 2.0)
    w[0] = 1.0
    w[-1] = 1.0
    k2 = np.arange(n // 2 + 1, dtype=float) ** 2
    lhs = 2 * np.pi * np.sum(w[1:, None, None] * np.abs(coeff[1:]) ** 2, axis=(0, 2))
    rhs = 2 * np.pi * np.sum((w * k2)[:, None, None] * np.abs(coeff) ** 2, axis=(0, 2))
    return lhs, rhs


def test_discrete_pw_rows(sphere_instance):
    mesh, tgt, _ = sphere_instance
    for f in corpus(mesh, tgt, n=8, seed0=300):
        lhs, rhs = row_pw_terms(f)
        assert np.all(lhs <= rhs + 1e-9 * (1 + rhs))


def test_pw_equality_iff_first_harmonic(sphere_instance):
    mesh, tgt, _ = sphere_instance
    from axisym.fields import build_from_triple
    rng = np.random.default_rng(31)
    alpha = rng.normal(size=(mesh.n_t, 2))
    beta = rng.normal(size=(mesh.n_t, 2))
    eta = rng.normal(size=mesh.n_t)
    pure = DiscreteField(mesh, tgt, build_from_triple(mesh, alpha, beta, eta))
    lhs, rhs = row_pw_terms(pure)
    assert np.max(np.abs(lhs - rhs)) < 1e-10 * (1 + np.max(rhs))
    vals = pure.values.copy()
    vals[..., 0] += 0.1 * np.cos(2 * mesh.phi)[:, None]
    mixed = DiscreteField(mesh, tgt, vals)
    lhs2, rhs2 = row_pw_terms(mixed)
    assert np.all(rhs2 - lhs2 > 1e-4)


def test_weight_t_profile_caches_rectangle_rule():
    from axisym.energy import weight_t_profile
    mesh = build_mesh(surface("cylinder", radius=2.0), 16, 12)
    om = 0.5 + 0.3 * np.sin(mesh.t)
    w = weight_t_profile(mesh, om)
    np.testing.assert_array_equal(w.node_values,
                                  np.broadcast_to(om, (16, 12)))
    # cached W2 equals the rectangle quadrature of omega^2 over phi
    direct = mesh.dphi * np.sum(w.node_values ** 2, axis=0)
    assert np.max(np.abs(w.W2 - direct)) < 1e-12


def test_weight_rejects_negative():
    mesh = build_mesh(surface("cylinder"), 8, 8)
    from axisym.energy import weight_t_profile
    with pytest.raises(ValueError):
        weight_t_profile(mesh, -np.ones(8))
