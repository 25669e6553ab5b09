import os
import subprocess
import sys

import numpy as np
import pytest

from axisym.energy import (
    aniso_constant_e3,
    hypothesis_margin,
    make_params,
    quadratic_potential,
    total_energy,
    weight_constant,
)
from axisym.fields import (
    DiscreteField,
    ProfileField,
    build_from_profile,
    circular_average_perp,
    random_field,
)
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
from conftest import count_calls, make_instance


# ---------------------------------------------------------------------------
# 2D minimization
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def sphere_solve():
    mesh, tgt, params = make_instance(n_phi=32, n_t=32,
                                      potential=("quartic", 5.0),
                                      aniso="surface_normal", weight=("zero", 0))
    cfg = SolveConfig(restarts=2, seed=0, max_iters=3000)
    return mesh, tgt, params, minimize_2d(mesh, tgt, params, cfg)


def test_minimize_sphere_reaches_normal_state(sphere_solve):
    mesh, tgt, params, rep = sphere_solve
    assert abs(rep.best_energy.total - 8 * np.pi) / (8 * np.pi) < 0.01
    nu = surface_normal(mesh)
    dists = []
    for sign in (1.0, -1.0):
        d = rep.best_field.values - sign * nu
        dists.append(float(np.sqrt(np.sum(mesh.quad_weights * np.sum(d ** 2, -1)))))
    assert min(dists) < 0.05


def test_report_energy_consistency(sphere_solve):
    mesh, tgt, params, rep = sphere_solve
    assert abs(rep.best_energy.total - total_energy(rep.best_field, params).total) \
        <= 1e-12 * (1 + abs(rep.best_energy.total))
    assert rep.best_field.constraint_defect() < 1e-8
    assert len(rep.restart_energies) == 2 + 2  # restarts + structured inits


def test_minimize_cylinder_strict_margin_structure():
    mesh, tgt, params = make_instance(base="cylinder", base_kw={"radius": 2.0},
                                      target="sphere", n_phi=32, n_t=24,
                                      potential=("quadratic", 1.0),
                                      aniso="constant_e3", weight=("constant", 1.0))
    assert hypothesis_margin(mesh, params.weight).strict
    cfg = SolveConfig(restarts=3, seed=1, max_iters=6000, grad_tol=1e-8)
    rep = minimize_2d(mesh, tgt, params, cfg)
    diag = rep.diagnostics
    assert diag["residual_over_total"] <= 1e-6
    assert diag["null_average_norm"] <= 1e-6
    assert diag["dphi_vertical_over_total"] <= 1e-6
    assert diag["neither_rows"] == 0


def test_minimize_huge_weight_suppresses_penalty():
    mesh, tgt, params = make_instance(base="cylinder", base_kw={"radius": 2.0},
                                      target="sphere", n_phi=16, n_t=12,
                                      potential=("quadratic", 1.0),
                                      aniso="constant_e3", weight=("constant", 100.0))
    cfg = SolveConfig(restarts=2, seed=3, max_iters=4000)
    rep = minimize_2d(mesh, tgt, params, cfg)
    assert rep.best_energy.penalty <= 1e-4 * rep.best_energy.total
    # internal comparison oracle: descend with the circular mean removed
    # before every retraction (approximate hard constraint), then compare
    # the unpenalized energy
    from axisym.solvers import _descend
    from axisym.geometry import project_points

    params0 = make_params(mesh, tgt, params.potential, params.aniso,
                          weight_constant(mesh, 0.0))

    def value_fn(v):
        return total_energy(DiscreteField(mesh, tgt, v), params0).total

    def grad_fn(v):
        from axisym.energy import riemannian_gradient
        return riemannian_gradient(DiscreteField(mesh, tgt, v), params0)

    def retract_fn(v):
        w = v.copy()
        w[..., :2] -= w[..., :2].mean(axis=0, keepdims=True)
        return project_points(tgt, w)[0]

    vals, e0, _, _ = _descend(random_field(mesh, tgt, seed=3).values,
                              value_fn, grad_fn,
                              lambda v: (retract_fn(v), lambda w: w),
                              lambda w: w,
                              SolveConfig(restarts=1, max_iters=4000))
    unpenalized = rep.best_energy.dirichlet + rep.best_energy.anisotropy
    assert unpenalized <= e0 * 1.05 + 1e-9


# ---------------------------------------------------------------------------
# limited-memory direction
# ---------------------------------------------------------------------------

def _two_loop_reference(g, pairs, precond):
    """Sequential two-loop recursion over (s, y, 1 / s.y), oldest first,
    with precond as the initial inverse Hessian scaled by the newest pair:
    two applications of precond per direction."""
    q = g.copy()
    coeffs = []
    for s, y, rho in reversed(pairs):
        a = rho * float(np.sum(s * q))
        q -= a * y
        coeffs.append(a)
    _, y, rho = pairs[-1]
    yhy = float(np.sum(y * precond(y)))
    if not yhy > 0:
        return None
    d = precond(q) / (rho * yhy)
    for (s, y, rho), a in zip(pairs, reversed(coeffs)):
        d += (a - rho * float(np.sum(y * d))) * s
    return d


def test_stacked_pair_direction_matches_sequential_two_loop():
    from axisym.solvers import _MEMORY, _PairMemory
    rng = np.random.default_rng(4)
    shape = (6, 5, 3)
    n = int(np.prod(shape))
    a = rng.normal(size=(n, n))
    minv = np.linalg.inv(a @ a.T + n * np.eye(n))       # M^-1, SPD
    basis, _ = np.linalg.qr(rng.normal(size=(n, 2 * n // 3)))
    proj = basis @ basis.T                               # P_T, orthogonal

    def solve(v):
        return (minv @ v.ravel()).reshape(shape)

    def project(v):
        return (proj @ v.ravel()).reshape(shape)

    hess = rng.normal(size=(n, n))
    hess = hess @ hess.T + np.eye(n)
    memory = _PairMemory(n)
    pairs = []

    def push(count):
        for _ in range(count):
            s = rng.normal(size=shape)
            y = (hess @ s.ravel()).reshape(shape)
            sy = float(np.sum(s * y))
            memory.push(s, y, solve(y), sy)
            pairs.append((s, y, 1.0 / sy))
            del pairs[:-_MEMORY]

    def check():
        g = rng.normal(size=shape)
        d = memory.direction(g, solve(g), project)
        ref = _two_loop_reference(g, pairs, lambda v: project(solve(v)))
        assert np.max(np.abs(d - ref)) <= 1e-12 * np.max(np.abs(ref))

    push(1)
    check()
    push(6)
    check()
    push(_MEMORY + 9)                   # the buffer wraps: oldest rows reused
    check()
    memory.clear()
    pairs.clear()
    assert memory.direction(rng.normal(size=shape), np.ones(shape),
                            project) is None
    push(3)
    check()


_PAIR_DIRECTION_SCRIPT = """
import hashlib
import numpy as np
from axisym.solvers import _PairMemory
rng = np.random.default_rng(0)
n = 64 * 64 * 3        # above the size where BLAS splits a dot over threads
memory = _PairMemory(n)
digest = hashlib.sha256()
for _ in range(3):
    s = rng.normal(size=n)
    y = s + 0.5 * rng.normal(size=n)
    memory.push(s, y, 0.5 * y, float(np.sum(s * y)))
    g = rng.normal(size=n)
    digest.update(memory.direction(g, 0.5 * g, lambda v: v).tobytes())
print(digest.hexdigest())
"""


def test_pair_direction_independent_of_blas_threads():
    runs = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        runs.add(subprocess.run([sys.executable, "-c", _PAIR_DIRECTION_SCRIPT],
                                env=env, capture_output=True, text=True,
                                check=True).stdout)
    assert len(runs) == 1


def test_one_preconditioner_solve_per_iteration(monkeypatch):
    # one H^1 solve and one tangent frame per accepted iterate: rejected
    # Armijo trials build no frame; one preconditioner and one
    # field_diagnostics call per solve, whatever the restart count
    from axisym.energy import SobolevPreconditioner
    from axisym.geometry import tangent_frame
    from axisym.solvers import field_diagnostics
    calls, builds = [], []
    solve, init = SobolevPreconditioner.solve, SobolevPreconditioner.__init__

    def counting(self, g):
        calls.append(1)
        return solve(self, g)

    def counting_init(self, *args, **kwargs):
        builds.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SobolevPreconditioner, "solve", counting)
    monkeypatch.setattr(SobolevPreconditioner, "__init__", counting_init)
    frames = count_calls(monkeypatch, tangent_frame)
    diagnostics = count_calls(monkeypatch, field_diagnostics)
    mesh, tgt, params = make_instance(n_phi=16, n_t=12)
    cfg = SolveConfig(restarts=2, seed=1, max_iters=200)
    rep = minimize_2d(mesh, tgt, params, cfg)
    assert sum(rep.iterations) > len(rep.iterations)
    assert 0 < len(calls) <= sum(i + 1 for i in rep.iterations)
    assert 0 < len(frames) <= sum(i + 1 for i in rep.iterations)
    assert len(builds) == len(diagnostics) == 1
    for counts in (calls, frames, builds, diagnostics):
        counts.clear()
    rep = minimize_1d_profile(mesh, tgt, params, "symmetric", cfg)
    assert sum(rep.iterations) > len(rep.iterations)
    assert 0 < len(calls) <= sum(i + 1 for i in rep.iterations)
    assert 0 < len(frames) <= sum(i + 1 for i in rep.iterations)
    assert len(builds) == len(diagnostics) == 1


def test_dirichlet_boundary_rows_frozen():
    from axisym.energy import BoundaryCondition, aniso_constant_e3 as ac3
    from axisym.energy import dirichlet_rows_from_vector, weight_zero
    mesh = build_mesh(surface("cylinder", radius=2.0), 16, 12)
    tgt = surface("sphere")
    bottom = dirichlet_rows_from_vector(mesh, [0.6, 0.0, 0.8], "symmetric")
    top = dirichlet_rows_from_vector(mesh, [0.0, 0.0, 1.0], "symmetric")
    bc = BoundaryCondition(bottom, top)
    params = make_params(mesh, tgt, quadratic_potential(0.5), ac3(mesh),
                         weight_constant(mesh, 1.0), bc)
    cfg = SolveConfig(restarts=1, seed=0, max_iters=1500)
    rep = minimize_2d(mesh, tgt, params, cfg)
    assert np.max(np.abs(rep.best_field.values[:, 0, :] - bottom)) < 1e-14
    assert np.max(np.abs(rep.best_field.values[:, -1, :] - top)) < 1e-14


def test_dirichlet_rows_of_any_symmetry_are_pinned():
    # rows carry no symmetry label: the 2D solve pins whatever rows it is
    # given, and the 1D reduction refuses a variant whose sweep misses them
    from axisym.energy import BoundaryCondition, dirichlet_rows_from_vector
    from axisym.solvers import BoundaryVariantError
    mesh = build_mesh(surface("cylinder", radius=2.0), 16, 12)
    tgt = surface("sphere")
    bottom = dirichlet_rows_from_vector(mesh, [0.6, 0.0, 0.8], "symmetric")
    top = random_field(mesh, tgt, seed=3).values[:, -1]     # neither law
    params = make_params(mesh, tgt, quadratic_potential(0.5),
                         aniso_constant_e3(mesh), weight_constant(mesh, 1.0),
                         BoundaryCondition(bottom, top))
    cfg = SolveConfig(restarts=1, seed=0, max_iters=200)
    rep = minimize_2d(mesh, tgt, params, cfg)
    assert np.max(np.abs(rep.best_field.values[:, 0, :] - bottom)) < 1e-14
    assert np.max(np.abs(rep.best_field.values[:, -1, :] - top)) < 1e-14
    with pytest.raises(BoundaryVariantError, match="top ring data is not "
                                                   "symmetric"):
        minimize_1d_profile(mesh, tgt, params, "symmetric", cfg)
    with pytest.raises(BoundaryVariantError, match="bottom ring data is not "
                                                   "antisymmetric"):
        minimize_1d_profile(mesh, tgt, params, "antisymmetric", cfg)


@pytest.mark.parametrize("n", [16, 32, 48])
def test_random_restart_iterations_do_not_grow_with_grid(n):
    # plain-gradient BB needed 673 / 1217 / 2423 iterations here
    mesh, tgt, params = make_instance(base="cylinder", base_kw={"radius": 2.0},
                                      target="sphere", n_phi=n, n_t=n,
                                      potential=("quadratic", 1.0),
                                      aniso="constant_e3",
                                      weight=("constant", 1.0))
    rep = minimize_2d(mesh, tgt, params,
                      SolveConfig(restarts=1, seed=0, max_iters=3000,
                                  grad_tol=1e-6))
    assert rep.stop_reasons[0] == "grad_tol"
    assert rep.iterations[0] <= 100


def test_sphere_random_restarts_clear_soft_mode():
    # random fields 13 and 14 on the strict-margin 64x64 sphere: BB steps in
    # the H^1 metric crawled through a soft mode near E = 26.115 and needed
    # 216 and 156 iterations; the limited-memory steps take 55 and 76
    mesh, tgt, params = make_instance(n_phi=64, n_t=64)
    rep = minimize_2d(mesh, tgt, params,
                      SolveConfig(restarts=2, seed=13, max_iters=150,
                                  grad_tol=1e-6))
    assert rep.stop_reasons[:2] == ["grad_tol", "grad_tol"]
    assert max(rep.iterations[:2]) <= 100


# ---------------------------------------------------------------------------
# coarse-to-fine random restarts
# ---------------------------------------------------------------------------

def _ladder_instance(kind):
    """32 x 32 instances whose random restarts descend on 16 x 16 first:
    a spline target, a closed base and Dirichlet rows."""
    from axisym.energy import BoundaryCondition, dirichlet_rows_from_vector
    from axisym.geometry import spline_curve
    base, tgt = surface("cylinder", radius=2.0), surface("sphere")
    if kind == "spline_target":
        t = np.linspace(0.0, np.pi, 41)
        tgt = spline_curve(t, np.sin(t), 1.5 * np.cos(t))
    elif kind == "closed_base":
        base = surface("torus_band")
    mesh = build_mesh(base, 32, 32)
    bc = None
    if kind == "dirichlet":
        bc = BoundaryCondition(
            dirichlet_rows_from_vector(mesh, [0.6, 0.0, 0.8]),
            random_field(mesh, tgt, seed=3).values[:, -1])
    params = make_params(mesh, tgt, quadratic_potential(1.0),
                         aniso_constant_e3(mesh), weight_constant(mesh, 1.0),
                         bc)
    return mesh, tgt, params


@pytest.mark.parametrize("kind", ["spline_target", "closed_base", "dirichlet"])
def test_laddered_restarts_converge_on_the_requested_grid(kind):
    mesh, tgt, params = _ladder_instance(kind)
    rep = minimize_2d(mesh, tgt, params,
                      SolveConfig(restarts=2, seed=0, max_iters=500,
                                  grad_tol=1e-6), keep_fields=True)
    assert [[c[:2] for c in cs] for cs in rep.coarse_iterations] \
        == [[[16, 16]], [[16, 16]], [], []]
    assert all(cs[0][2] > 0 for cs in rep.coarse_iterations[:2])
    assert rep.stop_reasons[:2] == ["grad_tol", "grad_tol"]
    assert rep.to_dict()["coarse_iterations"] == rep.coarse_iterations
    assert rep.best_energy == total_energy(rep.best_field, params)
    for f, e in zip(rep.restart_fields, rep.restart_energies):
        assert e == total_energy(f, params).total
        assert f.constraint_defect() < 1e-8
        for row, data in params.boundary.pinned.items():
            assert np.array_equal(f.values[:, row], data)


def test_coarse_params_are_restricted_from_the_callers():
    # halving nests the phi nodes: Dirichlet rows are exact sub-samples;
    # node data are interpolated in t, which keeps constants and misses a
    # smooth profile by O(dt^2); the potential is the caller's
    from axisym.solvers import _coarse_params
    mesh, tgt, params = _ladder_instance("dirichlet")
    coarse = build_mesh(mesh.surface, 16, 16)
    cp = _coarse_params(params, mesh, coarse)
    assert cp.potential is params.potential
    assert np.array_equal(cp.boundary.bottom, params.boundary.bottom[::2])
    assert np.array_equal(cp.boundary.top, params.boundary.top[::2])
    assert np.allclose(cp.aniso.node_values,
                       aniso_constant_e3(coarse).node_values, rtol=0,
                       atol=1e-15)
    assert np.allclose(cp.weight.W2, weight_constant(coarse, 1.0).W2,
                       rtol=1e-15, atol=0)
    mesh, tgt, params = make_instance(n_phi=64, n_t=64)
    coarse = build_mesh(mesh.surface, 32, 32)
    exact = make_instance(n_phi=32, n_t=32)[2]
    assert np.max(np.abs(_coarse_params(params, mesh, coarse).aniso.node_values
                         - exact.aniso.node_values)) < 1e-3


def test_sphere_64_random_restarts_start_coarse(monkeypatch):
    # perfbench's sphere-64 solve: a direct descent took 51 and 53
    # iterations from the two random starts; descending on 16^2 and 32^2
    # first leaves at most 16 on 64^2, to the same critical energy, and
    # the seeded hedgehog still wins, to the bit
    from axisym.energy import SobolevPreconditioner
    mesh, tgt, params = make_instance(n_phi=64, n_t=64)
    builds = count_calls(monkeypatch, build_mesh)
    init, precs = SobolevPreconditioner.__init__, []

    def counting_init(self, *args, **kwargs):
        precs.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SobolevPreconditioner, "__init__", counting_init)
    rep = minimize_2d(mesh, tgt, params,
                      SolveConfig(restarts=2, seed=0, max_iters=150,
                                  grad_tol=1e-6))
    assert rep.best_energy.total == 25.12895697947937
    assert rep.stop_reasons[:2] == ["grad_tol", "grad_tol"]
    assert max(rep.iterations[:2]) <= 16
    for e in rep.restart_energies[:2]:
        assert abs(e - 26.1149812) <= 1e-7 * 26.1149812
    assert [[c[:2] for c in cs] for cs in rep.coarse_iterations] \
        == [[[16, 16], [32, 32]]] * 2 + [[], []]
    # one mesh and one preconditioner per coarse level, for both restarts
    assert len(builds) == 2 and len(precs) == 3


@pytest.mark.parametrize("n_phi, n_t", [(32, 24), (16, 16)])
def test_small_grids_build_no_ladder(monkeypatch, n_phi, n_t):
    # the default suite's 32 x 24 and spline-target's 16 x 16 descend as
    # they did: no coarse mesh, and no coarse_iterations in report.json
    mesh, tgt, params = make_instance(n_phi=n_phi, n_t=n_t)
    builds = count_calls(monkeypatch, build_mesh)
    rep = minimize_2d(mesh, tgt, params,
                      SolveConfig(restarts=2, seed=0, max_iters=300))
    assert not builds
    assert rep.coarse_iterations is None
    assert "coarse_iterations" not in rep.to_dict()


# ---------------------------------------------------------------------------
# 1D profile reduction
# ---------------------------------------------------------------------------

def test_profile_energy_constant_e3():
    mesh, tgt, params = make_instance(n_phi=16, n_t=16,
                                      potential=("quadratic", 0.0),
                                      aniso="constant_e3", weight=("margin", 1.5))
    prof = np.zeros((mesh.n_t, 3))
    prof[:, 2] = 1.0
    bd = profile_energy(mesh, tgt, params, ProfileField(mesh.t, prof, "symmetric"))
    assert abs(bd.total) < 1e-14


def test_profile_energy_matches_2d_build_exactly():
    mesh, tgt, params = make_instance(n_phi=16, n_t=16, weight=("margin", 1.3))
    rng = np.random.default_rng(2)
    raw = rng.normal(size=(mesh.n_t, 3)) + [1.2, 0, 0]
    from axisym.geometry import project_points
    gamma, _ = project_points(tgt, raw)
    for variant in ("symmetric", "antisymmetric"):
        prof = ProfileField(mesh.t, gamma, variant)
        f = build_from_profile(mesh, prof, tgt)
        assert abs(profile_energy(mesh, tgt, params, prof).total
                   - total_energy(f, params).total) < 1e-10


def test_profile_normal_gives_8pi():
    mesh, tgt, params = make_instance(n_phi=48, n_t=48,
                                      potential=("quadratic", 0.0),
                                      aniso="constant_e3", weight=("zero", 0))
    prof = ProfileField(mesh.t, mesh.surface.normal_profile(mesh.t), "symmetric")
    bd = profile_energy(mesh, tgt, params, prof)
    assert abs(bd.total - 8 * np.pi) / (8 * np.pi) < 0.01


def test_minimize_1d_matches_2d():
    mesh, tgt, params = make_instance(base="cylinder", base_kw={"radius": 2.0},
                                      target="sphere", n_phi=32, n_t=24,
                                      potential=("quadratic", 1.0),
                                      aniso="constant_e3", weight=("constant", 1.0))
    cfg1 = SolveConfig(restarts=3, seed=7, max_iters=4000, grad_tol=1e-8)
    rep1 = minimize_1d_profile(mesh, tgt, params, "symmetric", cfg1)
    cfg2 = SolveConfig(restarts=3, seed=7, max_iters=6000, grad_tol=1e-8)
    rep2 = minimize_2d(mesh, tgt, params, cfg2)
    gap = abs(rep1.best_energy.total - rep2.best_energy.total) \
        / max(abs(rep2.best_energy.total), 1e-30)
    assert gap <= 0.02
    # reduced value equals 2D energy of the swept best profile exactly
    bd = profile_energy(mesh, tgt, params, rep1.best_profile)
    assert abs(bd.total - rep1.best_energy.total) < 1e-10
    assert not rep1.diagnostics["variant_mismatch_warning"]


def test_minimize_1d_variant_mismatch_warning():
    mesh, tgt, params = make_instance(n_phi=16, n_t=12,
                                      aniso="antisymmetric_profile",
                                      weight=("margin", 1.2))
    cfg = SolveConfig(restarts=1, seed=0, max_iters=200)
    rep = minimize_1d_profile(mesh, tgt, params, "symmetric", cfg)
    assert rep.diagnostics["variant_mismatch_warning"]


def test_solves_keep_restart_fields_only_when_asked():
    # a report holds every restart's swept 2D field only for keep_fields
    mesh, tgt, params = make_instance(n_phi=16, n_t=12)
    cfg = SolveConfig(restarts=1, seed=0, max_iters=200)
    assert minimize_1d_profile(mesh, tgt, params, "symmetric",
                               cfg).restart_fields is None
    assert minimize_2d(mesh, tgt, params, cfg).restart_fields is None
    kept = minimize_2d(mesh, tgt, params, cfg, keep_fields=True)
    assert len(kept.restart_fields) == len(kept.restart_energies) == 3


def test_profile_restart_iterations_insensitive_to_rounding(monkeypatch):
    # the antisymmetric structured restart of the 64x64 sphere reduction:
    # plain-gradient BB needed 111-269 iterations under 1e-15 relative
    # perturbations of the gradient, so reaching a 150-iteration cap was a
    # matter of rounding
    from axisym import energy
    mesh, tgt, params = make_instance(n_phi=64, n_t=64)
    cfg = SolveConfig(restarts=0, seed=0, max_iters=150, grad_tol=1e-6)
    exact = minimize_1d_profile(mesh, tgt, params, "antisymmetric", cfg)
    assert exact.stop_reasons == ["grad_tol"]
    gradient = energy.ProfileFunctional.gradient
    counts = set()
    for seed in range(12):
        rng = np.random.default_rng(seed)

        def perturbed(self, gamma, rng=rng):
            g = gradient(self, gamma)
            return g * (1 + 1e-15 * rng.standard_normal(g.shape))

        monkeypatch.setattr(energy.ProfileFunctional, "gradient", perturbed)
        counts.add(minimize_1d_profile(mesh, tgt, params, "antisymmetric",
                                       cfg).iterations[0])
    assert counts == {exact.iterations[0]}


# ---------------------------------------------------------------------------
# symmetrization certificate
# ---------------------------------------------------------------------------

def test_certify_on_random_fields_strict_margin():
    mesh, tgt, params = make_instance(weight=("margin", 1.5))
    for seed in range(5):
        f = random_field(mesh, tgt, seed=seed)
        u, rep = symmetrize_and_certify(f, params, "symmetric")
        assert rep.certified and not rep.hypothesis_violation
        assert all(v >= -1e-9 * (1 + abs(rep.energy_m.total))
                   for v in rep.residuals.values())


def test_certify_symmetric_input_fixed_point(sphere_solve):
    mesh, tgt, params, _ = sphere_solve
    prof = np.stack([np.sin(mesh.t), np.zeros_like(mesh.t), np.cos(mesh.t)], -1)
    f = build_from_profile(mesh, ProfileField(mesh.t, prof, "symmetric"), tgt)
    u, rep = symmetrize_and_certify(f, params, "symmetric")
    assert np.max(np.abs(u.values - f.values)) < 1e-12
    tol = 1e-10 * (1 + abs(rep.energy_m.total))
    assert abs(rep.residuals["slice_vs_mean"]) < tol
    assert abs(rep.residuals["total_gap"]) < tol


def test_certify_never_worsens_best_solve():
    # symmetrizing the best found field must not raise its energy on
    # strict-margin instances
    mesh, tgt, params = make_instance(base="cylinder", base_kw={"radius": 2.0},
                                      target="sphere", n_phi=24, n_t=16,
                                      potential=("quadratic", 1.0),
                                      aniso="constant_e3",
                                      weight=("constant", 1.0))
    rep = minimize_2d(mesh, tgt, params,
                      SolveConfig(restarts=2, seed=4, max_iters=4000,
                                  grad_tol=1e-9))
    u, chain = symmetrize_and_certify(rep.best_field, params, "symmetric")
    gap = total_energy(u, params).total - rep.best_energy.total
    assert gap <= 1e-9 * (1 + abs(rep.best_energy.total))


def test_certify_subthreshold_flags_violation():
    mesh = build_mesh(surface("cylinder", radius=0.5), 16, 12)
    tgt = surface("sphere")
    params = make_params(mesh, tgt, quadratic_potential(0.0),
                         aniso_constant_e3(mesh), weight_constant(mesh, 1.0))
    assert not hypothesis_margin(mesh, params.weight).strict
    vals = np.zeros(mesh.shape + (3,))
    vals[..., 0] = 1.0
    f = DiscreteField(mesh, tgt, vals)
    u, rep = symmetrize_and_certify(f, params, "symmetric")
    assert rep.hypothesis_violation
    # direct evaluation: the swept slice costs more than the constant field
    assert rep.energy_u.total > rep.energy_m.total
    assert min(rep.residuals.values()) < 0
    assert not rep.certified


# ---------------------------------------------------------------------------
# annulus boundary-value problem
# ---------------------------------------------------------------------------

def test_annulus_null_average_random_symmetric_data():
    rng = np.random.default_rng(5)
    for kappa in (0.0, 0.5, 1.0, 5.0):
        v1 = rng.normal(size=3)
        v2 = rng.normal(size=3)
        b1 = annulus_boundary_from_vector(48, v1)
        b2 = annulus_boundary_from_vector(48, v2)
        rep = solve_annulus_example(48, 48, kappa, b1, b2)
        assert rep.max_mean_perp <= 1e-8, kappa
        assert rep.residual <= 1e-8


def test_annulus_constant_e3_harmonic():
    b = np.zeros((32, 3))
    b[:, 2] = 1.0
    rep = solve_annulus_example(32, 32, 0.0, b, b)
    assert np.max(np.abs(rep.solution[..., 2] - 1.0)) < 1e-10
    assert np.max(np.abs(rep.solution[..., :2])) < 1e-12


def test_annulus_radial_boundary_k1_mode():
    # inner ring data A(phi)^T e1, outer ring zero: the cos(phi)/sin(phi)
    # content solves the discrete k=1 radial equation; verify against an
    # independent tridiagonal solve of that reduced equation
    n_t, n_phi = 64, 32
    b1 = annulus_boundary_from_vector(n_phi, [1.0, 0, 0])
    b2 = np.zeros((n_phi, 3))
    rep = solve_annulus_example(n_t, n_phi, 0.0, b1, b2)
    assert rep.max_mean_perp <= 1e-8
    assert float(np.max(np.abs(rep.solution))) > 0.4

    h = 1.0 / n_t
    t = 1.0 + h * np.arange(n_t + 1)
    dphi = 2 * np.pi / n_phi
    mu1 = (2 - 2 * np.cos(dphi)) / dphi ** 2  # discrete k=1 eigenvalue
    n_int = n_t - 1
    A = np.zeros((n_int, n_int))
    rhs = np.zeros(n_int)
    for k in range(1, n_t):
        tk = t[k]
        c_up = (tk + h / 2) / (tk * h * h)
        c_dn = (tk - h / 2) / (tk * h * h)
        A[k - 1, k - 1] = c_up + c_dn + mu1 / tk ** 2
        if k + 1 <= n_t - 1:
            A[k - 1, k] = -c_up
        if k - 1 >= 1:
            A[k - 1, k - 2] = -c_dn
        else:
            rhs[k - 1] = c_dn * 1.0
    fk = np.linalg.solve(A, rhs)
    # mx(phi, t) = f(t) cos(phi)
    mx = rep.solution[:, 1:-1, 0]
    recon = np.cos(rep.phi)[:, None] * fk[None, :]
    assert np.max(np.abs(mx - recon)) < 1e-9
    # continuum oracle f = a t + b / t with f(1) = 1, f(2) = 0
    a = -1.0 / (4 - 1)
    b = -4 * a
    f_cont = a * t[1:-1] + b / t[1:-1]
    assert np.max(np.abs(fk - f_cont)) < 2e-3


def test_annulus_rejects_asymmetric_data():
    b1 = np.zeros((16, 3))
    b1[:, 0] = 1.0  # constant e1 ring is not axially symmetric
    b2 = annulus_boundary_from_vector(16, [0, 0, 1.0])
    with pytest.raises(ValueError):
        solve_annulus_example(16, 16, 1.0, b1, b2)


def annulus_dense(n_t, n_phi, kappa, b1, b2):
    """Interior solution of the annulus problem with each phi mode's radial
    system assembled as a dense matrix and solved by np.linalg.solve (LU
    with partial pivoting)."""
    h = 1.0 / n_t
    tk = 1.0 + h * np.arange(1, n_t)
    c_up = (tk + h / 2) / (tk * h * h)
    c_dn = (tk - h / 2) / (tk * h * h)
    dphi = 2 * np.pi / n_phi
    c_phi = 1.0 / (tk * dphi) ** 2
    mu = 2 - 2 * np.cos(dphi * np.arange(n_phi // 2 + 1))
    radial = (np.diag(c_up + c_dn) - np.diag(c_up[:-1], 1)
              - np.diag(c_dn[1:], -1))
    rhs = np.zeros((n_phi, n_t - 1, 3))
    rhs[:, 0] = c_dn[0] * b1
    rhs[:, -1] = c_up[-1] * b2
    coeff = np.fft.rfft(rhs, axis=0)
    for c, shift in enumerate((0.0, 0.0, kappa)):
        a = radial + mu[:, None, None] * np.diag(c_phi) + shift * np.eye(n_t - 1)
        coeff[..., c] = np.linalg.solve(a, coeff[..., c, None])[..., 0]
    return np.fft.irfft(coeff, n=n_phi, axis=0)


@pytest.mark.parametrize("n", [16, 64, 128])
def test_annulus_sweep_matches_dense_solve(n):
    rng = np.random.default_rng(n)
    for kappa in (0.0, 0.5, 1.0, 5.0):
        b1 = annulus_boundary_from_vector(n, rng.normal(size=3))
        b2 = annulus_boundary_from_vector(n, rng.normal(size=3))
        rep = solve_annulus_example(n, n, kappa, b1, b2)
        dense = annulus_dense(n, n, kappa, b1, b2)
        err = np.max(np.abs(rep.solution[:, 1:-1] - dense))
        assert err <= 1e-12 * np.max(np.abs(dense)), (kappa, err)


def test_annulus_negative_kappa_eigenvalue_detection():
    from axisym.solvers import SingularSystemError
    b1 = annulus_boundary_from_vector(16, [0, 0, 1.0])
    b2 = annulus_boundary_from_vector(16, [0, 0, 1.0])
    # scan kappa toward -infinity, past Dirichlet eigenvalues of the
    # vertical operator, where the sweep meets indefinite systems: each
    # solve either raises SingularSystemError or agrees with the pivoted
    # dense solve, never returns garbage silently
    solved = 0
    for kappa in np.linspace(-5, -40, 15):
        try:
            rep = solve_annulus_example(16, 16, kappa, b1, b2)
        except SingularSystemError:
            continue
        assert rep.residual <= 1e-8
        dense = annulus_dense(16, 16, kappa, b1, b2)
        err = np.max(np.abs(rep.solution[:, 1:-1] - dense))
        assert err <= 1e-12 * np.max(np.abs(dense)), (kappa, err)
        solved += 1
    assert solved > 0
