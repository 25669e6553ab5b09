"""Minimization of the discrete energy and the linear annulus problem.

2D solver: projected descent on target-valued fields along a Sobolev (H^1)
direction: the tangent-projected gradient is preconditioned with the
discrete Dirichlet operator plus mass (energy.SobolevPreconditioner) and
tangent-projected again, so at one grad_tol iteration counts do not grow
with the grid.  That was measured with the sup|g| stop test below, which
loosens as the grid refines (each entry carries its node's area, so one
grad_tol is about 16x looser at 128^2 than at 32^2).
Limited-memory BFGS on top of that preconditioner takes up the soft modes
it leaves (unit trial steps), with Armijo backtracking (monotone) and
closest-point retraction after every step, which returns the tangent
projection at the point it returns (_retraction); the gradient and every
direction are projected through it.  It makes one H^1 solve per
iteration: the solve of each accepted gradient is kept, each
curvature pair stores the difference of two of them, and the pairs are
rows of stacked arrays, so the two-loop recursion is a few matrix-vector
products (_PairMemory).  The stop test bounds the sup of the
tangent-projected Euclidean gradient.  Several restarts from seeded random
fields plus two structured initializations (the rotation-swept normal
profile, both symmetry variants) mitigate non-convexity.  Each random
restart starts on a ladder of halved grids, no grid below
_LADDER_FLOOR = 16 meridians or rows, and descends on each in turn before
the requested grid (nested iteration, the first step of full multigrid):
the iteration count per grid hardly depends on the grid, so the coarse
descents do most of the work at a fraction of its cost.

1D solver: minimizes over t-profiles gamma the energy of the swept field
A(phi)^T gamma(t) (or A(phi) gamma(t)).  The descent only handles (n_t, 3)
arrays: energy.ProfileFunctional gives the 2D energy of the swept field and
the pullback sum over slices of its 2D gradient in closed form, exact for
the discrete scheme, and the same H^1 descent uses the k = 0 (vertical) and
k = 1 (horizontal) blocks of the preconditioner.

Both solvers run one restart loop (_solve_restarts), which ranks every
end by total_energy of its built 2D field and reports the best one, with
symmetry diagnostics and every restart's energy and stop reason.

Annulus solver: the linear equations -Lap m + kappa (m.e3) e3 = 0 on the
flat annulus in polar coordinates with Dirichlet ring data, discretized
with conservative second-order differences.  The phi-stencil is diagonal
in the phi Fourier modes, so the solve is an rfft along phi, one
tridiagonal sweep over the radial rows for every mode and component at
once, and an irfft.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field, replace
from typing import Callable, Optional

import numpy as np

from .energy import (
    BoundaryCondition,
    EnergyBreakdown,
    ProfileFunctional,
    SobolevPreconditioner,
    Weight,
    chain_terms,
    euclidean_gradient,
    hypothesis_margin,
    phi_symbol,
    total_energy,
)
from .fields import (
    DiscreteField,
    ProfileField,
    build_from_profile,
    circular_average_perp,
    line_symmetry_classify,
    mode_decompose,
    per_field,
    random_field,
    resample,
    resample_phi,
    resample_t,
    symmetrize,
    symmetry_defect,
)
from .geometry import (
    VARIANTS,
    SurfaceMesh,
    build_mesh,
    project_points,
    project_to_frame,
    ring_defect,
    rotate,
    tangent_frame,
    tridiagonal_solve,
)


class SingularSystemError(RuntimeError):
    """The discrete annulus operator is singular (kappa at an eigenvalue)."""


class BoundaryVariantError(ValueError):
    """No profile of this variant sweeps onto the Dirichlet ring data."""


class NonFiniteSolveError(ArithmeticError):
    """A descent ended at a non-finite energy: the instance's energy
    overflows a double (a finite but extreme config value)."""


# largest ring_defect of ring data that obeys a rotation law
RING_TOL = 1e-8
CHAIN_SLACK = 1e-9      # chain audit's rounding slack, relative to 1 + |E(m)|


@dataclass(frozen=True)
class SolveConfig:
    max_iters: int = 20_000
    grad_tol: float = 1e-6          # stop when sup|grad| <= grad_tol (1 + |E|)
    restarts: int = 8
    seed: int = 0

    def __post_init__(self):
        # a negative max_iters is never met and a non-finite grad_tol
        # stops every descent at once, or never
        if self.grad_tol <= 0:
            raise ValueError("grad_tol must be positive")
        if not np.isfinite(self.grad_tol):
            raise ValueError(f"grad_tol must be finite, got {self.grad_tol!r}")
        for key in ("max_iters", "restarts"):
            if getattr(self, key) < 0:
                raise ValueError(f"{key} must be non-negative, "
                                 f"got {getattr(self, key)!r}")


# ---------------------------------------------------------------------------
# generic monotone descent
# ---------------------------------------------------------------------------

# curvature pairs kept by the limited-memory descent
_MEMORY = 20
# smallest n_phi and n_t of a coarse grid of a random restart's ladder
_LADDER_FLOOR = 16
# first step length along the preconditioned gradient, Armijo sufficient
# decrease constant and backtracking factor
_STEP_INIT = 0.1
_ARMIJO_C = 1e-4
_ARMIJO_SHRINK = 0.5


class _PairMemory:
    """The last _MEMORY curvature pairs (s, y, z) as rows of stacked arrays.

    z = M^-1 y is the preconditioner applied to y, the difference of the
    stored solves u = M^-1 g of the pair's two iterates.  Rows fill from 0
    after a clear; once all are in use, the oldest row is overwritten.  sy
    holds s_i . y_j, updated by two matrix-vector products per pair, so
    both loops of the two-loop recursion reduce to one product with the
    stacked arrays each plus _MEMORY-term recurrences.  The products run
    over all rows: the coefficients of rows not in use are zero, and a
    product with one row would go to a BLAS dot whose summation order
    depends on the thread count.
    """

    def __init__(self, n):
        m = _MEMORY
        self.S, self.Y, self.Z = (np.zeros((m, n)) for _ in range(3))
        self.rho = np.zeros(m)
        self.sy = np.zeros((m, m))
        self.pushed = 0             # pairs pushed since the last clear

    def clear(self):
        self.pushed = 0

    def push(self, s, y, z, sy):
        """Store a pair with sy = s . y > 0, dropping the oldest if full."""
        row = self.pushed % _MEMORY
        self.pushed += 1
        self.S[row], self.Y[row], self.Z[row] = s.ravel(), y.ravel(), z.ravel()
        self.rho[row] = 1.0 / sy
        self.sy[row] = self.Y @ self.S[row]
        self.sy[:, row] = self.S @ self.Y[row]

    def direction(self, g, u, project):
        """L-BFGS direction at g, or None without pairs or when the scale
        of the initial approximation is not positive.

        The initial inverse-Hessian approximation is v -> P_T M^-1 v
        (project(v) = P_T v) scaled by s.y / (y . P_T M^-1 y) of the
        newest pair.  M^-1 is linear, so with u = M^-1 g the first loop's
        q = g - sum a_i y_i gives M^-1 q = u - sum a_i z_i, and no solve
        is made here.
        """
        if self.pushed == 0:
            return None
        m = _MEMORY
        newest = (self.pushed - 1) % m
        order = [(newest - j) % m for j in range(min(self.pushed, m))]
        rho, sy = self.rho, self.sy
        # s_i . q = s_i . g - sum over newer pairs j of a_j s_i . y_j
        sg = self.S @ g.ravel()
        a = np.zeros(m)
        for i in order:                                  # newest first
            a[i] = rho[i] * (sg[i] - sy[i] @ a)
        pz = project(self.Z[newest].reshape(g.shape))
        yhy = float(np.sum(self.Y[newest] * pz.ravel()))
        if not yhy > 0:
            return None
        r = project((u.ravel() - a @ self.Z).reshape(g.shape)).ravel() \
            / (rho[newest] * yhy)
        # y_i . d = y_i . r + sum over older pairs j of c_j s_j . y_i
        yr = self.Y @ r
        c = np.zeros(m)
        for i in reversed(order):                        # oldest first
            c[i] = a[i] - rho[i] * (yr[i] + c @ sy[:, i])
        return (r + c @ self.S).reshape(g.shape)


def _descend(x0, value_fn, egrad_fn, retract_fn, solve_fn, config):
    """Projected limited-memory BFGS descent with Armijo backtracking.

    retract_fn(y) returns (x, project): the retracted point and the
    tangent projection at x.  The gradient is g = project(egrad_fn(x)),
    the Euclidean gradient projected, and the descent stops when
    sup|g| <= grad_tol (1 + |E|).  The preconditioner is
    v -> project(solve_fn(v)), with solve_fn a linear, symmetric positive
    definite map (the solvers pass the H^1 solve).  solve_fn runs once per
    accepted iterate, u = solve_fn(g), and each pair (s, y) =
    (x_k+1 - x_k, g_k+1 - g_k) keeps z = u_k+1 - u_k with it.  The
    direction d applies the L-BFGS inverse-Hessian approximation of the
    last _MEMORY pairs to g, with the preconditioner as its initial
    approximation (_PairMemory); pairs with s . y not positive are
    skipped.  Trial points are retract_fn(x - alpha d), accepted by the
    Armijo test against g . d, from alpha = 1.  The first step, and any
    step whose d fails g . d > 0 (the memory is then dropped), goes along
    project(u) from alpha = _STEP_INIT.  The energy sequence is
    non-increasing by construction and checked so.

    Returns (x, energy, iterations, stop_reason), where stop_reason is
    "grad_tol" (converged), "max_iters" or "step_collapse" (no trial step
    above rounding level decreased the energy).
    """
    x, project = retract_fn(x0)
    e = value_fn(x)
    g = project(egrad_fn(x))
    u = solve_fn(g)
    memory = _PairMemory(g.size)
    iters = 0
    while True:
        if float(np.max(np.abs(g))) <= config.grad_tol * (1 + abs(e)):
            reason = "grad_tol"
            break
        if iters == config.max_iters:
            reason = "max_iters"
            break
        iters += 1
        d = memory.direction(g, u, project)
        gd = float(np.sum(g * d)) if d is not None else 0.0
        alpha = 1.0
        if not gd > 0:
            memory.clear()
            d = project(u)
            gd = float(np.sum(g * d))
            alpha = _STEP_INIT
        accepted = False
        for _ in range(60):
            xt, project_t = retract_fn(x - alpha * d)
            et = value_fn(xt)
            if et <= e - _ARMIJO_C * alpha * gd + 1e-15 * (1 + abs(e)):
                accepted = True
                break
            alpha *= _ARMIJO_SHRINK
        if not accepted:
            reason = "step_collapse"
            break
        if et > e + 1e-12 * (1 + abs(e)):
            raise RuntimeError("descent must be monotone")
        gt = project_t(egrad_fn(xt))
        ut = solve_fn(gt)
        s, y = xt - x, gt - g
        sy = float(np.sum(s * y))
        if sy > 1e-12 * float(np.sqrt(np.sum(s * s) * np.sum(y * y))):
            memory.push(s, y, ut - u, sy)
        x, project, e, g, u = xt, project_t, et, gt, ut
    return x, e, iters, reason


def _retraction(target, boundary):
    """retract_fn of _descend for values on the target surface with the
    boundary's pinned rows.

    Points are fields (n_phi, n_t, 3) or profiles (n_t, 3): t is axis -2
    in both.  retract(y) is the closest-point projection followed by
    resetting the pinned rows (BoundaryCondition.apply); its project maps
    vectors to the tangent space at the retracted point: the target's
    tangent planes on free rows, zero on pinned rows.  The tangent frame is
    built on the first projection at a point, from the profile parameters
    the retraction computed, so a rejected trial point costs no frame and
    an accepted one costs one frame and no re-projection.
    """
    rows = list(boundary.pinned)

    def retract(y):
        x, params = project_points(target, y)
        x = boundary.apply(x)
        frame = None

        def project(w):
            nonlocal frame
            if frame is None:
                frame = tangent_frame(target, x, params)
            out = project_to_frame(frame, w)
            if rows:
                out[..., rows, :] = 0.0
            return out

        return x, project

    return retract


# ---------------------------------------------------------------------------
# solve reports
# ---------------------------------------------------------------------------

@dataclass
class SolveReport:
    best_field: DiscreteField
    best_energy: EnergyBreakdown
    iterations: list
    converged: bool
    mode: object
    margin: object
    diagnostics: dict
    best_profile: Optional[ProfileField] = None
    restart_energies: list = dc_field(default_factory=list)
    restart_fields: Optional[list] = None
    seed: int = 0
    stop_reasons: list = dc_field(default_factory=list)
    coarse_iterations: Optional[list] = None

    def to_dict(self):
        out = {
            "best_energy": self.best_energy.to_dict(),
            "iterations": list(self.iterations),
            "restart_energies": [float(v) for v in self.restart_energies],
            "stop_reasons": list(self.stop_reasons),
            "converged": bool(self.converged),
            "seed": int(self.seed),
            "hypothesis_margin": {
                "min_h1w": self.margin.min_h1w,
                "strict": self.margin.strict,
                "sup_h1w": self.margin.sup_h1w,
            },
            "diagnostics": dict(self.diagnostics),
        }
        if self.coarse_iterations is not None:
            out["coarse_iterations"] = list(self.coarse_iterations)
        return out


def field_diagnostics(field, energy):
    """Mode decomposition and symmetry diagnostics of a reported field.

    energy is the field's EnergyBreakdown.  Returns (ModeDecomposition,
    diagnostics dict); the vertical phi-derivative mass is read from the
    decomposition's mode masses.
    """
    dec = mode_decompose(field)
    scale = max(float(np.max(np.linalg.norm(field.values, axis=-1))), 1e-30)
    l2_sq = float(np.sum(field.mesh.quad_weights
                         * np.sum(field.values ** 2, axis=-1)))
    # absolute floors keep the relative diagnostics meaningful for
    # degenerate (near-zero) minimizers
    energy_floor = abs(energy.total) + 1e-12 * (1 + l2_sq)
    labels = line_symmetry_classify(field, tol=max(1e-3 * scale, 1e-12))
    mean = circular_average_perp(field)
    alpha, beta = dec.alpha_perp, dec.beta_perp
    anorm = np.linalg.norm(alpha, axis=1)
    bnorm = np.linalg.norm(beta, axis=1)
    amax = max(float(np.max(anorm)), 1e-30)
    active = anorm >= 1e-6 * scale
    if np.any(active):
        orth_norm = float(np.max(np.abs(anorm[active] - bnorm[active]))) / amax
        orth_dot = float(np.max(np.abs(
            np.sum(alpha[active] * beta[active], axis=1)))) / amax ** 2
    else:
        orth_norm = orth_dot = 0.0
    dphi_vert_mass = 2 * np.pi * float(
        np.sum(phi_symbol(field.mesh.n_phi)[:, None] * dec.mass[..., 2]
               * (field.mesh.sqrtg * field.mesh.dt)[None, :]))
    return dec, {
        "residual_energy": dec.residual_energy,
        "residual_over_total": dec.residual_energy / energy_floor,
        "null_average_norm": float(np.max(np.linalg.norm(mean, axis=1))),
        "defect_symmetric": symmetry_defect(field, "symmetric"),
        "defect_antisymmetric": symmetry_defect(field, "antisymmetric"),
        "line_symmetry_labels": labels,
        "neither_rows": int(sum(1 for v in labels if v == "neither")),
        "orthogonality_norm_residual": orth_norm,
        "orthogonality_dot_residual": orth_dot,
        "dphi_vertical_mass": dphi_vert_mass,
        "dphi_vertical_over_total": dphi_vert_mass / energy_floor,
        "constraint_defect": field.constraint_defect(),
        "field_scale": scale,
    }


def _normal_profile(mesh, target):
    """The base surface's normal profile projected onto the target: the
    profile of every structured start."""
    prof, _ = project_points(target, mesh.surface.normal_profile(mesh.t))
    return prof


@dataclass(frozen=True)
class _Level:
    """One grid of a solve: the functional on it, and the retraction and
    H^1 solve that every restart descending there shares."""

    mesh: SurfaceMesh
    value_fn: Callable
    egrad_fn: Callable
    retract: Callable
    solve: Callable


def _level(mesh, target, boundary, value_fn, egrad_fn, profile=False):
    """The _Level of fields (profiles when profile) on mesh, with the
    boundary's pinned rows frozen in the preconditioner."""
    precond = SobolevPreconditioner(mesh, profile=profile,
                                    frozen_rows=boundary.frozen_rows(mesh.n_t))
    return _Level(mesh, value_fn, egrad_fn, _retraction(target, boundary),
                  precond.solve)


def _solve_restarts(level, target, params, inits, to_field, config,
                    ladder=(), ladder_inits=(), keep_fields=False):
    """Descend from every init and report the best end.

    inits are fields (n_phi, n_t, 3) or profiles (n_t, 3) on level.mesh.
    The ladder holds coarse levels, coarsest first, and the ladder_inits
    are fields on its first level (on level.mesh without a ladder); their
    restarts come first.  Each descends on every level of the ladder in
    turn and is prolonged one level up (fields.resample) after each; the
    retraction that starts the next descent puts it back on the target and
    its pinned rows.  Each end x on level.mesh is ranked by total_energy
    of its 2D field to_field(x): the lowest wins, ties going to the lowest
    index; an end whose energy is not finite is a NonFiniteSolveError.
    The report carries every restart's energy, iterations and stop reason
    on level.mesh (its field too with keep_fields) and the winner's
    diagnostics; with a ladder it also carries every restart's [n_phi,
    n_t, iterations] per coarse level ([] for the others).  Returns (the
    winner's point, its SolveReport).
    """
    def descend(x0, lv):
        return _descend(x0, lv.value_fn, lv.egrad_fn, lv.retract, lv.solve,
                        config)

    meshes = [lv.mesh for lv in ladder] + [level.mesh]

    def climb(x0):
        counts = []
        for lv, up in zip(ladder, meshes[1:]):
            x, _, iters, _ = descend(x0, lv)
            counts.append([lv.mesh.n_phi, lv.mesh.n_t, iters])
            x0 = resample(DiscreteField(lv.mesh, target, x), up).values
        return x0, counts

    starts = [climb(x0) for x0 in ladder_inits] + [(x0, []) for x0 in inits]
    ends = [descend(x0, level) for x0, _ in starts]
    fields = [to_field(x) for x, *_ in ends]
    energies = [total_energy(f, params) for f in fields]
    for i, energy in enumerate(energies):
        if not np.isfinite(energy.total):
            raise NonFiniteSolveError(f"solve non-finite: restart {i} ends "
                                      f"at energy {energy.total}")
    best = min(range(len(ends)), key=lambda i: (energies[i].total, i))
    mode, diagnostics = field_diagnostics(fields[best], energies[best])
    return ends[best][0], SolveReport(
        best_field=fields[best],
        best_energy=energies[best],
        iterations=[end[2] for end in ends],
        converged=ends[best][3] == "grad_tol",
        stop_reasons=[end[3] for end in ends],
        mode=mode,
        margin=hypothesis_margin(level.mesh, params.weight),
        diagnostics=diagnostics,
        restart_energies=[e.total for e in energies],
        restart_fields=fields if keep_fields else None,
        seed=config.seed,
        coarse_iterations=[c for _, c in starts] if ladder else None,
    )


# ---------------------------------------------------------------------------
# 2D minimization
# ---------------------------------------------------------------------------

def _ladder_shapes(mesh):
    """The (n_phi, n_t) of a random restart's coarse grids, coarsest first:
    both halved while the halves stay >= _LADDER_FLOOR, n_phi divisible by
    4 and n_t even; none for grids that cannot be halved so."""
    shapes = []
    n_phi, n_t = mesh.shape
    while (n_phi % 4 == 0 and n_t % 2 == 0
           and min(n_phi, n_t) // 2 >= _LADDER_FLOOR):
        n_phi, n_t = n_phi // 2, n_t // 2
        shapes.append((n_phi, n_t))
    return shapes[::-1]


def _coarse_params(params, mesh, coarse):
    """params restricted to the grid coarse (fields.resample_phi,
    resample_t): the anisotropy's and the weight's node values sub-sampled
    in phi (halving nests the phi nodes) and interpolated in t, W^2
    interpolated in t, the Dirichlet rows sub-sampled, and the potential
    as it is."""
    def restrict(values):
        return resample_t(resample_phi(values, coarse.n_phi), mesh, coarse)

    rows = (params.boundary.bottom, params.boundary.top)
    return replace(
        params,
        aniso=replace(params.aniso,
                      node_values=restrict(params.aniso.node_values)),
        weight=Weight(resample_t(params.weight.W2[None], mesh, coarse)[0],
                      restrict(params.weight.node_values)),
        boundary=BoundaryCondition(*(None if r is None else
                                     resample_phi(r, coarse.n_phi)
                                     for r in rows)))


def _field_level(mesh, target, params):
    """(_Level, to_field) of the 2D energy under params on mesh."""
    def to_field(vals):
        return DiscreteField(mesh, target, vals)

    def value_fn(vals):
        return total_energy(to_field(vals), params).total

    def egrad_fn(vals):
        return euclidean_gradient(to_field(vals), params)

    return _level(mesh, target, params.boundary, value_fn, egrad_fn), to_field


# The solvers raise no floating-point warning: a value that overflows on
# the way ends in a non-finite pivot of the H^1 operator (H1OperatorError)
# or a non-finite end energy (NonFiniteSolveError, _solve_restarts).
_QUIET = np.errstate(over="ignore", invalid="ignore")


@_QUIET
def minimize_2d(mesh, target, params, config=SolveConfig(), keep_fields=False):
    """Best-of-restarts projected descent on the full 2D field.

    Runs `restarts` seeded random initializations plus the two swept
    normal-profile fields, descends each monotonically with the H^1
    preconditioner, and reports the lowest-energy result with symmetry
    diagnostics (_solve_restarts).  Each random restart starts on a ladder
    of halved grids (_ladder_shapes: 64 x 64 descends on 16 x 16, then
    32 x 32; no grid below _LADDER_FLOOR = 16 rows or meridians, so
    32 x 24 and 16 x 16 get none): its random field is drawn on the
    coarsest grid, whose draws do not depend on the grid, and each coarse
    level has the params restricted from the caller's (_coarse_params),
    the same stop test and max_iters.  The structured starts and the
    requested grid keep the caller's params.  iterations and stop_reasons
    describe the requested grid; coarse_iterations gives every restart's
    [n_phi, n_t, iterations] per coarse level, [] for the structured
    ones, and is None when no ladder ran.  A NotConverged state
    (converged=False) is reported when the winning restart did not meet
    the gradient tolerance; it is not an exception.  keep_fields retains
    every restart's final field in the report; no command sets it, and it
    stays for tests/test_acceptance.py, whose gate passes it.
    """
    level, to_field = _field_level(mesh, target, params)
    coarse = [build_mesh(mesh.surface, *shape)
              for shape in (_ladder_shapes(mesh) if config.restarts else [])]
    ladder = [_field_level(c, target, _coarse_params(params, mesh, c))[0]
              for c in coarse]
    randoms = [random_field((coarse + [mesh])[0], target,
                            seed=config.seed + r).values
               for r in range(config.restarts)]
    prof = _normal_profile(mesh, target)
    inits = [build_from_profile(mesh, ProfileField(mesh.t, prof, variant),
                                target).values for variant in VARIANTS]
    return _solve_restarts(level, target, params, inits, to_field, config,
                           ladder, randoms, keep_fields)[1]


# ---------------------------------------------------------------------------
# 1D profile minimization
# ---------------------------------------------------------------------------

def profile_energy(mesh, target, params, profile):
    """Reduced functional value: the 2D energy of the swept profile.  No
    command calls it; tests/test_acceptance.py checks the reported 1D
    energy against it, and demos/04_profile_reduction.py prints it."""
    return total_energy(build_from_profile(mesh, profile, target), params)


def _profile_boundary(mesh, boundary, variant):
    """The boundary of a variant's profiles: each Dirichlet ring pinned by
    its value at phi = 0, which the variant's sweep carries onto the ring.
    BoundaryVariantError when a ring is off the sweep by more than
    RING_TOL (ring_defect)."""
    ends = {}
    for side in ("bottom", "top"):
        ring = getattr(boundary, side)
        if ring is not None:
            defect = ring_defect(mesh.phi, ring, variant)
            if defect > RING_TOL:
                raise BoundaryVariantError(
                    f"the {side} ring data is not {variant} "
                    f"(ring_defect {defect:.3g})")
            ends[side] = ring[0]
    return replace(boundary, **ends)


@_QUIET
def minimize_1d_profile(mesh, target, params, variant, config=SolveConfig()):
    """Minimize the reduced functional over target-valued t-profiles.

    The descent evaluates ProfileFunctional: the 2D energy of the swept
    field m_i = R(phi_i) gamma and its exact pullback gradient
    dF/dgamma = sum_i R(phi_i)^T grad2d[i], in closed form on the profile,
    and descends with the profile H^1 preconditioner (_solve_restarts).
    The starts are the normal profile, then `restarts` seeded random
    profiles.  Dirichlet rows pin the profile's end rows
    (_profile_boundary; BoundaryVariantError, before any descent, when the
    variant cannot meet the ring data) and are frozen in the
    preconditioner.  Restart energies, the choice of the best restart and
    every reported energy come from total_energy of the built 2D field.  A
    warning is recorded when the anisotropy variant differs from the
    requested profile variant (the symmetry pairing is then broken).
    """
    boundary = _profile_boundary(mesh, params.boundary, variant)
    reduced = ProfileFunctional(mesh, params, variant)
    level = _level(mesh, target, boundary, reduced.value, reduced.gradient,
                   profile=True)

    def to_field(gamma):
        return build_from_profile(mesh, ProfileField(mesh.t, gamma, variant),
                                  target)

    inits = [_normal_profile(mesh, target)]
    inits += [random_field(mesh, target, seed=config.seed + 500 + r).values[0]
              for r in range(config.restarts)]
    gamma, report = _solve_restarts(level, target, params, inits, to_field,
                                    config)
    report.best_profile = ProfileField(mesh.t, gamma, variant)
    report.diagnostics["variant_mismatch_warning"] = \
        params.aniso.variant != variant
    return report


# ---------------------------------------------------------------------------
# symmetrization certificate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChainReport:
    """Audit of E(u) <= eq1 <= eq2 <= E(m) for one field; of a stack, the
    figures, residuals and certified hold one value per field."""

    phi_star: float
    energy_m: EnergyBreakdown
    energy_u: EnergyBreakdown
    eq1: float
    eq2: float
    residuals: dict
    margin: object
    hypothesis_violation: bool
    certified: bool

    def to_dict(self):
        return {
            "phi_star": self.phi_star,
            "energy_m": self.energy_m.to_dict(),
            "energy_u": self.energy_u.to_dict(),
            "eq1": self.eq1,
            "eq2": self.eq2,
            "residuals": dict(self.residuals),
            "min_h1w": self.margin.min_h1w,
            "hypothesis_violation": self.hypothesis_violation,
            "certified": self.certified,
        }


def symmetrize_and_certify(field, params, variant):
    """Symmetrize at the best slice and audit the energy inequality chain.

    Returns (u, ChainReport); a stack of fields gives the stack of their
    u and one report whose figures hold one value per field.  When the
    hypothesis h1 W >= sqrt(2 pi) fails, the chain may legitimately break;
    the report then flags hypothesis_violation rather than raising.
    """
    margin = hypothesis_margin(field.mesh, params.weight)
    ct = chain_terms(field, params)
    u = symmetrize(field, ct.phi_star, variant)
    bd_u = total_energy(u, params)
    e_m = ct.energy_m.total
    slack = CHAIN_SLACK * (1 + abs(e_m))
    residuals = {
        "slice_vs_mean": ct.eq1 - bd_u.total,
        "poincare_wirtinger": ct.eq2 - ct.eq1,
        "vertical_mode": e_m - ct.eq2,
        "total_gap": e_m - bd_u.total,
    }
    certified = np.all([v >= -slack for v in residuals.values()], axis=0)
    return u, ChainReport(ct.phi_star, ct.energy_m, bd_u, ct.eq1, ct.eq2,
                          residuals, margin, not margin.holds,
                          per_field(certified))


# ---------------------------------------------------------------------------
# annulus boundary-value problem
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AnnulusReport:
    t_grid: np.ndarray
    phi: np.ndarray
    solution: np.ndarray        # (n_phi, n_t + 1, 3), boundary rows included
    mean_perp: np.ndarray       # (n_t + 1, 2) ring averages of (mx, my)
    max_mean_perp: float
    residual: float
    kappa: float

    def to_dict(self):
        return {
            "kappa": self.kappa,
            "max_mean_perp": self.max_mean_perp,
            "residual": self.residual,
            "n_phi": int(self.solution.shape[0]),
            "n_t": int(self.solution.shape[1] - 1),
        }


# smallest grid solve_annulus_example accepts
ANNULUS_MIN_GRID = {"n_t": 3, "n_phi": 4}


def annulus_boundary_from_vector(n_phi, vector):
    """Axially symmetric ring data b(phi) = A(phi)^T e at uniform phi nodes
    (solve_annulus_example refuses any other)."""
    phi = 2 * np.pi * np.arange(n_phi) / n_phi
    return rotate(phi, np.asarray(vector, dtype=float)[None, :])


def solve_annulus_example(n_t, n_phi, kappa, b1, b2):
    """Solve -Lap m + kappa (m.e3) e3 = 0 on the annulus 1 <= r <= 2 with
    ring data.

    b1, b2 are (n_phi, 3) samples on the inner and outer rings and must be
    axially symmetric.  Componentwise linear solve: the horizontal parts
    are harmonic, the vertical part carries the +kappa zero-order term.
    The 3-point phi-stencil has symbol mu_k = (2 - 2 cos k dphi)/dphi^2 on
    the phi Fourier mode k, so after an rfft of the ring data every mode is
    a tridiagonal radial problem.  One sweep (geometry.tridiagonal_solve)
    solves them all: modes are stacked, real and imaginary parts of each
    component are columns, and each column carries its own shift (0 for x
    and y, kappa for z).  The sweep does not pivot; a kappa at or near a
    Dirichlet eigenvalue shows as a non-finite, blown-up or inexact
    solution, each refused with SingularSystemError.  The ring average of
    the horizontal part is the k = 0 mode, whose ring data vanish for
    symmetric rings, so it vanishes up to rounding whatever the ring data.
    The residual is that of the polar 5-point stencil applied to the
    assembled solution.
    """
    if n_t < ANNULUS_MIN_GRID["n_t"] or n_phi < ANNULUS_MIN_GRID["n_phi"]:
        raise ValueError("annulus grid too small")
    b1 = np.asarray(b1, dtype=float)
    b2 = np.asarray(b2, dtype=float)
    if b1.shape != (n_phi, 3) or b2.shape != (n_phi, 3):
        raise ValueError("boundary data must have shape (n_phi, 3)")
    phi = 2 * np.pi * np.arange(n_phi) / n_phi
    for ring in (b1, b2):
        if ring_defect(phi, ring) > RING_TOL:
            raise ValueError("annulus boundary data must be axially symmetric")

    h = 1.0 / n_t                                   # rings at r = 1 and 2
    t = 1.0 + h * np.arange(n_t + 1)
    dphi = 2 * np.pi / n_phi
    tk = t[1:-1]                                    # interior radii
    c_up = (tk + h / 2) / (tk * h * h)              # coupling to ring k + 1
    c_dn = (tk - h / 2) / (tk * h * h)              # coupling to ring k - 1
    c_phi = 1.0 / (tk * tk * dphi * dphi)           # to either phi neighbour

    rhs = np.zeros((n_phi, n_t - 1, 3))             # the ring data's share
    rhs[:, 0] = c_dn[0] * b1
    rhs[:, -1] = c_up[-1] * b2
    coeff = np.fft.rfft(rhs, axis=0)
    n_modes = coeff.shape[0]
    mu = 4 * np.sin(0.5 * dphi * np.arange(n_modes)) ** 2    # 2 - 2 cos

    # rows first for the sweep: (n_t - 1, n_modes, 6), real and imaginary
    # parts of x, y, z as columns, each with its shift
    shift = np.array([0.0, 0.0, kappa] * 2)
    diag = ((c_up + c_dn)[:, None] + mu * c_phi[:, None])[..., None] + shift
    cols = np.concatenate([coeff.real, coeff.imag], axis=-1).transpose(1, 0, 2)
    x, _ = tridiagonal_solve(-c_dn[1:, None, None], diag,
                             -c_up[:-1, None, None], cols)
    x = np.fft.irfft(x[..., :3] + 1j * x[..., 3:], n=n_phi,
                     axis=1).transpose(1, 0, 2)
    if not np.all(np.isfinite(x)):
        raise SingularSystemError(
            f"annulus solve non-finite for kappa={kappa:g}")
    x_max = np.max(np.abs(x), axis=(0, 1))          # per component
    if np.any(x_max > 1e10 * np.maximum(1.0, np.max(np.abs(rhs), axis=(0, 1)))):
        raise SingularSystemError(
            f"annulus solution blow-up: kappa={kappa:g} is numerically "
            "at a Dirichlet eigenvalue")

    sol = np.concatenate([b1[:, None], x, b2[:, None]], axis=1)
    up, dn, ph = c_up[:, None], c_dn[:, None], c_phi[:, None]
    ring_sum = np.roll(sol, 1, axis=0) + np.roll(sol, -1, axis=0)
    res = np.max(np.abs((up + dn + 2 * ph + np.array([0.0, 0.0, kappa]))
                        * sol[:, 1:-1] - ph * ring_sum[:, 1:-1]
                        - up * sol[:, 2:] - dn * sol[:, :-2]), axis=(0, 1))
    if np.any(res > 1e-8 * np.maximum(1.0, x_max)):
        raise SingularSystemError(
            f"annulus residual {float(np.max(res)):.2e} too large "
            f"for kappa={kappa:g}")

    mean_perp = sol[..., :2].mean(axis=0)
    return AnnulusReport(t, dphi * np.arange(n_phi), sol, mean_perp,
                         float(np.max(np.linalg.norm(mean_perp, axis=1))),
                         float(np.max(res)), float(kappa))
