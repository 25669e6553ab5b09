"""Discrete energy of target-valued fields on a surface of revolution.

In the (phi, t) chart the energy has three parts,

    E(m) = int [ |d_phi m|^2/h1^2 + |d_t m|^2/h2^2 ] sqrt(g) dphi dt
         + int g(m . a) sqrt(g) dphi dt
         + int W^2(t) |<m_perp>(t)|^2 sqrt(g) dt,

where <m_perp>(t) is the circular mean of the horizontal part and
W^2(t) = int omega^2(phi, t) dphi is the circular integral weight.  The
penalty is evaluated in its reduced t-only form; the identity with the raw
double integral is exact for the rectangle rule and is asserted in tests.

Discretization: the phi-derivative term is the exact H^1 seminorm of the
trigonometric interpolant (FFT multiplier k^2, Nyquist included), so pure
first harmonics have exactly their continuum energy and the discrete
Poincare-Wirtinger inequality holds mode by mode.  The t-derivative term
is in conservative flux form: first differences between adjacent t nodes,
weighted by sqrt(g)/h2^2 evaluated at the cell edge between them
(SurfaceMesh.edge_weights).  This is second-order accurate, closes
periodically for closed curves, imposes the natural boundary condition at
free ends, and at axis-touching ends the pole edge weight vanishes with
sqrt(g), so fields that are smooth across the pole are discretely
near-critical there (no pole special-casing).  The differences and their
transpose are array slices along the t axis (t_diff, t_diff_transpose);
no matrix is assembled.

Field values are (..., n_phi, n_t, 3): phi on axis -3, t on axis -2 and
the component on axis -1, after any leading stack axes.  The energy
terms and the chain terms reduce over the last three axes and return one
value per stacked field, the same bits as the field alone gives; one
field's values stay Python floats.

All reductions are fixed-order numpy sums, so reruns are bit-identical.
Everything here runs in numpy, the H^1 preconditioner and the table
potential's cubic spline included (geometry.tridiagonal_solve and
geometry.cubic_spline).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional

import numpy as np

from .geometry import (cubic_spline, dot3, sweep, tangent_project_points,
                       tridiagonal_solve)
from .fields import circular_average_perp, per_field

SQRT_2PI = float(np.sqrt(2 * np.pi))


class NonDifferentiableError(ValueError):
    """Custom potential table has kinks; no analytic gradient available."""


class H1OperatorError(np.linalg.LinAlgError):
    """The H^1 operator of a base mesh has a non-finite or non-positive
    pivot: the base surface's size over- or underflows it."""


# ---------------------------------------------------------------------------
# anisotropy potentials g
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AnisotropyPotential:
    """Nonnegative Lipschitz penalty g of the alignment s = m . a; the dg of
    a kinked table raises NonDifferentiableError."""

    kind: str
    g: Callable
    dg: Callable

    def check_range(self, smax):
        """Scan [-smax, smax] at 10000 points: g must be nonnegative."""
        s = np.linspace(-smax, smax, 10_000)
        if np.any(self.g(s) < -1e-12):
            raise ValueError(
                f"potential {self.kind} negative on [-{smax:g}, {smax:g}]")


def quadratic_potential(kappa):
    """g(s) = kappa s^2 (in-plane alignment favored for kappa > 0)."""
    if kappa < 0:
        raise ValueError("quadratic potential needs kappa >= 0")
    return AnisotropyPotential(
        "quadratic", lambda s: kappa * np.asarray(s) ** 2,
        lambda s: 2 * kappa * np.asarray(s))


def easy_normal_potential(kappa):
    """g(s) = |kappa| (1 - s^2): alignment with +-a favored; needs |s| <= 1."""
    k = abs(float(kappa))
    return AnisotropyPotential(
        "easy_normal", lambda s: k * (1 - np.asarray(s) ** 2),
        lambda s: -2 * k * np.asarray(s))


def quartic_potential(lam):
    """g(s) = lam (1 - s^2)^2, minimized at s = +-1."""
    if lam < 0:
        raise ValueError("quartic potential needs lam >= 0")
    return AnisotropyPotential(
        "quartic", lambda s: lam * (1 - np.asarray(s) ** 2) ** 2,
        lambda s: -4 * lam * np.asarray(s) * (1 - np.asarray(s) ** 2))


def table_potential(s_samples, g_samples):
    """Cubic-spline potential through (s, g) samples (not-a-knot ends,
    geometry.cubic_spline).

    Kinks are flagged when the largest second difference exceeds 1e3 times
    the median one; a table of two rows has none.  The derivative of a
    kinked table raises NonDifferentiableError, so every gradient refuses
    it.
    """
    g, dg = cubic_spline(s_samples, g_samples)
    gv = np.asarray(g_samples, dtype=float)
    d2 = np.abs(np.diff(gv, 2))
    kinked = False
    if d2.size:
        denom = max(float(np.median(d2)),
                    1e-12 * (float(np.max(np.abs(gv))) + 1.0))
        kinked = bool(np.max(d2) > 1e3 * denom)
    return AnisotropyPotential("custom_table", g,
                               _refuse_kinked if kinked else dg)


def _refuse_kinked(s):
    raise NonDifferentiableError(
        "custom potential table has kinks; gradient refused")


# ---------------------------------------------------------------------------
# anisotropy fields a
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AnisotropyField:
    """Rotation-(contra)variant reference field a cached at mesh nodes."""

    variant: str                 # "symmetric" | "antisymmetric"
    node_values: np.ndarray      # (n_phi, n_t, 3)


def aniso_surface_normal(mesh):
    """a = unit normal of the base surface (axially symmetric)."""
    return aniso_profile(mesh, mesh.surface.normal_profile(mesh.t), "symmetric")


def aniso_constant_e3(mesh):
    return aniso_profile(mesh, [0.0, 0.0, 1.0], "symmetric")


def aniso_profile(mesh, profile0, variant):
    """a swept from a profile a0, (n_t, 3) or one 3-vector for every t:
    symmetric uses A(phi)^T a0, antisymmetric uses A(phi) a0."""
    prof = np.asarray(profile0, dtype=float)
    if prof.shape == (3,):
        prof = np.broadcast_to(prof, (mesh.n_t, 3)).copy()
    if prof.shape != (mesh.n_t, 3):
        raise ValueError("anisotropy profile must have shape (n_t, 3)")
    return AnisotropyField(
        variant, sweep(mesh.phi[:, None], prof[None, :, :], variant))


# ---------------------------------------------------------------------------
# penalty weights omega, W
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Weight:
    """Penalty weight omega with cached circular integral W^2(t)."""

    W2: np.ndarray               # (n_t,)
    node_values: np.ndarray      # (n_phi, n_t), for reference/auditing


def weight_zero(mesh):
    return weight_constant(mesh, 0.0)


def weight_constant(mesh, lam):
    if lam < 0:
        raise ValueError("omega must be nonnegative")
    vals = np.full(mesh.shape, float(lam))
    W2 = np.full(mesh.n_t, 2 * np.pi * lam ** 2)
    return Weight(W2, vals)


def weight_t_profile(mesh, omega0):
    """omega depending on t only, sampled at the t nodes (n_t,);
    W^2 = 2 pi omega0^2."""
    om = np.asarray(omega0, dtype=float)
    if np.any(om < 0):
        raise ValueError("omega must be nonnegative")
    vals = np.broadcast_to(om, mesh.shape).copy()
    return Weight(2 * np.pi * om ** 2, vals)


def weight_margin_profile(mesh, margin):
    """omega0 = margin / h1(t): makes h1 W identically margin * sqrt(2 pi).

    The natural way to impose a uniform hypothesis margin on surfaces whose
    generating curve touches the axis (h1 -> 0 there while sup h1 W stays
    finite); mesh nodes never sample the axis itself.
    """
    return weight_t_profile(mesh, margin / mesh.h1)


@dataclass(frozen=True)
class MarginReport:
    """min/sup of h1(t) W(t) over mesh nodes, and the hypothesis state they
    give; holds is the one test of the margin hypothesis h1 W >= sqrt(2 pi)."""

    min_h1w: float
    sup_h1w: float

    @property
    def strict(self):
        return self.min_h1w > SQRT_2PI

    @property
    def borderline(self):
        return (not self.strict) and self.min_h1w >= SQRT_2PI * (1 - 1e-9)

    @property
    def state(self):
        """The hypothesis state: "zero" iff W vanishes (h1 > 0 at every
        node, so iff sup h1 W = 0), else "strict", "borderline" or "below"."""
        if self.sup_h1w == 0:
            return "zero"
        if self.strict:
            return "strict"
        return "borderline" if self.borderline else "below"

    @property
    def holds(self):
        return self.state in ("strict", "borderline")


def hypothesis_margin(mesh, weight):
    h1w = mesh.h1 * np.sqrt(weight.W2)
    lo, hi = float(np.min(h1w)), float(np.max(h1w))
    return MarginReport(lo, hi)


# ---------------------------------------------------------------------------
# boundary conditions and assembled parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundaryCondition:
    """Dirichlet rows pinned at the ends of the t-range; free without
    rows."""

    bottom: Optional[np.ndarray] = None   # (n_phi, 3) or None
    top: Optional[np.ndarray] = None

    @property
    def pinned(self):
        """{row: data} of the pinned end rows, the top row as -1: t is axis
        -2 of fields (n_phi, n_t, 3) and profiles (n_t, 3) alike."""
        return {row: data for row, data in ((0, self.bottom), (-1, self.top))
                if data is not None}

    def frozen_rows(self, n_t):
        return [row % n_t for row in self.pinned]

    def apply(self, values):
        """values with the pinned rows reset to their data."""
        out = values.copy() if self.pinned else values
        for row, data in self.pinned.items():
            out[..., row, :] = data
        return out


def dirichlet_rows_from_vector(mesh, vector, variant="symmetric"):
    """Boundary ring data b(phi) = A(phi)^T e (or A(phi) e), exactly
    (anti)symmetric by construction."""
    return sweep(mesh.phi, np.asarray(vector, dtype=float)[None, :], variant)


@dataclass(frozen=True)
class EnergyParams:
    """One instance of the energy: potential, reference field, weight, BCs."""

    potential: AnisotropyPotential
    aniso: AnisotropyField
    weight: Weight
    boundary: BoundaryCondition = dc_field(default_factory=BoundaryCondition)


def make_params(mesh, target, potential, aniso, weight, boundary=None):
    """Assemble and validate EnergyParams for one instance.

    The potential is checked for nonnegativity on the realized alignment
    range |m . a| <= max|gamma_T| max|a|.  Dirichlet rows may take any
    values: the 2D solve pins them as they are, and the 1D reduction
    checks that its variant's sweep meets them.  mesh is not read; the
    parameter stays because perfbench/tests calls make_params(mesh, ...).
    """
    boundary = boundary or BoundaryCondition()
    ts = np.linspace(*target.interval, 2048)
    x, z, _, _ = target.jet(ts)
    r_target = float(np.max(np.hypot(x, z)))
    smax = r_target * float(np.max(np.linalg.norm(aniso.node_values, axis=-1)))
    potential.check_range(max(smax, 1e-9))
    return EnergyParams(potential, aniso, weight, boundary)


# ---------------------------------------------------------------------------
# discrete derivative operators
# ---------------------------------------------------------------------------

def phi_symbol(n_phi):
    """k^2 for k = 0..n_phi/2: the symbol of -d^2/dphi^2 on rfft modes."""
    return np.arange(n_phi // 2 + 1, dtype=float) ** 2


def lphi(values):
    """Spectral operator with symbol k^2 along phi (axis -3 of (..., n_phi,
    n_t, k)), acting on real arrays; self-adjoint and PSD for the
    rectangle-rule inner product."""
    n = values.shape[-3]
    coeff = np.fft.rfft(values, axis=-3)
    coeff *= phi_symbol(n)[:, None, None]
    return np.fft.irfft(coeff, n=n, axis=-3)


def t_diff(values, mesh):
    """Differences a[j+1] - a[j] across the t edges of each meridian.

    t runs along axis -2 of values (a profile (n_t, k) or a field
    (n_phi, n_t, k)); the edges are those of mesh.edge_weights, so a closed
    curve adds the seam difference a[0] - a[n_t-1] last.  Callers scale
    by 1/dt first: t_diff(c * m) is c m[j+1] - c m[j].
    """
    if mesh.surface.closed:
        return np.roll(values, -1, axis=-2) - values
    return values[..., 1:, :] - values[..., :-1, :]


def t_diff_transpose(flux, mesh):
    """Transpose of t_diff: each edge adds +flux to its upper node and
    -flux to its lower one (edges along axis -2, nodes out)."""
    if mesh.surface.closed:
        return np.roll(flux, 1, axis=-2) - flux
    out = np.zeros(flux.shape[:-2] + (mesh.n_t, flux.shape[-1]))
    out[..., 1:, :] = flux
    out[..., :-1, :] -= flux
    return out


# ---------------------------------------------------------------------------
# energy terms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnergyBreakdown:
    dirichlet: float
    anisotropy: float
    penalty: float
    total: float

    def to_dict(self):
        return {"dirichlet": self.dirichlet, "anisotropy": self.anisotropy,
                "penalty": self.penalty, "total": self.total}


def _t_energy_per_slice(field_values, mesh):
    """Flux-form t-derivative energy attributed per meridian: (..., n_phi)."""
    diffs = t_diff((1.0 / mesh.dt) * field_values, mesh)
    return mesh.dt * np.sum(mesh.edge_weights * dot3(diffs, diffs), axis=-1)


def _alignment_g(field, params):
    """g(m . a) at every node: (..., n_phi, n_t)."""
    return params.potential.g(dot3(field.values, params.aniso.node_values))


def _dirichlet(values, lphi_values, t_slices, mesh):
    """Dirichlet energy from the phi-term of values, given their lphi, and
    the per-meridian t-energies t_slices."""
    rows = np.sum(values * lphi_values, axis=(-3, -1))
    e_phi = mesh.dphi * mesh.dt * np.sum(mesh.sqrtg * rows / mesh.h1 ** 2,
                                         axis=-1)
    return per_field(e_phi + mesh.dphi * np.sum(t_slices, axis=-1))


def _anisotropy(g_values, mesh):
    return per_field(mesh.dphi * mesh.dt * np.sum(
        mesh.sqrtg * g_values.sum(axis=-2), axis=-1))


def dirichlet_energy(field):
    """Quadrature of |d_phi m|^2/h1^2 + |d_t m|^2/h2^2 over the surface."""
    m, mesh = field.values, field.mesh
    return _dirichlet(m, lphi(m), _t_energy_per_slice(m, mesh), mesh)


def anisotropy_energy(field, params):
    return _anisotropy(_alignment_g(field, params), field.mesh)


def penalty_energy(field, params):
    """Reduced t-only form: int W^2(t) |<m_perp>(t)|^2 sqrt(g) dt."""
    mesh = field.mesh
    mean = circular_average_perp(field)
    return per_field(mesh.dt * np.sum(params.weight.W2 * mesh.sqrtg
                                      * np.sum(mean ** 2, axis=-1), axis=-1))


def penalty_energy_raw(field, params):
    """The raw double integral omega^2 |<m_perp>|^2 over the surface; equals
    the reduced form exactly under the rectangle rule.  No solve uses it:
    it is the tests' oracle for penalty_energy, a sum over every node with
    the 2D quadrature weights that does not go through penalty_energy's
    reduced t-only form or its W2 = 2 pi omega^2."""
    mesh = field.mesh
    mean = circular_average_perp(field)
    dens = params.weight.node_values ** 2 * np.sum(mean ** 2, axis=-1)[None, :]
    return float(np.sum(mesh.quad_weights * dens))


def _breakdown(field, params, lphi_values, t_slices, g_values):
    """E(m) from the passes over m that its terms read."""
    d = _dirichlet(field.values, lphi_values, t_slices, field.mesh)
    a = _anisotropy(g_values, field.mesh)
    p = penalty_energy(field, params)
    return EnergyBreakdown(d, a, p, d + a + p)


def total_energy(field, params):
    m = field.values
    return _breakdown(field, params, lphi(m), _t_energy_per_slice(m, field.mesh),
                      _alignment_g(field, params))


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def euclidean_gradient(field, params):
    """Exact gradient of the discrete total energy wrt every node value."""
    mesh = field.mesh
    vals = field.values
    scale = mesh.dphi * mesh.dt
    w_phi = (mesh.sqrtg / mesh.h1 ** 2)[None, :, None]
    grad = 2 * scale * w_phi * lphi(vals)

    c = 1.0 / mesh.dt
    flux = mesh.edge_weights[:, None] * t_diff(c * vals, mesh)
    grad += 2 * scale * t_diff_transpose(c * flux, mesh)

    dots = dot3(vals, params.aniso.node_values)
    grad += scale * mesh.sqrtg[None, :, None] \
        * np.asarray(params.potential.dg(dots))[..., None] * params.aniso.node_values

    mean = circular_average_perp(field)
    coef = (2 * mesh.dt / mesh.n_phi) * (params.weight.W2 * mesh.sqrtg)
    grad[..., :2] += coef[:, None] * mean[..., None, :, :]
    return grad


def riemannian_gradient(field, params):
    """Euclidean gradient followed by tangent projection at each node.

    The solvers project through their retraction instead; the tests use
    this as the gradient of a direct _descend run and check it against
    finite differences.  It is the one caller of
    geometry.tangent_project_points, through the module binding
    energy.tangent_project_points that perfbench/tests asserts the
    benchmark's tracing wraps.
    """
    g = euclidean_gradient(field, params)
    return tangent_project_points(field.target, field.values, g)


# ---------------------------------------------------------------------------
# reduced profile functional
# ---------------------------------------------------------------------------

class ProfileFunctional:
    """Energy of a swept field as a function of its t-profile gamma alone.

    The swept field is m_i = R(phi_i) gamma with R = rotate for the
    symmetric variant and R = rotate_inverse for the antisymmetric one.
    Value and Euclidean gradient are closed forms in gamma that equal
    total_energy of the swept field and the phi-summed pullback
    sum_i R(phi_i)^T euclidean_gradient[i] (up to rounding):

    - phi-term: the horizontal part of a swept field is a pure k = 1 mode,
      on which lphi is the identity, and its vertical part is constant in
      phi, where lphi vanishes;
    - t-term: rotations preserve edge differences, so every meridian
      carries the t-energy of gamma (the mesh's edge weights and seam);
    - anisotropy: m_ij . a_ij = gamma_j . b_ij with b_ij = R(phi_i)^T a_ij,
      exact also when the anisotropy variant differs from the profile's;
    - penalty: the circular mean of a swept horizontal part vanishes.
    """

    def __init__(self, mesh, params, variant):
        self.potential = params.potential
        # b = R(phi)^T a, the sweep by -phi; component-major (3, n_phi,
        # n_t): the dot products stay contiguous
        self.b = np.moveaxis(
            sweep(-mesh.phi[:, None], params.aniso.node_values, variant),
            -1, 0).copy()
        ring = 2 * np.pi * mesh.dt          # dphi * n_phi * dt
        self.w_phi = ring * mesh.sqrtg / mesh.h1 ** 2
        self.w_edges = ring * mesh.edge_weights
        self.c = 1.0 / mesh.dt
        self.w_aniso = mesh.dphi * mesh.dt * mesh.sqrtg
        self.mesh = mesh

    def _dots(self, gamma):
        b = self.b
        return b[0] * gamma[:, 0] + b[1] * gamma[:, 1] + b[2] * gamma[:, 2]

    def value(self, gamma):
        """Energy of the swept field of the (n_t, 3) profile gamma."""
        diffs = t_diff(self.c * gamma, self.mesh)
        dots = self._dots(gamma)
        return float(np.sum(self.w_phi * np.sum(gamma[:, :2] ** 2, axis=-1))
                     + np.sum(self.w_edges * dot3(diffs, diffs))
                     + np.sum(self.w_aniso * self.potential.g(dots).sum(axis=0)))

    def gradient(self, gamma):
        """Euclidean gradient of value() with respect to gamma, (n_t, 3)."""
        diffs = t_diff(self.c * gamma, self.mesh)
        flux = 2 * self.c * self.w_edges[:, None] * diffs
        grad = t_diff_transpose(flux, self.mesh)
        dg = np.asarray(self.potential.dg(self._dots(gamma)))
        grad += self.w_aniso[:, None] * np.einsum("ij,kij->jk", dg, self.b)
        grad[:, :2] += 2 * self.w_phi[:, None] * gamma[:, :2]
        return grad


# ---------------------------------------------------------------------------
# H^1 preconditioner
# ---------------------------------------------------------------------------

class SobolevPreconditioner:
    """Discrete Dirichlet operator plus mass, inverted mode by mode.

    On the phi Fourier mode k of a field the operator acts along each
    meridian as

        H_k = scale (2 T + diag(sqrtg) + 2 k^2 diag(sqrtg / h1^2)),

    where T is the flux-form t-stiffness (the mesh's edge weights
    sqrt(g)/h2^2, over dt^2) and scale = dphi dt, so H is the Hessian of the
    Dirichlet energy plus the quadrature mass.  The seam edge of closed
    curves is left out: every block is then tridiagonal and still symmetric
    positive definite, which is all a preconditioner needs.  Rows listed in
    frozen_rows are decoupled from their neighbours, so on the other rows
    the solve inverts the operator with those rows eliminated, and a
    right-hand side that vanishes on them gives a solution that vanishes
    there too.

    A field preconditioner (profile=False) covers k = 0..n_phi/2 and maps
    (n_phi, n_t, 3) arrays through an rfft along phi.  A profile
    preconditioner (profile=True) serves the reduced functional of swept
    fields, scale 2 pi dt: the vertical component is the k = 0 block, the
    horizontal ones the k = 1 block.

    Every block is eliminated once (tridiagonal_solve on the identity) into
    its dense inverse, and a solve is one stacked matrix product.  The
    inverses hold n_t/6 fields' worth of doubles and cost O(n_t^2) per mode
    and solve: up to about 256 rows that is as fast as a banded Cholesky
    solve, above about 300 rows it is slower and the memory grows with n_t
    (75 MB at 16 x 1024).  A non-finite or non-positive pivot, which a
    positive definite block cannot have, raises H1OperatorError, and so
    does a dt^2 outside the range of a double: a base surface whose size
    over- or underflows the operator ends there, without a floating-point
    warning.
    """

    @np.errstate(over="ignore", invalid="ignore")
    def __init__(self, mesh, profile=False, frozen_rows=()):
        n_t = mesh.n_t
        self.n_phi = mesh.n_phi
        self.profile = profile
        n_modes = 2 if profile else mesh.n_phi // 2 + 1
        scale = (2 * np.pi if profile else mesh.dphi) * mesh.dt
        # numpy's scalar power is libm's pow, as Python's float power is
        # (the same bits), but it overflows to inf, not to an exception
        dt2 = np.float64(mesh.dt) ** 2
        if not 0 < dt2 < np.inf:
            raise H1OperatorError(f"H^1 operator: dt^2 = {mesh.dt!r}^2 is "
                                  f"out of the range of a double")
        w = mesh.edge_weights[:n_t - 1] / dt2
        stiff = np.zeros(n_t)
        stiff[:-1] += w
        stiff[1:] += w
        k2 = phi_symbol(mesh.n_phi)[:n_modes, None]
        off = np.broadcast_to(-2 * scale * w, (n_modes, n_t - 1)).copy()
        diag = scale * (2 * stiff + mesh.sqrtg
                        + 2 * k2 * mesh.sqrtg / mesh.h1 ** 2)
        for r in frozen_rows:
            off[:, max(r - 1, 0):r + 1] = 0.0   # edges r-1 -> r and r -> r+1
        inverse, pivots = tridiagonal_solve(off.T[..., None],
                                            diag.T[..., None],
                                            off.T[..., None],
                                            np.eye(n_t)[:, None, :])
        if not np.all(np.isfinite(pivots) & (pivots > 0)):
            raise H1OperatorError(
                "H^1 operator has a non-finite or non-positive pivot")
        # (n_modes, n_t, n_t) as a view: the rows of each block stay
        # contiguous, which is all the BLAS products below need
        self._inverse = inverse.transpose(1, 0, 2)

    def solve(self, g):
        """H^-1 g for a field (n_phi, n_t, 3) or a profile (n_t, 3)."""
        if self.profile:
            sol = self._inverse @ np.stack([g, g])
            return np.concatenate([sol[1, :, :2], sol[0, :, 2:]], axis=-1)
        coeff = np.fft.rfft(g, axis=0)
        sol = self._inverse @ np.concatenate([coeff.real, coeff.imag],
                                             axis=-1)
        return np.fft.irfft(sol[..., :3] + 1j * sol[..., 3:], n=self.n_phi,
                            axis=0)


# ---------------------------------------------------------------------------
# symmetrization chain terms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChainTerms:
    """The three quantities chained between E(u) and E(m):

        E(u) <= eq1 <= eq2 <= E(m).

    slice_energies holds, per phi node, the slice functional

        Phi_E(phi) = int_t [ |m_perp|^2/h1^2 + |d_t m|^2/h2^2
                              + g(m . a) ] sqrt(g) dt,

    with |m_perp|^2, the squared phi-derivative of a rotation-swept slice,
    in place of |d_phi m|^2; phi_star is the angle of its minimizing node.
    eq1 integrates it over phi; eq2 replaces |m_perp|^2 by
    |d_phi m_perp|^2 and adds the penalty; energy_m is total_energy(m),
    whose terms eq2 reuses.  Under the hypothesis h1 W >= sqrt(2 pi), each
    step is nonnegative for every sampled field.  Of a stack of fields,
    each entry holds one value per field.
    """

    eq1: float
    eq2: float
    energy_m: EnergyBreakdown
    slice_energies: np.ndarray
    phi_star: float


def chain_terms(field, params):
    """The chain terms from one lphi(m), t-energy pass and g(m . a): eq2's
    phi-term reads the horizontal components of E(m)'s lphi(m)."""
    mesh, m = field.mesh, field.values
    lm, t_slices = lphi(m), _t_energy_per_slice(m, mesh)
    g_values = _alignment_g(field, params)
    energy_m = _breakdown(field, params, lm, t_slices, g_values)
    eq2 = (_dirichlet(m[..., :2], lm[..., :2], t_slices, mesh)
           + energy_m.penalty + energy_m.anisotropy)
    perp2 = np.sum(m[..., :2] ** 2, axis=-1)
    phi_e = (mesh.dt * np.sum((perp2 / mesh.h1 ** 2 + g_values) * mesh.sqrtg,
                              axis=-1) + t_slices)
    eq1 = per_field(mesh.dphi * np.sum(phi_e, axis=-1))
    # ties (within rounding of the minimum) break toward the smallest node
    # index, so exactly symmetric fields report phi* = 0
    lo = np.min(phi_e, axis=-1, keepdims=True)
    phi_star = per_field(mesh.phi[np.argmax(phi_e <= lo + 1e-12 * (1 + abs(lo)),
                                            axis=-1)])
    return ChainTerms(eq1, eq2, energy_m, phi_e, phi_star)
