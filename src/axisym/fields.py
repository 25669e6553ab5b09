"""Discrete target-valued fields on a surface mesh.

A field stores one 3-vector per (phi_i, t_j) node and is constrained to take
values on a target surface of revolution.  Because the target is invariant
under rotations about e3, rotating field values slice-wise stays on target;
this is what makes the symmetrization construction exact at the discrete
level.

Fourier analysis along phi uses the plain DFT of the n_phi samples, for
which the rectangle rule is an exact inner product (Parseval holds to
rounding).  Mode k = +-1 of the horizontal part and mode k = 0 of the
vertical part play a special role: rotation-equivariant (and
contravariant) fields live exactly there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ioutil
from .geometry import (
    VARIANTS,
    GeneratingCurve,
    SurfaceMesh,
    project_points,
    ring_defect,
    sweep,
)

CONSTRAINT_TOL = 1e-8


@dataclass(frozen=True)
class DiscreteField:
    """Target-valued field sampled on the (phi, t) grid: values[n_phi, n_t, 3]."""

    mesh: SurfaceMesh
    target: GeneratingCurve
    values: np.ndarray

    def __post_init__(self):
        n_phi, n_t = self.mesh.shape
        if self.values.shape != (n_phi, n_t, 3):
            raise ValueError("field values must have shape (n_phi, n_t, 3)")

    def perp(self):
        """Horizontal (e1, e2) components, shape (n_phi, n_t, 2)."""
        return self.values[..., :2]

    def with_values(self, values):
        return DiscreteField(self.mesh, self.target, values)

    def target_gaps(self):
        """Distance of each node value from the target surface, (n_phi, n_t)."""
        proj, _ = project_points(self.target, self.values)
        return np.linalg.norm(proj - self.values, axis=-1)

    def constraint_defect(self):
        """Largest distance of any node value from the target surface."""
        return float(np.max(self.target_gaps()))


@dataclass(frozen=True)
class ProfileField:
    """One 3-vector per t node; the seed of a rotation-built 2D field."""

    t_nodes: np.ndarray
    values: np.ndarray
    variant: str  # "symmetric" | "antisymmetric"

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {', '.join(VARIANTS)}, "
                             f"got {self.variant!r}")
        if self.values.shape != (len(self.t_nodes), 3):
            raise ValueError("profile values must have shape (n_t, 3)")


@dataclass(frozen=True)
class ModeDecomposition:
    """First-harmonic structure of a field along phi.

    mean_perp[j]   circular mean of the horizontal part on row j
    alpha_perp[j]  cos(phi) coefficient of the horizontal part
    beta_perp[j]   sin(phi) coefficient of the horizontal part
    eta[j]         circular mean of the vertical component
    residual_energy  quadrature-weighted L2 mass of everything else
    coeff          the one-sided DFT rfft(values) / n_phi along phi, all
                   modes k = 0..n_phi/2: (n_phi/2 + 1, n_t, 3)
    mass           parseval_weights(n_phi) |coeff|^2 per mode, row and
                   component: 2 pi mass.sum(axis=0) is the integral of
                   |m|^2 dphi on each row, component by component
    """

    mean_perp: np.ndarray
    alpha_perp: np.ndarray
    beta_perp: np.ndarray
    eta: np.ndarray
    residual_energy: float
    coeff: np.ndarray
    mass: np.ndarray


def circular_average_perp(field):
    """Row-wise mean over phi of the horizontal components: (n_t, 2)."""
    return field.perp().mean(axis=0)


def parseval_weights(n):
    """Weights w_k of the one-sided DFT coefficients c_k = rfft(f)/n of n
    real samples: sum_i |f_i|^2 dphi = 2 pi sum_k w_k |c_k|^2, with w_k = 2
    for the interior modes that stand for the pair +-k, and 1 for k = 0
    and the Nyquist mode of even n."""
    w = np.full(n // 2 + 1, 2.0)
    w[0] = 1.0
    if n % 2 == 0:
        w[-1] = 1.0
    return w


def mode_decompose(field):
    """DFT along phi; extract k in {0, +-1} of m_perp and k = 0 of m.e3.

    residual_energy collects, with the t-quadrature weight sqrt(g) dt, the
    Parseval mass of all remaining modes (horizontal |k| >= 2 and vertical
    k != 0).
    """
    mesh = field.mesh
    if mesh.n_phi < 8:
        raise ValueError("mode_decompose needs n_phi >= 8")
    n = mesh.n_phi
    coeff = np.fft.rfft(field.values, axis=0) / n        # (n//2+1, n_t, 3)
    mean_perp = coeff[0, :, :2].real
    alpha_perp = 2 * coeff[1, :, :2].real
    beta_perp = -2 * coeff[1, :, :2].imag
    eta = coeff[0, :, 2].real

    mass = parseval_weights(n)[:, None, None] * np.abs(coeff) ** 2
    resid_perp = mass[2:, :, :2].sum(axis=(0, 2))
    resid_vert = mass[1:, :, 2].sum(axis=0)
    residual = 2 * np.pi * float(
        np.sum((resid_perp + resid_vert) * mesh.sqrtg * mesh.dt))
    return ModeDecomposition(mean_perp, alpha_perp, beta_perp, eta, residual,
                             coeff, mass)


def build_from_triple(mesh, alpha_perp, beta_perp, eta):
    """Assemble alpha_perp cos(phi) + beta_perp sin(phi) + eta e3 on the grid.

    The inverse of mode_decompose on its retained modes; the result is not
    projected to any target.  No solve uses it: it is the tests' oracle
    for mode_decompose, a closed-form cos/sin sum that shares no code with
    mode_decompose's rfft.
    """
    cphi = np.cos(mesh.phi)[:, None]
    sphi = np.sin(mesh.phi)[:, None]
    vals = np.zeros((mesh.n_phi, mesh.n_t, 3))
    vals[..., :2] = cphi[..., None] * alpha_perp[None] + sphi[..., None] * beta_perp[None]
    vals[..., 2] = np.broadcast_to(eta[None, :], (mesh.n_phi, mesh.n_t))
    return vals


def symmetry_defect(field, variant):
    """Quadrature-weighted L2 distance from the rotation-(contra)variant
    field generated by the phi = 0 meridian; zero iff the sampled field is
    exactly symmetric (variant='symmetric') or antisymmetric."""
    ref = sweep(field.mesh.phi[:, None], field.values[0][None, :, :], variant)
    diff = field.values - ref
    return float(np.sqrt(np.sum(field.mesh.quad_weights * np.sum(diff ** 2, axis=-1))))


def line_symmetry_classify(field, tol):
    """Label each t row 'symmetric', 'antisymmetric' or 'neither'.

    A row is labeled by whichever rotation law reproduces it from its
    phi = 0 value with RMS defect below tol (symmetric wins ties; rows of
    axis-directed values match both laws).  The field has line symmetry
    iff no row is labeled 'neither'.
    """
    d_s, d_a = (ring_defect(field.mesh.phi, field.values, variant)
                for variant in VARIANTS)
    labels = np.where(d_s < tol, "symmetric",
                      np.where(d_a < tol, "antisymmetric", "neither"))
    return [str(v) for v in labels]


def symmetrize(field, phi_star, variant):
    """Replicate the phi_star slice around the axis by the rotation law.

    symmetric:      u(phi, t) = A(phi)^T A(phi*)  m(phi*, t)
    antisymmetric:  u(phi, t) = A(phi)  A(phi*)^T m(phi*, t)

    phi_star must be a mesh node.  The output lies exactly on the target
    (rotations preserve it) and reproduces the input when the input already
    obeys the rotation law.
    """
    mesh = field.mesh
    idx = int(np.argmin(np.abs(mesh.phi - float(phi_star) % (2 * np.pi))))
    if abs(mesh.phi[idx] - float(phi_star) % (2 * np.pi)) > 1e-9:
        raise ValueError("phi_star must coincide with a mesh phi node")
    # the sweep by -phi* is the inverse of the sweep by phi*
    seed = sweep(-mesh.phi[idx], field.values[idx], variant)     # (n_t, 3)
    return field.with_values(sweep(mesh.phi[:, None], seed[None], variant))


def build_from_profile(mesh, profile, target):
    """Sweep a t-profile around the axis: rotation-equivariant for the
    symmetric variant, contravariant for the antisymmetric one."""
    if len(profile.t_nodes) != mesh.n_t or np.max(np.abs(profile.t_nodes - mesh.t)) > 1e-12:
        raise ValueError("profile t nodes do not match the mesh")
    vals = sweep(mesh.phi[:, None], profile.values[None, :, :], profile.variant)
    return DiscreteField(mesh, target, vals)


def random_field(mesh, target, seed):
    """Deterministic band-limited random field projected to the target.

    Draws Fourier modes |k| <= 3 in phi with low-order polynomial
    t-envelopes, then projects every node to the target.  Projection may
    reintroduce high phi modes; that is acceptable for test corpora.
    """
    rng = np.random.default_rng(seed)
    n_phi, n_t = mesh.shape
    tt = (mesh.t - mesh.t[0]) / (mesh.t[-1] - mesh.t[0] + 1e-300)
    tpows = np.stack([tt ** p for p in range(4)])          # (4, n_t)
    vals = np.zeros((n_phi, n_t, 3))
    for k in range(4):
        ck = np.cos(k * mesh.phi)[:, None]
        sk = np.sin(k * mesh.phi)[:, None]
        for c in range(3):
            a = rng.normal(size=4) @ tpows                 # (n_t,)
            b = rng.normal(size=4) @ tpows if k > 0 else 0.0
            vals[..., c] += ck * a[None, :] + (sk * b[None, :] if k > 0 else 0.0)
    # bias away from the axis so sphere projections are well defined
    vals[..., 0] += 0.1
    proj, _ = project_points(target, vals)
    return DiscreteField(mesh, target, proj)


# ---------------------------------------------------------------------------
# transfer between grids of one base surface
# ---------------------------------------------------------------------------

def resample(field, mesh):
    """The field's values on another grid of its base surface (resample_phi,
    then resample_t), not projected to the target: callers retract."""
    vals = resample_t(resample_phi(field.values, mesh.n_phi), field.mesh, mesh)
    return DiscreteField(mesh, field.target, vals)


def resample_phi(values, n):
    """values (phi on axis 0, even length) at n uniform phi nodes by
    trigonometric interpolation.

    A finer grid gets the zero-padded rfft, with the old Nyquist mode split
    between +-k, so every mode prolongs exactly.  A coarser grid must nest
    (its nodes among the old ones, as a halving's are) and gets the
    sub-sample, which is what the interpolant takes there; any other is a
    ValueError.
    """
    m = values.shape[0]
    if n <= m:
        if m % n:
            raise ValueError(f"{n} phi nodes do not nest in {m}")
        return values[::m // n].copy()
    coeff = np.fft.rfft(values, axis=0) * (n / m)
    out = np.zeros((n // 2 + 1,) + coeff.shape[1:], dtype=complex)
    out[:m // 2 + 1] = coeff
    out[m // 2] *= 0.5
    return np.fft.irfft(out, n=n, axis=0)


def resample_t(values, mesh, to_mesh):
    """values (t on axis 1, at mesh.t) linearly interpolated at to_mesh.t.

    The position of every new node among the old ones comes from np.interp:
    on a closed curve the old nodes wrap across the seam (period = the
    interval's length), so rows near the seam mix the first and the last
    old row; at an open end it clamps, so a new node beyond the outermost
    old one takes that row.  Either way every value lies between two old
    ones.
    """
    n = mesh.n_t
    xp, fp, t = mesh.t, np.arange(n, dtype=float), to_mesh.t
    if mesh.surface.closed:
        t0, t1 = mesh.surface.interval
        xp, fp = np.append(xp, xp[0] + (t1 - t0)), np.append(fp, n)
        t = xp[0] + (t - xp[0]) % (t1 - t0)
    pos = np.interp(t, xp, fp)
    lo = np.minimum(np.floor(pos).astype(int), n - 1)
    w = (pos - lo).reshape((1, -1) + (1,) * (values.ndim - 2))
    return (1 - w) * np.take(values, lo, axis=1) \
        + w * np.take(values, (lo + 1) % n, axis=1)


# ---------------------------------------------------------------------------
# CSV layouts (ioutil.write_csv and read_csv do the file I/O)
# ---------------------------------------------------------------------------

def field_to_csv(field, path_or_buf, header_comment=None):
    grid_to_csv(field.mesh.phi, field.mesh.t, field.values, path_or_buf,
                header_comment)


def grid_to_csv(phi, t, values, path_or_buf, header_comment=None):
    """One row per (phi_i, t_j) node of values (len(phi), len(t), 3)."""
    ioutil.write_csv(path_or_buf,
                     ["phi_index", "t_index", "phi", "t", "mx", "my", "mz"],
                     [np.arange(len(phi))[:, None], np.arange(len(t)),
                      np.asarray(phi)[:, None], t, *np.moveaxis(values, -1, 0)],
                     header_comment)


def field_from_csv(path_or_buf, mesh, target, boundary=None):
    """Read back a field written by field_to_csv on mesh's grid.  ValueError
    as ioutil.read_csv raises it, for a node off the grid, listed twice or
    left out, or for a value farther than CONSTRAINT_TOL from the target on a
    row that boundary (an energy.BoundaryCondition) does not pin: the 2D
    solve keeps pinned rows as they are, on the target or not."""
    # the table is freed when _fill_nodes returns: held through the target
    # check, it raised the peak RSS of a later 64x64 solve by 0.1-0.3 MB
    vals = np.empty((mesh.n_phi * mesh.n_t, 3))
    _fill_nodes(vals, ioutil.read_csv(
        path_or_buf, ["phi_index", "t_index", "mx", "my", "mz"]), *mesh.shape)
    field = DiscreteField(mesh, target, vals.reshape(mesh.n_phi, mesh.n_t, 3))
    with np.errstate(all="ignore"):         # a huge value is off target anyway
        gaps = field.target_gaps()
    for row in (boundary.pinned if boundary else ()):
        gaps[:, row] = 0.0
    off = ~(gaps <= CONSTRAINT_TOL)
    if off.any():
        i, j = np.unravel_index(np.argmax(off), off.shape)
        raise ValueError(f"node ({i}, {j}): (mx, my, mz) lies {gaps[i, j]:.3g} "
                         f"from the target, beyond {CONSTRAINT_TOL:g}")
    return field


def _fill_nodes(vals, rows, n_phi, n_t):
    """vals[node] = (mx, my, mz) for each (phi_index, t_index, mx, my, mz) row;
    ValueError naming a node off the grid or listed twice, or one left out."""
    grid = f"the {n_phi}x{n_t} grid"
    i, j = rows[:, 0], rows[:, 1]
    off = (i % 1 != 0) | (j % 1 != 0) | (i < 0) | (j < 0) | (i >= n_phi) | (j >= n_t)
    if off.any():
        k = int(np.argmax(off))
        raise ValueError(f"data row {k + 1}: node ({i[k]:g}, {j[k]:g}) is off {grid}")
    if len(rows) < n_phi * n_t:
        raise ValueError(f"the rows do not cover {grid}")
    node = (i * n_t + j).astype(int)
    if np.bincount(node).max() > 1:        # np.unique only on this path
        first = np.unique(node, return_index=True)[1]
        k = int(np.setdiff1d(np.arange(len(node)), first)[0])
        raise ValueError(f"data row {k + 1}: node ({i[k]:g}, {j[k]:g}) is listed twice")
    vals[node] = rows[:, 2:]


def profile_to_csv(profile, path_or_buf, header_comment=None):
    ioutil.write_csv(path_or_buf, ["t_index", "t", "gx", "gy", "gz"],
                     [np.arange(len(profile.t_nodes)), profile.t_nodes,
                      *profile.values.T], header_comment)
