"""Surfaces of revolution: generating curves, meshes, rotations, projections.

A surface of revolution is swept by rotating a planar regular curve
gamma(t) = (x(t), 0, z(t)), t in I, about the e3-axis, and is represented
by that curve (GeneratingCurve): base S and target T alike.  The (phi, t) chart
xi(phi, t) = A(phi)^T gamma(t) is orthogonal with scale factors
h1(t) = |x(t)| (circle-of-latitude radius) and h2(t) = |(x'(t), z'(t))|,
so the area element is sqrt(g) = h1*h2.

Everything here is immutable after construction; operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


class GeometryError(ValueError):
    """Base class for geometry construction errors."""


class RegularityError(GeometryError):
    """The generating curve violates the regularity assumptions."""


class AxisError(GeometryError):
    """The curve meets the e3-axis somewhere it is not allowed to."""


class DegenerateTangentError(GeometryError):
    """Tangent vectors too close to parallel to define a normal."""


# ---------------------------------------------------------------------------
# rotations about the e3-axis
# ---------------------------------------------------------------------------

def rotate(phi, v):
    """Rotate v by angle phi about the e3-axis (counterclockwise seen from +e3).

    Accepts scalar or array phi and v with shape (..., 3); broadcasts.
    Preserves the Euclidean norm and the e3-component.
    """
    phi = np.asarray(phi, dtype=float)
    v = np.asarray(v, dtype=float)
    c, s = np.cos(phi), np.sin(phi)
    vx, vy, vz = v[..., 0], v[..., 1], v[..., 2]
    out = np.empty(np.broadcast(c, vx).shape + (3,))
    out[..., 0] = c * vx - s * vy
    out[..., 1] = s * vx + c * vy
    out[..., 2] = np.broadcast_to(vz, out[..., 2].shape)
    return out


def rotate_inverse(phi, v):
    """Inverse rotation: rotate_inverse(phi, rotate(phi, v)) == v."""
    return rotate(-np.asarray(phi, dtype=float), v)


def dot3(a, b):
    """Dot products of 3-vectors along the last axis,
    a0 b0 + a1 b1 + a2 b2: the same value as np.sum(a * b, axis=-1)
    without an axis reduction, but the sign of a zero sum may differ
    (three products of -0.0 give -0.0 here, +0.0 from np.sum)."""
    return (a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1]
            + a[..., 2] * b[..., 2])


# each symmetry variant's rotation law
_LAWS = {"symmetric": rotate, "antisymmetric": rotate_inverse}
VARIANTS = tuple(_LAWS)


def sweep(phi, v, variant):
    """Sweep v around the e3-axis by the variant's rotation law: rotate for
    "symmetric", rotate_inverse for "antisymmetric"; ValueError for any
    other name."""
    if variant not in _LAWS:
        raise ValueError(f"unknown variant {variant!r} "
                         f"(expected one of {', '.join(VARIANTS)})")
    return _LAWS[variant](phi, v)


def ring_defect(phi, rows, variant="symmetric"):
    """RMS distance of ring values rows (n_phi, ..., 3) at the angles phi
    (n_phi,) from the sweep of rows[0], one value per ring (shape
    rows.shape[1:-1]); zero iff the ring obeys the rotation law."""
    phi = np.reshape(phi, (-1,) + (1,) * (np.ndim(rows) - 2))
    ref = sweep(phi, rows[0][None], variant)
    return np.sqrt(np.mean(np.sum((rows - ref) ** 2, axis=-1), axis=0))


# ---------------------------------------------------------------------------
# tridiagonal systems and cubic splines
# ---------------------------------------------------------------------------

def tridiagonal_solve(lower, diag, upper, rhs):
    """x with A x = rhs for tridiagonal A, by one forward elimination and
    one back substitution over the rows (the Thomas algorithm, no
    pivoting), vectorised over everything else.

    The arguments are real arrays.  Rows run along axis 0 of each and the
    other axes broadcast: diag and rhs have n rows, lower and upper n - 1,
    with lower[i] = A[i + 1, i] and upper[i] = A[i, i + 1].  Returns x and
    the elimination pivots, whose product is det A.  A zero or non-finite
    pivot gives non-finite entries of x without a floating-point warning;
    callers check.  All arithmetic is elementwise, so the bits do not
    depend on the BLAS.
    """
    n = len(diag)
    x = np.empty((n,) + np.broadcast_shapes(
        *(a.shape[1:] for a in (lower, diag, upper, rhs))))
    piv = np.empty((n,) + np.broadcast_shapes(
        *(a.shape[1:] for a in (lower, diag, upper))))
    with np.errstate(all="ignore"):
        piv[0], x[0] = diag[0], rhs[0]
        for i in range(1, n):
            m = lower[i - 1] / piv[i - 1]
            piv[i] = diag[i] - m * upper[i - 1]
            x[i] = rhs[i] - m * x[i - 1]
        x[-1] /= piv[-1]
        for i in range(n - 2, -1, -1):
            x[i] = (x[i] - upper[i] * x[i + 1]) / piv[i]
    return x, piv


def _spline_table(t, y, periodic=False):
    """(7, n - 1) table of the cubic spline through the knots (t, y), one
    column per piece: on [t[i], t[i+1]] the spline is
    c3 h^3 + c2 h^2 + s h + y with h = u - t[i], and column i holds t[i],
    c3, c2, s, y, 3 c3 and 2 c2 there (the last two, with s, are the
    derivative's).  cubic_spline says which spline and which knots."""
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    if t.ndim != 1 or y.shape != t.shape:
        raise ValueError(f"spline knots and values must be two 1-D arrays "
                         f"of one length, got shapes {t.shape} and {y.shape}")
    n = len(t)
    if n < 2:
        raise ValueError(f"a cubic spline needs at least 2 knots, got {n}")
    dt = np.diff(t)
    if not (np.all(np.isfinite(t)) and np.all(dt > 0)):
        raise ValueError("spline knots must be finite and strictly increasing")
    if periodic and not abs(y[0] - y[-1]) <= 1e-15 + 1e-15 * abs(y[-1]):
        raise ValueError(f"a periodic spline needs equal end values, "
                         f"got {y[0]:.17g} and {y[-1]:.17g}")
    slope = np.diff(y) / dt
    if n == 2:
        s = np.array([slope[0], slope[0]])
    elif periodic and n == 3:
        s = np.full(3, (slope / dt).sum() / (1 / dt).sum())
    elif periodic:
        # unknowns s[0..n-2] (s[n-1] = s[0]); row i couples s[i-1], s[i],
        # s[i+1] cyclically, with coefficients dt[i], 2 (dt[i-1] + dt[i]),
        # dt[i-1]
        dprev = np.roll(dt, 1)
        diag = 2 * (dprev + dt)
        rhs = 3 * (dt * np.roll(slope, 1) + dprev * slope)
        # rows 0..n-3 without s[n-2]: two right-hand sides, the data and
        # minus the column of s[n-2] (nonzero in the first and last row)
        rhs2 = np.zeros((n - 2, 2))
        rhs2[:, 0] = rhs[:-1]
        rhs2[0, 1], rhs2[-1, 1] = -dt[0], -dprev[n - 3]
        x, _ = tridiagonal_solve(dt[1:n - 2], diag[:n - 2], dprev[:n - 3],
                                 rhs2)
        s_last = ((rhs[-1] - dt[-2] * x[0, 0] - dt[-1] * x[-1, 0])
                  / (diag[-1] + dt[-2] * x[0, 1] + dt[-1] * x[-1, 1]))
        s = np.empty(n)
        s[:-2] = x[:, 0] + s_last * x[:, 1]
        s[-2], s[-1] = s_last, s[0]
    else:
        diag = np.empty(n)
        diag[1:-1] = 2 * (dt[:-1] + dt[1:])
        lower = np.append(dt[1:], 0.0)    # lower[i] = A[i+1, i]
        upper = np.insert(dt[:-1], 0, 0.0)    # upper[i] = A[i, i+1]
        rhs = np.empty(n)
        rhs[1:-1] = 3 * (dt[1:] * slope[:-1] + dt[:-1] * slope[1:])
        if n == 3:      # both not-a-knot rows coincide: the parabola
            diag[0] = diag[-1] = upper[0] = lower[-1] = 1.0
            rhs[0], rhs[-1] = 2 * slope[0], 2 * slope[-1]
        else:
            d0, d1 = t[2] - t[0], t[-1] - t[-3]
            diag[0], upper[0] = dt[1], d0
            diag[-1], lower[-1] = dt[-2], d1
            rhs[0] = ((dt[0] + 2 * d0) * dt[1] * slope[0]
                      + dt[0] ** 2 * slope[1]) / d0
            rhs[-1] = (dt[-1] ** 2 * slope[-2]
                       + (2 * d1 + dt[-1]) * dt[-2] * slope[-1]) / d1
        s, _ = tridiagonal_solve(lower, diag, upper, rhs)
    w = (s[:-1] + s[1:] - 2 * slope) / dt
    c3, c2 = w / dt, (slope - s[:-1]) / dt - w
    return np.stack([t[:-1], c3, c2, s[:-1], y[:-1], 3 * c3, 2 * c2])


def cubic_spline(t, y, periodic=False):
    """(value, derivative): the cubic spline through the knots (t, y) and its
    first derivative, as vectorized callables.

    The ends are not-a-knot, or periodic when periodic is set (then y[0]
    must equal y[-1]); the slopes at the knots solve the same system as
    scipy.interpolate.CubicSpline's, with its special cases: 2 knots give
    the line, 3 not-a-knot knots the parabola, 3 periodic knots one common
    slope.  The not-a-knot system is tridiagonal as it stands.  The periodic
    one is cyclic: its first n - 2 unknowns solve a tridiagonal system with
    two right-hand sides (the data, and the column of the last unknown),
    and the last row then fixes the last unknown.  Outside [t[0], t[-1]]
    the end cubics extrapolate.  Bad knots are a ValueError: fewer than 2,
    t not finite and strictly increasing, or periodic ends that differ by
    more than 1e-15 (absolute plus relative).
    """
    return _spline_callables(_spline_table(t, y, periodic))


def _spline_callables(table):
    """(value, derivative) of the spline of a _spline_table: each call is
    one searchsorted and one gather from the knots and coefficients it
    needs, then Horner."""
    value_table, slope_table = table[:5], table[[0, 5, 6, 3]]
    inner = table[0, 1:]

    def value(u):
        knot, a, b, c, d = value_table.take(inner.searchsorted(u, "right"),
                                            axis=1)
        h = u - knot
        return ((a * h + b) * h + c) * h + d

    def derivative(u):
        knot, a, b, c = slope_table.take(inner.searchsorted(u, "right"),
                                         axis=1)
        h = u - knot
        return (a * h + b) * h + c

    return value, derivative


# ---------------------------------------------------------------------------
# generating curves
# ---------------------------------------------------------------------------

# equispaced parameters at which a curve's regularity is checked
_CHECK_POINTS = 4096


@dataclass(frozen=True)
class GeneratingCurve:
    """Planar regular curve t -> (x(t), 0, z(t)), and the surface of
    revolution it sweeps.

    Every curve is its jet: jet(t) is (x, z, x', z') at the parameters t
    (any shape, a scalar included), the one evaluator that everything
    reading the curve calls, once per parameter array.  ``closed`` marks
    loops (endpoints identified).  ``closest``, when set, is the closed
    form of curve_parameter_of_closest: closest(r, zeta) is the parameter
    of the curve point nearest to (r, zeta) in the half-plane, ties broken
    toward the smallest one.

    Construction checks regularity (x >= 0, (x', z') != 0) at _CHECK_POINTS
    equispaced parameters.  Where x vanishes, only a base surface's chart
    constrains the curve (build_mesh).
    """

    interval: tuple[float, float]
    jet: Callable
    closed: bool = False
    closest: Optional[Callable] = None

    def __post_init__(self):
        t0, t1 = self.interval
        if not t1 > t0:
            raise RegularityError("curve interval must have positive length")
        x, _, dx, dz = self.jet(np.linspace(t0, t1, _CHECK_POINTS))
        if np.any(x < -1e-12):
            raise RegularityError("x(t) must be nonnegative")
        if np.any(np.hypot(dx, dz) <= 1e-12):
            raise RegularityError("curve must be regular: (dx, dz) != 0")

    def metric(self, t):
        """(h1, h2): the radius |x| of the circle of latitude and the
        meridian speed |(x', z')|; the area element sqrt(g) is h1 h2."""
        x, _, dx, dz = self.jet(t)
        return np.abs(x), np.hypot(dx, dz)

    def normal_profile(self, t):
        """Unit surface normal along the phi = 0 meridian: (z', 0, -x')/h2."""
        t = np.asarray(t, dtype=float)
        _, _, dx, dz = self.jet(t)
        h2 = np.hypot(dx, dz)
        out = np.zeros(t.shape + (3,))
        out[..., 0] = dz / h2
        out[..., 2] = -dx / h2
        return out


# each preset's parameters and their defaults
_PRESET_PARAMS = {
    "sphere": {},
    "cylinder": {"radius": 1.0, "height": 1.0},
    "annulus": {"r_inner": 1.0, "r_outer": 2.0},
    "disk": {"radius": 1.0},
    "torus_band": {"R": 2.0, "r": 1.0},
    "ellipsoid_band": {"a": 1.0, "c": 1.5, "pad": 0.4},
}


def _sphere_jet(t):
    s, c = np.sin(t), np.cos(t)
    return s, c, c, -s


def _sphere_closest(r, zeta):
    # in [0, pi]; every parameter ties at the origin, which takes 0
    return np.arctan2(r, zeta)


def _flat_ring(r0, r1):
    """x = t, z = 0 on [r0, r1]; the nearest parameter is r clipped."""
    def jet(t):
        t = np.asarray(t, dtype=float)
        return t, np.zeros_like(t), np.ones_like(t), np.zeros_like(t)

    return GeneratingCurve((r0, r1), jet,
                           closest=lambda r, zeta: np.clip(r, r0, r1))


def surface(name, role=None, **kw):
    """The generating curve of a preset surface, built from its name and
    keyword parameters (a user curve is a GeneratingCurve already, and is
    passed as one wherever a surface is taken):

    sphere           x = sin t, z = cos t on [0, pi] (unit sphere)
    cylinder         x = radius, z = t on [0, height]
    annulus          x = t, z = 0 on [r_inner, r_outer] (flat ring)
    disk             x = t, z = 0 on [0, radius] (flat disk, touches axis)
    torus_band       x = R + r cos t, z = r sin t on [0, 2 pi], closed
    ellipsoid_band   x = a sin t, z = c cos t on [pad, pi - pad]

    _PRESET_PARAMS lists each preset's keyword parameters and defaults; any
    other keyword, or a value that is not a number, is a GeometryError.
    Every preset but the ellipsoid band carries the closed form of its
    closest-point parameter (GeneratingCurve.closest).  role ('base' or
    'target') changes nothing; it is kept because tests/test_acceptance.py
    passes it by keyword and perfbench/tests positionally.
    """
    if not isinstance(name, str) or name not in _PRESET_PARAMS:
        raise GeometryError(f"unknown curve preset {name!r}")
    for key, value in sorted(kw.items()):
        if key not in _PRESET_PARAMS[name]:
            raise GeometryError(f"preset {name!r} has no parameter {key!r} "
                                f"(it takes {sorted(_PRESET_PARAMS[name])})")
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise GeometryError(f"preset {name!r}: parameter {key!r} must be "
                                f"a number, got {value!r}")
    p = dict(_PRESET_PARAMS[name], **kw)
    if name == "sphere":
        return GeneratingCurve((0.0, np.pi), _sphere_jet,
                               closest=_sphere_closest)
    if name == "cylinder":
        radius, height = p["radius"], p["height"]

        def cylinder_jet(t):
            t = np.asarray(t, dtype=float)
            return (np.full_like(t, radius), t, np.zeros_like(t),
                    np.ones_like(t))

        return GeneratingCurve(
            (0.0, height), cylinder_jet,
            closest=lambda r, zeta: np.clip(zeta, 0.0, height))
    if name == "annulus":
        return _flat_ring(p["r_inner"], p["r_outer"])
    if name == "disk":
        return _flat_ring(0.0, p["radius"])
    if name == "torus_band":
        R, r = p["R"], p["r"]
        if not R > r > 0:
            raise RegularityError("torus_band needs R > r > 0")

        def torus_jet(t):
            c, s = np.cos(t), np.sin(t)
            return R + r * c, r * s, -r * s, r * c

        return GeneratingCurve(
            (0.0, 2 * np.pi), torus_jet, closed=True,
            # nearest tube angle seen from the center circle of radius R
            closest=lambda rr, zeta: np.arctan2(zeta, rr - R) % (2 * np.pi))
    a, c, pad = p["a"], p["c"], p["pad"]

    def ellipse_jet(t):
        s, co = np.sin(t), np.cos(t)
        return a * s, c * co, a * co, -c * s

    return GeneratingCurve((pad, np.pi - pad), ellipse_jet)


def _spline_jet(x_table, z_table):
    """jet(u) = (x, z, dx, dz) at u of the two splines of the _spline_table
    arrays x_table and z_table, which share their knots: one searchsorted
    and one gather from their stacked coefficients, then each entry by the
    Horner expression of its own _spline_callables, so == to it."""
    table = np.concatenate([x_table, z_table[1:]])
    inner = table[0, 1:]

    def jet(u):
        (knot, xa, xb, xc, xd, xa1, xb1,
         za, zb, zc, zd, za1, zb1) = table.take(inner.searchsorted(u, "right"),
                                                axis=1)
        h = u - knot
        return (((xa * h + xb) * h + xc) * h + xd,
                ((za * h + zb) * h + zc) * h + zd,
                (xa1 * h + xb1) * h + xc,
                (za1 * h + zb1) * h + zc)

    return jet


def spline_curve(t_samples, x_samples, z_samples, closed=False):
    """Cubic-spline generating curve through (t, x, z) sample tables, with
    not-a-knot ends, or periodic ones when closed (cubic_spline).  Its jet
    is _spline_jet of both splines, each entry == the cubic_spline value or
    derivative of its own coordinate; a closed curve wraps its parameter
    into the interval once per call."""
    jet = _spline_jet(_spline_table(t_samples, x_samples, periodic=closed),
                      _spline_table(t_samples, z_samples, periodic=closed))
    t0, t1 = float(t_samples[0]), float(t_samples[-1])
    if not closed:
        return GeneratingCurve((t0, t1), jet)
    period = t1 - t0
    return GeneratingCurve(
        (t0, t1), lambda s: jet((np.asarray(s, dtype=float) - t0) % period + t0),
        closed=True)


# ---------------------------------------------------------------------------
# surfaces and meshes
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SurfaceMesh:
    """Tensor (phi, t) grid with precomputed metric data and quadrature.

    phi nodes are the n_phi-th roots of unity angles (no duplicated seam);
    t nodes sit at cell midpoints t_j = t_min + (j + 1/2) dt, which keeps
    h1 > 0 at every node even when the curve touches the axis.  Quadrature
    is the rectangle rule in phi times the midpoint rule in t, so
    quad_weights sum to the surface area up to O(dt^2).

    edge_weights holds sqrt(g)/h2^2 at the meridian cell edges between
    adjacent t nodes, t_min + (j + 1) dt; a closed curve (endpoints
    identified) adds its seam edge at t_min as the last one.  The ends of
    an open curve get no edge: at a free end (a genuine boundary circle)
    that is the natural boundary condition, and at an end where the curve
    touches the e3-axis (the chart continues through the pole) the
    would-be pole edge has weight sqrt(g) = 0.
    """

    surface: GeneratingCurve
    n_phi: int
    n_t: int
    phi: np.ndarray
    t: np.ndarray
    dphi: float
    dt: float
    h1: np.ndarray
    sqrtg: np.ndarray
    quad_weights: np.ndarray
    edge_weights: np.ndarray

    @property
    def shape(self):
        return (self.n_phi, self.n_t)

    def area(self):
        return float(self.quad_weights.sum())


def _golden(f, a, b):
    """Vectorized golden section for the minima of f on the brackets [a, b]
    (their final midpoints).  At most 80 steps, stopping at the fixed point:
    a step that leaves the brackets unchanged leaves them so for good."""
    inv = 0.5 * (np.sqrt(5.0) - 1.0)
    for _ in range(80):
        c = b - inv * (b - a)
        d = a + inv * (b - a)
        left = f(c) < f(d)
        a_next = np.where(left, a, c)
        b_next = np.where(left, d, b)
        if np.array_equal(a_next, a) and np.array_equal(b_next, b):
            break
        a, b = a_next, b_next
    return 0.5 * (a + b)


def _interior_axis_touch(curve, ts, xs):
    """True if |x| attains (numerically) zero strictly inside the interval;
    each interior local minimum of the scan xs (|x| at ts) is sharpened by
    _golden first, since it can sit between the scan's nodes."""
    k = np.where((xs[1:-1] <= xs[:-2]) & (xs[1:-1] <= xs[2:]) & (xs[1:-1] < 0.1))[0] + 1
    if k.size == 0:
        return False

    def h1(s):
        return np.abs(curve.jet(s)[0])

    smin = _golden(h1, ts[k - 1], ts[k + 1])
    t0, t1 = curve.interval
    pad = 1e-9 * (t1 - t0)
    inside = (smin > t0 + pad) & (smin < t1 - pad)
    return bool(np.any(inside & (h1(smin) <= 1e-9)))


def build_mesh(surf, n_phi, n_t):
    """Build a SurfaceMesh on the base surface surf (a GeneratingCurve).

    Beyond the curve's own regularity the chart needs, at _CHECK_POINTS
    parameters whatever the grid: no axis crossing inside the interval, and
    a perpendicular meeting (dz = 0) at an end where x vanishes.  A target
    needs neither.
    """
    if n_phi < 8 or n_phi % 2 != 0:
        raise ValueError("n_phi must be an even integer >= 8")
    if n_t < 2:
        raise ValueError("n_t must be >= 2")
    t0, t1 = surf.interval

    ts = np.linspace(t0, t1, _CHECK_POINTS)     # ts[0] = t0, ts[-1] = t1
    x, _, _, dz = surf.jet(ts)
    xs = np.abs(x)
    if _interior_axis_touch(surf, ts, xs):
        raise AxisError("curve meets the e3-axis at an interior parameter")
    for ta, end in ((t0, 0), (t1, -1)):
        if xs[end] <= 1e-10 and abs(float(dz[end])) > 1e-8:
            raise AxisError(f"axis touching at t={ta} without perpendicularity")

    dphi = 2 * np.pi / n_phi
    dt = (t1 - t0) / n_t
    if dt == 0:
        raise RegularityError(f"the t step {t1 - t0!r}/{n_t} underflows to 0")
    phi = dphi * np.arange(n_phi)
    t = t0 + dt * (np.arange(n_t) + 0.5)
    h1, h2 = surf.metric(t)
    sqrtg = h1 * h2
    if np.any(sqrtg <= 0):
        raise RegularityError("area element vanishes at a mesh node")
    weights = np.broadcast_to(dphi * dt * sqrtg, (n_phi, n_t)).copy()

    t_edges = t0 + dt * np.arange(1, n_t)
    if surf.closed:
        t_edges = np.append(t_edges, t0)
    h1_edges, h2_edges = surf.metric(t_edges)
    edge_weights = h1_edges * h2_edges / h2_edges ** 2
    return SurfaceMesh(surf, n_phi, n_t, phi, t, dphi, dt, h1, sqrtg,
                       weights, edge_weights)


def surface_normal(mesh):
    """Unit normal nu = (tau_phi x tau_t)/|tau_phi x tau_t| at the mesh
    nodes, an (n_phi, n_t, 3) array.

    With gamma = (x, 0, z) the cross product evaluates to
    A(phi)^T (x dz, 0, -x dx), so nu = A(phi)^T (dz, 0, -dx)/h2 and the
    normal is axially symmetric by construction.  The solves read the
    normal through aniso_surface_normal; this node array is for the demos
    and tests/test_acceptance.py, whose gate imports it.
    """
    if np.any(mesh.sqrtg < 1e-12):
        raise DegenerateTangentError("|tau_phi x tau_t| below 1e-12 at a node")
    prof = mesh.surface.normal_profile(mesh.t)            # (n_t, 3)
    return rotate(mesh.phi[:, None], prof[None, :, :])


# ---------------------------------------------------------------------------
# closest-point projection onto a target surface
# ---------------------------------------------------------------------------

_SCAN_POINTS = 1024
# rows of the scan's distance table per block: two (16, 1025) float buffers
# of 131 kB each, reused by every block, stay in a core's L2 cache
_SCAN_BLOCK = 16


def _bracketed_refine(curve, r, zeta, lo, hi):
    """Vectorized refinement of the squared-distance minimum on [lo, hi].

    Bisects on the derivative of the half-plane squared distance,
    g(s) = (x - r) dx + (z - zeta) dz, on the rows where it changes sign
    across the bracket, which resolves the parameter to machine precision;
    the other rows fall back to golden section on the distance itself
    (_golden).  g and the distance each evaluate the curve's jet once.
    Both loops run at most 80 times and stop at their fixed point: the
    bisection at the first step whose midpoint equals, on every row, the
    end it would replace.  Curve evaluation is pointwise,
    so refining each set of rows on its own gives, bit for bit, what
    refining every row with both methods for all 80 steps and keeping one
    result per row gives.
    """
    def fdist(s, r, zeta):
        x, z, _, _ = curve.jet(s)
        return (x - r) ** 2 + (z - zeta) ** 2

    def g(s, r, zeta):
        x, z, dx, dz = curve.jet(s)
        return (x - r) * dx + (z - zeta) * dz

    has_root = (g(lo, r, zeta) <= 0) & (g(hi, r, zeta) >= 0)
    s = np.empty_like(lo)

    a, b = lo[has_root], hi[has_root]
    rr, zz = r[has_root], zeta[has_root]
    for _ in range(80):
        mid = 0.5 * (a + b)
        take_hi = g(mid, rr, zz) <= 0
        if (mid == np.where(take_hi, a, b)).all():
            break
        a = np.where(take_hi, mid, a)
        b = np.where(take_hi, b, mid)
    s[has_root] = 0.5 * (a + b)

    # golden-section fallback where no sign change was available
    no_root = ~has_root
    if no_root.any():
        rr, zz = r[no_root], zeta[no_root]
        s[no_root] = _golden(lambda u: fdist(u, rr, zz), lo[no_root],
                             hi[no_root])

    # keep whichever of {refined, bracket ends} is best; ties -> smallest s
    cands = np.stack([lo, s, hi])
    order = np.argsort(cands, axis=0, kind="stable")
    cands = np.take_along_axis(cands, order, 0)
    best = np.argmin(fdist(cands, r, zeta), axis=0)
    return np.take_along_axis(cands, best[None, :], 0)[0]


def curve_parameter_of_closest(curve, r, zeta):
    """Parameter s in I minimizing (r - x(s))^2 + (zeta - z(s))^2, vectorized.

    A curve with a closed form (curve.closest, set by the presets) takes
    it.  Any other curve is scanned at _SCAN_POINTS + 1 equispaced nodes,
    and the bracket of one node step on either side of each point's
    nearest node (the first one on ties) is refined by _bracketed_refine.
    The scan computes its squared distances _SCAN_BLOCK points at a time
    into two buffers that every block reuses, so they stay in cache; each
    point's argmin is computed from its own row only, so blocking changes
    no result.
    """
    r = np.atleast_1d(np.asarray(r, dtype=float))
    zeta = np.atleast_1d(np.asarray(zeta, dtype=float))
    if curve.closest is not None:
        return np.atleast_1d(curve.closest(r, zeta))
    t0, t1 = curve.interval
    grid = np.linspace(t0, t1, _SCAN_POINTS + 1)
    xg, zg, _, _ = curve.jet(grid)
    k = np.empty(r.shape, dtype=np.intp)
    x_buf, z_buf = np.empty((2, min(_SCAN_BLOCK, r.size), grid.size))
    for i in range(0, r.size, _SCAN_BLOCK):
        blk = slice(i, i + _SCAN_BLOCK)
        dx2, dz2 = x_buf[:len(r[blk])], z_buf[:len(r[blk])]
        # (xg - r)^2 + (zg - zeta)^2, operation for operation, in place
        np.square(np.subtract(xg, r[blk, None], out=dx2), out=dx2)
        np.square(np.subtract(zg, zeta[blk, None], out=dz2), out=dz2)
        k[blk] = np.argmin(np.add(dx2, dz2, out=dx2), axis=1)  # first min wins
    step = (t1 - t0) / _SCAN_POINTS
    lo, hi = grid[k] - step, grid[k] + step
    if not curve.closed:
        lo, hi = np.maximum(lo, t0), np.minimum(hi, t1)
    s = _bracketed_refine(curve, r, zeta, lo, hi)
    if curve.closed:
        period = t1 - t0
        s = (s - t0) % period + t0
    return s


def _azimuth(flat):
    """(r, cos, sin) of points flat (N, 3): r = |p_perp| and the cosine and
    sine of their azimuth (those of e1 where r = 0)."""
    r = np.hypot(flat[:, 0], flat[:, 1])
    with np.errstate(invalid="ignore", divide="ignore"):
        cos_t = np.where(r > 0, flat[:, 0] / np.where(r > 0, r, 1.0), 1.0)
        sin_t = np.where(r > 0, flat[:, 1] / np.where(r > 0, r, 1.0), 0.0)
    return r, cos_t, sin_t


def project_points(target, pts):
    """Closest points of the target surface to pts (N, 3).

    Works with cylindrical coordinates r = |v_perp|, zeta = v . e3; the
    profile parameter minimizes the half-plane distance and the azimuth of v
    is reused (e1 when r = 0).  Returns (projected points, parameters).
    """
    pts = np.asarray(pts, dtype=float)
    flat = pts.reshape(-1, 3)
    r, cos_t, sin_t = _azimuth(flat)
    s = curve_parameter_of_closest(target, r, flat[:, 2])
    xs, zs, _, _ = target.jet(s)
    out = np.stack([xs * cos_t, xs * sin_t, zs], axis=-1)
    return out.reshape(pts.shape), s.reshape(pts.shape[:-1])


def tangent_frame(target, pts, params=None):
    """Orthonormal tangent basis (azimuthal, meridional) at points of T.

    The azimuthal direction is e3 x p_perp / |p_perp| (a fixed horizontal
    unit vector when p_perp = 0); the meridional one is the rotated curve
    tangent.  The two are orthogonal for any surface of revolution.
    """
    pts = np.asarray(pts, dtype=float)
    flat = pts.reshape(-1, 3)
    if params is None:
        _, params = project_points(target, flat)
    params = np.asarray(params).reshape(-1)
    r, cos_t, sin_t = _azimuth(flat)
    u1 = np.stack([-sin_t, cos_t, np.zeros_like(r)], axis=-1)
    _, _, dx, dz = target.jet(params)
    h2 = np.hypot(dx, dz)
    u2 = np.stack([dx * cos_t, dx * sin_t, dz], axis=-1) / h2[:, None]
    return u1.reshape(pts.shape), u2.reshape(pts.shape)


def project_to_frame(frame, w):
    """Component of the vectors w in the span of an orthonormal frame
    (u1, u2), as returned by tangent_frame."""
    u1, u2 = frame
    w = np.asarray(w, dtype=float)
    return dot3(w, u1)[..., None] * u1 + dot3(w, u2)[..., None] * u2


def tangent_project_points(target, pts, w):
    """Project vectors w onto the tangent planes of T at the points pts.

    The solvers' retraction builds one tangent frame per iterate and
    projects through it instead; this one-call form is kept for
    energy.riemannian_gradient alone, because perfbench/tests asserts
    that the benchmark's tracing wraps it as energy.tangent_project_points.
    """
    return project_to_frame(tangent_frame(target, pts), w)


# ---------------------------------------------------------------------------
# never-flat predicate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NeverFlatReport:
    ok: bool
    flat_intervals: tuple


def never_flat_check(target):
    """Detect flat horizontal bands of the target's generating curve.

    The target fails the check iff some parameter interval of length > tol
    has |dz| < tol while |dx| > tol throughout, with tol = 1e-6: its
    horizontal sections then project to fat annuli instead of isolated
    circles.  Sampled at 4097 nodes, so isolated horizontal tangents
    (measure zero) do not count.
    """
    tol = 1e-6
    ts = np.linspace(*target.interval, 4097)
    _, _, dx, dz = target.jet(ts)
    flat = (np.abs(dz) < tol) & (np.abs(dx) > tol)
    # runs of flat samples: first and last node of each
    step = np.diff(np.concatenate(([0], flat.view(np.int8), [0])))
    a, b = ts[np.flatnonzero(step == 1)], ts[np.flatnonzero(step == -1) - 1]
    keep = b - a > tol
    intervals = tuple(zip(a[keep].tolist(), b[keep].tolist()))
    return NeverFlatReport(len(intervals) == 0, intervals)
