import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from axisym.fields import random_field
from axisym.geometry import (
    _SCAN_POINTS,
    AxisError,
    GeometryError,
    RegularityError,
    build_mesh,
    cubic_spline,
    curve_parameter_of_closest,
    dot3,
    never_flat_check,
    project_points,
    project_to_frame,
    ring_defect,
    rotate,
    rotate_inverse,
    spline_curve,
    surface,
    surface_normal,
    sweep,
    tangent_project_points,
)
from axisym.runconfig import _build


def test_rotate_quarter_turn():
    assert np.allclose(rotate(np.pi / 2, [1.0, 0.0, 0.0]), [0, 1, 0], atol=1e-15)


def test_rotate_identity_and_axis():
    v = np.array([0.3, -0.7, 1.1])
    assert np.allclose(rotate(0.0, v), v)
    for phi in (0.1, 1.0, -2.7):
        assert np.allclose(rotate(phi, [0, 0, 1.0]), [0, 0, 1.0])


def test_rotate_inverse_examples():
    assert np.allclose(rotate_inverse(np.pi / 2, [0, 1.0, 0]), [1, 0, 0], atol=1e-15)
    v = np.array([0.3, -0.4, 0.5])
    assert np.allclose(rotate_inverse(0.7, rotate(0.7, v)), v, atol=1e-15)
    assert np.allclose(rotate_inverse(np.pi, [1.0, 0, 0]), [-1, 0, 0], atol=1e-15)


def test_rotate_group_properties():
    rng = np.random.default_rng(0)
    for _ in range(50):
        p1, p2 = rng.uniform(-7, 7, 2)
        v = rng.normal(size=3)
        assert np.allclose(rotate(p1, rotate(p2, v)), rotate(p1 + p2, v), atol=1e-12)
        assert abs(np.linalg.norm(rotate(p1, v)) - np.linalg.norm(v)) < 1e-12


def test_sweep_and_ring_defect():
    phi = 2 * np.pi * np.arange(12) / 12
    v = np.array([[0.3, -0.4, 0.5]])
    np.testing.assert_array_equal(sweep(phi, v, "symmetric"), rotate(phi, v))
    np.testing.assert_array_equal(sweep(phi, v, "antisymmetric"),
                                  rotate_inverse(phi, v))
    for variant, other in (("symmetric", "antisymmetric"),
                           ("antisymmetric", "symmetric")):
        ring = sweep(phi, v, variant)
        assert ring_defect(phi, ring, variant) < 1e-15
        assert ring_defect(phi, ring, other) > 0.1


def test_rotation_law_refuses_unknown_variant_and_ring_defect_per_ring():
    from axisym.fields import symmetrize
    mesh = build_mesh(surface("sphere"), 8, 6)
    field = random_field(mesh, surface("sphere"), seed=4)
    with pytest.raises(ValueError, match="sideways"):
        sweep(mesh.phi, field.values[0, :1], "sideways")
    with pytest.raises(ValueError, match="sideways"):
        ring_defect(mesh.phi, field.values[:, 0], "sideways")
    with pytest.raises(ValueError, match="sideways"):
        symmetrize(field, 0.0, "sideways")
    for variant in ("symmetric", "antisymmetric"):
        rows = ring_defect(mesh.phi, field.values, variant)
        assert rows.shape == (mesh.n_t,)
        each = [ring_defect(mesh.phi, field.values[:, j], variant)
                for j in range(mesh.n_t)]
        np.testing.assert_allclose(rows, each, rtol=0, atol=1e-14)


_FINITE = st.floats(-1e6, 1e6)


@st.composite
def _vector_arrays(draw, count):
    """count float arrays of one drawn shape (..., 3)."""
    shape = draw(array_shapes(min_dims=0, max_dims=3, max_side=6)) + (3,)
    return [draw(arrays(np.float64, shape, elements=_FINITE))
            for _ in range(count)]


@settings(max_examples=60, deadline=None)
@given(_vector_arrays(4))
def test_dot3_and_project_to_frame_equal_axis_sums(vectors):
    a, b, u1, u2 = vectors
    np.testing.assert_array_equal(dot3(a, b), np.sum(a * b, axis=-1))
    ref = (np.sum(a * u1, axis=-1, keepdims=True) * u1
           + np.sum(a * u2, axis=-1, keepdims=True) * u2)
    np.testing.assert_array_equal(project_to_frame((u1, u2), a), ref)


_ANGLE = st.floats(-20.0, 20.0)


@settings(max_examples=60, deadline=None)
@given(_ANGLE, _ANGLE,
       arrays(np.float64, (3,), elements=st.floats(-1e3, 1e3)),
       st.integers(4, 40), st.sampled_from(["symmetric", "antisymmetric"]))
def test_rotation_and_sweep_laws(p1, p2, v, n_phi, variant):
    scale = 1 + float(np.linalg.norm(v))
    rv = rotate(p1, v)
    assert abs(np.linalg.norm(rv) - np.linalg.norm(v)) <= 1e-12 * scale
    assert rv[2] == v[2]
    np.testing.assert_allclose(rotate_inverse(p1, rv), v, rtol=0,
                               atol=1e-12 * scale)
    np.testing.assert_allclose(rotate(p1, rotate(p2, v)), rotate(p1 + p2, v),
                               rtol=0, atol=1e-11 * scale)
    phi = 2 * np.pi * np.arange(n_phi) / n_phi
    ring = sweep(phi, v[None, :], variant)
    law = rotate if variant == "symmetric" else rotate_inverse
    np.testing.assert_array_equal(ring, law(phi, v[None, :]))
    np.testing.assert_array_equal(ring[0], v)
    assert ring_defect(phi, ring, variant) <= 1e-14 * scale


def test_sphere_mesh_area():
    mesh = build_mesh(surface("sphere"), 64, 64)
    assert abs(mesh.area() - 4 * np.pi) / (4 * np.pi) < 1e-3


def test_cylinder_mesh_area_exact():
    for n_t in (2, 17, 64):
        mesh = build_mesh(surface("cylinder"), 8, n_t)
        assert abs(mesh.area() - 2 * np.pi) < 1e-12


def test_annulus_mesh_area_exact_midpoint():
    # midpoint rule integrates the linear weight t exactly: area = 3*pi
    mesh = build_mesh(surface("annulus"), 8, 100)
    assert abs(mesh.area() - 3 * np.pi) < 1e-12


def test_sphere_area_convergence_order():
    errs = []
    for n in (32, 64, 128):
        mesh = build_mesh(surface("sphere"), 8, n)
        errs.append(abs(mesh.area() - 4 * np.pi))
    slope = np.polyfit(np.log([32, 64, 128]), np.log(errs), 1)[0]
    assert 1.8 <= -slope <= 2.5


def test_mesh_validation_errors():
    with pytest.raises(ValueError):
        build_mesh(surface("sphere"), 7, 16)
    with pytest.raises(ValueError):
        build_mesh(surface("sphere"), 5, 16)
    with pytest.raises(ValueError):
        build_mesh(surface("sphere"), 16, 1)
    # x < 0 somewhere
    def bad(t):
        t = np.asarray(t, dtype=float)
        return t - 0.5, t, np.ones_like(t), np.ones_like(t)

    from axisym.geometry import GeneratingCurve
    with pytest.raises(RegularityError):
        GeneratingCurve(interval=(0.0, 1.0), jet=bad)

    # touches axis at interior point
    def kink(t):
        t = np.asarray(t, dtype=float)
        return (np.abs(t) + 0.0, np.zeros_like(t), np.sign(t + 1e-300),
                np.ones_like(t) * 0.5)

    interior = GeneratingCurve((-1.0, 1.0), kink)
    with pytest.raises(AxisError):
        build_mesh(interior, 8, 8)


def test_curve_dipping_below_axis_between_coarse_samples_refused():
    # x = (t - c)^2 - 5.6e-7 is negative only within 7.5e-4 of c, and c sits
    # halfway between two of 512 equispaced samples, where every sample
    # still reads x > 0; the construction check's finer scan catches it
    c = 200.5 / 511
    from axisym.geometry import GeneratingCurve

    def jet(t):
        t = np.asarray(t, dtype=float)
        return (t - c) ** 2 - 5.6e-7, t, 2 * (t - c), np.ones_like(t)

    with pytest.raises(RegularityError, match="nonnegative"):
        GeneratingCurve((0.0, 1.0), jet)


def test_mesh_nodes_avoid_axis():
    mesh = build_mesh(surface("sphere"), 8, 16)
    assert np.all(mesh.h1 > 0)
    assert np.all(mesh.sqrtg > 0)


def test_surface_normal_sphere_radial():
    mesh = build_mesh(surface("sphere"), 16, 24)
    nu = surface_normal(mesh)
    pts = mesh.nodes()
    radial = pts / np.linalg.norm(pts, axis=-1, keepdims=True)
    dots = np.abs(np.sum(nu * radial, axis=-1))
    assert np.all(np.abs(dots - 1) < 1e-12)


def test_surface_normal_cylinder_horizontal():
    mesh = build_mesh(surface("cylinder"), 8, 8)
    nu = surface_normal(mesh)
    assert np.max(np.abs(nu[..., 2])) < 1e-14


def test_surface_normal_annulus_vertical():
    mesh = build_mesh(surface("annulus"), 8, 8)
    nu = surface_normal(mesh)
    assert np.max(np.abs(np.abs(nu[..., 2]) - 1)) < 1e-14


def test_surface_normal_axially_symmetric():
    mesh = build_mesh(surface("torus_band"), 16, 20)
    nu = surface_normal(mesh)
    ref = nu[0]
    for i in range(mesh.n_phi):
        assert np.allclose(nu[i], rotate(mesh.phi[i], ref), atol=1e-12)


def test_project_sphere_examples():
    sph = surface("sphere")
    assert np.allclose(project_points(sph, [0, 0, 2.0])[0], [0, 0, 1.0], atol=1e-12)
    assert np.allclose(project_points(sph, [0.3, 0.4, 0.0])[0], [0.6, 0.8, 0.0],
                       atol=1e-12)


def test_project_sphere_is_normalization():
    sph = surface("sphere")
    rng = np.random.default_rng(1)
    v = rng.normal(size=(1000, 3))
    v *= rng.uniform(0.5, 2.0, size=(1000, 1)) / np.linalg.norm(v, axis=1, keepdims=True)
    p, _ = project_points(sph, v)
    assert np.max(np.linalg.norm(p - v / np.linalg.norm(v, axis=1, keepdims=True),
                                 axis=1)) < 1e-10


def test_project_torus_example():
    tor = surface("torus_band")
    assert np.allclose(project_points(tor, [4.0, 0, 0])[0], [3.0, 0, 0], atol=1e-10)


def test_project_generic_matches_analytic_on_sphere():
    # run the scan+bisection path on a spline replica of the sphere curve
    t = np.linspace(0, np.pi, 801)
    tgt = spline_curve(t, np.sin(t), np.cos(t))
    sph = surface("sphere")
    rng = np.random.default_rng(2)
    v = rng.normal(size=(200, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    v *= rng.uniform(0.6, 1.8, size=(200, 1))
    pg, _ = project_points(tgt, v)
    pa, _ = project_points(sph, v)
    assert np.max(np.linalg.norm(pg - pa, axis=1)) < 1e-6


@pytest.mark.parametrize("name", ["sphere", "cylinder_tall", "annulus_x",
                                  "disk_x", "torus_band_x", "ellipsoid_band"])
def test_spline_named_like_a_preset_projects_generically(tmp_path, name):
    # only presets carry a closed-form projection; the file name of a
    # config's spline table picks none
    t = np.linspace(0, np.pi, 41)
    table = tmp_path / f"{name}.csv"
    table.write_text("t,x,z\n" + "".join(
        "%.17g,%.17g,%.17g\n" % row
        for row in zip(t, np.sin(t), 1.5 * np.cos(t))), encoding="utf-8")
    named = _build({"target_surface": {"spline_table": str(table)}},
                   "target_surface")
    plain = spline_curve(t, np.sin(t), 1.5 * np.cos(t))
    assert named.closest is None
    v = np.random.default_rng(4).normal(size=(200, 3)) * 1.5
    p_named, s_named = project_points(named, v)
    p_plain, s_plain = project_points(plain, v)
    np.testing.assert_array_equal(s_named, s_plain)
    np.testing.assert_array_equal(p_named, p_plain)


def test_preset_rejects_unknown_parameter():
    with pytest.raises(GeometryError, match="no parameter 'radus'"):
        surface("cylinder", radus=2.0)
    with pytest.raises(GeometryError, match="unknown curve preset"):
        surface("cone")
    # surface builds presets only: a curve is passed on as itself
    with pytest.raises(GeometryError, match="unknown curve preset"):
        surface(surface("sphere"))


def test_project_idempotent():
    for name in ("sphere", "cylinder", "torus_band", "ellipsoid_band"):
        tgt = surface(name)
        rng = np.random.default_rng(3)
        v = rng.normal(size=(100, 3)) * 1.5
        if name == "sphere":
            v = v[np.linalg.norm(v, axis=1) > 0.1]
        p, _ = project_points(tgt, v)
        p2, _ = project_points(tgt, p)
        assert np.max(np.linalg.norm(p2 - p, axis=1)) < 1e-12, name


def test_project_axis_tiebreak_uses_e1():
    cyl = surface("cylinder")
    p = project_points(cyl, [0.0, 0.0, 0.5])[0]
    assert np.allclose(p, [1.0, 0.0, 0.5], atol=1e-14)
    # every point of the sphere ties for the origin: it takes the pole,
    # t = 0, as a zero Dirichlet ring does in the retraction
    p, s = project_points(surface("sphere"), [0.0, 0.0, 0.0])
    assert s == 0.0 and np.array_equal(p, [0.0, 0.0, 1.0])


def test_project_lipschitz_bound():
    sph = surface("sphere")
    rng = np.random.default_rng(4)
    base = rng.normal(size=(300, 3))
    base /= np.linalg.norm(base, axis=1, keepdims=True)
    v = base * rng.uniform(0.8, 1.2, size=(300, 1))
    w = v + 0.05 * rng.normal(size=(300, 3))
    pv, _ = project_points(sph, v)
    pw, _ = project_points(sph, w)
    ratio = np.linalg.norm(pv - pw, axis=1) / np.linalg.norm(v - w, axis=1)
    assert np.max(ratio) <= 2.0


def _reference_closest(curve, r, zeta, iters=80):
    """The closest-point search with fixed iteration counts: an unblocked
    scan, `iters` bisection steps on every row, and `iters` golden-section
    steps on every row, of which each row keeps one.  Returns the
    parameters and the rows whose bracket has a sign change."""
    t0, t1 = curve.interval
    grid = np.linspace(t0, t1, _SCAN_POINTS + 1)
    xg, zg, _, _ = curve.jet(grid)
    d2 = (xg[None, :] - r[:, None]) ** 2 + (zg[None, :] - zeta[:, None]) ** 2
    k = np.argmin(d2, axis=1)
    step = (t1 - t0) / _SCAN_POINTS
    lo, hi = grid[k] - step, grid[k] + step
    if not curve.closed:
        lo, hi = np.maximum(lo, t0), np.minimum(hi, t1)

    def fdist(s):
        x, z, _, _ = curve.jet(s)
        return (x - r) ** 2 + (z - zeta) ** 2

    def g(s):
        x, z, dx, dz = curve.jet(s)
        return (x - r) * dx + (z - zeta) * dz

    has_root = (g(lo) <= 0) & (g(hi) >= 0)
    a, b = lo.copy(), hi.copy()
    for _ in range(iters):
        mid = 0.5 * (a + b)
        take_hi = g(mid) <= 0
        a = np.where(has_root & take_hi, mid, a)
        b = np.where(has_root & ~take_hi, mid, b)
    inv = 0.5 * (np.sqrt(5.0) - 1.0)
    ga, gb = lo.copy(), hi.copy()
    for _ in range(iters):
        c = gb - inv * (gb - ga)
        d = ga + inv * (gb - ga)
        left = fdist(c) < fdist(d)
        gb = np.where(left, d, gb)
        ga = np.where(left, ga, c)
    s = np.where(has_root, 0.5 * (a + b), 0.5 * (ga + gb))
    cands = np.sort(np.stack([lo, s, hi]), axis=0, kind="stable")
    s = np.take_along_axis(cands, np.argmin(fdist(cands), axis=0)[None, :], 0)[0]
    if curve.closed:
        s = (s - t0) % (t1 - t0) + t0
    return s, has_root


def _ellipse_spline():
    t = np.pi * np.arange(41) / 40
    return spline_curve(t, np.sin(t), 1.5 * np.cos(t))


def _loop_spline():
    t = np.linspace(0.0, 2 * np.pi, 25)
    return spline_curve(t, 2 + 0.7 * np.cos(t),
                        0.9 * np.sin(t) + 0.1 * np.sin(2 * t), closed=True)


def _probe_points(curve, n, rng):
    """n points (r, zeta): the origin, points on the axis and, for an open
    curve, points beyond its ends, then random points of the half-plane."""
    special = [(0.0, 0.0), (0.0, 0.7), (0.0, -2.5), (0.0, 4.0)]
    if not curve.closed:
        for te, sign in zip(curve.interval, (-1.0, 1.0)):
            x, z, dx, dz = (float(v) for v in curve.jet(te))
            for dist in (0.05, 0.6):
                special.append((max(x + sign * dist * dx, 0.0),
                                z + sign * dist * dz))
    rand = np.column_stack([np.abs(rng.normal(scale=2.0, size=n)),
                            rng.normal(scale=2.0, size=n)])
    pts = np.concatenate([np.array(special), rand])[:n]
    return pts[:, 0].copy(), pts[:, 1].copy()


def test_closest_parameter_equals_fixed_iteration_reference():
    rng = np.random.default_rng(11)
    no_root = 0
    for curve in (_ellipse_spline(), _loop_spline(),
                  surface("ellipsoid_band")):
        for n in (1, 63, 64, 65, 300):
            r, zeta = _probe_points(curve, n, rng)
            ref, has_root = _reference_closest(curve, r, zeta)
            np.testing.assert_array_equal(
                curve_parameter_of_closest(curve, r, zeta), ref)
            no_root += int(np.count_nonzero(~has_root))
    # some brackets have no sign change, so the golden-section rows ran
    assert no_root > 0


def test_closest_parameter_evaluation_count():
    # the spline-target instance: a 16x16 cylinder base, the ellipse target
    mesh = build_mesh(surface("cylinder", radius=2.0), 16, 16)
    target = _ellipse_spline()
    pts = random_field(mesh, target, seed=0).values.reshape(-1, 3)
    sizes = []

    def counting(f):
        def counted(s):
            sizes.append(np.size(s))
            return f(s)
        return counted

    # the scan and the refinement read the curve through its jet alone
    counted = dataclasses.replace(target, jet=counting(target.jet))
    sizes.clear()                     # the curve's own checks sampled it
    s = curve_parameter_of_closest(counted, np.hypot(pts[:, 0], pts[:, 1]),
                                   pts[:, 2])
    assert s.shape == (256,)
    scan = sizes.count(_SCAN_POINTS + 1)
    assert scan == 1
    assert 0 < len(sizes) - scan <= 64


@pytest.mark.parametrize("n, closed", [(2, False), (3, False), (3, True),
                                       (4, True), (9, False), (25, True)])
def test_spline_jet_equals_the_four_callables(n, closed):
    # each jet entry == the cubic_spline value or derivative of its own
    # coordinate (one gather, the same Horner expressions): at the knots,
    # between them, beyond the ends (the end cubics extrapolate) and, for a
    # loop, across the seam and periods away, its parameter wrapped
    rng = np.random.default_rng(n)
    t = np.concatenate([[0.0], np.cumsum(rng.uniform(0.2, 1.5, n - 1))])
    x, z = 2.0 + rng.uniform(-0.5, 0.5, n), rng.normal(size=n)
    if closed:
        x[-1], z[-1] = x[0], z[0]
    curve = spline_curve(t, x, z, closed=closed)
    (fx, dfx), (fz, dfz) = (cubic_spline(t, y, periodic=closed) for y in (x, z))
    span = t[-1]
    s = np.concatenate([
        t, 0.5 * (t[1:] + t[:-1]),
        [-0.3 * span, -1e-12, 1e-12, span - 1e-12, span + 1e-12, 1.7 * span,
         2.5 * span, -2.2 * span, np.nextafter(span, 0.0),
         np.nextafter(0.0, -1.0)],
        rng.uniform(-1.5 * span, 2.5 * span, 200)])
    for u in (s, s[:40].reshape(4, 10), s[7]):
        got = curve.jet(u)
        if closed:
            u = u % span                      # t[0] = 0
        for value, f in zip(got, (fx, fz, dfx, dfz)):
            np.testing.assert_array_equal(value, f(u))


def _meridian_normal(target, p, s):
    """Unit normal of the target at its points p, of parameters s: the
    curve's normal_profile, rotated to the azimuth of p.  It shares no code
    with tangent_frame, whose cross product would accept any orthonormal
    frame."""
    p = np.asarray(p, dtype=float)
    return rotate(np.arctan2(p[..., 1], p[..., 0]), target.normal_profile(s))


def test_tangent_project_examples():
    sph = surface("sphere")
    assert np.allclose(tangent_project_points(sph, [0, 0, 1.0], [1.0, 2.0, 3.0]),
                       [1, 2, 0], atol=1e-12)
    assert np.max(np.abs(tangent_project_points(sph, [1.0, 0, 0], [5.0, 0, 0]))) < 1e-12
    # removing the normal component leaves 0
    tor = surface("torus_band")
    p, s = project_points(tor, [2.7, 0.4, 0.8])
    nu = _meridian_normal(tor, p, s)
    assert np.max(np.abs(tangent_project_points(tor, p, nu))) < 1e-10


def test_tangent_orthogonal_to_normal():
    rng = np.random.default_rng(5)
    for name in ("sphere", "cylinder", "ellipsoid_band"):
        tgt = surface(name)
        v = rng.normal(size=(50, 3)) + np.array([1.5, 0, 0])
        p, s = project_points(tgt, v)
        w = rng.normal(size=(50, 3))
        tp = tangent_project_points(tgt, p, w)
        nu = _meridian_normal(tgt, p, s)
        assert np.max(np.abs(np.sum(tp * nu, axis=-1))) < 1e-10


def test_never_flat_presets():
    assert never_flat_check(surface("sphere")).ok
    assert never_flat_check(surface("cylinder")).ok
    assert never_flat_check(surface("torus_band")).ok
    rep = never_flat_check(surface("disk"))
    assert not rep.ok and len(rep.flat_intervals) >= 1
    assert not never_flat_check(surface("annulus")).ok


def test_never_flat_runs_match_sample_loop():
    # the flat runs, found with array ops, against a loop over the samples:
    # runs that touch either end, and a one-sample run (length 0) that drops
    from axisym.geometry import GeneratingCurve

    def dz(t):
        t = np.asarray(t, dtype=float)
        return np.where((np.cos(5 * t) > 0.3) | (t == 0.5), 0.0, 1.0)

    def jet(t):
        t = np.asarray(t, dtype=float)
        return 1 + t, t, np.ones_like(t), dz(t)

    curve = GeneratingCurve((0.0, 4.0), jet)
    ts = np.linspace(0.0, 4.0, 4097)
    runs, start = [], None
    for k, flat in enumerate(np.append(dz(ts) == 0, False)):
        if flat and start is None:
            start = k
        elif not flat and start is not None:
            if ts[k - 1] - ts[start] > 1e-6:
                runs.append((float(ts[start]), float(ts[k - 1])))
            start = None
    rep = never_flat_check(curve)
    assert rep.flat_intervals == tuple(runs) and not rep.ok
    assert runs[0][0] == 0.0 and runs[-1][1] == 4.0
    assert not any(a <= 0.5 <= b for a, b in runs)


def test_spline_curve_roundtrip():
    t = np.linspace(0, 1, 33)
    spl = spline_curve(t, 1 + 0.2 * t, t**2)
    mesh = build_mesh(spl, 8, 16)
    assert mesh.area() > 0


def _spline_knots(rng, n):
    """n increasing knots on [-2, 2], equispaced with a random jitter."""
    return np.linspace(-2.0, 2.0, n) + rng.uniform(-0.3, 0.3, n) * 4.0 / n


@pytest.mark.parametrize("n", [4, 5, 9, 40])
def test_cubic_spline_reproduces_any_cubic(n):
    # not-a-knot ends: a cubic is its own spline, extrapolation included
    rng = np.random.default_rng(n)
    t = _spline_knots(rng, n)
    p = np.polynomial.Polynomial(rng.normal(size=4))
    value, derivative = cubic_spline(t, p(t))
    u = np.linspace(t[0] - 0.5, t[-1] + 0.5, 201)
    np.testing.assert_allclose(value(u), p(u), rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(derivative(u), p.deriv()(u), rtol=1e-12,
                               atol=1e-12)


def test_cubic_spline_small_tables():
    # 3 not-a-knot knots give the parabola through them, 2 knots the line,
    # whatever the ends
    u = np.linspace(-1.0, 3.0, 41)
    q = np.polynomial.Polynomial([0.7, -1.3, 2.1])
    value, derivative = cubic_spline([-0.5, 0.2, 1.9], q([-0.5, 0.2, 1.9]))
    np.testing.assert_allclose(value(u), q(u), rtol=1e-14, atol=1e-14)
    np.testing.assert_allclose(derivative(u), q.deriv()(u), rtol=1e-14,
                               atol=1e-14)
    for periodic, y in ((False, [0.5, 2.0]), (True, [0.5, 0.5])):
        value, derivative = cubic_spline([0.3, 1.1], y, periodic=periodic)
        line = y[0] + (y[1] - y[0]) / 0.8 * (u - 0.3)
        np.testing.assert_allclose(value(u), line, rtol=1e-14, atol=1e-14)
        np.testing.assert_allclose(derivative(u), (y[1] - y[0]) / 0.8,
                                   rtol=1e-14)


def _piece_derivatives(derivative, t):
    """(second derivative at the left end, at the right end, third
    derivative) of each cubic piece of a spline, exact to rounding: the
    derivative is a quadratic on each piece, read off at its quarter
    points."""
    h = np.diff(t)
    d1, d2, d3 = (derivative(t[:-1] + f * h) for f in (0.25, 0.5, 0.75))
    third = (d1 - 2 * d2 + d3) / (h / 4) ** 2
    mid = (d3 - d1) / (h / 2)
    return mid - third * h / 2, mid + third * h / 2, third


@pytest.mark.parametrize("n", [5, 12, 40])
def test_not_a_knot_spline_is_c2_with_one_cubic_on_each_end_pair(n):
    # C2 at every interior knot; not-a-knot: the third derivative does not
    # jump at t[1] and t[-2]
    rng = np.random.default_rng(n)
    t = _spline_knots(rng, n)
    y = rng.normal(size=n)
    value, derivative = cubic_spline(t, y)
    np.testing.assert_allclose(value(t), y, rtol=1e-14, atol=1e-14)
    left, right, third = _piece_derivatives(derivative, t)
    np.testing.assert_allclose(left[1:], right[:-1], rtol=1e-11, atol=1e-11)
    np.testing.assert_allclose(third[[1, -2]], third[[0, -1]], rtol=1e-11,
                               atol=1e-11)


@pytest.mark.parametrize("n", [3, 4, 7, 25])
def test_periodic_cubic_spline_is_c2_across_the_seam(n):
    # every knot is interpolated, and the last cubic ends where the first
    # begins with the same slope and curvature
    rng = np.random.default_rng(n)
    t = _spline_knots(rng, n)
    y = rng.normal(size=n)
    y[-1] = y[0]
    value, derivative = cubic_spline(t, y, periodic=True)
    np.testing.assert_allclose(value(t), y, rtol=1e-14, atol=1e-14)
    # t[-1] lies in the last interval, t[0] in the first
    assert abs(value(t[-1]) - value(t[0])) < 1e-14
    assert abs(derivative(t[-1]) - derivative(t[0])) < 1e-12
    left, right, _ = _piece_derivatives(derivative, t)
    np.testing.assert_allclose(np.roll(left, -1), right, rtol=1e-11, atol=1e-11)


@pytest.mark.parametrize("t, y, periodic, message", [
    ([0.0], [1.0], False, "at least 2 knots"),
    ([0.0, 1.0, 1.0, 2.0], [0.0, 1.0, 2.0, 3.0], False, "strictly increasing"),
    ([0.0, 2.0, 1.0], [0.0, 1.0, 2.0], False, "strictly increasing"),
    ([0.0, np.nan, 2.0], [0.0, 1.0, 2.0], False, "finite"),
    ([0.0, 1.0, 2.0], [0.0, 1.0, 1e-14], True, "equal end values"),
])
def test_cubic_spline_refuses_bad_knots(t, y, periodic, message):
    with pytest.raises(ValueError, match=message):
        cubic_spline(t, y, periodic=periodic)


def test_periodic_cubic_spline_accepts_ends_equal_to_rounding():
    # scipy's test: |y[0] - y[-1]| <= 1e-15 + 1e-15 |y[-1]|
    cubic_spline([0.0, 1.0, 2.0], [1.0, 3.0, 1.0 + 1e-15], periodic=True)


def test_project_torus_brute_force_oracle():
    # independent oracle: scan 1e5 curve samples for the nearest point, on
    # the default torus and on one with its own R and r
    for params in ({}, {"R": 3.0, "r": 0.7}):
        tor = surface("torus_band", **params)
        s = np.linspace(*tor.interval, 100_001)
        xs, zs, _, _ = tor.jet(s)
        rng = np.random.default_rng(8)
        pts = rng.normal(size=(25, 3)) * 2.0 + np.array([2.0, 0, 0])
        proj, _ = project_points(tor, pts)
        for v, p in zip(pts, proj):
            r, zeta = np.hypot(v[0], v[1]), v[2]
            k = np.argmin((xs - r) ** 2 + (zs - zeta) ** 2)
            theta = np.arctan2(v[1], v[0])
            brute = np.array([xs[k] * np.cos(theta), xs[k] * np.sin(theta),
                              zs[k]])
            assert np.linalg.norm(p - brute) < 1e-4, params
