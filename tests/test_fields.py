import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from axisym import ioutil
from axisym.fields import (
    DiscreteField,
    ProfileField,
    build_from_profile,
    build_from_triple,
    circular_average_perp,
    field_from_csv,
    field_to_csv,
    line_symmetry_classify,
    mode_decompose,
    parseval_weights,
    profile_to_csv,
    random_field,
    resample,
    resample_phi,
    resample_t,
    symmetrize,
    symmetry_defect,
)
from axisym.geometry import build_mesh, rotate, rotate_inverse, surface


@pytest.fixture(scope="module")
def sphere_mesh():
    return build_mesh(surface("sphere"), 32, 24)


@pytest.fixture(scope="module")
def sphere_target():
    return surface("sphere")


def unit_profile(mesh):
    # tangent profile along the meridian of the unit sphere
    vals = np.stack([np.sin(mesh.t), np.zeros_like(mesh.t), np.cos(mesh.t)], axis=-1)
    return vals


def test_circular_average_symmetric_field_vanishes(sphere_mesh, sphere_target):
    prof = ProfileField(sphere_mesh.t, unit_profile(sphere_mesh), "symmetric")
    f = build_from_profile(sphere_mesh, prof, sphere_target)
    assert np.max(np.abs(circular_average_perp(f))) < 1e-12


def test_circular_average_constant_field(sphere_mesh, sphere_target):
    vals = np.zeros(sphere_mesh.shape + (3,))
    vals[..., 0] = 1.0
    f = DiscreteField(sphere_mesh, sphere_target, vals)
    avg = circular_average_perp(f)
    assert np.allclose(avg, [1.0, 0.0], atol=1e-15)
    vals2 = np.zeros(sphere_mesh.shape + (3,))
    vals2[..., 2] = 1.0
    f2 = DiscreteField(sphere_mesh, sphere_target, vals2)
    assert np.max(np.abs(circular_average_perp(f2))) == 0.0


def test_mode_decompose_exact_first_harmonic(sphere_mesh, sphere_target):
    rng = np.random.default_rng(7)
    alpha = rng.normal(size=(sphere_mesh.n_t, 2))
    beta = rng.normal(size=(sphere_mesh.n_t, 2))
    eta = rng.normal(size=sphere_mesh.n_t)
    vals = build_from_triple(sphere_mesh, alpha, beta, eta)
    f = DiscreteField(sphere_mesh, sphere_target, vals)
    dec = mode_decompose(f)
    assert np.max(np.abs(dec.alpha_perp - alpha)) < 1e-12
    assert np.max(np.abs(dec.beta_perp - beta)) < 1e-12
    assert np.max(np.abs(dec.eta - eta)) < 1e-12
    assert np.max(np.abs(dec.mean_perp)) < 1e-14
    assert dec.residual_energy <= 1e-20


def test_mode_decompose_constant_e3(sphere_mesh, sphere_target):
    vals = np.zeros(sphere_mesh.shape + (3,))
    vals[..., 2] = 1.0
    dec = mode_decompose(DiscreteField(sphere_mesh, sphere_target, vals))
    assert np.max(np.abs(dec.alpha_perp)) == 0
    assert np.max(np.abs(dec.beta_perp)) == 0
    assert np.allclose(dec.eta, 1.0)
    assert dec.residual_energy == 0


def test_mode_decompose_cos2phi_mass(sphere_mesh, sphere_target):
    # vertical cos(2 phi) of amplitude 0.1 carries Parseval mass
    # 0.01 * (1/2) * area
    vals = np.zeros(sphere_mesh.shape + (3,))
    vals[..., 2] = 0.1 * np.cos(2 * sphere_mesh.phi)[:, None]
    dec = mode_decompose(DiscreteField(sphere_mesh, sphere_target, vals))
    # independent direct quadrature of the squared term
    direct = float(np.sum(sphere_mesh.quad_weights * vals[..., 2] ** 2))
    assert abs(dec.residual_energy - direct) < 1e-14
    assert abs(dec.residual_energy - 0.01 * 0.5 * sphere_mesh.area()) < 1e-10


def test_mode_decompose_parseval(sphere_mesh, sphere_target):
    f = random_field(sphere_mesh, sphere_target, seed=11)
    coeff = np.fft.rfft(f.values, axis=0) / sphere_mesh.n_phi
    w = np.full(sphere_mesh.n_phi // 2 + 1, 2.0)
    w[0] = 1.0
    w[-1] = 1.0
    mass = 2 * np.pi * np.sum(w[:, None, None] * np.abs(coeff) ** 2
                              * (sphere_mesh.sqrtg * sphere_mesh.dt)[None, :, None])
    direct = np.sum(sphere_mesh.quad_weights * np.sum(f.values ** 2, axis=-1))
    assert abs(mass - direct) / direct < 1e-10


@pytest.mark.parametrize("n", [8, 9, 32])
def test_parseval_weights(n):
    f = np.random.default_rng(n).normal(size=n)
    c = np.fft.rfft(f) / n
    assert abs(np.sum(f ** 2) * 2 * np.pi / n
               - 2 * np.pi * np.sum(parseval_weights(n) * np.abs(c) ** 2)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 200), st.integers(0, 2 ** 32 - 1))
def test_parseval_weights_property(n, seed):
    # odd and even n: the Nyquist mode of even n counts once
    f = np.random.default_rng(seed).normal(size=n)
    c = np.fft.rfft(f) / n
    direct = np.sum(f ** 2) * 2 * np.pi / n
    modes = 2 * np.pi * np.sum(parseval_weights(n) * np.abs(c) ** 2)
    assert abs(direct - modes) <= 1e-13 * direct


def test_symmetry_defect_classes(sphere_mesh, sphere_target):
    prof_vals = unit_profile(sphere_mesh)
    sym = build_from_profile(
        sphere_mesh, ProfileField(sphere_mesh.t, prof_vals, "symmetric"), sphere_target)
    anti = build_from_profile(
        sphere_mesh, ProfileField(sphere_mesh.t, prof_vals, "antisymmetric"), sphere_target)
    assert symmetry_defect(sym, "symmetric") < 1e-12
    assert symmetry_defect(anti, "antisymmetric") < 1e-12
    assert symmetry_defect(anti, "symmetric") > 0.1
    vals = np.zeros(sphere_mesh.shape + (3,))
    vals[..., 2] = 1.0
    e3 = DiscreteField(sphere_mesh, sphere_target, vals)
    assert symmetry_defect(e3, "symmetric") == 0
    assert symmetry_defect(e3, "antisymmetric") == 0


def test_symmetrize_fixed_point_and_defect(sphere_mesh, sphere_target):
    prof = ProfileField(sphere_mesh.t, unit_profile(sphere_mesh), "symmetric")
    f = build_from_profile(sphere_mesh, prof, sphere_target)
    for phi_star in (0.0, sphere_mesh.phi[5]):
        u = symmetrize(f, phi_star, "symmetric")
        assert np.max(np.abs(u.values - f.values)) < 1e-12
    g = random_field(sphere_mesh, sphere_target, seed=3)
    for variant in ("symmetric", "antisymmetric"):
        u = symmetrize(g, sphere_mesh.phi[9], variant)
        assert symmetry_defect(u, variant) < 1e-12


def test_symmetrize_constant_e1(sphere_mesh, sphere_target):
    vals = np.zeros(sphere_mesh.shape + (3,))
    vals[..., 0] = 1.0
    f = DiscreteField(sphere_mesh, sphere_target, vals)
    u = symmetrize(f, 0.0, "symmetric")
    expected = np.stack([np.cos(sphere_mesh.phi), np.sin(sphere_mesh.phi),
                         np.zeros_like(sphere_mesh.phi)], axis=-1)
    assert np.max(np.abs(u.values - expected[:, None, :])) < 1e-14


def test_symmetrize_idempotent(sphere_mesh, sphere_target):
    g = random_field(sphere_mesh, sphere_target, seed=5)
    u1 = symmetrize(g, sphere_mesh.phi[3], "symmetric")
    u2 = symmetrize(u1, sphere_mesh.phi[17], "symmetric")
    assert np.max(np.abs(u2.values - u1.values)) < 1e-12


def test_build_from_profile_orthogonality(sphere_mesh, sphere_target):
    prof_vals = unit_profile(sphere_mesh)
    sym = build_from_profile(
        sphere_mesh, ProfileField(sphere_mesh.t, prof_vals, "symmetric"), sphere_target)
    dec = mode_decompose(sym)
    # beta = e3 x alpha for the equivariant build
    cross = np.stack([-dec.alpha_perp[:, 1], dec.alpha_perp[:, 0]], axis=-1)
    assert np.max(np.abs(dec.beta_perp - cross)) < 1e-12
    norms = np.abs(np.linalg.norm(dec.alpha_perp, axis=1)
                   - np.linalg.norm(dec.beta_perp, axis=1))
    dots = np.abs(np.sum(dec.alpha_perp * dec.beta_perp, axis=1))
    assert np.max(norms) < 1e-12 and np.max(dots) < 1e-12
    anti = build_from_profile(
        sphere_mesh, ProfileField(sphere_mesh.t, prof_vals, "antisymmetric"), sphere_target)
    dec_a = mode_decompose(anti)
    assert np.max(np.abs(dec_a.beta_perp + cross)) < 1e-12


def test_profile_builds_are_null_average(sphere_mesh, sphere_target):
    prof_vals = unit_profile(sphere_mesh)
    for variant in ("symmetric", "antisymmetric"):
        f = build_from_profile(
            sphere_mesh, ProfileField(sphere_mesh.t, prof_vals, variant), sphere_target)
        assert np.max(np.abs(circular_average_perp(f))) < 1e-10


def test_glued_line_symmetric_field(sphere_mesh, sphere_target):
    # antisymmetric on the lower half, symmetric on the upper half, with an
    # axis-directed profile value at the seam
    t = sphere_mesh.t
    blend = np.clip((t - t[0]) / (t[-1] - t[0]), 0, 1)
    prof = np.stack([np.sin(np.pi * blend) * 0.6,
                     np.zeros_like(t),
                     np.cos(np.pi * blend)], axis=-1)
    prof /= np.linalg.norm(prof, axis=1, keepdims=True)
    half = sphere_mesh.n_t // 2
    prof[half - 1] = [0, 0, 1.0]  # seam row is axis-directed
    vals = np.empty(sphere_mesh.shape + (3,))
    vals[:, :half] = rotate_inverse(sphere_mesh.phi[:, None], prof[None, :half])
    vals[:, half:] = rotate(sphere_mesh.phi[:, None], prof[None, half:])
    f = DiscreteField(sphere_mesh, sphere_target, vals)
    labels = line_symmetry_classify(f, tol=1e-8)
    assert "neither" not in labels
    assert "symmetric" in labels and "antisymmetric" in labels
    assert np.max(np.abs(circular_average_perp(f))) < 1e-10


def test_line_symmetry_random_field_has_neither(sphere_mesh, sphere_target):
    f = random_field(sphere_mesh, sphere_target, seed=21)
    labels = line_symmetry_classify(f, tol=1e-6)
    assert "neither" in labels


def test_random_field_determinism_and_constraint(sphere_mesh, sphere_target):
    f1 = random_field(sphere_mesh, sphere_target, seed=42)
    f2 = random_field(sphere_mesh, sphere_target, seed=42)
    assert np.array_equal(f1.values, f2.values)
    assert f1.constraint_defect() < 1e-8


def test_mode_roundtrip_identity(sphere_mesh, sphere_target):
    rng = np.random.default_rng(9)
    alpha = rng.normal(size=(sphere_mesh.n_t, 2))
    beta = rng.normal(size=(sphere_mesh.n_t, 2))
    eta = rng.normal(size=sphere_mesh.n_t)
    f = DiscreteField(sphere_mesh, sphere_target,
                      build_from_triple(sphere_mesh, alpha, beta, eta))
    dec = mode_decompose(f)
    assert np.max(np.abs(dec.alpha_perp - alpha)) < 1e-10
    assert np.max(np.abs(dec.beta_perp - beta)) < 1e-10
    assert np.max(np.abs(dec.eta - eta)) < 1e-10


def test_field_csv_roundtrip(sphere_mesh, sphere_target):
    f = random_field(sphere_mesh, sphere_target, seed=13)
    buf = io.StringIO()
    field_to_csv(f, buf, header_comment="seed=13")
    buf.seek(0)
    g = field_from_csv(buf, sphere_mesh, sphere_target)
    assert np.array_equal(f.values, g.values)


def test_profile_csv_roundtrip(sphere_mesh):
    prof = ProfileField(sphere_mesh.t, unit_profile(sphere_mesh), "symmetric")
    buf = io.StringIO()
    profile_to_csv(prof, buf)
    buf.seek(0)
    back = ioutil.read_csv(buf, ["t", "gx", "gy", "gz"])
    assert np.array_equal(prof.t_nodes, back[:, 0])
    assert np.array_equal(prof.values, back[:, 1:])


@pytest.mark.parametrize("n_phi", [8, 32])
def test_mode_mass_parseval(sphere_target, n_phi):
    # 2 pi sum_k mass = the integral of |m|^2 dphi, row by row and
    # component by component
    mesh = build_mesh(surface("sphere"), n_phi, 12)
    f = random_field(mesh, sphere_target, seed=n_phi)
    mass = mode_decompose(f).mass
    assert mass.shape == (n_phi // 2 + 1, 12, 3)
    direct = np.sum(f.values ** 2, axis=0) * mesh.dphi
    assert np.allclose(2 * np.pi * mass.sum(axis=0), direct,
                       rtol=1e-12, atol=0)


def _phi_modes(n, coeffs):
    """(n, 3) samples at n uniform phi nodes of the field with cos and sin
    coefficients coeffs (2, k_max + 1, 3) of the modes k = 0..k_max."""
    phi = 2 * np.pi * np.arange(n) / n
    k = np.arange(coeffs.shape[1])[:, None, None]
    return np.sum(coeffs[0, :, None] * np.cos(k * phi[:, None])
                  + coeffs[1, :, None] * np.sin(k * phi[:, None]), axis=0)


@pytest.mark.parametrize("n_coarse, n_fine", [(8, 32), (16, 32), (16, 64)])
def test_resample_phi_exact_for_resolved_modes(n_coarse, n_fine):
    # modes |k| < n_coarse / 2 prolong exactly; restriction onto nested
    # nodes is the sub-sample, and so is the truncated rfft of such a field
    # onto nodes that do not nest
    coeffs = np.random.default_rng(n_coarse).normal(size=(2, n_coarse // 2, 3))
    v_c = _phi_modes(n_coarse, coeffs)
    fine = resample_phi(v_c, n_fine)
    assert np.max(np.abs(fine - _phi_modes(n_fine, coeffs))) < 1e-13
    assert np.array_equal(resample_phi(fine, n_coarse),
                          fine[::n_fine // n_coarse])
    assert np.max(np.abs(resample_phi(fine, n_coarse) - v_c)) < 1e-13
    assert np.max(np.abs(resample_phi(_phi_modes(24, coeffs), n_coarse)
                         - v_c)) < 1e-13
    # the Nyquist mode cos(n phi / 2) prolongs as the cosine
    nyq = np.zeros((2, n_coarse // 2 + 1, 3))
    nyq[0, -1] = 1.0
    assert np.max(np.abs(resample_phi(_phi_modes(n_coarse, nyq), n_fine)
                         - _phi_modes(n_fine, nyq))) < 1e-13


def test_resample_t_wraps_across_the_seam_of_a_closed_base():
    torus = surface("torus_band")
    coarse, fine = build_mesh(torus, 16, 16), build_mesh(torus, 16, 32)
    f = random_field(coarse, surface("sphere"), seed=4)
    g = resample(f, fine)
    assert g.mesh is fine and g.values.shape == (16, 32, 3)
    # fine row 0 sits a quarter coarse cell above the seam, between coarse
    # rows -1 (below the seam) and 0; fine row -1 mirrors it
    assert np.allclose(g.values[:, 0], 0.25 * f.values[:, -1]
                       + 0.75 * f.values[:, 0], rtol=0, atol=1e-14)
    assert np.allclose(g.values[:, -1], 0.75 * f.values[:, -1]
                       + 0.25 * f.values[:, 0], rtol=0, atol=1e-14)
    # a smooth periodic field has no jump at the seam: its error there is
    # the interpolation error of every other row
    vals = np.cos(coarse.t)[None, :, None] + np.zeros((16, 1, 3))
    err = np.abs(resample_t(vals, coarse, fine)[0, :, 0] - np.cos(fine.t))
    assert err[0] == pytest.approx(err[15]) and err[-1] == pytest.approx(err[16])
    assert np.max(err) < 0.02


def test_resample_t_stays_inside_the_interval_of_an_axis_touching_base():
    # on the sphere the coarse nodes end further from the poles than the
    # fine ones: the fine end rows clamp to the coarse end rows, so a field
    # holding its own t stays inside the coarse nodes' range and never
    # reaches past a pole
    sphere = surface("sphere")
    coarse, fine = build_mesh(sphere, 16, 16), build_mesh(sphere, 16, 32)
    vals = coarse.t[None, :, None] + np.zeros((16, 1, 3))
    t_new = resample(DiscreteField(coarse, sphere, vals), fine).values
    assert np.all(t_new[:, 0] == coarse.t[0])
    assert np.all(t_new[:, -1] == coarse.t[-1])
    assert coarse.t[0] <= t_new.min() and t_new.max() <= coarse.t[-1]
    inner = (fine.t >= coarse.t[0]) & (fine.t <= coarse.t[-1])
    assert np.allclose(t_new[:, inner], fine.t[inner, None], rtol=0,
                       atol=1e-14)
