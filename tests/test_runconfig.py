import dataclasses
import math

import numpy as np
import pytest

from axisym import ioutil
from axisym.cli import main
from axisym.energy import (
    BoundaryCondition,
    aniso_constant_e3,
    aniso_profile,
    aniso_surface_normal,
    dirichlet_rows_from_vector,
    easy_normal_potential,
    quadratic_potential,
    quartic_potential,
    table_potential,
    weight_constant,
    weight_margin_profile,
    weight_t_profile,
    weight_zero,
)
from axisym.geometry import spline_curve, surface
from axisym.runconfig import (_KIND_KEYS, CORPUS_STRIDE, RUN_SCHEMA,
                              ConfigError, build_run, corpus_seeds,
                              suite_config)
from axisym.solvers import SolveConfig

_GRID = {"n_phi": 8, "n_t": 8}
# every table's t column covers the t-range of every surface below
_T = np.linspace(-0.5, 6.5, 15)


def _table(path, header, *columns):
    ioutil.write_csv(path, header, columns)
    return str(path)


def _curve_table(tmp_path):
    t = np.linspace(0.0, 2 * np.pi, 25)
    return _table(tmp_path / "loop.csv", ["t", "x", "z"],
                  t, 2 + 0.7 * np.cos(t), 0.9 * np.sin(t)), t


def _spline(tmp_path, closed):
    path, t = _curve_table(tmp_path)
    return ({"spline_table": path, "closed": closed},
            lambda mesh: spline_curve(
                t, 2 + 0.7 * np.cos(t), 0.9 * np.sin(t), closed=closed))


def _potential_table(tmp_path):
    s = np.linspace(-3, 3, 13)
    return ({"kind": "table",
             "table": _table(tmp_path / "g.csv", ["s", "g"], s, 1 + s ** 2)},
            lambda mesh: table_potential(s, 1 + s ** 2))


def _profile(tmp_path, variant):
    a = np.stack([0.6 * np.cos(_T), 0.2 + 0 * _T, 0.8 * np.sin(_T)], axis=-1)
    path = _table(tmp_path / "a.csv", ["t", "ax", "ay", "az"], _T, *a.T)
    return ({"kind": f"{variant}_profile", "table": path},
            lambda mesh: aniso_profile(mesh, np.stack(
                [np.interp(mesh.t, _T, c) for c in a.T], axis=-1), variant))


def _weight_table(tmp_path):
    omega = 1.0 + 0.3 * np.sin(3 * _T)
    return ({"kind": "t_profile",
             "table": _table(tmp_path / "w.csv", ["t", "omega"], _T, omega)},
            lambda mesh: weight_t_profile(mesh, np.interp(mesh.t, _T, omega)))


def _dirichlet(tmp_path):
    bottom, top = [0.0, 0.0, 1.0], [0.6, 0.0, 0.8]
    return ({"kind": "dirichlet", "variant": "antisymmetric",
             "bottom": {"vector": bottom}, "top": {"vector": top}},
            lambda mesh: BoundaryCondition(*(
                dirichlet_rows_from_vector(mesh, np.array(v), "antisymmetric")
                for v in (bottom, top))))


# (section, kind) -> tmp_path -> (the config section, with a value other
# than the default for every key that has one, and mesh -> what the
# section's constructor builds from it)
_CASES = {
    ("base_surface", "preset"): lambda tmp: (
        {"preset": "cylinder", "params": {"radius": 2.0}},
        lambda mesh: surface("cylinder", radius=2.0)),
    ("base_surface", "spline_table"): lambda tmp: _spline(tmp, True),
    ("target_surface", "preset"): lambda tmp: (
        {"preset": "torus_band"}, lambda mesh: surface("torus_band")),
    ("target_surface", "spline_table"): lambda tmp: _spline(tmp, False),
    ("potential", "quartic"): lambda tmp: (
        {"kind": "quartic", "lam": 2.5}, lambda mesh: quartic_potential(2.5)),
    ("potential", "quadratic"): lambda tmp: (
        {"kind": "quadratic", "kappa": 0.7},
        lambda mesh: quadratic_potential(0.7)),
    ("potential", "easy_normal"): lambda tmp: (
        {"kind": "easy_normal", "kappa": 3.0},
        lambda mesh: easy_normal_potential(3.0)),
    ("potential", "table"): _potential_table,
    ("aniso_field", "surface_normal"): lambda tmp: (
        {"kind": "surface_normal"}, aniso_surface_normal),
    ("aniso_field", "constant_e3"): lambda tmp: (
        {"kind": "constant_e3"}, aniso_constant_e3),
    ("aniso_field", "symmetric_profile"):
        lambda tmp: _profile(tmp, "symmetric"),
    ("aniso_field", "antisymmetric_profile"):
        lambda tmp: _profile(tmp, "antisymmetric"),
    ("weight", "zero"): lambda tmp: ({"kind": "zero"}, weight_zero),
    ("weight", "constant"): lambda tmp: (
        {"kind": "constant", "lam": 2.0},
        lambda mesh: weight_constant(mesh, 2.0)),
    ("weight", "margin"): lambda tmp: (
        {"kind": "margin", "margin": 1.3},
        lambda mesh: weight_margin_profile(mesh, 1.3)),
    ("weight", "t_profile"): _weight_table,
    ("boundary", "free"): lambda tmp: (
        {"kind": "free"}, lambda mesh: BoundaryCondition()),
    ("boundary", "dirichlet"): _dirichlet,
}


def _assert_same(built, expected):
    """built and expected are equal objects: their callables agree on
    samples (a curve's jet over its interval, a potential's g and dg over
    [-1, 1]) and every other field exactly."""
    assert type(built) is type(expected)
    samples = np.linspace(*getattr(expected, "interval", (-1.0, 1.0)), 33)
    for field in dataclasses.fields(expected):
        a, b = getattr(built, field.name), getattr(expected, field.name)
        if callable(a) and field.name != "closest":
            np.testing.assert_array_equal(a(samples), b(samples))
        elif field.name != "closest":
            np.testing.assert_equal(a, b)
        else:
            assert (a is None) == (b is None)


@pytest.mark.parametrize("section, kind", [
    (section, kind) for section, kinds in _KIND_KEYS.items()
    for kind in kinds])
def test_every_kind_builds_its_constructor(tmp_path, section, kind):
    # build_run builds every (section, kind) of _KIND_KEYS as its
    # constructor does, with the values the config gives
    value, expected = _CASES[section, kind](tmp_path)
    mesh, target, params, _ = build_run(
        {"schema": RUN_SCHEMA, "grid": _GRID, section: value})
    built = {"base_surface": mesh.surface, "target_surface": target,
             "potential": params.potential, "aniso_field": params.aniso,
             "weight": params.weight, "boundary": params.boundary}[section]
    _assert_same(built, expected(mesh))


@pytest.mark.parametrize("section, kind, header", [
    ("weight", "t_profile", ["t", "omega"]),
    ("aniso_field", "symmetric_profile", ["t", "ax", "ay", "az"]),
])
@pytest.mark.parametrize("t, message", [
    ([3.2, 0.0, 1.6], "data row 2: t 0.0 does not increase on 3.2"),
    ([3.2, 1.6, 0.0], "data row 2: t 1.6 does not increase on 3.2"),
    ([0.0, 1.6, 1.6, 3.2], "data row 3: t 1.6 does not increase on 1.6"),
], ids=["shuffled", "reversed", "repeated"])
def test_interpolated_table_t_must_increase(tmp_path, capsys, section, kind,
                                            header, t, message):
    # np.interp takes a t column out of order without a word and gives
    # nonsense; the config refuses it, naming the section, table and row
    path = _table(tmp_path / "tab.csv", header, np.array(t),
                  *([np.ones(len(t))] * (len(header) - 1)))
    cfg_path = tmp_path / "run.json"
    ioutil.write_json(cfg_path, {"schema": RUN_SCHEMA, "grid": _GRID,
                                 section: {"kind": kind, "table": path}})
    out = tmp_path / "o"
    assert main(["minimize", "--config", str(cfg_path),
                 "--out", str(out)]) == 3
    assert (f"config error: config.{section}: table {path}: {message}"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("key, value", [
    ("max_iters", -1), ("restarts", -1), ("grad_tol", math.nan),
    ("grad_tol", math.inf), ("grad_tol", -math.inf)])
def test_solve_config_refuses_values_that_break_the_stop_test(key, value):
    # a negative max_iters is never met, so the cap is gone; an infinite
    # grad_tol stops every descent at iteration 0 as converged
    with pytest.raises(ValueError, match=f"^{key} must be "):
        SolveConfig(**{key: value})
    with pytest.raises(ConfigError, match=f"^config.solver: {key}"):
        build_run({"schema": RUN_SCHEMA, "grid": _GRID,
                   "solver": {key: value}})
    with pytest.raises(ConfigError, match=f"^config.suite.solver: {key}"):
        suite_config({"solver": {key: value}})


@pytest.mark.parametrize("step", [1, 77])
def test_corpus_seeds_distinct_up_to_the_stride(step):
    # distinct suite seeds give distinct corpus seeds up to CORPUS_STRIDE
    # fields each (suite_config's bound, as steps 1 and 77 are coprime to
    # it); one field more and field CORPUS_STRIDE of suite seed 0 is
    # field 0 of suite seed `step`
    seeds = [0, 1, 77]
    full = corpus_seeds(seeds, CORPUS_STRIDE, step)
    assert len(full) == len(set(full)) == 3 * CORPUS_STRIDE
    n = CORPUS_STRIDE + 1
    over = corpus_seeds(seeds, n, step)
    assert len(over) - len(set(over)) == 1
    assert over[CORPUS_STRIDE] == over[seeds.index(step) * n]
