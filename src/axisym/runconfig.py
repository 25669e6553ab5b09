"""The "axisym-run/1" config: the one description of an instance.

A run config is strict JSON.  _KIND_KEYS declares each kind of a kind
section once: its keys, their defaults and its constructor.  _section reads
a kind section by it, and _build builds the section, naming it in every
build error.  build_run builds the six kind sections through _build and
turns a config (a dict, loaded or built in code) into (mesh, target,
params, SolveConfig); it is the one check of the instance sections, and
load_config checks only what build_run does not read.  The command line,
the certificate suite (whose certificates record the config of each
instance they checked) and the test fixtures all build instances through
it.  DEFAULT_INSTANCES names the suite's registered instances as partial
configs, and suite_config owns the suite section: its defaults, its merge
rule and its checks.  Every input error is a ConfigError naming the config
location.
"""

from __future__ import annotations

import copy
import dataclasses

import numpy as np

from . import ioutil
from .energy import (
    BoundaryCondition,
    aniso_constant_e3,
    aniso_profile,
    aniso_surface_normal,
    dirichlet_rows_from_vector,
    easy_normal_potential,
    make_params,
    quadratic_potential,
    quartic_potential,
    table_potential,
    weight_constant,
    weight_margin_profile,
    weight_t_profile,
    weight_zero,
)
from .geometry import VARIANTS, GeometryError, build_mesh, spline_curve, surface
from .solvers import ANNULUS_MIN_GRID, SolveConfig

RUN_SCHEMA = "axisym-run/1"


class ConfigError(ValueError):
    pass


_TOP_KEYS = {"schema", "base_surface", "target_surface", "grid", "potential",
             "aniso_field", "weight", "boundary", "solver", "outputs",
             "variant", "prior_2d", "input_field", "suite"}
_GRID_KEYS = {"n_phi", "n_t"}
_SOLVER_KEYS = {f.name for f in dataclasses.fields(SolveConfig)}
_SOLVER_INTEGERS = ("max_iters", "restarts", "seed")
_ANNULUS_KEYS = {"kappas", "n_t", "n_phi"}

_REQUIRED = object()            # the default of a key that has none
_PATH = object()                # that of a file path, which has none
_OPTIONAL_PATH = object()       # that of a file path that may be left out

# section -> kind -> (keys, build): {key: default} of the keys the kind
# takes besides "kind", and build(values, mesh) of their values (a surface
# gets mesh None); the section's default kind first, a surface's kind the
# key naming its curve.  A key with a number (boolean, object) default takes
# only a number (boolean, object), a path key only a string
_SURFACE_KINDS = {
    "spline_table": ({"spline_table": _PATH, "closed": False},
                     lambda v, mesh: spline_curve(
                         *_read_table(v["spline_table"], ["t", "x", "z"]).T,
                         closed=v["closed"])),
    "preset": ({"preset": _REQUIRED, "params": {}},
               lambda v, mesh: surface(v["preset"], **v["params"])),
}
_PROFILE = {"vector": None, "table": _OPTIONAL_PATH}
_KIND_KEYS = {
    "base_surface": _SURFACE_KINDS, "target_surface": _SURFACE_KINDS,
    "potential": {
        "quartic": ({"lam": 1.0}, lambda v, mesh: quartic_potential(v["lam"])),
        "quadratic": ({"kappa": 1.0},
                      lambda v, mesh: quadratic_potential(v["kappa"])),
        "easy_normal": ({"kappa": -1.0},
                        lambda v, mesh: easy_normal_potential(v["kappa"])),
        "table": ({"table": _PATH}, lambda v, mesh: table_potential(
            *_read_table(v["table"], ["s", "g"]).T)),
    },
    "aniso_field": {
        "surface_normal": ({}, lambda v, mesh: aniso_surface_normal(mesh)),
        "constant_e3": ({}, lambda v, mesh: aniso_constant_e3(mesh)),
        "symmetric_profile": (_PROFILE, lambda v, mesh: _profile_aniso(
            v, mesh, "symmetric")),
        "antisymmetric_profile": (_PROFILE, lambda v, mesh: _profile_aniso(
            v, mesh, "antisymmetric")),
    },
    "weight": {
        "zero": ({}, lambda v, mesh: weight_zero(mesh)),
        "constant": ({"lam": 1.0},
                     lambda v, mesh: weight_constant(mesh, v["lam"])),
        "margin": ({"margin": 1.5},
                   lambda v, mesh: weight_margin_profile(mesh, v["margin"])),
        "t_profile": ({"table": _PATH}, lambda v, mesh: weight_t_profile(
            mesh, _interp_table(v["table"], ["t", "omega"], mesh)[:, 0])),
    },
    "boundary": {
        "free": ({}, lambda v, mesh: None),
        "dirichlet": ({"bottom": None, "top": None, "variant": "symmetric"},
                      lambda v, mesh: _dirichlet(v, mesh)),
    },
}

# largest grid size along either axis
_MAX_SIZE = 4096


# ---------------------------------------------------------------------------
# the certificate suite's instance registry and defaults
# ---------------------------------------------------------------------------

_SPHERE = {"preset": "sphere"}
_CYLINDER2 = {"preset": "cylinder", "params": {"radius": 2.0}}
_NORMAL = {"kind": "surface_normal"}
_E3 = {"kind": "constant_e3"}
_NO_WEIGHT = {"kind": "zero"}
_UNIT_WEIGHT = {"kind": "constant", "lam": 1.0}
_QUADRATIC1 = {"kind": "quadratic", "kappa": 1.0}

# name -> partial axisym-run/1 config (surfaces, potential, anisotropy,
# weight, boundary); verify.instance() adds the grid and the solver settings
DEFAULT_INSTANCES = {
    "sphere_quartic_margin": {
        "base_surface": _SPHERE, "target_surface": _SPHERE,
        "potential": {"kind": "quartic", "lam": 5.0}, "aniso_field": _NORMAL,
        "weight": {"kind": "margin", "margin": 1.5}},
    "sphere_quartic_margin_weak": {
        "base_surface": _SPHERE, "target_surface": _SPHERE,
        "potential": {"kind": "quartic", "lam": 5.0}, "aniso_field": _NORMAL,
        "weight": {"kind": "margin", "margin": 1.1}},
    "sphere_quadratic_margin": {
        "base_surface": _SPHERE, "target_surface": _SPHERE,
        "potential": _QUADRATIC1, "aniso_field": _NORMAL,
        "weight": {"kind": "margin", "margin": 1.5}},
    "sphere_easy_normal_free": {
        "base_surface": _SPHERE, "target_surface": _SPHERE,
        "potential": {"kind": "quartic", "lam": 20.0}, "aniso_field": _NORMAL,
        "weight": _NO_WEIGHT},
    "cylinder2_quadratic_const1": {
        "base_surface": _CYLINDER2, "target_surface": _SPHERE,
        "potential": _QUADRATIC1, "aniso_field": _E3, "weight": _UNIT_WEIGHT},
    "cylinder2_quartic_const1": {
        "base_surface": _CYLINDER2, "target_surface": _SPHERE,
        "potential": {"kind": "quartic", "lam": 3.0}, "aniso_field": _E3,
        "weight": _UNIT_WEIGHT},
    "cylinder2_inplane_free": {
        "base_surface": _CYLINDER2, "target_surface": _SPHERE,
        "potential": _QUADRATIC1, "aniso_field": _E3, "weight": _NO_WEIGHT},
    "cylinder1_borderline": {
        "base_surface": {"preset": "cylinder", "params": {"radius": 1.0}},
        "target_surface": _SPHERE,
        "potential": _QUADRATIC1, "aniso_field": _E3, "weight": _UNIT_WEIGHT},
    "annulus_quartic_const": {
        "base_surface": {"preset": "annulus"}, "target_surface": _SPHERE,
        "potential": {"kind": "quartic", "lam": 2.0}, "aniso_field": _E3,
        "weight": {"kind": "constant", "lam": 1.3}},
    "torus_band_self_margin": {
        "base_surface": {"preset": "torus_band"},
        "target_surface": {"preset": "torus_band"},
        "potential": {"kind": "quadratic", "kappa": 0.5},
        "aniso_field": _NORMAL, "weight": {"kind": "margin", "margin": 1.2}},
    "ellipsoid_band_sphere": {
        "base_surface": {"preset": "ellipsoid_band"}, "target_surface": _SPHERE,
        "potential": {"kind": "easy_normal", "kappa": 3.0},
        "aniso_field": _NORMAL, "weight": {"kind": "constant", "lam": 3.0}},
    "disk_target_flat": {
        "base_surface": _CYLINDER2, "target_surface": {"preset": "disk"},
        "potential": _QUADRATIC1, "aniso_field": _E3, "weight": _UNIT_WEIGHT},
    "disk_base_inplane_free": {
        "base_surface": {"preset": "disk"}, "target_surface": _SPHERE,
        "potential": {"kind": "quadratic", "kappa": 2.0}, "aniso_field": _E3,
        "weight": _NO_WEIGHT},
    "cylinder2_antisym_profile": {
        "base_surface": _CYLINDER2, "target_surface": _SPHERE,
        "potential": _QUADRATIC1,
        "aniso_field": {"kind": "antisymmetric_profile",
                        "vector": [0.6, 0.0, 0.8]},
        "weight": _UNIT_WEIGHT},
    "cylinder2_dirichlet_top": {
        "base_surface": _CYLINDER2, "target_surface": _SPHERE,
        "potential": _QUADRATIC1, "aniso_field": _E3, "weight": _UNIT_WEIGHT,
        "boundary": {"kind": "dirichlet", "top": {"vector": [0.0, 0.0, 1.0]}}},
}

# every name a suite's "instances" filter can select
SUITE_NAMES = tuple(DEFAULT_INSTANCES) + ("annulus_pde",)

# the corpora's seed stride and largest size (verify_chain, verify_pw): no
# two corpus seeds of a suite coincide, as 77 and CORPUS_STRIDE are coprime
CORPUS_STRIDE = 10_000

DEFAULT_SUITE_CONFIG = {
    "grid": {"n_phi": 32, "n_t": 24},
    # grad_tol well below 1e-6 keeps solver noise out of the 1e-6
    # qualifying-row threshold of the orthogonality checks
    "solver": {"restarts": 2, "max_iters": 4000, "grad_tol": 1e-9},
    "seeds": [0],
    "chain_fields": 12,
    "pw_fields": 6,
    "annulus": {"kappas": [0.0, 0.5, 1.0, 5.0], "n_t": 48, "n_phi": 32},
    "instances": None,        # optional name filter
}

# suite sections whose keys merge one by one over the defaults, with the
# keys each allows; the suite's seeds set every solve's seed
_SUITE_SECTIONS = {"grid": _GRID_KEYS, "solver": _SOLVER_KEYS - {"seed"},
                   "annulus": _ANNULUS_KEYS}


def _check_keys(section, allowed, where):
    if not isinstance(section, dict):
        raise ConfigError(f"{where}: expected an object")
    for key in section:
        if key not in allowed:
            raise ConfigError(f"{where}.{key}: unknown key")


def _section(section, where):
    """(build, values) of the kind section at `where` (config.<name>): its
    kind's constructor and every key of that kind (_KIND_KEYS), given or
    defaulted; or a ConfigError naming an unknown kind, a key the kind does
    not take, a missing required key or a value of the wrong type."""
    kinds = _KIND_KEYS[where.removeprefix("config.")]
    if not isinstance(section, dict):
        raise ConfigError(f"{where}: expected an object")
    if kinds is _SURFACE_KINDS:
        kind, extra = next((k for k in kinds if k in section), None), ()
        if kind is None:
            raise ConfigError(f"{where}: needs 'spline_table' or 'preset'")
    else:
        kind, extra = section.get("kind", next(iter(kinds))), ("kind",)
        if not isinstance(kind, str) or kind not in kinds:
            raise ConfigError(f"{where}.kind: unknown kind {kind!r}")
    keys, build = kinds[kind]
    for key in section:
        if key not in keys and key not in extra:
            raise ConfigError(f"{where}.{key}: not a key of kind {kind!r}")
    values = {}
    for key, default in keys.items():
        value = section.get(key, default)
        if value is _REQUIRED or value is _PATH:
            raise ConfigError(f"{where}.{key}: required")
        if default is _OPTIONAL_PATH and (value is default or value is None):
            value = None
        elif default is _PATH or default is _OPTIONAL_PATH:
            _path(value, f"{where}.{key}")
        elif isinstance(default, float):
            value = _number(value, f"{where}: {key}")
        elif isinstance(default, bool) and not isinstance(value, bool):
            raise ConfigError(f"{where}.{key}: expected a boolean, "
                              f"got {value!r}")
        elif isinstance(default, dict) and not isinstance(value, dict):
            raise ConfigError(f"{where}.{key}: expected an object, "
                              f"got {value!r}")
        values[key] = value
    return build, values


def _build(cfg, name, mesh=None):
    """What the kind section `name` of cfg builds (a left-out surface is the
    sphere), or ConfigError: a builder's own names its key, and any other
    ValueError, TypeError or OverflowError of the build config.<name>."""
    where = f"config.{name}"
    default = {"preset": "sphere"} if name.endswith("_surface") else {}
    build, values = _section(cfg.get(name, default), where)
    try:
        return build(values, mesh)
    except (ValueError, TypeError, OverflowError) as exc:  # GeometryError too
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"{where}: {exc}") from exc


def load_config(path):
    """The config at path, checked for what build_run does not read (its
    JSON, schema, top-level keys, numbers, paths, variant and suite);
    build_run checks the instance sections."""
    try:
        cfg = ioutil.read_json(path)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except ValueError as exc:           # not UTF-8 included
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    _check_keys(cfg, _TOP_KEYS, "config")
    if cfg.get("schema") != RUN_SCHEMA:
        raise ConfigError(f"config.schema: expected {RUN_SCHEMA!r}")
    _check_finite(cfg, "config")
    if "variant" in cfg:
        _variant(cfg["variant"], "config.variant")
    for key in ("outputs", "prior_2d", "input_field"):
        if key in cfg:
            _path(cfg[key], f"config.{key}")
    if "suite" in cfg:
        suite_config(cfg["suite"])
    return cfg


def suite_config(section=None, seed_override=None, grid_override=None):
    """The certificate suite's settings: DEFAULT_SUITE_CONFIG with section
    (a config's "suite" object) laid over it, every value checked.

    The grid, solver and annulus sections merge key by key, the other keys
    replace the default; the solver section takes no seed (the seeds set
    it).  seed_override (the --seed flag) replaces the seeds
    and grid_override (the --grid flag's (n_phi, n_t)) the grid.  A bad key
    or value is a ConfigError naming it, and so is a suite that checks
    nothing (no seed, or an empty instance filter), an instance filter
    with an unregistered name, and a corpus of more than CORPUS_STRIDE
    fields, whose seeds would reach those of the next suite seed.
    """
    where = "config.suite"
    section = {} if section is None else section
    _check_keys(section, DEFAULT_SUITE_CONFIG, where)
    cfg = copy.deepcopy(DEFAULT_SUITE_CONFIG)
    for key, value in section.items():
        if key == "solver" and isinstance(value, dict) and "seed" in value:
            raise ConfigError(f"{where}.solver: seed: the suite's seeds set "
                              f"it ({where}.seeds)")
        if key in _SUITE_SECTIONS:
            _check_keys(value, _SUITE_SECTIONS[key], f"{where}.{key}")
            value = dict(cfg[key], **value)
        cfg[key] = value
    n_phi, n_t = _grid(cfg["grid"], grid_override, f"{where}.grid")
    cfg["grid"] = {"n_phi": n_phi, "n_t": n_t}
    _solve_config(cfg["solver"], f"{where}.solver")
    annulus, at = cfg["annulus"], f"{where}.annulus"
    annulus_grid(annulus["n_t"], annulus["n_phi"], at)
    kappas = annulus["kappas"]      # _check_finite refused infinite ones
    if not (isinstance(kappas, list) and kappas
            and all(isinstance(k, (int, float)) and not isinstance(k, bool)
                    for k in kappas)):
        raise ConfigError(f"{at}.kappas: expected a non-empty list of "
                          f"finite numbers, got {kappas!r}")
    if seed_override is not None:
        cfg["seeds"] = [_integer(seed_override, "--seed")]
    if not isinstance(cfg["seeds"], list):
        raise ConfigError(f"{where}.seeds: expected a list of seeds, "
                          f"got {cfg['seeds']!r}")
    if not cfg["seeds"]:
        raise ConfigError(f"{where}.seeds: needs at least one seed")
    for seed in cfg["seeds"]:
        _integer(seed, f"{where}.seeds")
    for key in ("chain_fields", "pw_fields"):
        _integer(cfg[key], f"{where}.{key}", 0, CORPUS_STRIDE)
    names = cfg["instances"]
    if names is not None:
        if not (isinstance(names, list)
                and all(isinstance(n, str) for n in names)):
            raise ConfigError(f"{where}.instances: expected a list of "
                              f"instance names, got {names!r}")
        if not names:
            raise ConfigError(f"{where}.instances: selects no instance")
        for name in names:
            if name not in SUITE_NAMES:
                raise ConfigError(f"{where}.instances: unknown instance "
                                  f"{name!r}")
    return cfg


def _check_finite(node, where):
    """ConfigError naming the key (`where`.<key>...) of a number that no
    double holds.  json reads an overflowing literal such as 1e400 as
    infinity (and a huge integer literal exactly), with no error; numbers
    in a list are named by the list's key."""
    if isinstance(node, dict):
        for key, value in node.items():
            _check_finite(value, f"{where}.{key}")
    elif isinstance(node, list):
        for value in node:
            _check_finite(value, where)
    elif (isinstance(node, (int, float)) and not isinstance(node, bool)
          and not abs(node) <= float(np.finfo(float).max)):
        raise ConfigError(f"{where}: number out of the range of a double")


def annulus_grid(n_t, n_phi, where=None):
    """ConfigError naming `where`.<key> (the --n-t or --n-phi flag when where
    is None) unless n_t and n_phi lie in [ANNULUS_MIN_GRID, _MAX_SIZE]."""
    for key, n in (("n_t", n_t), ("n_phi", n_phi)):
        name = f"{where}.{key}" if where else "--" + key.replace("_", "-")
        _integer(n, name, ANNULUS_MIN_GRID[key], _MAX_SIZE)


def _read_table(path, columns):
    try:
        table = ioutil.read_csv(path, columns)
    except (OSError, ValueError) as exc:
        raise ValueError(f"table {path}: {exc}") from exc
    if not len(table):
        raise ValueError(f"table {path} is empty")
    return table


def _interp_table(path, columns, mesh):
    """The table's columns after the first, (n_t, len(columns) - 1),
    interpolated at mesh.t from its first column (t), or ValueError naming
    the first data row whose t does not increase."""
    table = _read_table(path, columns)
    t = table[:, 0]
    down = np.flatnonzero(t[1:] <= t[:-1])
    if down.size:
        now, last = t[down[0] + 1].item(), t[down[0]].item()
        raise ValueError(f"table {path}: data row {down[0] + 2}: t {now!r} "
                         f"does not increase on {last!r}")
    return np.stack([np.interp(mesh.t, t, table[:, c])
                     for c in range(1, len(columns))], axis=-1)


def _integer(n, where, low=0, high=None):
    """n if it is an integer from low (up to high, when given), or
    ConfigError naming `where`; floats, strings and booleans are refused,
    not truncated."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise ConfigError(f"{where}: expected an integer, got {n!r}")
    if n < low or (high is not None and n > high):
        bound = f"lie in [{low}, {high}]" if high is not None \
            else f"be at least {low}"
        raise ConfigError(f"{where}: must {bound}, got {n}")
    return n


def _number(value, where):
    """value as a float, or ConfigError naming `where` unless it is a
    number; strings and booleans are refused, not converted."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    return float(value)


def _grid(section, override, where):
    """(n_phi, n_t) from a grid section (each size 64 when left out), or
    from override (the --grid flag's pair) when given: integers in
    [8, _MAX_SIZE] with n_phi even, or ConfigError naming `where` or the
    flag."""
    _check_keys(section, _GRID_KEYS, where)
    if override:
        (n_phi, n_t), where = override, "--grid"
    else:
        n_phi, n_t = section.get("n_phi", 64), section.get("n_t", 64)
    _integer(n_phi, f"{where}.n_phi", 8, _MAX_SIZE)
    _integer(n_t, f"{where}.n_t", 8, _MAX_SIZE)
    if n_phi % 2 != 0:
        raise ConfigError(f"{where}.n_phi: must be even")
    return n_phi, n_t


def _vector(value, where):
    """value as an array of three floats, or ConfigError naming `where`."""
    try:
        vector = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    if vector.shape != (3,):
        raise ConfigError(f"{where}: expected three numbers, got {value!r}")
    return vector


def _path(value, where):
    """value if it is a non-empty string, or ConfigError naming `where`: a
    number given as a path would open a file descriptor (0 reads stdin),
    and "" would name the working directory or no file at all."""
    if not isinstance(value, str):
        raise ConfigError(f"{where}: expected a file path (a string), "
                          f"got {value!r}")
    if not value:
        raise ConfigError(f"{where}: an empty path names no file")
    return value


def _variant(value, where):
    """value if it names a symmetry variant, or ConfigError naming `where`."""
    if value not in VARIANTS:
        raise ConfigError(f"{where}: must be one of {', '.join(VARIANTS)}, "
                          f"got {value!r}")
    return value


def _profile_aniso(values, mesh, variant):
    if (values["vector"] is None) == (values["table"] is None):
        raise ValueError("needs 'vector' or 'table', not both")
    if values["table"] is None:
        prof = _vector(values["vector"], "config.aniso_field.vector")
    else:
        prof = _interp_table(values["table"], ["t", "ax", "ay", "az"], mesh)
    return aniso_profile(mesh, prof, variant)


def _dirichlet(values, mesh):
    variant = _variant(values["variant"], "config.boundary.variant")
    sides = dict.fromkeys(("bottom", "top"))
    for side in sides:
        if values[side] is None:
            continue
        _check_keys(values[side], {"vector"}, f"config.boundary.{side}")
        where = f"config.boundary.{side}.vector"
        if values[side].get("vector") is None:
            raise ConfigError(f"{where}: required")
        sides[side] = dirichlet_rows_from_vector(
            mesh, _vector(values[side]["vector"], where), variant)
    return BoundaryCondition(sides["bottom"], sides["top"])


def _solve_config(section, where):
    """SolveConfig from a solver section, or ConfigError naming `where`:
    max_iters, restarts and seed are non-negative integers (_integer),
    grad_tol a positive number."""
    _check_keys(section, _SOLVER_KEYS, where)
    values = {}
    for key, value in section.items():
        check = _integer if key in _SOLVER_INTEGERS else _number
        values[key] = check(value, f"{where}: {key}")
    try:
        return SolveConfig(**values)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _check_built(mesh, params):
    """ConfigError naming the section whose built arrays (those of the mesh
    and the params) hold a value that is not finite: a finite config
    number can overflow on the way, as a margin of 1e160 does in W^2."""
    built = {
        "config.base_surface": (mesh.h1, mesh.sqrtg,
                                mesh.quad_weights, mesh.edge_weights),
        "config.aniso_field": (params.aniso.node_values,),
        "config.weight": (params.weight.W2, params.weight.node_values),
        "config.boundary": tuple(params.boundary.pinned.values()),
    }
    for where, arrays in built.items():
        if not all(np.all(np.isfinite(a)) for a in arrays):
            raise ConfigError(f"{where}: a value overflows a double once "
                              f"built on the grid")


@np.errstate(over="ignore", invalid="ignore")
def build_run(cfg, seed_override=None, grid_override=None):
    """Instantiate (mesh, target, params, solve_config) from config, or
    ConfigError naming the first bad value of an instance section.  A
    value that overflows on the way raises no floating-point warning:
    _check_built names its section."""
    n_phi, n_t = _grid(cfg.get("grid", {}), grid_override, "config.grid")
    base, target = _build(cfg, "base_surface"), _build(cfg, "target_surface")
    try:
        mesh = build_mesh(base, n_phi, n_t)
    except GeometryError as exc:        # the grid passed _grid: the curve
        raise ConfigError(f"config.base_surface: {exc}") from exc
    pot, an, w, bc = (_build(cfg, name, mesh) for name in
                      ("potential", "aniso_field", "weight", "boundary"))
    try:
        params = make_params(mesh, target, pot, an, w, bc)
    except ValueError as exc:
        raise ConfigError(f"config: {exc}") from exc
    _check_built(mesh, params)
    solve_config = _solve_config(cfg.get("solver", {}), "config.solver")
    if seed_override is not None:
        solve_config = dataclasses.replace(
            solve_config, seed=_integer(seed_override, "--seed"))
    return mesh, target, params, solve_config
