"""The "axisym-run/1" config: the one description of an instance.

A run config is strict JSON: a key that its section, or the section's
kind, does not take is rejected with its location (load_config).
build_run turns a config (a dict, loaded or built in code) into (mesh,
target, params, SolveConfig); the command line, the certificate suite
(whose certificates record the config of each instance they checked) and
the test fixtures all build instances through it.  DEFAULT_INSTANCES
names the suite's registered instances as partial configs, and
suite_config owns the suite section: its defaults, its merge rule and its
checks.  Every input error is a ConfigError naming the config location.
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
    weight_general,
    weight_margin_profile,
    weight_t_profile,
    weight_zero,
)
from .fields import _read_csv
from .geometry import VARIANTS, GeometryError, build_mesh, spline_curve, surface
from .solvers import ANNULUS_MIN_GRID, SolveConfig

RUN_SCHEMA = "axisym-run/1"


class ConfigError(ValueError):
    pass


_TOP_KEYS = {"schema", "base_surface", "target_surface", "grid", "potential",
             "aniso_field", "weight", "boundary", "solver", "outputs",
             "variant", "prior_2d", "input_field", "suite"}
_GRID_KEYS = {"n_phi", "n_t"}
_BOUNDARY_SIDE_KEYS = {"vector"}
_SOLVER_KEYS = {f.name for f in dataclasses.fields(SolveConfig)}
_SOLVER_INTEGERS = ("max_iters", "restarts", "seed")
_ANNULUS_KEYS = {"kappas", "n_t", "n_phi"}

# section -> kind -> the keys it takes besides "kind", the builders' default
# kind first; a surface's kind is the key naming its curve (a table wins)
_SURFACE_KINDS = {"spline_table": {"spline_table", "closed"},
                  "preset": {"preset", "params"}}
_KIND_KEYS = {
    "base_surface": _SURFACE_KINDS, "target_surface": _SURFACE_KINDS,
    "potential": {"quartic": {"lam"}, "quadratic": {"kappa"},
                  "easy_normal": {"kappa"}, "table": {"table"}},
    "aniso_field": {"surface_normal": set(), "constant_e3": set(),
                    "symmetric_profile": {"vector", "table"},
                    "antisymmetric_profile": {"vector", "table"}},
    "weight": {"zero": set(), "constant": {"lam"}, "margin": {"margin"},
               "t_profile": {"table"}, "general": {"table"}},
    "boundary": {"free": set(), "dirichlet": {"bottom", "top", "variant"}},
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


def _check_kind_keys(section, kinds, where):
    """ConfigError naming `where`.<key> for a key of no kind of the section
    or not of its own kind; build_run names an unknown kind or curve."""
    surface = kinds is _SURFACE_KINDS
    extra = set() if surface else {"kind"}
    _check_keys(section, extra.union(*kinds.values()), where)
    kind = (next((k for k in kinds if k in section), None) if surface
            else section.get("kind", next(iter(kinds))))
    if isinstance(kind, str) and kind in kinds:
        for key in section:
            if key not in kinds[kind] | extra:
                raise ConfigError(f"{where}.{key}: not a key of kind {kind!r}")


def load_config(path):
    try:
        cfg = ioutil.read_json(path)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except ValueError as exc:           # not UTF-8 included
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    _check_keys(cfg, _TOP_KEYS, "config")
    if cfg.get("schema") != RUN_SCHEMA:
        raise ConfigError(f"config.schema: expected {RUN_SCHEMA!r}")
    for name, allowed in (("grid", _GRID_KEYS), ("solver", _SOLVER_KEYS)):
        if name in cfg:
            _check_keys(cfg[name], allowed, f"config.{name}")
    for name, kinds in _KIND_KEYS.items():
        if name in cfg:
            _check_kind_keys(cfg[name], kinds, f"config.{name}")
    _check_finite(cfg, "config")
    if "boundary" in cfg:
        for side in ("bottom", "top"):
            if cfg["boundary"].get(side) is not None:
                _check_keys(cfg["boundary"][side], _BOUNDARY_SIDE_KEYS,
                            f"config.boundary.{side}")
    if "variant" in cfg:
        _variant(cfg["variant"], "config.variant")
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
    or value is a ConfigError naming it.  A suite that checks nothing
    passes: empty seeds, or an instance list that names no registered
    instance (run_suite then runs nothing, and the command line refuses
    it); a list that names some is refused for any unknown name.
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
    _check_annulus(cfg["annulus"], f"{where}.annulus")
    if seed_override is not None:
        cfg["seeds"] = [_integer(seed_override, "--seed")]
    if not isinstance(cfg["seeds"], list):
        raise ConfigError(f"{where}.seeds: expected a list of seeds, "
                          f"got {cfg['seeds']!r}")
    for seed in cfg["seeds"]:
        _integer(seed, f"{where}.seeds")
    for key in ("chain_fields", "pw_fields"):
        _integer(cfg[key], f"{where}.{key}")
    names = cfg["instances"]
    if names is not None:
        if not (isinstance(names, list)
                and all(isinstance(n, str) for n in names)):
            raise ConfigError(f"{where}.instances: expected a list of "
                              f"instance names, got {names!r}")
        unknown = [n for n in names if n not in SUITE_NAMES]
        if unknown and len(unknown) < len(names):
            raise ConfigError(f"{where}.instances: unknown instance "
                              f"{unknown[0]!r}")
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


def _check_annulus(section, where):
    """ConfigError naming `where`.<key> unless n_t and n_phi are integers
    from the solver's minimum to _MAX_SIZE and kappas is a non-empty list
    of numbers (_check_finite has refused infinite ones)."""
    for key, low in ANNULUS_MIN_GRID.items():
        _integer(section[key], f"{where}.{key}", low, _MAX_SIZE)
    kappas = section["kappas"]
    if not (isinstance(kappas, list) and kappas
            and all(isinstance(k, (int, float)) and not isinstance(k, bool)
                    for k in kappas)):
        raise ConfigError(f"{where}.kappas: expected a non-empty list of "
                          f"finite numbers, got {kappas!r}")


def _read_table(path, columns):
    try:
        rows = [[float(row[c]) for c in columns] for row in _read_csv(path)]
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"cannot read table {path}: {exc}") from exc
    if not rows:
        raise ConfigError(f"table {path} is empty")
    table = np.array(rows)
    if not np.all(np.isfinite(table)):
        raise ConfigError(f"table {path} has a non-finite value")
    return table


def _build_surface(section, where):
    if "spline_table" not in section and not section.get("preset"):
        raise ConfigError(f"{where}: needs 'preset' or 'spline_table'")
    closed = section.get("closed", False)
    if not isinstance(closed, bool):
        raise ConfigError(f"{where}.closed: expected a boolean, got {closed!r}")
    try:
        if "spline_table" in section:
            tab = _read_table(section["spline_table"], ["t", "x", "z"])
            return surface(spline_curve(tab[:, 0], tab[:, 1], tab[:, 2],
                                        closed=closed))
        return surface(section["preset"], **section.get("params", {}))
    except (ValueError, TypeError) as exc:      # GeometryError included
        raise ConfigError(f"{where}: {exc}") from exc


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
    """(n_phi, n_t) from a grid section, or from override (the --grid
    flag's pair) when given: integers in [8, _MAX_SIZE] with n_phi even, or
    ConfigError naming `where` or the flag."""
    if override:
        (n_phi, n_t), where = override, "--grid"
    else:
        n_phi, n_t = section["n_phi"], section["n_t"]
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


def _variant(value, where):
    """value if it names a symmetry variant, or ConfigError naming `where`."""
    if value not in VARIANTS:
        raise ConfigError(f"{where}: must be one of {', '.join(VARIANTS)}, "
                          f"got {value!r}")
    return value


# a bad number is named by its key; the except clause adds the section
def _build_anisotropy_potential(section):
    kind = section.get("kind", "quartic")
    try:
        if kind == "quartic":
            return quartic_potential(_number(section.get("lam", 1.0), "lam"))
        if kind == "quadratic":
            return quadratic_potential(
                _number(section.get("kappa", 1.0), "kappa"))
        if kind == "easy_normal":
            return easy_normal_potential(
                _number(section.get("kappa", -1.0), "kappa"))
        if kind == "table":
            tab = _read_table(section["table"], ["s", "g"])
            return table_potential(tab[:, 0], tab[:, 1])
    except (ValueError, TypeError, KeyError) as exc:
        raise ConfigError(f"config.potential: {exc}") from exc
    raise ConfigError(f"config.potential.kind: unknown kind {kind!r}")


def _build_aniso(section, mesh):
    kind = section.get("kind", "surface_normal")
    if kind == "surface_normal":
        return aniso_surface_normal(mesh)
    if kind == "constant_e3":
        return aniso_constant_e3(mesh)
    if kind in ("symmetric_profile", "antisymmetric_profile"):
        variant = kind.split("_")[0]
        if "vector" in section:
            prof = _vector(section["vector"], "config.aniso_field.vector")
        elif "table" in section:
            try:
                tab = _read_table(section["table"], ["t", "ax", "ay", "az"])
            except ConfigError as exc:
                raise ConfigError(f"config.aniso_field: {exc}") from exc
            prof = np.stack([np.interp(mesh.t, tab[:, 0], tab[:, c])
                             for c in (1, 2, 3)], axis=-1)
        else:
            raise ConfigError("config.aniso_field: profile kinds need "
                              "'vector' or 'table'")
        return aniso_profile(mesh, prof, variant)
    raise ConfigError(f"config.aniso_field.kind: unknown kind {kind!r}")


def _build_weight(section, mesh):
    kind = section.get("kind", "zero")
    try:
        if kind == "zero":
            return weight_zero(mesh)
        if kind == "constant":
            return weight_constant(mesh, _number(section.get("lam", 1.0), "lam"))
        if kind == "margin":
            return weight_margin_profile(
                mesh, _number(section.get("margin", 1.5), "margin"))
        if kind == "t_profile":
            tab = _read_table(section["table"], ["t", "omega"])
            return weight_t_profile(mesh, np.interp(mesh.t, tab[:, 0], tab[:, 1]))
        if kind == "general":
            tab = _read_table(section["table"], ["t", "omega"])
            return weight_general(
                mesh, lambda phi, t: np.broadcast_to(
                    np.interp(t, tab[:, 0], tab[:, 1]), (mesh.n_phi, mesh.n_t)))
    except (ValueError, TypeError, KeyError) as exc:
        raise ConfigError(f"config.weight: {exc}") from exc
    raise ConfigError(f"config.weight.kind: unknown kind {kind!r}")


def _build_boundary(section, mesh):
    if not section or section.get("kind", "free") == "free":
        return None
    if section.get("kind") != "dirichlet":
        raise ConfigError("config.boundary.kind: must be 'free' or 'dirichlet'")
    sides = {}
    variant = _variant(section.get("variant", "symmetric"),
                       "config.boundary.variant")
    for side in ("bottom", "top"):
        spec = section.get(side)
        if spec is None:
            sides[side] = None
            continue
        v = spec.get("vector")
        if v is None:
            raise ConfigError(f"config.boundary.{side}.vector: required")
        sides[side] = dirichlet_rows_from_vector(
            mesh, _vector(v, f"config.boundary.{side}.vector"), variant)
    return BoundaryCondition("dirichlet", sides["bottom"], sides["top"], variant)


def _solve_config(section, where):
    """SolveConfig from a solver section, or ConfigError naming `where`:
    max_iters, restarts and seed are non-negative integers (_integer),
    grad_tol a positive number."""
    values = {}
    for key, value in section.items():
        check = _integer if key in _SOLVER_INTEGERS else _number
        values[key] = check(value, f"{where}: {key}")
    try:
        return SolveConfig(**values)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def build_run(cfg, seed_override=None, grid_override=None):
    """Instantiate (mesh, target, params, solve_config) from config."""
    n_phi, n_t = _grid(dict({"n_phi": 64, "n_t": 64}, **cfg.get("grid", {})),
                       grid_override, "config.grid")
    base = _build_surface(cfg.get("base_surface", {"preset": "sphere"}),
                          "config.base_surface")
    target = _build_surface(cfg.get("target_surface", {"preset": "sphere"}),
                            "config.target_surface")
    try:
        mesh = build_mesh(base, n_phi, n_t)
    except GeometryError as exc:        # the grid passed _grid: the curve
        raise ConfigError(f"config.base_surface: {exc}") from exc
    pot = _build_anisotropy_potential(cfg.get("potential", {}))
    an = _build_aniso(cfg.get("aniso_field", {}), mesh)
    w = _build_weight(cfg.get("weight", {}), mesh)
    bc = _build_boundary(cfg.get("boundary"), mesh)
    try:
        params = make_params(mesh, target, pot, an, w, bc)
    except ValueError as exc:
        raise ConfigError(f"config: {exc}") from exc
    solver_cfg = dict(cfg.get("solver", {}))
    if seed_override is not None:
        solver_cfg["seed"] = _integer(seed_override, "--seed")
    return mesh, target, params, _solve_config(solver_cfg, "config.solver")
