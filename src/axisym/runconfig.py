"""The "axisym-run/1" config: the one description of an instance.

A run config is strict JSON: unknown keys are rejected with their
location (load_config).  build_run turns a config (a dict, loaded or
built in code) into (mesh, target, params, SolveConfig); the command line,
the certificate suite (whose certificates record the config of each
instance they checked) and the test fixtures all build instances through
it.  Every input error is a ConfigError naming the config location.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

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
from .geometry import GeometryError, build_mesh, spline_curve, surface
from .solvers import ANNULUS_MIN_GRID, SolveConfig

RUN_SCHEMA = "axisym-run/1"


class ConfigError(ValueError):
    pass


_TOP_KEYS = {"schema", "base_surface", "target_surface", "grid", "potential",
             "aniso_field", "weight", "boundary", "solver", "outputs",
             "variant", "prior_2d", "input_field", "suite"}
_SURFACE_KEYS = {"preset", "params", "spline_table", "closed"}
_GRID_KEYS = {"n_phi", "n_t"}
_POTENTIAL_KEYS = {"kind", "kappa", "lam", "table"}
_ANISO_KEYS = {"kind", "vector", "table"}
_WEIGHT_KEYS = {"kind", "lam", "margin", "table"}
_BOUNDARY_KEYS = {"kind", "bottom", "top", "variant"}
_BOUNDARY_SIDE_KEYS = {"variant", "vector"}
_SOLVER_KEYS = {f.name for f in dataclasses.fields(SolveConfig)}
_SUITE_KEYS = {"grid", "solver", "seeds", "chain_fields", "pw_fields",
               "annulus", "instances"}
_ANNULUS_KEYS = {"kappas", "n_t", "n_phi"}


def _check_keys(section, allowed, where):
    if not isinstance(section, dict):
        raise ConfigError(f"{where}: expected an object")
    for key in section:
        if key not in allowed:
            raise ConfigError(f"{where}.{key}: unknown key")


def load_config(path):
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        cfg = ioutil.loads(raw)
    except ValueError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    _check_keys(cfg, _TOP_KEYS, "config")
    if cfg.get("schema") != RUN_SCHEMA:
        raise ConfigError(f"config.schema: expected {RUN_SCHEMA!r}")
    for name, allowed in (("base_surface", _SURFACE_KEYS),
                          ("target_surface", _SURFACE_KEYS),
                          ("grid", _GRID_KEYS), ("potential", _POTENTIAL_KEYS),
                          ("aniso_field", _ANISO_KEYS), ("weight", _WEIGHT_KEYS),
                          ("boundary", _BOUNDARY_KEYS), ("solver", _SOLVER_KEYS),
                          ("suite", _SUITE_KEYS)):
        if name in cfg:
            _check_keys(cfg[name], allowed, f"config.{name}")
    _check_finite(cfg, "config")
    if "boundary" in cfg:
        for side in ("bottom", "top"):
            if cfg["boundary"].get(side) is not None:
                _check_keys(cfg["boundary"][side], _BOUNDARY_SIDE_KEYS,
                            f"config.boundary.{side}")
    suite = cfg.get("suite", {})
    for name, allowed in (("grid", _GRID_KEYS), ("solver", _SOLVER_KEYS),
                          ("annulus", _ANNULUS_KEYS)):
        if name in suite:
            _check_keys(suite[name], allowed, f"config.suite.{name}")
    if "solver" in suite:
        # the suite builds its instances with build_run from these settings
        _solve_config(suite["solver"], "config.suite.solver")
    if "annulus" in suite:
        _check_annulus(suite["annulus"], "config.suite.annulus")
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
    from the solver's minimum to 4096 and kappas is a non-empty list of
    numbers (_check_finite has refused infinite ones); keys the section
    leaves out keep the suite defaults."""
    for key, low in ANNULUS_MIN_GRID.items():
        if key in section:
            _check_size(section[key], low, f"{where}.{key}")
    if "kappas" in section:
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
    return np.array(rows)


def _build_surface(section, where):
    if "spline_table" not in section and not section.get("preset"):
        raise ConfigError(f"{where}: needs 'preset' or 'spline_table'")
    try:
        if "spline_table" in section:
            tab = _read_table(section["spline_table"], ["t", "x", "z"])
            return surface(spline_curve(
                tab[:, 0], tab[:, 1], tab[:, 2],
                closed=bool(section.get("closed", False))))
        return surface(section["preset"], **section.get("params", {}))
    except (ValueError, TypeError) as exc:      # GeometryError included
        raise ConfigError(f"{where}: {exc}") from exc


def _check_size(n, low, where):
    """ConfigError naming `where` unless n is an integer in [low, 4096];
    floats, strings and booleans are refused, not truncated."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise ConfigError(f"{where}: expected an integer, got {n!r}")
    if not low <= n <= 4096:
        raise ConfigError(f"{where}: must lie in [{low}, 4096]")


def _check_grid(n_phi, n_t, where):
    """(n_phi, n_t) if both are grid sizes (_check_size, from 8) with n_phi
    even, or ConfigError naming `where` (the config section or the flag
    they came from)."""
    _check_size(n_phi, 8, f"{where}.n_phi")
    _check_size(n_t, 8, f"{where}.n_t")
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
    if value not in ("symmetric", "antisymmetric"):
        raise ConfigError(f"{where}: must be 'symmetric' or 'antisymmetric', "
                          f"got {value!r}")
    return value


def _build_anisotropy_potential(section):
    kind = section.get("kind", "quartic")
    try:
        if kind == "quartic":
            return quartic_potential(float(section.get("lam", 1.0)))
        if kind == "quadratic":
            return quadratic_potential(float(section.get("kappa", 1.0)))
        if kind == "easy_normal":
            return easy_normal_potential(float(section.get("kappa", -1.0)))
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
            tab = _read_table(section["table"], ["t", "ax", "ay", "az"])
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
            return weight_constant(mesh, float(section.get("lam", 1.0)))
        if kind == "margin":
            return weight_margin_profile(mesh, float(section.get("margin", 1.5)))
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
            mesh, _vector(v, f"config.boundary.{side}.vector"),
            _variant(spec.get("variant", variant),
                     f"config.boundary.{side}.variant"))
    return BoundaryCondition("dirichlet", sides["bottom"], sides["top"], variant)


def _solve_config(section, where):
    """SolveConfig from a solver section, or ConfigError naming `where`."""
    try:
        return SolveConfig(**{k: (int(v) if k in ("max_iters", "restarts", "seed")
                                  else float(v)) for k, v in section.items()})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def build_run(cfg, seed_override=None, grid_override=None):
    """Instantiate (mesh, target, params, solve_config) from config."""
    if grid_override:
        n_phi, n_t = _check_grid(*grid_override, "--grid")
    else:
        grid = cfg.get("grid", {})
        n_phi, n_t = _check_grid(grid.get("n_phi", 64), grid.get("n_t", 64),
                                 "config.grid")
    base = _build_surface(cfg.get("base_surface", {"preset": "sphere"}),
                          "config.base_surface")
    target = _build_surface(cfg.get("target_surface", {"preset": "sphere"}),
                            "config.target_surface")
    try:
        mesh = build_mesh(base, n_phi, n_t)
    except (GeometryError, ValueError) as exc:
        raise ConfigError(f"config.grid: {exc}") from exc
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
        solver_cfg["seed"] = int(seed_override)
    return mesh, target, params, _solve_config(solver_cfg, "config.solver")
