import sys

import pytest

import axisym.cli  # noqa: F401  (imports every axisym module)
from axisym.runconfig import RUN_SCHEMA, build_run

# the config key that carries each potential's and weight's value (a zero
# weight takes none)
_VALUE_KEY = {"quartic": "lam", "quadratic": "kappa", "easy_normal": "kappa",
              "constant": "lam", "margin": "margin"}


def _kind_section(kind, value):
    section = {"kind": kind}
    if kind in _VALUE_KEY:
        section[_VALUE_KEY[kind]] = value
    return section


def make_instance(base="sphere", target="sphere", n_phi=32, n_t=24,
                  potential=("quartic", 5.0), aniso="surface_normal",
                  weight=("margin", 1.5), base_kw=None, target_kw=None):
    """Small instance factory shared across the test suite: the keyword
    arguments name an axisym-run/1 config, which build_run builds."""
    aniso_field = {"kind": aniso}
    if aniso.endswith("_profile"):
        aniso_field["vector"] = [0.6, 0.0, 0.8]
    mesh, tgt, params, _ = build_run({
        "schema": RUN_SCHEMA,
        "base_surface": {"preset": base, "params": base_kw or {}},
        "target_surface": {"preset": target, "params": target_kw or {}},
        "grid": {"n_phi": n_phi, "n_t": n_t},
        "potential": _kind_section(*potential),
        "aniso_field": aniso_field,
        "weight": _kind_section(*weight),
    })
    return mesh, tgt, params


def count_calls(monkeypatch, fn):
    """Route every axisym module's binding of fn through a counter; returns
    the list that gets one entry per call."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "axisym" or name.startswith("axisym."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)
    return calls


@pytest.fixture(scope="session")
def sphere_instance():
    return make_instance()


@pytest.fixture(scope="session")
def cylinder_instance():
    return make_instance(base="cylinder", target="sphere",
                         base_kw={"radius": 2.0},
                         potential=("quadratic", 1.0), aniso="constant_e3",
                         weight=("constant", 1.0))
