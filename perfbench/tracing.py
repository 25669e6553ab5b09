"""Span tracing of axisym's layers, installed from outside the package.

A `Tracer` wraps the layer functions listed in `LAYERS` in every axisym
module that binds them: the defining module (so calls through its own
globals are seen) and every module that imported the name with
`from .x import name` (so `axisym.solvers.total_energy` and
`axisym.energy.total_energy` both report to one span name).  Each call
records a span `[name, start, end, parent, extra]` in memory; `extra`
holds per-call counts (points projected, iterations, ...).  Removing the
tracer restores every original binding, so untraced runs call the
library's own functions with no wrapper in between.
"""

from __future__ import annotations

import functools
import importlib
import time
import weakref

# Modules whose bindings are patched, in the order they are scanned.
MODULES = ("geometry", "fields", "energy", "solvers", "verify", "cli", "ioutil")

# Layer functions per defining module.  Helpers called only inside one of
# these (dirichlet_energy, lphi, tangent_frame, ...) stay unwrapped, so their
# time counts as self time of the layer function that called them.
LAYERS = {
    "geometry": ("build_mesh", "project_points", "curve_parameter_of_closest",
                 "tangent_project_points"),
    "fields": ("random_field", "mode_decompose", "field_to_csv", "field_from_csv",
               "profile_to_csv"),
    "energy": ("make_params", "t_edge_operator", "total_energy",
               "euclidean_gradient", "chain_terms"),
    "solvers": ("minimize_2d", "minimize_1d_profile", "field_diagnostics",
                "symmetrize_and_certify", "solve_annulus_example"),
    "verify": ("run_suite", "verify_main0", "verify_main1", "verify_main3",
               "verify_chain", "verify_pw", "verify_annulus"),
    "cli": ("load_config", "build_run", "cmd_minimize", "cmd_reduce", "cmd_verify"),
    "ioutil": ("dumps",),
}

# Bindings that must be the library's own objects in an untraced run.
UNTRACED_IDENTITIES = (
    ("solvers", "total_energy", "energy"),
    ("solvers", "euclidean_gradient", "energy"),
    ("solvers", "project_points", "geometry"),
    ("energy", "tangent_project_points", "geometry"),
    ("cli", "minimize_2d", "solvers"),
    ("verify", "minimize_2d", "solvers"),
)

_MARK = "__perfbench_traced__"


def _module(name):
    return importlib.import_module(f"axisym.{name}")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _npoints(arr):
    size = getattr(arr, "size", None)
    return int(size) if size is not None else 0


def _solve_extra(args, kwargs, result):
    config = kwargs.get("config")
    if config is None:
        config = next((a for a in args if hasattr(a, "max_iters")), None)
    iterations = [int(i) for i in getattr(result, "iterations", ())]
    max_iters = getattr(config, "max_iters", None)
    return {"iterations": sum(iterations), "restarts": len(iterations),
            "capped": sum(1 for i in iterations if i == max_iters)}


class Tracer:
    """Installs span-recording wrappers; use as a context manager."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []          # (module, attribute, original)
        self._seen_meshes = weakref.WeakSet()
        self._extras = {
            "geometry.project_points":
                lambda a, k, r: {"points": _npoints(_arg(a, k, 1, "pts")) // 3},
            "geometry.curve_parameter_of_closest":
                lambda a, k, r: {"points": _npoints(_arg(a, k, 1, "r"))},
            "geometry.tangent_project_points":
                lambda a, k, r: {"reprojection": _arg(a, k, 3, "params") is None},
            "energy.t_edge_operator": self._first_mesh,
            "solvers.minimize_2d": _solve_extra,
            "solvers.minimize_1d_profile": _solve_extra,
        }

    def _first_mesh(self, args, kwargs, result):
        mesh = _arg(args, kwargs, 0, "mesh")
        first = mesh not in self._seen_meshes
        if first:
            self._seen_meshes.add(mesh)
        return {"first": first}

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        extra = self._extras.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if extra is not None:
                span[4] = extra(args, kwargs, result)
            return result

        setattr(traced, _MARK, True)
        return traced

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = {m: _module(m) for m in MODULES}
        for defining, names in LAYERS.items():
            for fname in names:
                original = getattr(modules[defining], fname, None)
                if original is None:            # layer renamed or removed
                    continue
                wrapper = self._wrap(f"{defining}.{fname}", original)
                for mod in modules.values():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def remove(self):
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False


def traced_bindings():
    """(module.attribute) names currently bound to a tracing wrapper."""
    found = []
    for m in MODULES:
        for attr, value in vars(_module(m)).items():
            if getattr(value, _MARK, False):
                found.append(f"{m}.{attr}")
    return found


def assert_untraced():
    """Raise unless every axisym binding is the library's own function."""
    found = traced_bindings()
    if found:
        raise RuntimeError(f"tracing wrappers still installed: {found}")
    for mod, attr, defining in UNTRACED_IDENTITIES:
        bound = getattr(_module(mod), attr, None)
        if bound is not None and bound is not getattr(_module(defining), attr, None):
            raise RuntimeError(f"axisym.{mod}.{attr} is not "
                               f"axisym.{defining}.{attr}")


# ---------------------------------------------------------------------------
# span aggregation
# ---------------------------------------------------------------------------

SOLVES = ("solvers.minimize_2d", "solvers.minimize_1d_profile")
CERTIFY = ("verify.verify_main0", "verify.verify_main1", "verify.verify_main3")


class SpanStats:
    """Per-name call counts, inclusive and self time over a slice of spans."""

    def __init__(self, spans, start=0, stop=None):
        spans = spans[start:stop]
        self.spans = spans
        child = [0.0] * len(spans)
        for s in spans:
            p = s[3] - start
            if p >= 0:
                child[p] += s[2] - s[1]
        self.calls, self.total, self.self_time = {}, {}, {}
        for s, c in zip(spans, child):
            d = s[2] - s[1]
            self.calls[s[0]] = self.calls.get(s[0], 0) + 1
            self.total[s[0]] = self.total.get(s[0], 0.0) + d
            self.self_time[s[0]] = self.self_time.get(s[0], 0.0) + d - c
        self._start = start

    def parent_name(self, span):
        p = span[3] - self._start
        return self.spans[p][0] if p >= 0 else None

    def under(self, span, names):
        """True if an ancestor of span has one of the given names."""
        p = span[3] - self._start
        while p >= 0:
            if self.spans[p][0] in names:
                return True
            p = self.spans[p][3] - self._start
        return False

    def outermost_total(self, names):
        """Inclusive time of spans in names not nested in another of them."""
        return sum(s[2] - s[1] for s in self.spans
                   if s[0] in names and not self.under(s, names))

    def extra_sum(self, name, key):
        return sum((s[4] or {}).get(key, 0) for s in self.spans if s[0] == name)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(stats):
    """Per-layer figures of one traced pass (values only; units in run.py)."""
    c, tot, slf = stats.calls, stats.total, stats.self_time
    iters = sum(stats.extra_sum(n, "iterations") for n in SOLVES)
    in_solve = {"energy.total_energy": 0, "energy.euclidean_gradient": 0,
                "geometry.project_points": 0}
    retractions = 0
    first_builds = []
    for s in stats.spans:
        if s[0] in in_solve and stats.under(s, SOLVES):
            in_solve[s[0]] += 1
            if s[0] == "geometry.project_points" and stats.parent_name(s) in SOLVES:
                retractions += 1
        if s[0] == "energy.t_edge_operator" and (s[4] or {}).get("first"):
            first_builds.append(s[2] - s[1])
    first_builds.sort()
    cpc_points = stats.extra_sum("geometry.curve_parameter_of_closest", "points")
    return {
        "energy.total_energy.calls": c.get("energy.total_energy", 0),
        "energy.total_energy.self_s": slf.get("energy.total_energy", 0.0),
        "energy.total_energy.us_per_call":
            1e6 * _ratio(tot.get("energy.total_energy", 0.0),
                         c.get("energy.total_energy", 0)),
        "energy.euclidean_gradient.calls": c.get("energy.euclidean_gradient", 0),
        "energy.euclidean_gradient.self_s": slf.get("energy.euclidean_gradient", 0.0),
        "energy.euclidean_gradient.us_per_call":
            1e6 * _ratio(tot.get("energy.euclidean_gradient", 0.0),
                         c.get("energy.euclidean_gradient", 0)),
        "energy.chain_terms.self_s": slf.get("energy.chain_terms", 0.0),
        "energy.t_edge_operator.first_ms":
            1e3 * first_builds[len(first_builds) // 2] if first_builds else 0.0,
        "geometry.project_points.calls": c.get("geometry.project_points", 0),
        "geometry.project_points.points":
            stats.extra_sum("geometry.project_points", "points"),
        "geometry.project_points.self_s": slf.get("geometry.project_points", 0.0),
        "geometry.curve_parameter_of_closest.self_s":
            slf.get("geometry.curve_parameter_of_closest", 0.0),
        "geometry.curve_parameter_of_closest.ns_per_point":
            1e9 * _ratio(slf.get("geometry.curve_parameter_of_closest", 0.0),
                         cpc_points),
        "geometry.tangent_project_points.calls":
            c.get("geometry.tangent_project_points", 0),
        "geometry.tangent_project_points.self_s":
            slf.get("geometry.tangent_project_points", 0.0),
        "geometry.tangent_project_points.reprojections":
            stats.extra_sum("geometry.tangent_project_points", "reprojection"),
        "fields.random_field.self_s": slf.get("fields.random_field", 0.0),
        "fields.field_to_csv.self_s": slf.get("fields.field_to_csv", 0.0),
        "solvers.minimize_2d.total_s": tot.get("solvers.minimize_2d", 0.0),
        "solvers.minimize_2d.self_s": slf.get("solvers.minimize_2d", 0.0),
        "solvers.minimize_1d_profile.total_s":
            tot.get("solvers.minimize_1d_profile", 0.0),
        "solvers.iterations": iters,
        "solvers.restarts": sum(stats.extra_sum(n, "restarts") for n in SOLVES),
        "solvers.restarts_capped": sum(stats.extra_sum(n, "capped") for n in SOLVES),
        "solvers.energy_evals_per_iter":
            _ratio(in_solve["energy.total_energy"], iters),
        "solvers.grad_evals_per_iter":
            _ratio(in_solve["energy.euclidean_gradient"], iters),
        "solvers.projections_per_iter":
            _ratio(in_solve["geometry.project_points"], iters),
        "solvers.accepted_over_trials": _ratio(iters, retractions),
        "solvers.solve_annulus_example.calls":
            c.get("solvers.solve_annulus_example", 0),
        "solvers.solve_annulus_example.ms_per_solve":
            1e3 * _ratio(tot.get("solvers.solve_annulus_example", 0.0),
                         c.get("solvers.solve_annulus_example", 0)),
        "solvers.symmetrize_and_certify.total_s":
            tot.get("solvers.symmetrize_and_certify", 0.0),
        "solvers.field_diagnostics.total_s": tot.get("solvers.field_diagnostics", 0.0),
        "verify.verify_chain.total_s": tot.get("verify.verify_chain", 0.0),
        "verify.verify_annulus.total_s": tot.get("verify.verify_annulus", 0.0),
        "verify.certify_s": stats.outermost_total(CERTIFY),
        "cli.build_run.total_s": tot.get("cli.build_run", 0.0),
        "ioutil.dumps.self_s": slf.get("ioutil.dumps", 0.0),
    }
