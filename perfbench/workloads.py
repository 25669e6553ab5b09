"""The benchmark workloads.

Each workload writes its inputs (run configs, spline tables) from the seed,
names the `axisym` commands of one closed-loop pass, checks the artifacts
those commands wrote, and reads the solver and certificate outcomes back
from them.  Paths in the configs are relative to the work directory, which
is the current directory while a pass runs, so the artifacts (and the
config hashes inside them) do not depend on where the checkout lives.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from perfbench import checks as chk

RUN_SCHEMA = "axisym-run/1"

THEOREMS = ("main0_form", "main1_line_symmetry", "main3_null_average",
            "chain_monotonicity", "pw_inequality", "annulus_null_average")


@dataclass(frozen=True)
class Command:
    name: str               # subcommand, also the per-command metric prefix
    config: str             # config file, relative to the work directory
    out_dir: str            # artifact directory, relative to the work directory
    ok_codes: frozenset     # exit codes that mean the command did its job

    @property
    def argv(self):
        return [self.name, "--config", self.config, "--out", self.out_dir]


# minimize and reduce exit 2 when the winning restart is not converged: the
# command still worked, and the restart outcomes show up in ok_frac.
SOLVE_OK = frozenset({0, 2})
VERIFY_OK = frozenset({0})


def _write_json(path, payload):
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")


def _restart_outcome(report, restarts):
    """(best energy, random gap) from a 2D report.json."""
    best = report["best_energy"]["total"]
    randoms = report["restart_energies"][:restarts]
    gap = (min(randoms) - best) / abs(best) if randoms and best else 0.0
    return best, gap


class Workload:
    name = ""
    why = ""
    commands = ()
    setup_config = ""

    def __init__(self, seed, smoke=False):
        self.seed = int(seed)
        self.smoke = bool(smoke)

    def write_inputs(self, work):
        raise NotImplementedError

    def check(self, checks, work):
        raise NotImplementedError

    def outcome(self, work):
        """Restart and certificate outcomes of one pass.

        Returns a dict with `ops` and `failed` (restarts that stopped at
        max_iters, applicable certificates that failed) plus the quality
        figures the pass produced.
        """
        raise NotImplementedError


class Sphere64(Workload):
    name = "sphere-64"
    why = ("paper pipeline (2D minimum then 1D reduction) at 64x64: energy and "
           "gradient kernels dominate, closed-form sphere projection")
    commands = (Command("minimize", "sphere.json", "min", SOLVE_OK),
                Command("reduce", "reduce.json", "red", SOLVE_OK))
    setup_config = "sphere.json"

    def __init__(self, seed, smoke=False):
        super().__init__(seed, smoke)
        self.grid = 16 if smoke else 64
        self.restarts = 2
        self.max_iters = 8 if smoke else 150

    def config(self):
        return {
            "schema": RUN_SCHEMA,
            "base_surface": {"preset": "sphere"},
            "target_surface": {"preset": "sphere"},
            "grid": {"n_phi": self.grid, "n_t": self.grid},
            "potential": {"kind": "quartic", "lam": 5.0},
            "aniso_field": {"kind": "surface_normal"},
            "weight": {"kind": "margin", "margin": 1.5},
            "solver": {"restarts": self.restarts, "max_iters": self.max_iters,
                       "grad_tol": 1e-6, "seed": self.seed},
        }

    def write_inputs(self, work):
        _write_json(Path(work) / "sphere.json", self.config())
        _write_json(Path(work) / "reduce.json", dict(self.config(), prior_2d="min"))

    def check(self, checks, work):
        work = Path(work)
        chk.check_minimize(checks, work / "sphere.json", work / "min", self.restarts)
        chk.check_reduce(checks, work / "red")

    def outcome(self, work):
        report = chk.load_strict(Path(work) / "min" / "report.json")
        reduced = chk.load_strict(Path(work) / "red" / "reduce_report.json")
        iterations = (report["iterations"] + reduced["symmetric"]["iterations"]
                      + reduced["antisymmetric"]["iterations"])
        best, gap = _restart_outcome(report, self.restarts)
        return {"ops": len(iterations),
                "failed": sum(1 for i in iterations if i >= self.max_iters),
                "best_energy": best, "random_gap": gap}


class SplineTarget(Workload):
    name = "spline-target"
    why = ("cubic-spline ellipse target: every projection goes through the "
           "generic closest-point search instead of a closed form")
    commands = (Command("minimize", "spline.json", "min", SOLVE_OK),)
    setup_config = "spline.json"

    def __init__(self, seed, smoke=False):
        super().__init__(seed, smoke)
        self.grid = 8 if smoke else 16
        self.restarts = 1
        self.max_iters = 3 if smoke else 50

    def write_inputs(self, work):
        rows = ["t,x,z"]
        for k in range(41):
            t = math.pi * k / 40
            rows.append("%.17g,%.17g,%.17g" % (t, math.sin(t), 1.5 * math.cos(t)))
        (Path(work) / "ellipse.csv").write_text("\n".join(rows) + "\n",
                                                encoding="utf-8")
        _write_json(Path(work) / "spline.json", {
            "schema": RUN_SCHEMA,
            "base_surface": {"preset": "cylinder", "params": {"radius": 2.0}},
            "target_surface": {"spline_table": "ellipse.csv"},
            "grid": {"n_phi": self.grid, "n_t": self.grid},
            "potential": {"kind": "quadratic", "kappa": 1.0},
            "aniso_field": {"kind": "constant_e3"},
            "weight": {"kind": "constant", "lam": 1.0},
            "solver": {"restarts": self.restarts, "max_iters": self.max_iters,
                       "seed": self.seed},
        })

    def check(self, checks, work):
        work = Path(work)
        chk.check_minimize(checks, work / "spline.json", work / "min", self.restarts)

    def outcome(self, work):
        report = chk.load_strict(Path(work) / "min" / "report.json")
        best, gap = _restart_outcome(report, self.restarts)
        return {"ops": len(report["iterations"]),
                "failed": sum(1 for i in report["iterations"] if i >= self.max_iters),
                "best_energy": best, "random_gap": gap}


class VerifySuite(Workload):
    name = "verify-suite"
    why = ("many small solves plus chain, Poincare-Wirtinger and annulus "
           "certificates: per-call overhead on small arrays")
    commands = (Command("verify", "verify.json", "ver", VERIFY_OK),)
    setup_config = "setup.json"

    # Every certificate kind is applicable at least once on this subset:
    # main0/main1 (cylinder, Dirichlet cylinder, ellipsoid band), main3
    # (free sphere), chain and Poincare-Wirtinger (cylinder), annulus.
    INSTANCES = ("cylinder2_quadratic_const1", "cylinder2_dirichlet_top",
                 "ellipsoid_band_sphere", "sphere_easy_normal_free")
    CHAIN, PW = 1, 1        # of the instances above, cylinder2_quadratic_const1

    def __init__(self, seed, smoke=False):
        super().__init__(seed, smoke)
        self.grid = (16, 12) if smoke else (32, 24)
        self.chain_fields = 10 if smoke else 100
        self.pw_fields = 4 if smoke else 20
        self.annulus = 16 if smoke else 64

    def write_inputs(self, work):
        n_phi, n_t = self.grid
        _write_json(Path(work) / "verify.json", {
            "schema": RUN_SCHEMA,
            "suite": {
                "grid": {"n_phi": n_phi, "n_t": n_t},
                # structured initial fields only: the work per pass does not
                # depend on the seed, which drives the certificate corpora
                "solver": {"restarts": 0, "max_iters": 4000, "grad_tol": 1e-9},
                "seeds": [self.seed],
                "chain_fields": self.chain_fields,
                "pw_fields": self.pw_fields,
                "annulus": {"kappas": [0.0, 0.5, 1.0, 5.0],
                            "n_t": self.annulus, "n_phi": self.annulus},
                "instances": list(self.INSTANCES) + ["annulus_pde"],
            },
        })
        # the set-up probe builds the suite's first instance as a run config
        _write_json(Path(work) / "setup.json", {
            "schema": RUN_SCHEMA,
            "base_surface": {"preset": "cylinder", "params": {"radius": 2.0}},
            "target_surface": {"preset": "sphere"},
            "grid": {"n_phi": n_phi, "n_t": n_t},
            "potential": {"kind": "quadratic", "kappa": 1.0},
            "aniso_field": {"kind": "constant_e3"},
            "weight": {"kind": "constant", "lam": 1.0},
            "solver": {"seed": self.seed},
        })

    def check(self, checks, work):
        chk.check_verify(checks, Path(work) / "ver", len(self.INSTANCES),
                         self.CHAIN, self.PW, self.chain_fields, THEOREMS)

    def outcome(self, work):
        summary = chk.load_strict(Path(work) / "ver" / "summary.json")
        return {"ops": summary["n_applicable"], "failed": summary["n_failed"],
                "certificates_applicable": summary["n_applicable"],
                "certificates_failed": summary["n_failed"]}


WORKLOADS = {w.name: w for w in (Sphere64, VerifySuite, SplineTarget)}
