"""End-to-end benchmark of the axisym command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
`src/`).  The workload's inputs are generated from the seed into
`perfbench/_work/NAME-sN/`; then, in this one single-threaded process, the
workload's `axisym` commands run through `axisym.cli.main` in a closed loop
(one pass after another) for S seconds.  Afterwards the artifacts are
checked, and the last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}.

With --trace 0 the metrics are the end-to-end ones (set-up time, time of a
pass, peak memory, share of operations that succeeded).  Times are wall
times scaled by the machine speed sampled while they ran
(perfbench/speed.py), so that a shared host's drifting contention does not
read as a change of the program; the raw wall times are reported too.  With
--trace 1 half of the time runs untraced and half with span tracing of the
library's layers installed (perfbench/tracing.py); the metrics are then
the per-layer figures of the traced passes plus the tracing overhead.
--smoke shrinks every workload to a tiny grid for tests.
"""

from __future__ import annotations

import os

# Pinned before numpy is first imported, in this process and in the set-up
# probes (which inherit the environment).
THREAD_VARS = {
    "AXISYM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
os.environ.update(THREAD_VARS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(ROOT))

from perfbench import checks as chk  # noqa: E402
from perfbench import tracing  # noqa: E402
from perfbench.speed import SpeedSampler  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 5

END_TO_END = {
    "setup_s": "s",
    "commands_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}


def _unit(name):
    for suffix, unit in (("calls", "count"), ("points", "count"),
                         ("reprojections", "count"), ("restarts", "count"),
                         ("restarts_capped", "count"), ("iterations", "count"),
                         ("applicable", "count"), ("failed", "count"),
                         ("_bytes", "B"), ("us_per_call", "us"), ("_ms", "ms"),
                         ("ms_per_solve", "ms"), ("ns_per_point", "ns"),
                         ("_per_iter", "1/iter"), ("_frac", "frac"),
                         ("_over_trials", "frac"), ("_gap", "frac"),
                         ("best_energy", "1"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    raise ValueError(f"no unit for metric {name}")


PER_LAYER = (
    "energy.total_energy.calls", "energy.total_energy.self_s",
    "energy.total_energy.us_per_call", "energy.euclidean_gradient.calls",
    "energy.euclidean_gradient.self_s", "energy.euclidean_gradient.us_per_call",
    "energy.chain_terms.self_s", "energy.t_edge_operator.first_ms",
    "geometry.project_points.calls", "geometry.project_points.points",
    "geometry.project_points.self_s", "geometry.curve_parameter_of_closest.self_s",
    "geometry.curve_parameter_of_closest.ns_per_point",
    "geometry.tangent_project_points.calls",
    "geometry.tangent_project_points.self_s",
    "geometry.tangent_project_points.reprojections",
    "fields.random_field.self_s", "fields.field_to_csv.self_s",
    "solvers.minimize_2d.total_s", "solvers.minimize_2d.self_s",
    "solvers.minimize_1d_profile.total_s", "solvers.iterations",
    "solvers.restarts", "solvers.restarts_capped",
    "solvers.energy_evals_per_iter", "solvers.grad_evals_per_iter",
    "solvers.projections_per_iter", "solvers.accepted_over_trials",
    "solvers.solve_annulus_example.calls",
    "solvers.solve_annulus_example.ms_per_solve",
    "solvers.symmetrize_and_certify.total_s", "solvers.field_diagnostics.total_s",
    "solvers.best_energy", "solvers.random_gap",
    "verify.certificates_applicable", "verify.certificates_failed",
    "verify.verify_chain.total_s", "verify.verify_annulus.total_s",
    "verify.certify_s",
    "cli.import_s", "cli.build_run.total_s", "cli.minimize_s", "cli.reduce_s",
    "cli.verify_s", "cli.commands_wall_s", "cli.artifact_bytes", "ioutil.dumps.self_s",
    "trace.overhead_frac",
)


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def measure_setup(workload, work, count):
    """Set-up times from `count` fresh interpreters; failures as strings."""
    samples, errors = [], []
    for _ in range(count):
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "probe_setup.py"), str(SRC),
                 workload.setup_config],
                cwd=work, capture_output=True, text=True, timeout=30)
        except subprocess.TimeoutExpired:
            errors.append("set-up probe timed out after 30 s")
            continue
        try:
            samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        except (IndexError, ValueError):
            errors.append(f"set-up probe exited {proc.returncode}: "
                          f"{proc.stderr.strip()[-2000:]}")
    return samples, errors


def run_pass(workload, work):
    """One closed-loop pass through the workload's commands."""
    from axisym import cli

    for cmd in workload.commands:
        shutil.rmtree(work / cmd.out_dir, ignore_errors=True)
    times, walls, failed = {}, {}, []
    for cmd in workload.commands:
        log = io.StringIO()
        with SpeedSampler() as sampler:
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(log):
                    code = cli.main(cmd.argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:
                code = None
                log.write(traceback.format_exc())
            walls[cmd.name] = time.perf_counter() - start
        times[cmd.name] = walls[cmd.name] * sampler.speed()
        if code not in cmd.ok_codes:
            failed.append(cmd.name)
            print(f"{cmd.name}: exit code {code!r}\n{log.getvalue()}",
                  file=sys.stderr)
    outcome = {"ops": 0, "failed": 0}
    if not failed:
        try:
            outcome = workload.outcome(work)
        except (OSError, ValueError, KeyError) as exc:
            failed.append(f"outcome: {exc}")
    ops = outcome["ops"] + len(workload.commands)
    return {
        "times": times,
        "walls": walls,
        "total_s": sum(times.values()),
        "wall_s": sum(walls.values()),
        "failed_commands": failed,
        "outcome": outcome,
        "ok_frac": (ops - outcome["failed"] - len(failed)) / ops,
        "digests": {c.out_dir: chk.artifact_digest(work / c.out_dir)
                    for c in workload.commands},
        "artifact_bytes": sum(p.stat().st_size for c in workload.commands
                              for p in (work / c.out_dir).rglob("*") if p.is_file()),
    }


def run_passes(workload, work, seconds, tracer=None):
    passes = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        first = len(tracer.spans) if tracer else 0
        rec = run_pass(workload, work)
        if tracer:
            rec["spans"] = (first, len(tracer.spans))
        passes.append(rec)
    return passes


def summarize(values):
    values = sorted(values)
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2],
            "n": len(values)}


def environment():
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "pinned_threads": {k: os.environ[k] for k in THREAD_VARS}}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end(setups, passes):
    stats = {
        "setup_s": summarize([s["setup_s"] for s in setups]),
        "commands_s": summarize([p["total_s"] for p in passes]),
        "ok_frac": summarize([p["ok_frac"] for p in passes]),
    }
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    stats["peak_rss_mb"] = {"median": rss, "q1": rss, "q3": rss, "n": 1}
    return stats


def per_layer(setups, plain, traced, spans):
    per_pass = []
    for rec in traced:
        values = tracing.layer_metrics(tracing.SpanStats(spans, *rec["spans"]))
        values["cli.artifact_bytes"] = rec["artifact_bytes"]
        per_pass.append(values)
    stats = {k: summarize([v[k] for v in per_pass]) for k in per_pass[0]}
    stats["cli.import_s"] = summarize([s["import_s"] for s in setups])
    for name in ("minimize", "reduce", "verify"):
        times = [p["times"][name] for p in plain if name in p["times"]]
        stats[f"cli.{name}_s"] = summarize(times or [0.0])
    stats["cli.commands_wall_s"] = summarize([p["wall_s"] for p in plain])
    outcome = plain[-1]["outcome"]
    for key, name in (("best_energy", "solvers.best_energy"),
                      ("random_gap", "solvers.random_gap"),
                      ("certificates_applicable", "verify.certificates_applicable"),
                      ("certificates_failed", "verify.certificates_failed")):
        stats[name] = summarize([outcome.get(key, 0)])
    overhead = (statistics.median(p["total_s"] for p in traced)
                / statistics.median(p["total_s"] for p in plain) - 1.0)
    stats["trace.overhead_frac"] = summarize([overhead])
    return stats


def print_report(workload, args, env, e2e, passes, checks, layer):
    """Human-readable report; the machine-readable line follows it."""
    print(f"axisym benchmark: workload {workload.name}, seed {args.seed}, "
          f"{len(passes)} untraced passes in {args.seconds} s"
          + (" (smoke sizes)" if args.smoke else ""))
    print("environment: " + json.dumps(env, sort_keys=True))

    def row(name, st, unit):
        print(f"  {name:<16} {st['median']:<14.6g} {unit:<6} median of "
              f"{st['n']} [q1 {st['q1']:.6g}, q3 {st['q3']:.6g}]")

    for name, unit in END_TO_END.items():
        row(name, e2e[name], unit)
    row("commands_wall_s", summarize([p["wall_s"] for p in passes]), "s")
    print(f"  {'machine speed':<16} "
          f"{statistics.median(p['total_s'] / p['wall_s'] for p in passes):<14.6g}"
          f" x      of the reference machine (scaled s = wall s x speed)")
    # per-command view: the pipeline's user-visible figures
    for name in ("minimize", "reduce", "verify"):
        times = [p["times"][name] for p in passes if name in p["times"]]
        if times:
            row(f"{name}_s", summarize(times), "s")
        else:
            print(f"  {name + '_s':<16} n/a")
    outcome = passes[-1]["outcome"]
    for key, unit in (("best_energy", "1"), ("random_gap", "frac")):
        value = f"{outcome[key]!r:<14} {unit}" if key in outcome else "n/a"
        print(f"  {key:<16} {value}")
    ops = outcome["ops"] + len(workload.commands)
    bad = outcome["failed"] + len(passes[-1]["failed_commands"])
    print(f"  {'failed_frac':<16} {bad / ops!r:<14} frac   {bad} of {ops} restarts, "
          f"certificates and commands in the last pass")
    print(f"  artifacts sha256 {json.dumps(passes[0]['digests'], sort_keys=True)}")
    print(f"  checks: {len(checks.results) - len(checks.failed)} passed, "
          f"{len(checks.failed)} failed")
    for name, _, detail in checks.failed:
        print(f"    FAILED {name}: {detail}")
    if layer:
        print("per-layer (traced passes):")
        for name in PER_LAYER:
            row(name, layer[name], _unit(name))


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _seed(text):
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError("seed must be non-negative")
    return seed


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny grids and iteration caps (for tests)")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "axisym" / "__init__.py").is_file():
        print(f"error: no axisym sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload](args.seed, smoke=args.smoke)
    work = BENCH / "_work" / f"{workload.name}-s{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload.write_inputs(work)

    checks = chk.Checks()
    setups, errors = measure_setup(workload, work, SETUP_PROBES)
    checks.add(f"{SETUP_PROBES} set-up probes ran", not errors, "; ".join(errors))
    if not setups:
        print("error: every set-up probe failed", file=sys.stderr)
        return 1

    os.chdir(work)
    tracing.assert_untraced()
    env = environment()
    plain_seconds = args.seconds / 2 if args.trace else args.seconds
    passes = run_passes(workload, work, plain_seconds)
    e2e = end_to_end(setups, passes)

    layer, spans, traced = None, None, []
    if args.trace:
        tracer = tracing.Tracer()
        with tracer:
            traced = run_passes(workload, work, args.seconds / 2, tracer)
        tracing.assert_untraced()
        spans = tracer.spans
        layer = per_layer(setups, passes, traced, spans)
    passes_all = passes + traced

    workload.check(checks, work)
    for cmd in workload.commands:
        chk.check_json_artifacts(checks, cmd.out_dir)
    digests = [p["digests"] for p in passes_all]
    checks.add(f"artifacts byte-identical across {len(digests)} passes",
               all(d == digests[0] for d in digests))

    print_report(workload, args, env, e2e, passes, checks, layer)
    command_runs = sum(len(p["times"]) for p in passes_all)
    command_failures = sum(len(p["failed_commands"]) for p in passes_all)
    failed = command_failures + len(checks.failed)
    metrics = ({n: {"value": layer[n]["median"], "unit": _unit(n)} for n in PER_LAYER}
               if args.trace else
               {n: {"value": e2e[n]["median"], "unit": u} for n, u in END_TO_END.items()})
    record = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "environment": env, "end_to_end": e2e, "per_layer": layer,
              "checks": checks.results, "digests": passes[0]["digests"],
              "passes": [{k: v for k, v in p.items() if k != "spans"}
                         for p in passes_all]}
    (work / "result.json").write_text(json.dumps(record, indent=1, default=str),
                                      encoding="utf-8")
    if spans is not None:
        with open(work / "spans.json", "w", encoding="utf-8") as f:
            json.dump({"columns": ["name", "start", "end", "parent", "extra"],
                       "spans": spans}, f, separators=(",", ":"))
    print(json.dumps({"correct": failed == 0,
                      "attempted": command_runs + len(checks.results),
                      "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
