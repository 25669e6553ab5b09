"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q"""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import checks as chk  # noqa: E402
from perfbench import tracing  # noqa: E402
from perfbench.speed import SpeedSampler  # noqa: E402
from perfbench.workloads import WORKLOADS, Sphere64  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc


def smoke(workload, trace, seed=3):
    proc = run_bench("--workload", workload, "--seed", str(seed), "--seconds",
                     "1", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_lists_the_workloads():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)
    for w in SPEC["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_prints_every_metric(workload, trace):
    stdout, result = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, stdout
    assert result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))
        assert f"  {m['name']} " in stdout       # the human-readable report


def test_setup_and_timing_metrics_are_nonzero():
    _, result = smoke("spline-target", 0)
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["value"] > 0


def test_artifacts_repeat_byte_for_byte_at_one_seed():
    def digests(seed):
        smoke("spline-target", 0, seed)
        record = json.loads((ROOT / "perfbench" / "_work"
                             / f"spline-target-s{seed}" / "result.json").read_text())
        return record["digests"]

    first = digests(5)
    assert digests(5) == first
    assert digests(6) != first


def test_wrappers_only_while_tracing():
    from axisym import energy, geometry, solvers

    original = energy.total_energy
    tracing.assert_untraced()
    tracer = tracing.Tracer()
    with tracer:
        assert solvers.total_energy is not original
        assert solvers.total_energy is energy.total_energy
        assert "energy.tangent_project_points" in tracing.traced_bindings()
        with pytest.raises(RuntimeError):
            tracing.assert_untraced()
        mesh = geometry.build_mesh(geometry.surface("sphere"), 8, 8)
        field = solvers.random_field(mesh, geometry.surface("sphere", "target"), 0)
        params = energy.make_params(
            mesh, field.target, energy.quadratic_potential(1.0),
            energy.aniso_surface_normal(mesh), energy.weight_zero(mesh))
        solvers.total_energy(field, params)
    assert tracing.traced_bindings() == []
    assert energy.total_energy is original and solvers.total_energy is original
    tracing.assert_untraced()
    names = [s[0] for s in tracer.spans]
    assert "energy.total_energy" in names and "geometry.build_mesh" in names
    stats = tracing.SpanStats(tracer.spans)
    assert stats.calls["energy.total_energy"] == 1
    assert all(v >= 0 for v in stats.self_time.values())


def test_speed_sampler_samples_and_restores_the_timer():
    before = signal.getsignal(signal.SIGALRM)
    with SpeedSampler() as sampler:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.3:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.samples) >= 5         # entry, exit and timer samples
    assert sampler.speed() > 0


@pytest.fixture
def minimize_artifacts(tmp_path, monkeypatch):
    from axisym import cli

    workload = Sphere64(seed=1, smoke=True)
    workload.write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert cli.main(["minimize", "--config", "sphere.json", "--out", "min"]) in (0, 2)
    return workload, tmp_path


def test_checks_pass_on_genuine_artifacts(minimize_artifacts):
    workload, work = minimize_artifacts
    checks = chk.Checks()
    chk.check_minimize(checks, work / "sphere.json", work / "min", workload.restarts)
    chk.check_json_artifacts(checks, work / "min")
    assert checks.results and not checks.failed


def test_planted_wrong_breakdown_is_a_failed_operation(minimize_artifacts):
    workload, work = minimize_artifacts
    path = work / "min" / "breakdown.json"
    planted = json.loads(path.read_text())
    planted["total"] *= 1 + 1e-9
    path.write_text(json.dumps(planted))
    checks = chk.Checks()
    chk.check_minimize(checks, work / "sphere.json", work / "min", workload.restarts)
    assert [name for name, _, _ in checks.failed] == [
        f"{work / 'min'}: breakdown.json matches total_energy(field.csv)",
        f"{work / 'min'}: report.json best_energy equals breakdown.json",
    ]


def test_strict_json_refuses_nan(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"x": NaN}')
    with pytest.raises(ValueError):
        chk.load_strict(path)
    checks = chk.Checks()
    chk.check_json_artifacts(checks, tmp_path)
    assert len(checks.failed) == 1


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = run_bench("--workload", "sphere-64", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
