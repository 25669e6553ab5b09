import contextlib
import copy
import io
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from axisym import fields, ioutil, verify
from axisym.cli import main
from axisym.energy import total_energy
from axisym.runconfig import build_run
from conftest import count_calls


def write_config(path, **overrides):
    cfg = {
        "schema": "axisym-run/1",
        "base_surface": {"preset": "cylinder", "params": {"radius": 2.0}},
        "target_surface": {"preset": "sphere"},
        "grid": {"n_phi": 16, "n_t": 12},
        "potential": {"kind": "quadratic", "kappa": 1.0},
        "aniso_field": {"kind": "constant_e3"},
        "weight": {"kind": "constant", "lam": 1.0},
        "solver": {"restarts": 1, "max_iters": 2000, "grad_tol": 1e-8,
                   "seed": 0},
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return cfg


def test_minimize_writes_artifacts(tmp_path):
    cfg_path = tmp_path / "run.json"
    write_config(cfg_path)
    out = tmp_path / "out"
    rc = main(["minimize", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 0
    for name in ("field.csv", "mode.csv", "breakdown.json", "report.json"):
        assert (out / name).exists(), name
    report = ioutil.loads((out / "report.json").read_text())
    assert report["converged"]
    assert "config_sha256" in report
    breakdown = ioutil.loads((out / "breakdown.json").read_text())
    assert abs(breakdown["total"] - (breakdown["dirichlet"]
                                     + breakdown["anisotropy"]
                                     + breakdown["penalty"])) < 1e-10
    head = (out / "field.csv").read_text().splitlines()[0]
    assert head.startswith("# config_sha256=")


def test_minimize_rerun_byte_identical(tmp_path):
    cfg_path = tmp_path / "run.json"
    write_config(cfg_path)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["minimize", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert main(["minimize", "--config", str(cfg_path), "--out", str(out2)]) == 0
    for name in ("field.csv", "mode.csv", "breakdown.json", "report.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_minimize_thread_count_invariance(tmp_path):
    cfg_path = tmp_path / "run.json"
    write_config(cfg_path, solver={"restarts": 3, "max_iters": 800,
                                   "grad_tol": 1e-8, "seed": 1})
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        code = subprocess.run(
            [sys.executable, "-m", "axisym.cli", "minimize", "--config",
             str(cfg_path), "--out", str(out)],
            env=env, capture_output=True, text=True).returncode
        assert code in (0, 2)
        outs.append(out)
    for name in ("field.csv", "mode.csv", "breakdown.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_minimize_decomposes_the_field_once(tmp_path, monkeypatch):
    # the report's decomposition feeds its diagnostics and mode.csv
    calls = count_calls(monkeypatch, fields.mode_decompose)
    cfg_path = tmp_path / "run.json"
    write_config(cfg_path, solver={"restarts": 1, "max_iters": 50, "seed": 0})
    assert main(["minimize", "--config", str(cfg_path),
                 "--out", str(tmp_path / "o")]) in (0, 2)
    assert len(calls) == 1


def test_unknown_key_rejected(tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg = write_config(cfg_path)
    cfg["mystery"] = 1
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["minimize", "--config", str(cfg_path)]) == 3


def test_bad_grid_rejected(tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    write_config(cfg_path, grid={"n_phi": 7, "n_t": 12})
    assert main(["minimize", "--config", str(cfg_path)]) == 3
    err = capsys.readouterr().err
    assert "n_phi" in err


@pytest.mark.parametrize("surface, message", [
    ({"preset": "cylinder", "params": {"radus": 2.0}}, "no parameter 'radus'"),
    ({"preset": "cylinder", "params": {"radius": "2"}},
     "'radius' must be a number"),
    ({"preset": "cylinder", "params": 5}, "params: expected an object"),
    ({"preset": "cylinder", "params": None}, "params: expected an object"),
    ({"preset": "cylinder", "params": [1]}, "params: expected an object"),
    ({"preset": ["sphere"]}, "unknown curve preset ['sphere']"),
], ids=["misspelt_parameter", "string_parameter", "params_number",
        "params_null", "params_list", "preset_list"])
def test_bad_preset_parameter_exits_3(tmp_path, capsys, surface, message):
    # a misspelt parameter must not fall back to its default, and a value
    # of the wrong type is refused before it reaches the preset
    cfg_path = tmp_path / "run.json"
    write_config(cfg_path, base_surface=surface)
    assert main(["minimize", "--config", str(cfg_path),
                 "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "config.base_surface" in err and message in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("rows, closed", [
    ("0,1,0\n1,1,1\n0.5,1,2\n", False),
    ("0,1,0\n1,-1,1\n2,1,2\n3,1,3\n", False),
    ("0,1,0\n", False),
    ("0,2,0\n1,3,1\n2,2,0\n3,1,-1\n4,2,1e-14\n", True),
], ids=["t_not_increasing", "x_negative", "one_row", "closed_ends_differ"])
def test_bad_spline_table_exits_3(tmp_path, capsys, rows, closed):
    table = tmp_path / "curve.csv"
    table.write_text("t,x,z\n" + rows, encoding="utf-8")
    cfg_path = tmp_path / "run.json"
    write_config(cfg_path, target_surface={"spline_table": str(table),
                                           "closed": closed})
    assert main(["minimize", "--config", str(cfg_path),
                 "--out", str(tmp_path / "o")]) == 3
    assert "config.target_surface" in capsys.readouterr().err


def test_missing_config():
    assert main(["minimize"]) == 3


def test_reduce_with_and_without_prior(tmp_path):
    cfg_path = tmp_path / "run.json"
    write_config(cfg_path, solver={"restarts": 2, "max_iters": 3000,
                                   "grad_tol": 1e-8, "seed": 0})
    out2d = tmp_path / "mini"
    assert main(["minimize", "--config", str(cfg_path), "--out", str(out2d)]) == 0

    out1 = tmp_path / "red1"
    assert main(["reduce", "--config", str(cfg_path), "--out", str(out1)]) == 0
    rep = ioutil.loads((out1 / "reduce_report.json").read_text())
    assert "comparison" not in rep
    assert (out1 / "profile_symmetric.csv").exists()
    assert (out1 / "profile_antisymmetric.csv").exists()

    cfg = write_config(cfg_path, prior_2d=str(out2d),
                       solver={"restarts": 2, "max_iters": 3000,
                               "grad_tol": 1e-8, "seed": 0})
    out2 = tmp_path / "red2"
    assert main(["reduce", "--config", str(cfg_path), "--out", str(out2)]) == 0
    rep = ioutil.loads((out2 / "reduce_report.json").read_text())
    assert rep["comparison"]["relative_gap"] <= 0.02
    # E_2D is the prior field's energy: the minimize run's own total
    full = out2d.rename(tmp_path / "mini_full")
    breakdown = ioutil.read_json(full / "breakdown.json")
    assert rep["comparison"]["energy_2d"] == breakdown["total"]

    # a prior directory needs only its field.csv
    out2d.mkdir()
    (out2d / "field.csv").write_bytes((full / "field.csv").read_bytes())
    out3 = tmp_path / "red3"
    assert main(["reduce", "--config", str(cfg_path), "--out", str(out3)]) == 0
    assert ((out3 / "reduce_report.json").read_bytes()
            == (out2 / "reduce_report.json").read_bytes())


def test_stop_reasons_reported_per_restart(tmp_path):
    cfg_path = tmp_path / "run.json"
    write_config(cfg_path, base_surface={"preset": "sphere"},
                 potential={"kind": "quartic", "lam": 5.0},
                 aniso_field={"kind": "surface_normal"},
                 weight={"kind": "margin", "margin": 1.5},
                 solver={"restarts": 2, "max_iters": 1, "grad_tol": 1e-8,
                         "seed": 0})
    assert main(["minimize", "--config", str(cfg_path),
                 "--out", str(tmp_path / "min")]) == 2
    report = ioutil.loads((tmp_path / "min" / "report.json").read_text())
    assert report["stop_reasons"] == ["max_iters"] * 4
    assert report["iterations"] == [1] * 4
    assert main(["reduce", "--config", str(cfg_path),
                 "--out", str(tmp_path / "red")]) == 2
    reduced = ioutil.loads(
        (tmp_path / "red" / "reduce_report.json").read_text())
    for variant in ("symmetric", "antisymmetric"):
        assert reduced[variant]["stop_reasons"] == ["max_iters"] * 3


def test_reduce_variant_mismatch_warning(tmp_path):
    cfg_path = tmp_path / "run.json"
    write_config(cfg_path,
                 aniso_field={"kind": "antisymmetric_profile",
                              "vector": [0.6, 0.0, 0.8]},
                 solver={"restarts": 0, "max_iters": 300, "seed": 0})
    out = tmp_path / "red"
    main(["reduce", "--config", str(cfg_path), "--out", str(out)])
    rep = ioutil.loads((out / "reduce_report.json").read_text())
    assert "symmetric_warning" in rep


def test_verify_subset_and_planted_failure(tmp_path, capsys, monkeypatch):
    cfg_path = tmp_path / "verify.json"
    cfg = {"schema": "axisym-run/1",
           "suite": {"instances": ["cylinder2_quadratic_const1"],
                     "solver": {"restarts": 1, "max_iters": 2500,
                                "grad_tol": 1e-9},
                     "chain_fields": 2, "pw_fields": 2}}
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "certs"
    assert main(["verify", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert (out / "summary.json").exists()
    assert "FAILED" not in capsys.readouterr().out

    # a tolerance no residual meets: the annulus certificate really fails
    monkeypatch.setitem(verify.DEFAULT_TOLERANCES, "annulus_mean", -1.0)
    cfg["suite"]["instances"] = ["annulus_pde"]
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "failed"
    assert main(["verify", "--config", str(cfg_path), "--out", str(out)]) == 1
    summary = ioutil.loads((out / "summary.json").read_text())
    assert summary["n_failed"] == 1 and not summary["all_pass"]
    lines = capsys.readouterr().out.splitlines()
    assert "verify: 0/1 applicable certificates passed (1 total)" in lines
    assert "  FAILED annulus_null_average on annulus_pde" in lines


def test_verify_inapplicable_only_suite(tmp_path):
    cfg_path = tmp_path / "verify.json"
    cfg = {"schema": "axisym-run/1",
           "suite": {"instances": ["cylinder2_inplane_free"],
                     "solver": {"restarts": 1, "max_iters": 1500},
                     "chain_fields": 1, "pw_fields": 1}}
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["verify", "--config", str(cfg_path)]) == 0


def test_certificate_instance_reruns_with_minimize(tmp_path):
    # a certificate file's instance carries the run config it was built
    # from, which `axisym minimize --config` accepts as it stands
    from axisym.verify import run_suite
    certs, _ = run_suite({"instances": ["cylinder2_dirichlet_top"],
                          "grid": {"n_phi": 16, "n_t": 12},
                          "solver": {"restarts": 0, "max_iters": 300}},
                         out_dir=tmp_path / "certs")
    desc = ioutil.read_json(tmp_path / "certs"
                            / "cert_cylinder2_dirichlet_top_s0.json")[
        "instance"]
    assert desc["name"] == "cylinder2_dirichlet_top"
    assert desc == certs[0].instance
    cfg_path = tmp_path / "instance.json"
    cfg_path.write_text(ioutil.dumps(desc["config"]), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["minimize", "--config", str(cfg_path),
                 "--out", str(out)]) in (0, 2)
    report = ioutil.loads((out / "report.json").read_text())
    assert len(report["iterations"]) == 2       # restarts 0: the two inits


def test_annulus_command(tmp_path, capsys):
    out = tmp_path / "ann"
    rc = main(["annulus", "--kappa", "1.0", "--n-t", "32", "--n-phi", "16",
               "--inner", "1,0,0", "--outer", "0,0,1", "--out", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "max|<m_perp>|" in printed
    rows = (out / "radial_mean.csv").read_text().splitlines()[1:]
    means = [float(r.split(",")[1]) for r in rows]
    assert max(means) <= 1e-8
    assert (out / "solution.csv").exists()


def test_annulus_constant_e3(tmp_path):
    out = tmp_path / "ann"
    rc = main(["annulus", "--kappa", "0", "--n-t", "16", "--n-phi", "8",
               "--inner", "0,0,1", "--outer", "0,0,1", "--out", str(out)])
    assert rc == 0
    rows = (out / "solution.csv").read_text().splitlines()[1:]
    mz = np.array([float(r.split(",")[6]) for r in rows])
    assert np.max(np.abs(mz - 1.0)) < 1e-10


def test_annulus_singular_kappa_exits_2(tmp_path):
    # the vertical operator -Lap + kappa is singular when -kappa is a
    # Dirichlet eigenvalue of the discrete -Lap.  The smallest one belongs
    # to the phi-constant mode, where the polar 5-point stencil reduces to
    # the radial tridiagonal -(c_up m[k+1] - (c_up + c_dn) m[k] + c_dn m[k-1])
    # on the interior radii t_k = 1 + k h
    n_t, n_phi = 16, 8
    h = 1.0 / n_t
    tk = 1.0 + h * np.arange(1, n_t)
    c_up = (tk + h / 2) / (tk * h * h)
    c_dn = (tk - h / 2) / (tk * h * h)
    radial = (np.diag(c_up + c_dn) - np.diag(c_up[:-1], 1)
              - np.diag(c_dn[1:], -1))
    lam = float(np.min(np.linalg.eigvals(radial).real))
    kappa_star = -lam
    rc = main(["annulus", "--kappa", repr(kappa_star), "--n-t", str(n_t),
               "--n-phi", str(n_phi), "--inner", "0,0,1", "--outer", "0,0,1",
               "--out", str(tmp_path / "sing")])
    assert rc == 2


def test_symmetrize_command(tmp_path):
    cfg_path = tmp_path / "run.json"
    write_config(cfg_path)
    # build an input field deterministically
    from axisym.cli import build_run, load_config
    from axisym.fields import field_to_csv, random_field
    mesh, target, params, sc = build_run(load_config(cfg_path))
    f = random_field(mesh, target, seed=5)
    field_csv = tmp_path / "input.csv"
    field_to_csv(f, field_csv)
    cfg = write_config(cfg_path, input_field=str(field_csv),
                       variant="symmetric")
    out = tmp_path / "sym"
    assert main(["symmetrize", "--config", str(cfg_path),
                 "--out", str(out)]) == 0
    rep = ioutil.loads((out / "chain_report.json").read_text())
    assert rep["certified"] and not rep["hypothesis_violation"]
    assert (out / "symmetrized.csv").exists()


def test_symmetrize_without_input_field_exits_3(tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    write_config(cfg_path)
    assert main(["symmetrize", "--config", str(cfg_path),
                 "--out", str(tmp_path / "o")]) == 3
    assert ("config error: config.input_field: required"
            in capsys.readouterr().err)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["minimize", "reduce"])
def test_kinked_table_potential_exits_3(tmp_path, capsys, command):
    s = np.linspace(-1.2, 1.2, 41)
    table = tmp_path / "kinked.csv"
    table.write_text("s,g\n" + "".join("%.17g,%.17g\n" % (v, abs(v)) for v in s),
                     encoding="utf-8")
    cfg_path = tmp_path / "run.json"
    write_config(cfg_path, potential={"kind": "table", "table": str(table)},
                 solver={"restarts": 0, "max_iters": 20, "seed": 0})
    rc = main([command, "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert rc == 3
    assert "config.potential" in capsys.readouterr().err


@pytest.mark.parametrize("grid", ["4x4", "16x4", "9x12", "8192x16", "8by8"])
@pytest.mark.parametrize("command", ["minimize", "reduce", "verify", "symmetrize"])
def test_grid_override_validated(tmp_path, capsys, command, grid):
    cfg_path = tmp_path / "run.json"
    write_config(cfg_path)
    rc = main([command, "--config", str(cfg_path), "--grid", grid,
               "--out", str(tmp_path / "o")])
    assert rc == 3
    assert "--grid" in capsys.readouterr().err


def test_non_integer_grid_exits_3(tmp_path, capsys):
    # sizes are refused, not truncated (16.9 must not run at 16)
    cfg_path = tmp_path / "run.json"
    out = tmp_path / "o"
    for grid, key in (({"n_phi": "abc", "n_t": 12}, "n_phi"),
                      ({"n_phi": 16.9, "n_t": 12.7}, "n_phi"),
                      ({"n_phi": 32.0, "n_t": 12}, "n_phi"),
                      ({"n_phi": "16", "n_t": 12}, "n_phi"),
                      ({"n_phi": 16, "n_t": True}, "n_t")):
        write_config(cfg_path, grid=grid)
        assert main(["minimize", "--config", str(cfg_path),
                     "--out", str(out)]) == 3
        assert (f"config.grid.{key}: expected an integer"
                in capsys.readouterr().err)
        assert not out.exists()
    for n_phi in ("abc", 32.5):
        write_config(cfg_path, suite={"grid": {"n_phi": n_phi}})
        assert main(["verify", "--config", str(cfg_path),
                     "--out", str(out)]) == 3
        assert ("config.suite.grid.n_phi: expected an integer"
                in capsys.readouterr().err)


# the first step and the Armijo constants are fixed, not settings
UNKNOWN_SOLVER_KEYS = ["max_iter", "step_init", "armijo_c", "armijo_shrink"]


@pytest.mark.parametrize("key", UNKNOWN_SOLVER_KEYS)
def test_verify_unknown_solver_key_exits_3(tmp_path, capsys, key):
    cfg_path = tmp_path / "verify.json"
    write_config(cfg_path, suite={"instances": ["cylinder2_quadratic_const1"],
                                  "solver": {key: 10}})
    assert main(["verify", "--config", str(cfg_path)]) == 3
    assert (f"config.suite.solver.{key}: unknown key"
            in capsys.readouterr().err)


@pytest.mark.parametrize("key", UNKNOWN_SOLVER_KEYS)
def test_minimize_unknown_solver_key_exits_3(tmp_path, capsys, key):
    cfg_path = tmp_path / "run.json"
    write_config(cfg_path, solver={"restarts": 1, key: 0.5})
    assert main(["minimize", "--config", str(cfg_path)]) == 3
    assert f"config.solver.{key}: unknown key" in capsys.readouterr().err


def test_verify_bad_suite_sections_exit_3(tmp_path, capsys):
    cfg_path = tmp_path / "verify.json"
    write_config(cfg_path, suite={"solver": {"max_iters": "abc"}})
    assert main(["verify", "--config", str(cfg_path)]) == 3
    assert "config error: config.suite.solver: " in capsys.readouterr().err
    write_config(cfg_path, suite={"solver": {"grad_tol": 0}})
    assert main(["verify", "--config", str(cfg_path)]) == 3
    assert ("config.suite.solver: grad_tol must be positive"
            in capsys.readouterr().err)
    write_config(cfg_path, suite={"annulus": {"n_r": 16}})
    assert main(["verify", "--config", str(cfg_path)]) == 3
    assert "config.suite.annulus.n_r: unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("annulus, key", [
    ({"n_t": 2}, "n_t"),
    ({"n_t": "abc"}, "n_t"),
    ({"n_t": 16.0}, "n_t"),
    ({"n_phi": 3}, "n_phi"),
    ({"n_phi": True}, "n_phi"),
    ({"kappas": "x"}, "kappas"),
    ({"kappas": []}, "kappas"),
    ({"kappas": [0.5, "1"]}, "kappas"),
    ({"kappas": [1.0, 1e400]}, "kappas"),
])
def test_verify_bad_annulus_values_exit_3(tmp_path, capsys, annulus, key):
    cfg_path = tmp_path / "verify.json"
    # 1e400 as the literal that overflows, not as the constant Infinity,
    # which ioutil.loads refuses before any section is checked
    cfg_path.write_text(json.dumps({"schema": "axisym-run/1", "suite": {
        "instances": ["annulus_pde"], "annulus": annulus}}).replace(
            "Infinity", "1e400"), encoding="utf-8")
    assert main(["verify", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")]) == 3
    assert f"config error: config.suite.annulus.{key}: " \
        in capsys.readouterr().err


def test_verify_partial_suite_sections_merge_over_defaults(tmp_path):
    # a partial grid, solver or annulus section overrides only the keys it
    # names; the others keep the suite defaults
    cfg_path = tmp_path / "verify.json"
    cfg_path.write_text(json.dumps({"schema": "axisym-run/1", "suite": {
        "instances": ["annulus_pde"], "annulus": {"n_t": 16}}}),
        encoding="utf-8")
    out = tmp_path / "annulus"
    assert main(["verify", "--config", str(cfg_path), "--out", str(out)]) == 0
    desc = ioutil.read_json(out / "cert_annulus_pde.json")["instance"]
    assert desc["config"]["suite"]["annulus"] == {
        "kappas": [0.0, 0.5, 1.0, 5.0], "n_t": 16, "n_phi": 32}

    cfg_path.write_text(json.dumps({"schema": "axisym-run/1", "suite": {
        "instances": ["cylinder2_quadratic_const1"], "grid": {"n_t": 12},
        "solver": {"restarts": 0}, "chain_fields": 1, "pw_fields": 1}}),
        encoding="utf-8")
    out = tmp_path / "cylinder"
    assert main(["verify", "--config", str(cfg_path), "--out", str(out)]) == 0
    desc = ioutil.read_json(out / "cert_cylinder2_quadratic_const1_s0.json")[
        "instance"]
    assert desc["config"]["grid"] == {"n_phi": 32, "n_t": 12}
    assert desc["config"]["solver"] == {
        "restarts": 0, "max_iters": 4000, "grad_tol": 1e-9, "seed": 0}


def test_annulus_certificate_instance_reruns_with_verify(tmp_path):
    # the annulus_pde file's instance config is a one-instance suite that
    # `axisym verify --config` reruns to the same certificate file
    cfg_path = tmp_path / "verify.json"
    cfg_path.write_text(json.dumps({"schema": "axisym-run/1", "suite": {
        "instances": ["annulus_pde"], "seeds": [3],
        "annulus": {"kappas": [0.5, 2], "n_t": 12, "n_phi": 8}}}),
        encoding="utf-8")
    first = tmp_path / "first"
    assert main(["verify", "--config", str(cfg_path),
                 "--out", str(first)]) == 0
    desc = ioutil.read_json(first / "cert_annulus_pde.json")["instance"]
    assert desc["name"] == "annulus_pde"
    rerun_path = tmp_path / "instance.json"
    rerun_path.write_text(ioutil.dumps(desc["config"]), encoding="utf-8")
    again = tmp_path / "again"
    assert main(["verify", "--config", str(rerun_path),
                 "--out", str(again)]) == 0
    assert ((again / "cert_annulus_pde.json").read_bytes()
            == (first / "cert_annulus_pde.json").read_bytes())


@pytest.mark.parametrize("section, key", [
    ({"weight": {"kind": "heavy"}}, "config.weight.kind"),
    ({"potential": {"kind": "quartic", "lam": "5"}}, "config.potential"),
], ids=["weight_kind", "potential_string"])
def test_verify_checks_kind_sections_exit_3(tmp_path, capsys, section, key):
    # verify builds the config's instance (build_run) before the suite runs
    cfg_path = tmp_path / "run.json"
    cfg = dict({"schema": "axisym-run/1"}, **section)
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["verify", "--config", str(cfg_path),
                 "--out", str(tmp_path / "o")]) == 3
    assert f"config error: {key}: " in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("section, key", [
    ({"grid": {"n_phi": 7, "n_t": 12}}, "config.grid.n_phi"),
    ({"solver": {"max_iters": -1}}, "config.solver: max_iters"),
    ({"boundary": {"kind": "dirichlet", "top": {"vector": [1, 2]}}},
     "config.boundary.top.vector"),
    ({"boundary": {"kind": "dirichlet", "variant": "sideways",
                   "top": {"vector": [0, 0, 1]}}}, "config.boundary.variant"),
    ({"aniso_field": {"kind": "symmetric_profile", "vector": [1, 2]}},
     "config.aniso_field.vector"),
    ({"base_surface": {"preset": "torus_band", "params": {"R": 1, "r": 2}}},
     "config.base_surface"),
    ({"potential": {"kind": "quartic", "lam": -1}}, "config.potential"),
], ids=["odd_n_phi", "negative_max_iters", "short_ring_vector",
        "ring_variant", "short_aniso_vector", "torus_R_below_r",
        "negative_lam"])
def test_verify_refuses_instance_values_as_minimize_does(tmp_path, capsys,
                                                         section, key):
    # verify and minimize read one config; each refuses it with one message
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(dict(
        {"schema": "axisym-run/1",
         "suite": {"instances": ["annulus_pde"],
                   "annulus": {"kappas": [1.0], "n_t": 8, "n_phi": 8}}},
        **section)), encoding="utf-8")
    errors = []
    for command in ("verify", "minimize"):
        out = tmp_path / command
        assert main([command, "--config", str(cfg_path),
                     "--out", str(out)]) == 3, command
        errors.append(capsys.readouterr().err)
        assert not out.exists(), command
    assert errors[0] == errors[1]
    assert f"config error: {key}: " in errors[0]


def test_verify_empty_seeds_exits_3(tmp_path, capsys):
    cfg_path = tmp_path / "verify.json"
    cfg_path.write_text(json.dumps({"schema": "axisym-run/1",
                                    "suite": {"seeds": []}}), encoding="utf-8")
    assert main(["verify", "--config", str(cfg_path)]) == 3
    assert "config.suite.seeds" in capsys.readouterr().err


@pytest.mark.parametrize("instances", [[]])
def test_verify_selecting_no_instance_exits_3(tmp_path, capsys, instances):
    # an unknown name is refused as such (test_verify_bad_suite_values_exit_3)
    cfg_path = tmp_path / "verify.json"
    cfg_path.write_text(json.dumps({"schema": "axisym-run/1",
                                    "suite": {"instances": instances}}),
                        encoding="utf-8")
    assert main(["verify", "--config", str(cfg_path)]) == 3
    assert ("config.suite.instances: selects no instance"
            in capsys.readouterr().err)


def test_annulus_bad_grid_exits_3(tmp_path, capsys):
    # the suite's annulus section and the flags share one rule
    for n_t, n_phi, message in (
            (2, 8, "--n-t: must lie in [3, 4096], got 2"),
            (4097, 8, "--n-t: must lie in [3, 4096], got 4097"),
            # checked before the ring data, which n_phi = 0 leaves empty
            (16, 0, "--n-phi: must lie in [4, 4096], got 0")):
        assert main(["annulus", "--n-t", str(n_t), "--n-phi", str(n_phi),
                     "--out", str(tmp_path / "ann")]) == 3
        assert f"config error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "ann").exists()


@pytest.mark.parametrize("flag, value", [
    ("--kappa", "inf"), ("--kappa", "nan"), ("--inner", "nan,0,0"),
    ("--outer", "0,0,inf"), ("--inner", "1,2"), ("--inner", "a,b,c"),
    # finite components whose squared norm overflows: the report's norms
    # of the solution would be infinite
    ("--inner", "1e200,0,0"), ("--outer", "1e154,1e154,1e154"),
])
def test_annulus_non_finite_flag_exits_3(tmp_path, capsys, flag, value):
    out = tmp_path / "ann"
    assert main(["annulus", "--n-t", "16", "--n-phi", "8", flag, value,
                 "--out", str(out)]) == 3
    assert f"config error: {flag}: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("section", [
    lambda v: {"weight": {"kind": "margin", "margin": v}},
    lambda v: {"base_surface": {"preset": "cylinder", "params": {"radius": v}}},
], ids=["weight_margin", "cylinder_radius"])
def test_non_finite_config_exits_3(tmp_path, capsys, section, constant):
    cfg_path = tmp_path / "run.json"
    write_config(cfg_path, **section(float(constant.replace("Infinity", "inf"))))
    assert constant in cfg_path.read_text()    # json.dumps writes the bare constant
    assert main(["minimize", "--config", str(cfg_path),
                 "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "config is not valid JSON" in err and constant in err


@pytest.mark.parametrize("literal", ["1e400", "-1e400", "1" + "0" * 400],
                         ids=["float", "negative", "integer"])
@pytest.mark.parametrize("section, key", [
    ({"weight": {"kind": "margin", "margin": "BIG"}}, "config.weight.margin"),
    ({"base_surface": {"preset": "cylinder", "params": {"radius": "BIG"}}},
     "config.base_surface.params.radius"),
], ids=["weight_margin", "cylinder_radius"])
def test_overflowing_config_number_exits_3(tmp_path, capsys, section, key,
                                           literal):
    # valid JSON that no double holds: json reads 1e400 as infinity and the
    # integer exactly, both without complaint
    cfg_path = tmp_path / "run.json"
    write_config(cfg_path, **section)
    cfg_path.write_text(cfg_path.read_text().replace('"BIG"', literal),
                        encoding="utf-8")
    assert main(["minimize", "--config", str(cfg_path),
                 "--out", str(tmp_path / "o")]) == 3
    assert f"config error: {key}: " in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("weight", [{"kind": "margin", "margin": 1e160},
                                    {"kind": "constant", "lam": 1e160}])
@pytest.mark.parametrize("command", ["minimize", "reduce"])
def test_weight_that_overflows_once_built_exits_3(tmp_path, capsys, command,
                                                  weight):
    # a finite weight whose W^2 (2 pi (margin / h1)^2, 2 pi lam^2) is not:
    # refused before any solve, with nothing written
    cfg_path = tmp_path / "run.json"
    write_config(cfg_path, weight=weight)
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 3
    assert "config error: config.weight: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("command", ["minimize", "reduce"])
def test_energy_that_overflows_in_the_solve_exits_2(tmp_path, capsys,
                                                    command):
    # kappa s^2 is finite at every node, but the energy of a random start
    # overflows: the solve fails as the annulus solve does, and no artifact
    # is written
    cfg_path = tmp_path / "run.json"
    write_config(cfg_path, potential={"kind": "quadratic", "kappa": 1e308},
                 solver={"restarts": 1, "max_iters": 20, "seed": 0})
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 2
    assert "error: solve non-finite: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("preset, key, value", [
    ("cylinder", "height", 1e-300), ("cylinder", "height", 5e-324),
    ("cylinder", "height", 1e160), ("cylinder", "height", 1e308),
    ("cylinder", "radius", 1e308), ("torus_band", "R", 1e308),
    ("disk", "radius", 1e-300), ("ellipsoid_band", "c", 1e308),
    ("ellipsoid_band", "c", -1e-300), ("ellipsoid_band", "c", 0.0),
    ("ellipsoid_band", "c", 5e-324)])
@pytest.mark.parametrize("command", ["minimize", "reduce"])
def test_base_surface_that_overflows_the_h1_operator_exits_3(
        tmp_path, capsys, command, preset, key, value):
    # finite mesh arrays, but the H^1 operator's edge_weights / dt^2 (or dt
    # itself) over- or underflows: an input error naming the base surface,
    # one line on stderr and nothing written
    cfg_path = tmp_path / "run.json"
    write_config(cfg_path, grid={"n_phi": 8, "n_t": 8},
                 base_surface={"preset": preset, "params": {key: value}},
                 solver={"max_iters": 2})
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error: config.base_surface: ")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("overrides, code", [
    ({"weight": {"kind": "margin", "margin": 1e160}}, 3),
    ({"potential": {"kind": "quadratic", "kappa": 1e308},
      "solver": {"restarts": 1, "max_iters": 20, "seed": 0}}, 2),
], ids=["margin", "kappa"])
@pytest.mark.parametrize("command", ["minimize", "reduce"])
def test_overflow_prints_its_message_and_no_warning(tmp_path, capsys,
                                                    command, overrides, code):
    # what overflows on the way is checked anyway (build_run's check of the
    # built arrays, the solve's end check), so numpy prints nothing first
    cfg_path = tmp_path / "run.json"
    write_config(cfg_path, grid={"n_phi": 8, "n_t": 8}, **overrides)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main([command, "--config", str(cfg_path),
                   "--out", str(tmp_path / "o")])
    assert rc == code
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err.count("\n") == 1


# numeric config keys, each as (its section, the path to it): a base and a
# target of every preset parameter's kind, every potential and weight
# value, anisotropy and Dirichlet vector components, and the tolerance
_FUZZ_SITES = [
    ({"base_surface": {"preset": "cylinder"}},
     ("base_surface", "params", "height")),
    ({"base_surface": {"preset": "cylinder"}},
     ("base_surface", "params", "radius")),
    ({"base_surface": {"preset": "annulus"}},
     ("base_surface", "params", "r_inner")),
    ({"base_surface": {"preset": "disk"}}, ("base_surface", "params", "radius")),
    ({"base_surface": {"preset": "torus_band"}},
     ("base_surface", "params", "r")),
    ({"base_surface": {"preset": "ellipsoid_band"}},
     ("base_surface", "params", "pad")),
    ({"target_surface": {"preset": "cylinder"}},
     ("target_surface", "params", "radius")),
    ({"target_surface": {"preset": "torus_band"}},
     ("target_surface", "params", "R")),
    ({"target_surface": {"preset": "ellipsoid_band"}},
     ("target_surface", "params", "c")),
    ({"potential": {"kind": "quartic"}}, ("potential", "lam")),
    ({"potential": {"kind": "easy_normal"}}, ("potential", "kappa")),
    ({}, ("potential", "kappa")),
    ({}, ("weight", "lam")),
    ({"weight": {"kind": "margin"}}, ("weight", "margin")),
    ({"aniso_field": {"kind": "antisymmetric_profile", "vector": [0, 0, 1]}},
     ("aniso_field", "vector", 0)),
    ({"boundary": {"kind": "dirichlet", "top": {"vector": [0, 0, 1]}}},
     ("boundary", "top", "vector", 2)),
    ({}, ("solver", "grad_tol")),
]


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(site=st.sampled_from(_FUZZ_SITES),
       value=st.sampled_from([1e308, -1e308, 1e160, 1e-300, -1e-300,
                              5e-324, 0.0]),
       command=st.sampled_from(["minimize", "reduce"]))
def test_extreme_config_value_exits_0_2_or_3(tmp_path_factory, site, value,
                                             command):
    # one numeric key at a time at an extreme value: a result, a failed
    # solve or an input error, never a traceback
    section, path = site
    cfg_path = tmp_path_factory.mktemp("fuzz") / "run.json"
    cfg = write_config(cfg_path, grid={"n_phi": 8, "n_t": 8},
                       solver={"restarts": 1, "max_iters": 2, "seed": 0},
                       **copy.deepcopy(section))
    node = cfg
    for key in path[:-1]:
        node = node.setdefault(key, {})
    node[path[-1]] = value
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        rc = main([command, "--config", str(cfg_path),
                   "--out", str(cfg_path.parent / "o")])
    assert rc in (0, 2, 3)


@pytest.mark.parametrize("section, key", [
    ({"aniso_field": {"kind": "symmetric_profile", "vector": [1, 2]}},
     "config.aniso_field.vector"),
    ({"aniso_field": {"kind": "symmetric_profile", "vector": "abc"}},
     "config.aniso_field.vector"),
    ({"aniso_field": {"kind": "symmetric_profile", "vector": [1, 2, [3]]}},
     "config.aniso_field.vector"),
    ({"boundary": {"kind": "dirichlet", "top": {"vector": [1, 2]}}},
     "config.boundary.top.vector"),
    ({"boundary": {"kind": "dirichlet", "top": {"vector": "abc"}}},
     "config.boundary.top.vector"),
    ({"boundary": {"kind": "dirichlet", "variant": "sideways",
                   "top": {"vector": [0, 0, 1]}}}, "config.boundary.variant"),
    ({"boundary": {"kind": "dirichlet",
                   "bottom": {"vector": [0, 0, 1], "variant": "sideways"}}},
     "config.boundary.bottom.variant"),
    ({"boundary": {"kind": "dirichlet",
                   "top": {"vector": [0, 0, 1], "variant": "antisymmetric"}}},
     "config.boundary.top.variant"),
    ({"potential": {"kind": "quartic", "lam": [1]}}, "config.potential"),
    ({"weight": {"kind": "constant", "lam": [1]}}, "config.weight"),
    ({"potential": {"kind": "quartic", "lam": "5"}}, "config.potential"),
    ({"weight": {"kind": "margin", "margin": True}}, "config.weight"),
    ({"target_surface": {"spline_table": "curve.csv", "closed": "no"}},
     "config.target_surface.closed"),
    ({"potential": {"kind": "cubic"}}, "config.potential.kind"),
    ({"aniso_field": {"kind": "radial"}}, "config.aniso_field.kind"),
    ({"weight": {"kind": "heavy"}}, "config.weight.kind"),
    ({"weight": {"kind": "general", "table": "omega.csv"}},
     "config.weight.kind"),
    ({"boundary": {"kind": "fixed"}}, "config.boundary.kind"),
    ({"potential": {"kind": "table"}}, "config.potential.table"),
    ({"weight": {"kind": "t_profile"}}, "config.weight.table"),
    ({"boundary": {"kind": "dirichlet", "top": {}}},
     "config.boundary.top.vector"),
    ({"aniso_field": {"kind": "symmetric_profile", "vector": [0, 0, 1],
                      "table": "missing.csv"}}, "config.aniso_field"),
    ({"aniso_field": {"kind": "antisymmetric_profile"}}, "config.aniso_field"),
    ({"base_surface": {"params": {"radius": 2.0}}}, "config.base_surface"),
    ({"potential": {"kind": "table", "table": "no_such_table.csv"}},
     "config.potential"),
    ({"weight": {"kind": "t_profile", "table": os.devnull}}, "config.weight"),
    # a number given as a path would open a file descriptor (0 is stdin)
    ({"potential": {"kind": "table", "table": 5}}, "config.potential.table"),
    ({"potential": {"kind": "table", "table": 0}}, "config.potential.table"),
    ({"weight": {"kind": "t_profile", "table": True}}, "config.weight.table"),
    ({"aniso_field": {"kind": "symmetric_profile", "table": 0}},
     "config.aniso_field.table"),
    ({"target_surface": {"spline_table": 0}},
     "config.target_surface.spline_table"),
    ({"prior_2d": 5}, "config.prior_2d"),
    ({"input_field": 0}, "config.input_field"),
    ({"outputs": ["o"]}, "config.outputs"),
], ids=["aniso_short", "aniso_string", "aniso_nested", "top_short",
        "top_string", "variant", "side_variant", "side_variant_axial",
        "potential_list", "weight_list", "potential_string",
        "weight_boolean", "closed_string", "potential_kind", "aniso_kind",
        "weight_kind", "weight_general", "boundary_kind", "potential_table",
        "weight_table", "top_vector", "profile_both", "profile_neither",
        "surface_no_curve", "table_missing", "table_empty",
        "potential_table_number", "potential_table_stdin",
        "weight_table_boolean", "profile_table_number",
        "spline_table_number", "prior_2d_number", "input_field_number",
        "outputs_list"])
def test_bad_config_value_exits_3(tmp_path, capsys, section, key):
    # a malformed value is a config error naming its key, never a traceback
    # (exit 1 is a failed certificate) and never run as something else
    cfg_path = tmp_path / "run.json"
    write_config(cfg_path, **section)
    assert main(["minimize", "--config", str(cfg_path),
                 "--out", str(tmp_path / "o")]) == 3
    assert f"config error: {key}: " in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("section, key", [
    ({"potential": {"kind": "quartic", "kappa": 5}}, "config.potential.kappa"),
    ({"weight": {"kind": "margin", "lam": 3}}, "config.weight.lam"),
    ({"aniso_field": {"kind": "surface_normal", "vector": [1, 0, 0]}},
     "config.aniso_field.vector"),
    ({"boundary": {"kind": "free", "top": {"vector": [0, 0, 1]}}},
     "config.boundary.top"),
    ({"base_surface": {"preset": "sphere", "closed": True}},
     "config.base_surface.closed"),
    ({"target_surface": {"preset": "sphere", "spline_table": "curve.csv"}},
     "config.target_surface.preset"),
], ids=["potential", "weight", "aniso", "boundary", "preset_closed",
        "preset_and_spline"])
def test_key_of_another_kind_exits_3(tmp_path, capsys, section, key):
    # a key that another kind of its section takes would be ignored, so
    # the run would not be the one the config describes
    cfg_path = tmp_path / "run.json"
    write_config(cfg_path, **section)
    assert main(["minimize", "--config", str(cfg_path),
                 "--out", str(tmp_path / "o")]) == 3
    assert (f"config error: {key}: not a key of kind "
            in capsys.readouterr().err)
    assert not (tmp_path / "o").exists()


def test_anisotropy_table_profile(tmp_path):
    # a constant (t, ax, ay, az) table gives the field of its vector
    table = tmp_path / "a.csv"
    table.write_text("t,ax,ay,az\n-1,0.6,0,0.8\n2,0.6,0,0.8\n",
                     encoding="utf-8")
    fields = [build_run(write_config(
        tmp_path / "run.json", aniso_field={"kind": "antisymmetric_profile",
                                            key: value}))[2].aniso
        for key, value in (("table", str(table)), ("vector", [0.6, 0, 0.8]))]
    np.testing.assert_array_equal(fields[0].node_values, fields[1].node_values)
    assert fields[0].variant == fields[1].variant == "antisymmetric"


def test_anisotropy_table_error_names_section(tmp_path, capsys):
    table = tmp_path / "a.csv"
    table.write_text("t,ax,ay,az\n0,1,0,0\n0.5,nan,0,0\n1,1,0,0\n",
                     encoding="utf-8")
    cfg_path = tmp_path / "run.json"
    write_config(cfg_path, aniso_field={"kind": "symmetric_profile",
                                        "table": str(table)})
    assert main(["minimize", "--config", str(cfg_path),
                 "--out", str(tmp_path / "o")]) == 3
    assert (f"config error: config.aniso_field: table {table}: data row 2: "
            f"ax 'nan' is not finite" in capsys.readouterr().err)


def _omega_table(path, omega):
    t = np.linspace(-0.5, 1.5, 41)     # covers the cylinder's t in (0, 1)
    path.write_text("t,omega\n" + "".join(
        "%.17g,%.17g\n" % row for row in zip(t, omega(t))), encoding="utf-8")


@pytest.mark.parametrize("kind", ["t_profile"])
def test_weight_table_kinds(tmp_path, capsys, kind):
    # a table kind reads a (t, omega) CSV: W2 = 2 pi omega(t)^2 at the mesh
    # nodes
    table = tmp_path / "omega.csv"
    _omega_table(table, lambda t: 1.0 + 0.3 * np.sin(3 * t))
    cfg = write_config(tmp_path / "run.json",
                       weight={"kind": kind, "table": str(table)})
    mesh, _, params, _ = build_run(cfg)
    expected = 2 * np.pi * np.interp(mesh.t, *np.loadtxt(
        table, delimiter=",", skiprows=1).T) ** 2
    np.testing.assert_allclose(params.weight.W2, expected, rtol=1e-14, atol=0)
    for omega in (lambda t: 0.5 - t,             # negative above t = 0.5
                  lambda t: np.where(t > 0.5, np.nan, 1.0)):
        _omega_table(table, omega)
        assert main(["minimize", "--config", str(tmp_path / "run.json"),
                     "--out", str(tmp_path / "o")]) == 3
        assert "config error: config.weight: " in capsys.readouterr().err


def _fresh_python(args, cwd):
    """Run `python args` in a fresh interpreter that imports axisym from
    this checkout's sources."""
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, cwd=cwd)


_NO_SCIPY_RUNS_SCRIPT = """
import sys
sys.modules["scipy"] = None          # any scipy import now fails
from axisym.cli import main

for argv, codes in (
        (["minimize", "--config", "run.json", "--out", "min"], (0,)),
        (["minimize", "--config", "rows72.json", "--out", "min72"], (0, 2)),
        (["reduce", "--config", "rows72.json", "--out", "red72"], (0, 2)),
        (["verify", "--config", "verify.json", "--out", "verify"], (0,)),
        (["annulus", "--n-t", "16", "--n-phi", "8", "--out", "ann"], (0,)),
        (["minimize", "--config", "spline.json", "--out", "spline"], (0, 2)),
        (["reduce", "--config", "spline.json", "--out", "spline_red"], (0, 2)),
        (["minimize", "--config", "loop.json", "--out", "loop"], (0, 2)),
        (["minimize", "--config", "ladder.json", "--out", "ladder"], (0, 2))):
    rc = main(argv)
    assert rc in codes, (argv, rc)
"""


def test_no_run_loads_scipy(tmp_path):
    # a fresh interpreter with scipy blocked runs minimize, verify and
    # annulus on presets, minimize and reduce on a preset sphere at 72
    # meridian rows, minimize and reduce on spline tables (an open target,
    # a closed one) with a table potential, and a 32 x 32 minimize on the
    # closed one whose random restart descends on 16 x 16 first; the
    # splines agree with scipy's CubicSpline, which the tests alone use, to
    # rounding
    from scipy.interpolate import CubicSpline

    write_config(tmp_path / "run.json")
    write_config(tmp_path / "rows72.json", base_surface={"preset": "sphere"},
                 grid={"n_phi": 16, "n_t": 72},
                 potential={"kind": "quartic", "lam": 5.0},
                 aniso_field={"kind": "surface_normal"},
                 weight={"kind": "margin", "margin": 1.5},
                 solver={"restarts": 0, "max_iters": 60, "seed": 0})
    (tmp_path / "verify.json").write_text(json.dumps({
        "schema": "axisym-run/1", "suite": {
            "instances": ["cylinder2_quadratic_const1"],
            "grid": {"n_phi": 8, "n_t": 8}, "chain_fields": 2,
            "pw_fields": 1}}), encoding="utf-8")
    t = np.linspace(0.0, np.pi, 21)
    (tmp_path / "curve.csv").write_text("t,x,z\n" + "".join(
        "%.17g,%.17g,%.17g\n" % row
        for row in zip(t, 1.2 + np.sin(t), 1.5 * np.cos(t))), encoding="utf-8")
    u = np.linspace(0.0, 2 * np.pi, 25)
    (tmp_path / "loop.csv").write_text("t,x,z\n" + "".join(
        "%.17g,%.17g,%.17g\n" % row
        for row in zip(u, 2 + 0.7 * np.cos(u), 0.9 * np.sin(u))),
        encoding="utf-8")
    s = np.linspace(-3.0, 3.0, 25)
    (tmp_path / "potential.csv").write_text("s,g\n" + "".join(
        "%.17g,%.17g\n" % row for row in zip(s, (1 - s ** 2) ** 2)),
        encoding="utf-8")
    table = {"kind": "table", "table": str(tmp_path / "potential.csv")}
    write_config(tmp_path / "spline.json",
                 target_surface={"spline_table": str(tmp_path / "curve.csv")},
                 potential=table)
    write_config(tmp_path / "loop.json",
                 target_surface={"spline_table": str(tmp_path / "loop.csv"),
                                 "closed": True},
                 potential=table, solver={"restarts": 0, "max_iters": 100,
                                          "seed": 0})
    write_config(tmp_path / "ladder.json", grid={"n_phi": 32, "n_t": 32},
                 target_surface={"spline_table": str(tmp_path / "loop.csv"),
                                 "closed": True},
                 solver={"restarts": 1, "max_iters": 200, "seed": 0})
    proc = _fresh_python(["-c", _NO_SCIPY_RUNS_SCRIPT], tmp_path)
    assert proc.returncode == 0, proc.stderr
    for name in ("min", "spline", "loop"):
        assert (tmp_path / name / "field.csv").stat().st_size > 0, name
    for name in ("min72/field.csv", "min72/report.json",
                 "red72/profile_symmetric.csv",
                 "red72/profile_antisymmetric.csv",
                 "red72/reduce_report.json"):
        assert (tmp_path / name).exists(), name
    coarse = ioutil.read_json(tmp_path / "ladder" / "report.json")[
        "coarse_iterations"]
    assert coarse[0][0][:2] == [16, 16] and coarse[1:] == [[], []], coarse

    _, open_target, params, _ = build_run(ioutil.read_json(
        tmp_path / "spline.json"))
    _, loop_target, _, _ = build_run(ioutil.read_json(tmp_path / "loop.json"))
    tp = np.linspace(t[0] - 0.3, t[-1] + 0.3, 97)      # ends extrapolate
    up = np.linspace(u[0], u[-1], 97)
    for curve, knots, x, z, bc, probe in (
            (open_target, t, 1.2 + np.sin(t), 1.5 * np.cos(t),
             "not-a-knot", tp),
            (loop_target, u, 2 + 0.7 * np.cos(u), 0.9 * np.sin(u),
             "periodic", up)):
        sx, sz = (CubicSpline(knots, v, bc_type=bc) for v in (x, z))
        for ours, ref in zip(curve.jet(probe),
                             (sx, sz, sx.derivative(), sz.derivative())):
            np.testing.assert_allclose(ours, ref(probe), rtol=1e-13,
                                       atol=1e-13)
    sg = CubicSpline(s, (1 - s ** 2) ** 2)
    sp = np.linspace(-3.3, 3.3, 97)
    np.testing.assert_allclose(params.potential.g(sp), sg(sp), rtol=1e-13)
    np.testing.assert_allclose(params.potential.dg(sp), sg.derivative()(sp),
                               rtol=1e-13, atol=1e-13)


_TWO_ROW_TABLE_SCRIPT = """
import sys
from axisym.cli import main
sys.exit(main(["minimize", "--config", "run.json", "--out", "min"]))
"""


def test_two_row_table_potential_runs_without_warnings(tmp_path):
    # a two-row table has no second difference to test for kinks; its
    # median was a numpy warning (an error under -W error)
    (tmp_path / "g.csv").write_text("s,g\n-1,1\n1,1\n", encoding="utf-8")
    write_config(tmp_path / "run.json",
                 potential={"kind": "table", "table": "g.csv"})
    proc = _fresh_python(["-W", "error", "-c", _TWO_ROW_TABLE_SCRIPT],
                         tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def test_module_entry_point_has_no_runpy_warning():
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "axisym.cli",
         "annulus", "--help"], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" not in proc.stderr


# a suite that runs one small annulus solve: its other settings are only
# checked, so a bad value that slips through runs in well under a second
_ANNULUS_SUITE = {"instances": ["annulus_pde"],
                  "annulus": {"kappas": [0.0], "n_t": 8, "n_phi": 8}}


@pytest.mark.parametrize("command, section, argv, where", [
    ("minimize", {"solver": {"max_iters": -5}}, [], "config.solver: "),
    ("minimize", {"solver": {"seed": -1}}, [], "config.solver: "),
    ("minimize", {"solver": {"restarts": 1.7}}, [], "config.solver: "),
    ("minimize", {"solver": {"max_iters": True}}, [], "config.solver: "),
    ("minimize", {"solver": {"restarts": "2"}}, [], "config.solver: "),
    ("minimize", {}, ["--seed", "-3"], "--seed: "),
    ("verify", {"suite": dict(_ANNULUS_SUITE, solver={"max_iters": -5})}, [],
     "config.suite.solver: "),
    ("verify", {"suite": dict(_ANNULUS_SUITE, solver={"seed": -1})}, [],
     "config.suite.solver: "),
    ("verify", {"suite": dict(_ANNULUS_SUITE, solver={"restarts": 1.7})}, [],
     "config.suite.solver: "),
    ("verify", {"suite": _ANNULUS_SUITE}, ["--seed", "-3"], "--seed: "),
], ids=["max_iters_negative", "seed_negative", "restarts_float",
        "max_iters_bool", "restarts_string", "seed_flag_minimize",
        "suite_max_iters_negative", "suite_seed_negative",
        "suite_restarts_float", "seed_flag_verify"])
def test_solver_integers_refused_exit_3(tmp_path, capsys, command, section,
                                        argv, where):
    # max_iters, restarts and seed are non-negative integers: a float is
    # not truncated, -5 does not lift the iteration cap, and a negative
    # seed is a config error, not a numpy traceback
    cfg_path = tmp_path / "run.json"
    write_config(cfg_path, **section)
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg_path), "--out", str(out)]
                + argv) == 3
    assert f"config error: {where}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("suite, key", [
    ({"seeds": ["x"]}, "seeds"),
    ({"seeds": [1.5]}, "seeds"),
    ({"seeds": [-1]}, "seeds"),
    ({"seeds": 3}, "seeds"),
    ({"seeds": [True]}, "seeds"),
    # a repeated seed would solve its instances twice and repeat its corpus
    ({"seeds": [0, 0]}, "seeds"),
    ({"chain_fields": "a"}, "chain_fields"),
    ({"chain_fields": -1}, "chain_fields"),
    ({"pw_fields": 2.5}, "pw_fields"),
    ({"instances": ["annulus_pde", 5]}, "instances"),
    ({"instances": ["annulus_pde", "sphere_quartic_margn"]}, "instances"),
    ({"solver": {"seed": 5}}, "solver"),
    # past CORPUS_STRIDE fields a corpus would reuse the next seed's seeds
    ({"chain_fields": 10_001}, "chain_fields"),
    ({"pw_fields": 10_001}, "pw_fields"),
    ({"instances": ["no_such_instance"]}, "instances"),
], ids=["seed_string", "seed_float", "seed_negative", "seeds_not_list",
        "seed_bool", "seed_repeated", "chain_fields_string",
        "chain_fields_negative", "pw_fields_float", "instance_number",
        "instance_misspelt",
        "solver_seed", "chain_fields_too_many", "pw_fields_too_many",
        "instance_unknown"])
def test_verify_bad_suite_values_exit_3(tmp_path, capsys, suite, key):
    cfg_path = tmp_path / "verify.json"
    cfg_path.write_text(json.dumps({"schema": "axisym-run/1",
                                    "suite": dict(_ANNULUS_SUITE, **suite)}),
                        encoding="utf-8")
    out = tmp_path / "o"
    assert main(["verify", "--config", str(cfg_path), "--out", str(out)]) == 3
    assert f"config error: config.suite.{key}: " in capsys.readouterr().err
    assert not out.exists()


def test_config_not_utf8_exits_3(tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_bytes(b'{"schema": "axisym-run/1", "outputs": "\xff"}')
    assert main(["minimize", "--config", str(cfg_path)]) == 3
    assert "config error: config is not valid JSON" in capsys.readouterr().err


def test_base_curve_through_axis_names_base_surface(tmp_path, capsys):
    # x = (t - 1)^2 meets the axis inside [0, 2]: the curve is at fault,
    # not the grid
    t = np.linspace(0.0, 2.0, 21)
    table = tmp_path / "curve.csv"
    table.write_text("t,x,z\n" + "".join(
        "%.17g,%.17g,%.17g\n" % (v, (v - 1) ** 2, v) for v in t),
        encoding="utf-8")
    cfg_path = tmp_path / "run.json"
    write_config(cfg_path, base_surface={"spline_table": str(table)})
    assert main(["minimize", "--config", str(cfg_path),
                 "--out", str(tmp_path / "o")]) == 3
    assert ("config error: config.base_surface: curve meets the e3-axis"
            in capsys.readouterr().err)


def _dirichlet_reduce(tmp_path, top):
    """minimize, then reduce against it, on the cylinder with the top ring
    pinned to the sweep of `top`; returns the reduce report."""
    boundary = {"kind": "dirichlet", "top": {"vector": top}}
    write_config(tmp_path / "min.json", boundary=boundary)
    assert main(["minimize", "--config", str(tmp_path / "min.json"),
                 "--out", str(tmp_path / "min")]) == 0
    write_config(tmp_path / "red.json", boundary=boundary,
                 prior_2d=str(tmp_path / "min"))
    assert main(["reduce", "--config", str(tmp_path / "red.json"),
                 "--out", str(tmp_path / "red")]) == 0
    return ioutil.loads((tmp_path / "red" / "reduce_report.json").read_text())


def test_reduce_honours_dirichlet_rows(tmp_path):
    # top pinned to e3: the swept minimum is the 2D one, E = 4 pi (a free
    # top would let the profile lie flat at E = pi)
    report = _dirichlet_reduce(tmp_path, [0.0, 0.0, 1.0])
    comparison = report["comparison"]
    assert comparison["relative_gap"] < 1e-9
    assert abs(comparison["energy_1d"] - 4 * np.pi) < 1e-6
    for variant in ("symmetric", "antisymmetric"):
        values = ioutil.read_csv(tmp_path / "red" / f"profile_{variant}.csv",
                                 ["gx", "gy", "gz"])
        assert values[-1].tolist() == [0.0, 0.0, 1.0]


def test_reduce_skips_variant_that_misses_the_ring(tmp_path):
    # e1 swept by the symmetric law: no antisymmetric profile reaches it,
    # so that variant is flagged, writes no profile and is not compared
    report = _dirichlet_reduce(tmp_path, [1.0, 0.0, 0.0])
    assert "antisymmetric" not in report
    assert "not antisymmetric" in report["antisymmetric_skipped"]
    assert report["comparison"]["best_variant"] == "symmetric"
    assert report["comparison"]["relative_gap"] < 1e-9
    assert not (tmp_path / "red" / "profile_antisymmetric.csv").exists()
    values = ioutil.read_csv(tmp_path / "red" / "profile_symmetric.csv",
                             ["gx", "gy", "gz"])
    assert values[-1].tolist() == [1.0, 0.0, 0.0]


@pytest.fixture(scope="module")
def minimize_16x12(tmp_path_factory):
    """The artifact directory of a minimize on write_config's 16x12 grid."""
    work = tmp_path_factory.mktemp("min16x12")
    write_config(work / "run.json")
    assert main(["minimize", "--config", str(work / "run.json"),
                 "--out", str(work / "min")]) == 0
    return work / "min"


@pytest.mark.parametrize("grid", [{"n_phi": 8, "n_t": 8},
                                  {"n_phi": 32, "n_t": 24}])
@pytest.mark.parametrize("command, key", [("reduce", "prior_2d"),
                                          ("symmetrize", "input_field")])
def test_field_csv_from_another_grid_exits_3(tmp_path, capsys, minimize_16x12,
                                             grid, command, key):
    # a smaller grid's rows ran off the array (IndexError); a larger grid
    # was compared against nodes left at zero
    source = minimize_16x12 if key == "prior_2d" \
        else minimize_16x12 / "field.csv"
    write_config(tmp_path / "run.json", grid=grid,
                 solver={"restarts": 0, "max_iters": 200, "seed": 0},
                 **{key: str(source)})
    assert main([command, "--config", str(tmp_path / "run.json"),
                 "--out", str(tmp_path / "o")]) == 3
    assert f"config error: config.{key}: " in capsys.readouterr().err


def test_reduce_scores_prior_under_its_own_config(tmp_path):
    # without the ring-mean penalty the 2D minimum is a constant horizontal
    # field (E ~ 0); reduced under lam = 1, E_2D is that field's energy
    # under the reducing config, penalty included, not the prior's total
    write_config(tmp_path / "zero.json", weight={"kind": "zero"},
                 solver={"restarts": 1, "max_iters": 300, "seed": 0})
    assert main(["minimize", "--config", str(tmp_path / "zero.json"),
                 "--out", str(tmp_path / "min")]) == 0
    cfg = write_config(tmp_path / "run.json", prior_2d=str(tmp_path / "min"),
                       solver={"restarts": 0, "max_iters": 200, "seed": 0})
    assert main(["reduce", "--config", str(tmp_path / "run.json"),
                 "--out", str(tmp_path / "red")]) == 0
    comparison = ioutil.read_json(tmp_path / "red" / "reduce_report.json")[
        "comparison"]
    mesh, target, params, _ = build_run(cfg)
    prior = fields.field_from_csv(tmp_path / "min" / "field.csv", mesh,
                                  target, params.boundary)
    assert comparison["energy_2d"] == total_energy(prior, params).total
    assert ioutil.read_json(tmp_path / "min" / "breakdown.json")["total"] < 1e-9
    assert comparison["energy_2d"] > 1


def _mutated_field_csv(source, dest, mutation):
    """source's field.csv with its fifth data row cut short or its mx cell
    overflowing to inf."""
    lines = source.read_text(encoding="utf-8").splitlines()
    row = next(k for k, ln in enumerate(lines) if ln[0].isdigit()) + 4
    cells = lines[row].split(",")
    lines[row] = ",".join(cells[:-1] if mutation == "short"
                          else cells[:4] + ["1e400"] + cells[5:])
    dest.write_text("\n".join(lines) + "\n", encoding="utf-8")


_BAD_CELLS = [("short", "data row 5 has no mz cell"),
              ("overflow", "data row 5: mx '1e400' is not finite")]


@pytest.mark.parametrize("mutation, message", _BAD_CELLS)
def test_symmetrize_bad_input_field_cell_exits_3(tmp_path, capsys,
                                                  minimize_16x12, mutation,
                                                  message):
    # a short row handed None to float() (TypeError, exit 1); a 1e400 cell
    # was read as inf and symmetrized
    _mutated_field_csv(minimize_16x12 / "field.csv", tmp_path / "in.csv",
                       mutation)
    write_config(tmp_path / "run.json", input_field=str(tmp_path / "in.csv"))
    assert main(["symmetrize", "--config", str(tmp_path / "run.json"),
                 "--out", str(tmp_path / "o")]) == 3
    assert (f"config error: config.input_field: {message}"
            in capsys.readouterr().err)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("mutation, message", _BAD_CELLS)
def test_reduce_bad_prior_field_cell_exits_3(tmp_path, capsys, minimize_16x12,
                                             mutation, message):
    prior = tmp_path / "prior"
    prior.mkdir()
    _mutated_field_csv(minimize_16x12 / "field.csv", prior / "field.csv",
                       mutation)
    write_config(tmp_path / "run.json", prior_2d=str(prior))
    assert main(["reduce", "--config", str(tmp_path / "run.json"),
                 "--out", str(tmp_path / "o")]) == 3
    assert (f"config error: config.prior_2d: {message}"
            in capsys.readouterr().err)
    assert not (tmp_path / "o").exists()


# ---------------------------------------------------------------------------
# CSV inputs: the four tables, input_field and prior_2d
# ---------------------------------------------------------------------------

def _write_table(path, header, columns):
    path.write_text(header + "\n" + "".join(
        ",".join("%.17g" % v for v in row) + "\n" for row in zip(*columns)),
        encoding="utf-8")


def _csv_input(work, name, minimize_16x12):
    """(command, config path, CSV file, config section) of a run of the
    16x12 config that reads one valid CSV input: the spline_table of the
    target, a potential, anisotropy or weight table, input_field or the
    field.csv of prior_2d."""
    csv_path, keys = work / "in.csv", {}
    command, section = "minimize", name
    if name == "target_surface":
        t = np.linspace(0, np.pi, 21)
        _write_table(csv_path, "t,x,z", (t, 1.2 + np.sin(t), 1.5 * np.cos(t)))
        keys = {name: {"spline_table": str(csv_path)}}
    elif name == "potential":
        s = np.linspace(-3, 3, 25)
        _write_table(csv_path, "s,g", (s, (1 - s ** 2) ** 2))
        keys = {name: {"kind": "table", "table": str(csv_path)}}
    elif name == "aniso_field":
        t = np.linspace(-1, 2, 5)
        _write_table(csv_path, "t,ax,ay,az", (t, 0.6 + 0 * t, 0 * t, 0.8 + 0 * t))
        keys = {name: {"kind": "symmetric_profile", "table": str(csv_path)}}
    elif name == "weight":
        t = np.linspace(-0.5, 1.5, 41)
        _write_table(csv_path, "t,omega", (t, 1 + 0.3 * np.sin(3 * t)))
        keys = {name: {"kind": "t_profile", "table": str(csv_path)}}
    elif name == "input_field":
        command = "symmetrize"
        csv_path.write_bytes((minimize_16x12 / "field.csv").read_bytes())
        keys = {name: str(csv_path)}
    else:
        command, prior = "reduce", work / "prior"
        prior.mkdir()
        csv_path, keys = prior / "field.csv", {name: str(prior)}
        csv_path.write_bytes((minimize_16x12 / "field.csv").read_bytes())
    cfg_path = work / "run.json"
    write_config(cfg_path, solver={"restarts": 1, "max_iters": 2, "seed": 0},
                 **keys)
    return command, cfg_path, csv_path, f"config.{section}"


_CSV_INPUTS = ["target_surface", "potential", "aniso_field", "weight",
               "input_field", "prior_2d"]


def _mutate_csv(path, mutation):
    """path's CSV with one mutation, mostly of its second data row."""
    lines = path.read_bytes().split(b"\n")
    head = next(k for k, ln in enumerate(lines) if not ln.startswith(b"#"))
    row = head + 2
    cells = lines[row].split(b",")
    if mutation == "short row":
        cells = cells[:-1]
    elif mutation == "long row":
        cells.append(b"1")
    elif mutation == "word":
        cells[0] = b"word"
    elif mutation == "nul":
        cells[0] += b"\x00"
    elif mutation == "long cell":
        cells[0] = b"1" * 200_000
    elif mutation in ("1e400", "nan"):
        cells[-1] = mutation.encode()
    elif mutation == "off-target value":
        cells[-1] = b"7.5"
    lines[row] = b",".join(cells)
    if mutation == "header only":
        lines = lines[:head + 1] + [b""]
    elif mutation == "bom":
        lines[0] = b"\xef\xbb\xbf" + lines[0]
    elif mutation == "binary":
        lines[row] = b"\x89PNG\r\x1a\xff\xfe\x81"
    elif mutation == "duplicated node":
        lines.insert(row, lines[row])
    path.write_bytes(b"\n".join(lines))


def _run(command, cfg_path, out):
    """(exit code, stderr) of main, stdout discarded."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        rc = main([command, "--config", str(cfg_path), "--out", str(out)])
    return rc, err.getvalue()


@pytest.mark.parametrize("mutation", ["long cell", "nul"])
@pytest.mark.parametrize("name", _CSV_INPUTS)
def test_csv_input_with_a_long_cell_or_nul_exits_3(tmp_path, minimize_16x12,
                                                   name, mutation):
    # a cell beyond the csv module's field limit ended in a traceback
    # (_csv.Error), as a NUL byte does on Python 3.10
    command, cfg_path, csv_path, section = _csv_input(tmp_path, name,
                                                      minimize_16x12)
    _mutate_csv(csv_path, mutation)
    rc, err = _run(command, cfg_path, tmp_path / "o")
    assert rc == 3
    assert err.startswith(f"config error: {section}: ")
    assert err.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("mutation, message", [
    ("duplicated node", "data row 3: node (0, 1) is listed twice"),
    ("off-target value", "node (0, 1): (mx, my, mz) lies "),
    ("scaled", "node (0, 0): (mx, my, mz) lies 1 from the target")])
@pytest.mark.parametrize("name", ["input_field", "prior_2d"])
def test_field_csv_that_is_not_a_field_on_the_target_exits_3(
        tmp_path, minimize_16x12, name, mutation, message):
    # a node listed twice was read as its last row; a field scaled x2 on
    # the unit sphere was symmetrized and certified
    command, cfg_path, csv_path, section = _csv_input(tmp_path, name,
                                                      minimize_16x12)
    if mutation == "scaled":
        head, body = csv_path.read_text(encoding="utf-8").split("mz\n")
        rows = [ln.split(",") for ln in body.splitlines()]
        csv_path.write_text(head + "mz\n" + "".join(",".join(
            r[:4] + ["%.17g" % (2 * float(v)) for v in r[4:]]) + "\n"
            for r in rows), encoding="utf-8")
    else:
        _mutate_csv(csv_path, mutation)
    rc, err = _run(command, cfg_path, tmp_path / "o")
    assert rc == 3
    assert err.startswith(f"config error: {section}: {message}")
    assert err.count("\n") == 1
    assert not (tmp_path / "o").exists()


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(name=st.sampled_from(_CSV_INPUTS),
       mutation=st.sampled_from(["short row", "long row", "word", "header only",
                                 "bom", "binary", "nul", "long cell", "1e400",
                                 "nan", "duplicated node", "off-target value"]))
def test_mutated_csv_input_exits_0_2_or_3(tmp_path_factory, minimize_16x12,
                                          name, mutation):
    # one mutation of one CSV input: a result, a failed solve or an input
    # error with one line on stderr, never a traceback
    work = tmp_path_factory.mktemp("csv")
    command, cfg_path, csv_path, section = _csv_input(work, name,
                                                      minimize_16x12)
    _mutate_csv(csv_path, mutation)
    rc, err = _run(command, cfg_path, work / "o")
    assert rc in (0, 2, 3)
    assert err.count("\n") <= 1
    if rc == 3:
        assert err.startswith(f"config error: {section}: ")
        assert not (work / "o").exists()


@pytest.mark.parametrize("command, key", [("reduce", "prior_2d"),
                                          ("symmetrize", "input_field")])
def test_field_csv_with_pinned_rows_off_the_target_is_read(tmp_path, command,
                                                           key):
    # minimize pins Dirichlet rows as they are, here off the unit sphere, and
    # the field.csv it writes is read back; a free row off the target is not
    boundary = {"kind": "dirichlet", "top": {"vector": [0, 0, 2]}}
    cfg_path = tmp_path / "run.json"
    write_config(cfg_path, boundary=boundary,
                 solver={"restarts": 1, "max_iters": 20, "seed": 0})
    prior = tmp_path / "min"
    assert _run("minimize", cfg_path, prior)[0] in (0, 2)
    src = prior if key == "prior_2d" else prior / "field.csv"
    write_config(cfg_path, boundary=boundary, **{key: str(src)},
                 solver={"restarts": 1, "max_iters": 20, "seed": 0})
    rc, err = _run(command, cfg_path, tmp_path / "o")
    assert rc in (0, 2) and err == ""
    _mutate_csv(prior / "field.csv", "off-target value")
    rc, err = _run(command, cfg_path, tmp_path / "o2")
    assert rc == 3
    assert err.startswith(f"config error: config.{key}: node (0, 1): "
                          f"(mx, my, mz) lies ")
    assert not (tmp_path / "o2").exists()


@pytest.mark.parametrize("argv, flag", [
    (["minimize", "--config", "run.json", "--seed", "abc"], "--seed"),
    (["minimize", "--config", "run.json", "--seed", "1.5"], "--seed"),
    (["annulus", "--n-t", "x"], "--n-t"),
    (["annulus", "--kappa", "x"], "--kappa"),
    (["minimize", "--config", "run.json", "--no-such-flag"], "--no-such-flag"),
    (["no-such-command"], "no-such-command"),
    ([], "command"),
    (["minimize"], "--config"),
    (["reduce"], "--config"),
    (["symmetrize"], "--config"),
], ids=["seed_word", "seed_fraction", "annulus_n_t", "annulus_kappa",
        "unknown_flag", "unknown_command", "no_command", "minimize_no_config",
        "reduce_no_config", "symmetrize_no_config"])
def test_flag_that_argparse_refuses_exits_3(tmp_path, capsys, monkeypatch,
                                            argv, flag):
    # argparse's own exit code, 2, is the code of a solve that did not
    # converge
    monkeypatch.chdir(tmp_path)
    write_config(tmp_path / "run.json")
    assert main(argv) == 3
    assert flag in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["run.json"]


@pytest.mark.parametrize("argv", [["--help"], ["minimize", "--help"]])
def test_help_exits_0(capsys, argv):
    assert main(argv) == 0
    assert "usage: axisym" in capsys.readouterr().out


def _out_dir_argv(command, tmp_path, minimize_16x12):
    """The argv of a cheap run of command on write_config's 16x12 grid."""
    if command == "annulus":
        return ["annulus", "--n-t", "8", "--n-phi", "8"]
    keys = {"input_field": str(minimize_16x12 / "field.csv")} \
        if command == "symmetrize" else {}
    write_config(tmp_path / "run.json",
                 solver={"restarts": 1, "max_iters": 2, "seed": 0}, **keys)
    return [command, "--config", str(tmp_path / "run.json")]


@pytest.mark.parametrize("command, sub", [
    ("minimize", ""), ("minimize", "sub"), ("reduce", ""), ("verify", ""),
    ("annulus", ""), ("symmetrize", "")] + [
    pytest.param(command, None, id=f"{command}-empty_out")
    for command in ("minimize", "reduce", "verify", "annulus", "symmetrize")])
def test_out_that_cannot_be_a_directory_exits_3(tmp_path, capsys, monkeypatch,
                                                minimize_16x12, command, sub):
    # an existing file, a path below one, or "" (sub None) is an input
    # error naming the flag, refused before anything is solved: "" would
    # otherwise fall back to config.outputs or out/ in the working directory
    blocker = tmp_path / "file"
    blocker.write_text("kept\n", encoding="utf-8")
    argv = _out_dir_argv(command, tmp_path, minimize_16x12)

    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the output location was checked")

    for name in ("minimize_2d", "minimize_1d_profile", "symmetrize_and_certify",
                 "solve_annulus_example", "run_suite"):
        monkeypatch.setattr(f"axisym.cli.{name}", no_solve)
    monkeypatch.chdir(tmp_path)
    before = sorted(os.listdir(tmp_path))
    assert main(argv + ["--out", "" if sub is None else str(blocker / sub)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error: --out: ") and err.count("\n") == 1
    assert blocker.read_text(encoding="utf-8") == "kept\n"
    assert sorted(os.listdir(tmp_path)) == before


def test_outputs_that_cannot_be_a_directory_exits_3(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("kept\n", encoding="utf-8")
    write_config(tmp_path / "run.json", outputs=str(blocker),
                 solver={"restarts": 1, "max_iters": 2, "seed": 0})
    assert main(["minimize", "--config", str(tmp_path / "run.json")]) == 3
    err = capsys.readouterr().err
    assert (err.startswith("config error: config.outputs: ")
            and err.count("\n") == 1)
    assert blocker.read_text(encoding="utf-8") == "kept\n"


@pytest.mark.parametrize("command, overrides, where", [
    ("minimize", {"outputs": ""}, "config.outputs"),
    ("reduce", {"prior_2d": ""}, "config.prior_2d"),
    ("symmetrize", {"input_field": ""}, "config.input_field"),
    ("minimize", {"potential": {"kind": "table", "table": ""}},
     "config.potential.table"),
    ("minimize", {"weight": {"kind": "t_profile", "table": ""}},
     "config.weight.table"),
    ("minimize", {"aniso_field": {"kind": "symmetric_profile", "table": ""}},
     "config.aniso_field.table"),
    ("minimize", {"target_surface": {"spline_table": ""}},
     "config.target_surface.spline_table"),
], ids=["outputs", "prior_2d", "input_field", "potential", "weight",
        "aniso_field", "spline_table"])
def test_empty_path_exits_3(tmp_path, capsys, monkeypatch, command, overrides,
                            where):
    # "" would write the artifacts into the working directory (outputs) or
    # run reduce without its comparison (prior_2d)
    monkeypatch.chdir(tmp_path)
    write_config(tmp_path / "run.json",
                 solver={"restarts": 1, "max_iters": 2, "seed": 0}, **overrides)
    assert main([command, "--config", "run.json"]) == 3
    assert capsys.readouterr().err == (f"config error: {where}: an empty path "
                                       f"names no file\n")
    assert os.listdir(tmp_path) == ["run.json"]
