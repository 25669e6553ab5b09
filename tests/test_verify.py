import json
from dataclasses import replace

import numpy as np
import pytest

from axisym import ioutil, verify
from axisym.runconfig import ConfigError, build_run, load_config
from axisym.solvers import (CHAIN_SLACK, SolveConfig, minimize_2d,
                            symmetrize_and_certify)
from conftest import count_calls
from axisym.verify import (
    DEFAULT_INSTANCES,
    instance,
    run_suite,
    verify_annulus,
    verify_chain,
    verify_main0,
    verify_main1,
    verify_main3,
    verify_pw,
)

SUBSET = ["sphere_quartic_margin", "cylinder2_quadratic_const1",
          "cylinder1_borderline", "disk_target_flat"]
FAST = {"instances": SUBSET,
        "solver": {"restarts": 1, "max_iters": 3000, "grad_tol": 1e-9},
        "chain_fields": 4, "pw_fields": 3}


def build(name, n_phi, n_t):
    """(desc, mesh, target, params) of a registered instance."""
    desc = instance(name, n_phi, n_t)
    return (desc,) + build_run(desc["config"])[:3]


@pytest.fixture(scope="module")
def subset_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("certs")
    certs, summary = run_suite(FAST, out_dir=out)
    return certs, summary, out


def test_subset_suite_passes(subset_run):
    certs, summary, _ = subset_run
    assert summary["all_pass"], summary["failed"]
    assert summary["n_applicable"] > 0
    # hypothesis gating: the flat-target instance must be inapplicable for
    # the line-symmetry claim, not failed
    flat = [c for c in certs if c.instance.get("name") == "disk_target_flat"
            and c.theorem == "main1_line_symmetry"]
    assert flat and not flat[0].applicable and flat[0].passed is None


def test_borderline_marked_not_failed(subset_run):
    certs, _, _ = subset_run
    border = [c for c in certs if c.instance.get("name") == "cylinder1_borderline"
              and c.theorem == "main0_form"]
    assert border[0].applicable and border[0].passed
    assert "borderline" in border[0].note
    assert "null_average" not in border[0].residuals


def test_certificates_written_with_schema(subset_run):
    _, _, out = subset_run
    files = sorted(out.glob("cert_*.json"))
    assert files
    payload = ioutil.loads(files[0].read_text())
    assert payload["schema"] == "axisym-cert/2"
    for cert in payload["certificates"]:
        assert set(cert) == {"theorem", "applicable", "pass", "residuals",
                             "tolerances", "note"}
    summary = ioutil.loads((out / "summary.json").read_text())
    assert summary["all_pass"] and summary["schema"] == "axisym-cert/2"


def test_certificate_files_state_each_fact_once(subset_run):
    # each file states its schema and instance once, no entry repeats them,
    # an unchecked claim has no verdict and main1 repeats no main0 residual
    _, _, out = subset_run
    files = sorted(out.glob("cert_*.json"))
    assert len(files) == 4 + 2 + 2         # solved, chain, pw
    seen = set()
    for path in files:
        payload = ioutil.loads(path.read_text())
        assert set(payload) == {"schema", "instance_key", "instance",
                                "certificates"}
        assert set(payload["instance"]) == {"name", "config"}
        assert path.name == f"cert_{payload['instance_key']}.json"
        by_theorem = {}
        for cert in payload["certificates"]:
            assert "schema" not in cert and "instance" not in cert
            if cert["applicable"]:
                assert isinstance(cert["pass"], bool), path.name
            else:
                assert cert["pass"] is None, path.name
            by_theorem[cert["theorem"]] = cert
            seen.add((cert["theorem"], cert["applicable"]))
        if "main1_line_symmetry" in by_theorem:
            main0 = by_theorem["main0_form"]
            main1 = by_theorem["main1_line_symmetry"]
            assert not set(main1["residuals"]) & set(main0["residuals"])
            assert set(main1["tolerances"]) == {"orthogonality"}
    assert {("main1_line_symmetry", True),
            ("main1_line_symmetry", False)} <= seen


def test_suite_reruns_byte_identical(tmp_path):
    tiny = {"instances": ["cylinder2_quadratic_const1"],
            "solver": {"restarts": 1, "max_iters": 1500, "grad_tol": 1e-9},
            "chain_fields": 2, "pw_fields": 2}
    d1, d2 = tmp_path / "a", tmp_path / "b"
    run_suite(tiny, out_dir=d1)
    run_suite(tiny, out_dir=d2)
    files1 = sorted(p.name for p in d1.glob("*.json"))
    files2 = sorted(p.name for p in d2.glob("*.json"))
    assert files1 == files2
    for name in files1:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_one_symmetrization_per_solved_instance(monkeypatch):
    # main1 extends main0's certificate: the strict-margin instance is
    # symmetrized once, the instance without a penalty weight not at all
    calls = count_calls(monkeypatch, symmetrize_and_certify)
    certs, _ = run_suite({
        "instances": ["cylinder2_quartic_const1", "sphere_easy_normal_free"],
        "grid": {"n_phi": 16, "n_t": 12},
        "solver": {"restarts": 0, "max_iters": 200}})
    applicable = [(c.theorem, c.instance["name"]) for c in certs
                  if c.applicable]
    assert ("main1_line_symmetry", "cylinder2_quartic_const1") in applicable
    assert len(calls) == 1


def test_empty_matrix():
    # a suite that checks nothing is refused before anything runs
    with pytest.raises(ConfigError, match="config.suite.instances: selects "
                                          "no instance"):
        run_suite({"instances": []})


def test_planted_failure_fails_suite(monkeypatch):
    # a tolerance no residual meets: the annulus certificate really fails
    monkeypatch.setitem(verify.DEFAULT_TOLERANCES, "annulus_mean", -1.0)
    certs, summary = run_suite({"instances": ["annulus_pde"]})
    assert [c.theorem for c in certs] == ["annulus_null_average"]
    assert certs[0].applicable and not certs[0].passed
    assert not summary["all_pass"]
    assert summary["n_failed"] == 1


def test_main0_inapplicable_without_weight():
    desc, mesh, tgt, params = build("sphere_easy_normal_free", 16, 12)
    rep = minimize_2d(mesh, tgt, params,
                      SolveConfig(restarts=0, max_iters=400, seed=0))
    cert = verify_main0(desc, rep, params)
    assert not cert.applicable and cert.passed is None
    assert "margin" in cert.note
    assert cert.to_dict()["pass"] is None


def test_main3_pass_on_sphere_free():
    # needs the suite grid: coarser grids under-resolve the lam = 20 wall
    # width and the discrete minimizer picks up a grid-scale ring mean
    desc, mesh, tgt, params = build("sphere_easy_normal_free", 32, 24)
    axial = minimize_2d(mesh, tgt, params,
                        SolveConfig(restarts=0, max_iters=4000, grad_tol=1e-9,
                                    seed=0))
    cert = verify_main3(desc, axial, tgt)
    assert cert.applicable and cert.passed
    # A converged random start finds a field below the axial one (by about
    # 1e-7 relative at this grid) with a ring mean far above the strict
    # null-average threshold, so main3's hypothesis is then unmet.
    rep = minimize_2d(mesh, tgt, params,
                      SolveConfig(restarts=1, max_iters=4000, grad_tol=1e-9,
                                  seed=0))
    assert rep.stop_reasons[0] == "grad_tol"
    assert rep.restart_energies[0] == min(rep.restart_energies)
    assert rep.best_energy.total < axial.best_energy.total
    diag = rep.diagnostics
    assert diag["null_average_norm"] / diag["field_scale"] > 1e-4
    cert = verify_main3(desc, rep, tgt)
    assert not cert.applicable and cert.passed is None
    assert "hypothesis unmet" in cert.note


def test_main3_hypothesis_unmet_on_inplane():
    desc, mesh, tgt, params = build("cylinder2_inplane_free", 16, 12)
    rep = minimize_2d(mesh, tgt, params,
                      SolveConfig(restarts=2, max_iters=2500, seed=0))
    cert = verify_main3(desc, rep, tgt)
    assert not cert.applicable
    assert "hypothesis unmet" in cert.note


def test_main1_applicable_on_torus_band():
    desc, mesh, tgt, params = build("torus_band_self_margin", 16, 16)
    rep = minimize_2d(mesh, tgt, params,
                      SolveConfig(restarts=1, max_iters=2500, grad_tol=1e-9, seed=0))
    main0 = verify_main0(desc, rep, params)
    cert = verify_main1(main0, rep, tgt)
    assert cert.applicable and cert.instance == desc
    # main1 carries only its own residuals and passes only where main0 did
    assert set(cert.residuals) == {"orthogonality_norm", "orthogonality_dot",
                                   "neither_rows"}
    assert set(cert.tolerances) == {"orthogonality"}
    failed = verify_main1(replace(main0, passed=False), rep, tgt)
    assert failed.applicable and failed.passed is False
    assert failed.note == "main0_form failed"


def test_chain_certificate():
    cert = verify_chain(instance("sphere_quartic_margin", 16, 12), [0], 5)
    assert cert.applicable and cert.passed
    assert cert.residuals["fields_checked"] == 5.0


def test_chain_certificate_fails_on_an_uncertified_field(monkeypatch):
    # the verdict is the chain reports' own: one field that is not
    # certified fails the certificate, whatever the reported minima
    def uncertified(*args):
        u, rep = symmetrize_and_certify(*args)
        return u, replace(rep, certified=np.zeros_like(rep.certified))

    monkeypatch.setattr(verify, "symmetrize_and_certify", uncertified)
    cert = verify_chain(instance("sphere_quartic_margin", 16, 12), [0], 2)
    assert cert.applicable and cert.passed is False
    assert all(cert.residuals[f"min_{k}"] >= -CHAIN_SLACK for k in (
        "slice_vs_mean", "poincare_wirtinger", "vertical_mode", "total_gap"))


def test_pw_certificate():
    cert = verify_pw(instance("sphere_quartic_margin", 16, 12), [0], 4)
    assert cert.applicable and cert.passed
    assert cert.residuals["equality_detector_mismatches"] == 0.0


def test_annulus_certificate():
    cert = verify_annulus([0.0, 1.0], 32, 16, seed=3)
    assert cert.passed
    assert cert.residuals["max_mean_perp"] <= 1e-8


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


@pytest.mark.parametrize("seeds, n_fields", [([0], 0), ([], 3)])
def test_empty_corpus_certificates_inapplicable(monkeypatch, seeds, n_fields):
    def never(*args, **kwargs):
        raise AssertionError("a field was drawn for an empty corpus")

    monkeypatch.setattr(verify, "random_field", never)
    desc = instance("sphere_quartic_margin", 16, 12)
    certs = [verify_chain(desc, seeds, n_fields),
             verify_pw(desc, seeds, n_fields)]
    if not seeds:
        # no kappa is refused before any draw
        with pytest.raises(ValueError, match="at least one kappa"):
            verify_annulus([], 32, 16, seed=0)
    for cert in certs:
        assert not cert.applicable, cert.theorem
        assert "inapplicable" in cert.note
        text = ioutil.dumps(cert.to_dict(), indent=2)
        json.loads(text, parse_constant=_reject_constant)
    assert certs[0].residuals["fields_checked"] == 0.0
    assert all("empty corpus" in cert.note for cert in certs[:2])


def test_annulus_only_suite_without_seeds():
    # the annulus certificate takes the suite's first seed: with none the
    # suite is refused, not run at seed 0
    with pytest.raises(ConfigError, match="config.suite.seeds: needs at "
                                          "least one seed"):
        run_suite({"seeds": [], "instances": ["annulus_pde"]})


def test_default_suite_all_pass(tmp_path):
    # the full default matrix is the verification gate: every applicable
    # certificate must pass, deterministically, within the runtime budget
    import time
    t0 = time.time()
    certs, summary = run_suite(out_dir=tmp_path)
    elapsed = time.time() - t0
    assert summary["all_pass"], summary["failed"]
    assert summary["n_applicable"] >= 20
    assert elapsed <= 600
    assert (tmp_path / "summary.json").exists()


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "known defect: the default suite fails at seeds 2-11, main0_form and "
    "main1_line_symmetry on torus_band_self_margin"))
def test_default_suite_torus_band_passes_at_seed_2():
    _, summary = run_suite({"instances": ["torus_band_self_margin"],
                            "seeds": [2]})
    assert summary["all_pass"], summary["failed"]


@pytest.mark.parametrize("name", list(DEFAULT_INSTANCES))
def test_registered_instance_is_a_run_config(tmp_path, name):
    # every suite instance is a plain axisym-run/1 config: it passes the
    # strict key check from a file and builds at a small grid
    desc = instance(name, 16, 12, {"restarts": 0}, seed=3)
    assert desc["name"] == name
    path = tmp_path / "run.json"
    path.write_text(ioutil.dumps(desc["config"]), encoding="utf-8")
    mesh, _, params, sc = build_run(load_config(path))
    assert (mesh.n_phi, mesh.n_t) == (16, 12)
    assert (sc.restarts, sc.seed) == (0, 3)
    assert np.all(np.isfinite(params.weight.W2))
