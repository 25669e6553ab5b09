"""Output checks on the artifacts of one benchmark pass.

Every check is one operation of the run: a check that fails makes the run
incorrect and counts as a failed operation.  The checks read the artifacts
the CLI wrote and recompute what can be recomputed through axisym's public
functions.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path


class Checks:
    """Named pass/fail results, in the order they were made."""

    def __init__(self):
        self.results = []               # (name, ok, detail)

    def add(self, name, ok, detail=""):
        self.results.append((name, bool(ok), detail))
        return bool(ok)

    @property
    def failed(self):
        return [r for r in self.results if not r[1]]


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def load_strict(path):
    """json.load that refuses NaN and Infinity, as RFC 8259 requires."""
    return json.loads(Path(path).read_text(encoding="utf-8"),
                      parse_constant=_reject_constant)


def artifact_digest(root):
    """SHA-256 over every file under root, by relative path and content."""
    h = hashlib.sha256()
    root = Path(root)
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode("utf-8") + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def check_json_artifacts(checks, out_dir):
    paths = sorted(Path(out_dir).rglob("*.json"))
    checks.add(f"{out_dir}: has JSON artifacts", paths)
    for path in paths:
        try:
            load_strict(path)
            checks.add(f"{path}: strict JSON", True)
        except ValueError as exc:
            checks.add(f"{path}: strict JSON", False, str(exc))


def _rel_close(a, b, rel, scale):
    return abs(a - b) <= rel * max(abs(scale), 1e-300)


def check_minimize(checks, config_path, out_dir, restarts):
    """breakdown.json against a recomputation from field.csv, and the field."""
    from axisym import cli, energy, fields

    out = Path(out_dir)
    try:
        breakdown = load_strict(out / "breakdown.json")
        report = load_strict(out / "report.json")
    except (OSError, ValueError) as exc:
        checks.add(f"{out}: reports readable", False, str(exc))
        return
    cfg = cli.load_config(config_path)
    mesh, target, params, _ = cli.build_run(cfg)
    field = fields.field_from_csv(out / "field.csv", mesh, target)
    recomputed = energy.total_energy(field, params).to_dict()
    total = recomputed["total"]
    bad = {k: (breakdown.get(k), v) for k, v in recomputed.items()
           if not isinstance(breakdown.get(k), (int, float))
           or not _rel_close(breakdown[k], v, 1e-12, total)}
    checks.add(f"{out}: breakdown.json matches total_energy(field.csv)",
               not bad, f"(written, recomputed): {bad}")
    checks.add(f"{out}: report.json best_energy equals breakdown.json",
               report["best_energy"]["total"] == breakdown["total"])
    defect = field.constraint_defect()
    tol = getattr(fields, "CONSTRAINT_TOL", 1e-8)
    checks.add(f"{out}: best field lies on the target",
               defect <= tol, f"constraint defect {defect:.3e} > {tol:.1e}")
    checks.add(f"{out}: one report entry per restart",
               len(report["iterations"]) == restarts + 2,
               f"{len(report['iterations'])} entries for {restarts} + 2 inits")


def check_reduce(checks, out_dir):
    out = Path(out_dir)
    try:
        rep = load_strict(out / "reduce_report.json")
    except (OSError, ValueError) as exc:
        checks.add(f"{out}: reduce_report.json readable", False, str(exc))
        return
    checks.add(f"{out}: both profile variants reported",
               "symmetric" in rep and "antisymmetric" in rep)
    gap = rep.get("comparison", {}).get("relative_gap")
    checks.add(f"{out}: comparison.relative_gap is finite",
               isinstance(gap, (int, float)) and math.isfinite(gap),
               f"relative_gap = {gap!r}")


def check_verify(checks, out_dir, n_instances, n_chain, n_pw, chain_fields,
                 theorems):
    """Certificate counts against the selected instances; no vacuous chain."""
    out = Path(out_dir)
    try:
        summary = load_strict(out / "summary.json")
        groups = [load_strict(p)["certificates"]
                  for p in sorted(out.glob("cert_*.json"))]
    except (OSError, ValueError, KeyError) as exc:
        checks.add(f"{out}: certificates readable", False, str(exc))
        return
    certs = [c for g in groups for c in g]
    expected = 3 * n_instances + n_chain + n_pw + 1
    checks.add(f"{out}: summary counts the selected instances",
               summary["n_certificates"] == expected == len(certs),
               f"summary {summary['n_certificates']}, files {len(certs)}, "
               f"expected {expected}")
    applicable = [c for c in certs if c["applicable"]]
    checks.add(f"{out}: summary pass/fail counts match the certificates",
               summary["n_applicable"] == len(applicable)
               and summary["n_passed"] == sum(c["pass"] for c in applicable)
               and summary["n_failed"] == sum(not c["pass"] for c in applicable))
    missing = sorted(t for t in theorems
                     if not any(c["theorem"] == t for c in applicable))
    checks.add(f"{out}: every certificate kind applicable at least once",
               not missing, f"never applicable: {missing}")
    chains = [c for c in certs if c["theorem"] == "chain_monotonicity"]
    checked = [c["residuals"].get("fields_checked") for c in chains]
    checks.add(f"{out}: chain certificates checked {chain_fields} fields each",
               len(chains) == n_chain and all(v == chain_fields for v in checked),
               f"fields_checked = {checked}")
