"""Tests of the tracer: self-time reduction, span recording, coverage.

Run with ``python3 -m pytest perfbench/tests``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from tracing import Recorder, load_spans, self_times, span_counts  # noqa: E402


def test_self_times_nesting_siblings_and_reentry():
    spans = [
        ("cli.run", 0.0, 10.0, -1),
        ("shadow.d_decomposition", 1.0, 7.0, 0),
        ("shadow.basis_element", 1.5, 3.5, 1),     # re-entered inside d_decomposition
        ("symexpr.ratfn", 2.0, 2.5, 2),
        ("symexpr.div", 2.1, 2.3, 3),
        ("dof.dof_evaluate", 4.0, 5.0, 1),          # sibling of the basis_element above
        ("shadow.basis_element", 5.5, 6.5, 1),      # second re-entry
        ("shadow.basis_element", 8.0, 9.0, 0),      # top-level call
    ]
    got = self_times(spans)
    want = {
        "cli.run": 10.0 - 6.0 - 1.0,
        "shadow.d_decomposition": 6.0 - 2.0 - 1.0 - 1.0,
        "shadow.basis_element": (2.0 - 0.5) + 1.0 + 1.0,
        "symexpr.ratfn": 0.5 - 0.2,
        "symexpr.div": 0.2,
        "dof.dof_evaluate": 1.0,
    }
    assert got.keys() == want.keys()
    for name, value in want.items():
        assert got[name] == pytest.approx(value), name
    # self times partition the root span
    assert sum(got.values()) == pytest.approx(10.0)
    assert span_counts(spans)["shadow.basis_element"] == 3


def test_recorder_records_parents_and_closes_on_error():
    rec = Recorder("unit")

    def leaf(x):
        if x < 0:
            raise ValueError("negative")
        return x

    traced_leaf = rec.wrap("leaf", leaf, None)
    traced_outer = rec.wrap("outer", lambda x: traced_leaf(x) + traced_leaf(x), None)
    assert traced_outer(2) == 4
    with pytest.raises(ValueError):
        traced_outer(-1)
    assert [(n, p) for n, _, _, p in rec.spans] == [
        ("outer", -1), ("leaf", 0), ("leaf", 0), ("outer", -1), ("leaf", 3)]
    assert rec.stack == []
    assert all(s <= e for _, s, e, _ in rec.spans)


def _traced_step(tmp_path, *argv):
    spans = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    env.pop("BLOWUP_THREADS", None)
    res = subprocess.run(
        [sys.executable, str(BENCH / "tracing.py"), str(spans), "step", "--", *argv],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout), load_spans(spans)


def test_traced_child_covers_from_import_bindings(tmp_path):
    # cohomology global reaches build_blowup_complex through mesh's own binding
    report, doc = _traced_step(tmp_path, "cohomology", "global", "--mesh", "triangle-pair",
                               "--rule", "general")
    assert report["pass"] is True
    calls = span_counts(doc["spans"])
    for name in ("cli.run", "mesh.global_cohomology", "blowcx.build_blowup_complex",
                 "shadow.d_decomposition", "shadow.basis_element", "dof.dof_evaluate",
                 "linalg.rank", "symexpr.div", "symexpr.ratfn"):
        assert calls.get(name, 0) > 0, name
    assert calls["cli.run"] == 1
    assert sum(self_times(doc["spans"]).values()) == pytest.approx(
        next(e - s for n, s, e, _ in doc["spans"] if n == "cli.run"))


def test_counts_match_roadmap_baseline_on_local_n3(tmp_path):
    report, doc = _traced_step(tmp_path, "cohomology", "local", "--n", "3")
    assert report["pass"] is True
    calls = span_counts(doc["spans"])
    assert calls["symexpr.div"] == 18808
    assert doc["counts"]["symexpr.div.successes"] == 3446
    assert calls["shadow.basis_element"] == 232
    assert doc["distinct"]["shadow.basis_element"] == 75
