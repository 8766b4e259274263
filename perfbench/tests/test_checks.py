"""Tests of the output checks, the mesh generator and BENCHMARK.json."""

import copy
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

TORUS_GENERAL = {
    "pass": True,
    "results": {"dims": [294, 392, 98], "betti_blowup": [1, 2, 1],
                "betti_simplicial": [1, 2, 1], "dd_zero": True},
}


def _step(workload, step_id, tmp_path):
    return next(s for s in workloads.steps(workload, 0, tmp_path) if s.id == step_id)


def test_exit_code_and_pass_are_checked(tmp_path):
    step = _step("mesh", "torus-general", tmp_path)
    text = json.dumps(TORUS_GENERAL)
    assert run.check_output(step, 0, text)[1] == []
    assert run.check_output(step, 1, text)[1] == ["exit code 1"]
    assert run.check_output(step, 0, "not json")[1][0].startswith("report is not JSON")
    failing = dict(TORUS_GENERAL, **{"pass": False})
    assert run.check_output(step, 0, json.dumps(failing))[1] == ["pass != true"]


def test_wrong_torus_report_fails(tmp_path):
    step = _step("mesh", "torus-general", tmp_path)
    wrong = copy.deepcopy(TORUS_GENERAL)
    wrong["results"]["betti_blowup"] = [1, 1, 1]
    wrong["results"]["dims"] = [294, 391, 98]
    problems = run.check_output(step, 0, json.dumps(wrong))[1]
    assert len(problems) == 2
    edge = _step("mesh", "torus-edge-identified", tmp_path)
    report = {"pass": True, "results": {"dims": [384], "betti_blowup": [1],
                                        "betti_simplicial": [1, 2, 1]}}
    assert edge.check(report) == []
    report["results"]["betti_simplicial"] = [1, 0, 1]
    assert edge.check(report) != []


def test_wrong_digest_fails(tmp_path):
    step = _step("simplex", "cohomology-local-n3", tmp_path)
    right = {"pass": True, "results": {"f_vector": [24, 36, 14, 1], "betti": [1, 0, 0, 0]}}
    assert step.check(right) == []
    wrong = {"pass": True, "results": {"f_vector": [24, 36, 14, 1], "betti": [1, 1, 0, 0]}}
    assert len(step.check(wrong)) == 1


def test_wrong_mc_report_fails(tmp_path):
    step = _step("mc", "mc-verify-all", tmp_path)
    report = {"pass": True, "results": {"cases": 685, "escalated": 1, "partial": False}}
    assert step.check(report) == []
    assert step.check({"results": dict(report["results"], cases=684)}) != []
    assert step.check({"results": dict(report["results"], partial=True)}) != []


def test_torus_mesh_is_seeded_and_valid():
    a, b = workloads.torus_mesh(7, 3), workloads.torus_mesh(7, 3)
    assert a == b
    assert a != workloads.torus_mesh(7, 4)
    cells = a["cells"]
    assert len(cells) == 98
    assert len({tuple(sorted(c)) for c in cells}) == 98
    edges = {}
    for c in cells:
        s = sorted(c)
        for e in ((s[0], s[1]), (s[0], s[2]), (s[1], s[2])):
            edges[e] = edges.get(e, 0) + 1
    assert set(edges.values()) == {2}  # closed surface
    assert len({v for c in cells for v in c}) - len(edges) + len(cells) == 0  # torus


def test_benchmark_json_matches_the_runner(tmp_path):
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    step_ids = [s.id for w in run.WORKLOADS for s in workloads.steps(w, 0, tmp_path)]
    assert step_ids == list(run.STEP_IDS)
