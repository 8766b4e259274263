"""Workloads of the benchmark: their CLI steps, generated inputs and checks.

A step is one ``blowup`` invocation.  Its check receives the parsed JSON
report and returns a list of problems; an empty list means the output is
correct.  Exit code and ``pass`` are checked for every step by the runner.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent

# sha256 of the canonical JSON of each fixed-input step's ``results``,
# recorded at the seed commit
EXPECTED_DIGESTS = json.loads((HERE / "expected_digests.json").read_text())

# which layers must record spans in a traced run of each workload
EXPECTED_LAYERS = {
    "simplex": ("cli", "symexpr", "shadow", "dof", "blowcx", "mesh", "linalg"),
    "mesh": ("cli", "symexpr", "shadow", "dof", "blowcx", "mesh", "linalg"),
    "mc": ("cli", "symexpr", "shadow", "mcoracle"),
}

MC_CASES = 685
# The MC seed is fixed, at the CLI's default.  Whether a case escalates to
# 10x the samples is a chance event, and escalating one of the degree-r cases
# alone moves peak RSS between about 75 and 360 MiB and wall time by about
# 15%, so a seed that followed the benchmark seed would make every mc metric
# bimodal across runs.
MC_SEED = 20240801


@dataclass(frozen=True)
class Step:
    id: str
    argv: tuple[str, ...]
    check: Callable[[dict], list[str]]


def results_digest(results) -> str:
    canon = json.dumps(results, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def check_digest(step_id: str) -> Callable[[dict], list[str]]:
    def check(report: dict) -> list[str]:
        got = results_digest(report.get("results"))
        want = EXPECTED_DIGESTS[step_id]
        return [] if got == want else [f"results digest {got[:12]} != recorded {want[:12]}"]

    return check


def check_torus(rule: str, cells: int) -> Callable[[dict], list[str]]:
    torus = [1, 2, 1]
    dims = [3 * cells, 4 * cells, cells] if rule == "general" else [3 * cells]

    def check(report: dict) -> list[str]:
        res = report.get("results", {})
        problems = []
        if res.get("betti_simplicial") != torus:
            problems.append(f"betti_simplicial {res.get('betti_simplicial')} != {torus}")
        want_blowup = torus if rule == "general" else torus[:1]
        if res.get("betti_blowup") != want_blowup:
            problems.append(f"betti_blowup {res.get('betti_blowup')} != {want_blowup}")
        if res.get("dims") != dims:
            problems.append(f"dims {res.get('dims')} != {dims}")
        return problems

    return check


def check_mc(report: dict) -> list[str]:
    res = report.get("results", {})
    problems = []
    if res.get("cases") != MC_CASES:
        problems.append(f"cases {res.get('cases')} != {MC_CASES}")
    if res.get("partial") is not False:
        problems.append("partial report")
    if not isinstance(res.get("escalated"), int):
        problems.append("no escalation count")
    return problems


def torus_mesh(m: int, seed: int) -> dict:
    """An m x m triangulated torus (2 m^2 cells), labels and cell order shuffled."""
    rng = random.Random(f"torus-{m}-{seed}")
    labels = list(range(m * m))
    rng.shuffle(labels)

    def v(i, j):
        return labels[(i % m) * m + (j % m)]

    cells = []
    for i in range(m):
        for j in range(m):
            cells.append([v(i, j), v(i + 1, j), v(i + 1, j + 1)])
            cells.append([v(i, j), v(i, j + 1), v(i + 1, j + 1)])
    rng.shuffle(cells)
    return {"dimension": 2, "cells": cells, "manifold": "closed"}


def steps(workload: str, seed: int, workdir: Path) -> list[Step]:
    """The steps of one workload; writes any generated input into ``workdir``."""
    if workload == "simplex":
        fixed = [
            ("d-check-n3", "d-check --n 3"),
            ("dof-matrix-n3", "dof-matrix --n 3 --assert-identity"),
            ("cohomology-local-n3", "cohomology local --n 3"),
            ("tet-pair", "cohomology global --mesh tet-pair --rule general"),
            ("whitney-check-n4", "whitney-check --n 4"),
        ]
        return [Step(sid, tuple(cmd.split()), check_digest(sid)) for sid, cmd in fixed]
    if workload == "mesh":
        out = []
        for m, rule in ((7, "general"), (8, "edge-identified")):
            path = workdir / f"torus-{m}x{m}.json"
            path.write_text(json.dumps(torus_mesh(m, seed)))
            argv = ("cohomology", "global", "--mesh", str(path), "--rule", rule)
            out.append(Step(f"torus-{rule}", argv, check_torus(rule, 2 * m * m)))
        return out
    if workload == "mc":
        argv = ("mc-verify", "--target", "all", "--n", "3", "--samples", "100000",
                "--seed", str(MC_SEED))
        return [Step("mc-verify-all", argv, check_mc)]
    raise ValueError(f"unknown workload {workload!r}")
