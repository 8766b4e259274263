import collections
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from blowupforms.cli import _out_of_range, build_parser, run


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_basis_report_schema(capsys):
    code, report = run_json(capsys, ["basis", "--n", "2", "--k", "1"])
    assert code == 0
    assert report["schema"] == "blowup-report/1"
    assert report["pass"] is True
    assert report["results"]["count"] == 6
    for key in ("command", "inputs", "results", "timing_ms"):
        assert key in report
    entry = report["results"]["entries"][0]
    assert {"flag", "probability", "psi"} <= set(entry)


def test_basis_latex_written(tmp_path, capsys):
    path = tmp_path / "table.tex"
    code, _ = run_json(capsys, ["basis", "--n", "2", "--latex", str(path)])
    assert code == 0
    text = path.read_text()
    assert "\\lambda" in text and "tabular" in text
    # the whole table, byte for byte, as the report digests pin the JSON
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        "acfa37536b30b6bcb70fa92493ad924704ca87c7f5858c13f991fcb76a2feedf"


def test_dof_matrix_assert_identity(capsys):
    code, report = run_json(capsys, ["dof-matrix", "--n", "2", "--assert-identity"])
    assert code == 0
    assert report["results"]["identity_all"] is True
    assert not any("first_mismatch" in m for m in report["results"]["matrices"])


def test_dof_matrix_names_the_first_mismatch(monkeypatch, capsys):
    # every basis form doubled: the first diagonal entry reads 2
    from blowupforms import shadow

    real = shadow.basis_element

    def doubled(F):
        return real(F) * 2

    monkeypatch.setattr(shadow, "basis_element", doubled)
    code, report = run_json(capsys, ["dof-matrix", "--n", "1", "--assert-identity"])
    assert code == 1
    assert [m["first_mismatch"] for m in report["results"]["matrices"]] == [
        {"row": "0|1", "column": "0|1", "value": "2"},
        {"row": "0,1", "column": "0,1", "value": "2"},
    ]


def test_dof_matrix_arithmetic_error_is_a_check_failure(monkeypatch, capsys):
    # an exact-core ArithmeticError while pairing one degree fails that degree's
    # identity check, with the message that names the flag; it is no internal error
    from blowupforms import shadow
    from blowupforms.flagcomb import Flag
    from blowupforms.symexpr import DivergentLimit

    real = shadow.dof_evaluate
    target = Flag.parse("0|1,2")

    def diverging(flag, form):
        if flag == target:
            raise DivergentLimit(f"limit toward the face of {flag} diverges at step 1")
        return real(flag, form)

    monkeypatch.setattr(shadow, "dof_evaluate", diverging)
    code, report = run_json(capsys, ["dof-matrix", "--n", "2", "--assert-identity"])
    assert code == 1
    assert "error" not in report
    assert report["pass"] is False
    matrices = report["results"]["matrices"]
    assert [m["identity"] for m in matrices] == [True, False, True]
    assert matrices[1]["failure"] == "limit toward the face of 0|1,2 diverges at step 1"
    assert report["results"]["identity_all"] is False
    # without --assert-identity a non-identity matrix does not fail the command
    code, report = run_json(capsys, ["dof-matrix", "--n", "2"])
    assert code == 0
    assert report["pass"] is True


def test_readme_cli_lines_parse():
    # every `blowup ...` line in a README code block, optional [...] groups
    # included, parses and passes the range checks; nothing is run
    argvs, fenced = [], False
    for line in (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines():
        if line.startswith("```"):
            fenced = not fenced
        elif fenced and line.startswith("blowup "):
            argvs.append(line.split("#")[0].replace("[", " ").replace("]", " ").split()[1:])
    assert len(argvs) >= 10
    for argv in argvs:
        args = build_parser().parse_args(argv)
        assert _out_of_range(args) is None, argv


def test_d_check(capsys):
    code, report = run_json(capsys, ["d-check", "--n", "2"])
    assert code == 0
    assert report["results"]["flags_checked"] == 13
    assert report["results"]["failures"] == []


def test_whitney_check(capsys):
    code, report = run_json(capsys, ["whitney-check", "--n", "2"])
    assert code == 0
    assert report["results"]["subsets_checked"] == 7


def test_whitney_check_on_6_vertices(capsys):
    # the only 6-vertex Whitney containment in these tests: one W per subset size, relabelled
    code, report = run_json(capsys, ["whitney-check", "--n", "5"])
    assert code == 0
    assert report["results"]["subsets_checked"] == 63
    assert report["results"]["failures"] == []


def test_whitney_check_carries_a_failure_to_its_subset_size(monkeypatch, capsys):
    # whitney-check proves W = 0,1 for every W of size 2, so its failure is theirs
    from blowupforms import shadow
    from blowupforms.shadow import IdentityFailed

    real = shadow.whitney_containment

    def failing(W, V):
        if len(W) == 2:
            raise IdentityFailed(f"sum of psi over 2 flags != phi_{W}")
        return real(W, V)

    monkeypatch.setattr(shadow, "whitney_containment", failing)
    code, report = run_json(capsys, ["whitney-check", "--n", "3"])
    assert code == 1
    assert report["results"]["subsets_checked"] == 15
    reason = "sum of psi over 2 flags != phi_(0, 1)"
    assert report["results"]["failures"] == [{"W": [0, 1], "reason": reason}] + [
        {"W": list(W), "reason": f"transported from 0,1: {reason}"}
        for W in [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]]


@pytest.mark.parametrize("argv, expected", [
    # one W per subset size: 4! + 3! + 2! + 1! + 0! flags summed
    ("whitney-check --n 4", {"whitney_containment": 5, "basis_element": 34}),
    # one psi_R per composition, paired with one row per orbit of its stabiliser
    ("dof-matrix --n 3", {"basis_element": 8, "dof_evaluate": 107}),
    # one proof of d(psi_R) per composition below the top degree (2^n - 1),
    # or of every degree for d-check (2^n); every column is read off merge_sign
    ("cohomology local --n 3", {"d_decomposition": 7, "basis_element": 19, "dof_evaluate": 12}),
    ("d-check --n 3", {"d_decomposition": 8, "basis_element": 19, "dof_evaluate": 12}),
    ("cohomology global --mesh tet-pair --rule general",
     {"d_decomposition": 7, "basis_element": 19, "dof_evaluate": 12}),
    ("d-check --n 4", {"d_decomposition": 16, "basis_element": 47, "dof_evaluate": 32}),
])
def test_exact_suites_work_once_per_orbit(monkeypatch, capsys, argv, expected):
    # a slide back to per-member work fails here, not only in the benchmark
    from blowupforms import blowcx, shadow

    calls = collections.Counter()

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    for module, name in [(shadow, "whitney_containment"), (shadow, "basis_element"),
                         (shadow, "dof_evaluate"), (blowcx, "d_decomposition")]:
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    code, _ = run_json(capsys, argv.split())
    assert code == 0
    assert calls == expected


def test_cohomology_local_flag_spelling(capsys):
    code, report = run_json(capsys, ["cohomology", "--local", "--n", "2"])
    assert code == 0
    assert report["results"]["betti"] == [1, 0, 0]
    assert report["results"]["f_vector"] == [6, 6, 1]


def test_cohomology_local_matrices(capsys):
    # d_k as dense rows over the (k+1)-cells, columns over the k-cells
    code, report = run_json(capsys, ["cohomology", "local", "--n", "2", "--matrices"])
    assert code == 0
    assert report["results"]["coboundary"] == {
        "0": [
            ["-1", "1", "0", "0", "0", "0"],
            ["-1", "0", "1", "0", "0", "0"],
            ["0", "-1", "0", "0", "1", "0"],
            ["0", "0", "-1", "1", "0", "0"],
            ["0", "0", "0", "-1", "0", "1"],
            ["0", "0", "0", "0", "-1", "1"],
        ],
        "1": [["-1", "1", "-1", "1", "1", "-1"]],
    }


def test_cohomology_global(capsys):
    code, report = run_json(
        capsys, ["cohomology", "global", "--mesh", "torus-7", "--rule", "general"]
    )
    assert code == 0
    res = report["results"]
    assert res["betti_simplicial"] == [1, 2, 1]
    assert res["dd_zero"] is True
    assert res["match"] is True


def test_cohomology_global_on_a_mobius_strip_file(tmp_path, capsys):
    path = tmp_path / "mobius.json"
    path.write_text(json.dumps({"dimension": 2, "cells": [
        [0, 1, 2], [1, 2, 3], [2, 3, 4], [3, 4, 0], [4, 0, 1]]}))
    code, report = run_json(capsys, ["cohomology", "global", "--mesh", str(path)])
    assert code == 0
    res = report["results"]
    assert res["orientable"] is False
    assert res["betti_blowup"] == res["betti_simplicial"] == [1, 1, 0]


def test_higher_order(capsys):
    code, report = run_json(capsys, ["higher-order", "--n", "2", "--r", "3"])
    assert code == 0
    res = report["results"]
    assert res["count"] == 19
    assert res["independence_rank"] == 19
    assert res["containment"] is True
    assert res["vanishing_failures"] == []
    assert res["r1_reduction"] is True


def test_mc_verify_small(capsys):
    code, report = run_json(
        capsys,
        ["mc-verify", "--target", "pF", "--n", "1", "--samples", "20000",
         "--rates", "2", "--seed", "7"],
    )
    assert code == 0
    assert report["results"]["cases"] == 6
    # the report names the generator that drew, whichever it is
    import random

    from blowupforms.mcoracle import FACE_RNG_ALGORITHM, RNG_ALGORITHM, RaceRandom, generator

    assert report["results"]["rng"] == RNG_ALGORITHM
    assert isinstance(RaceRandom(0), random.Random)
    assert RNG_ALGORITHM == "random.Random.MT19937"
    _, dof = run_json(capsys, ["mc-verify", "--target", "dof", "--n", "1", "--samples", "1000",
                               "--rates", "1"])
    assert dof["results"]["rng"] == FACE_RNG_ALGORITHM
    assert FACE_RNG_ALGORITHM == "numpy.random." + type(generator(0).bit_generator).__name__



def test_mc_verify_dof_builds_each_basis_element_once(monkeypatch, capsys):
    # the --rates trials of a flag share one basis element
    from blowupforms import shadow
    from blowupforms.shadow import basis_element

    built = []

    def counted(flag):
        built.append(flag)
        return basis_element(flag)

    monkeypatch.setattr(shadow, "basis_element", counted)
    code, report = run_json(capsys, ["mc-verify", "--target", "dof", "--n", "1",
                                     "--samples", "2000", "--rates", "3"])
    assert code == 0 and report["results"]["cases"] == 9
    assert sorted(map(str, built)) == ["0,1", "0|1", "1|0"]

def test_mc_verify_rerun_draws_from_a_fresh_stream(monkeypatch, capsys):
    # force a miss on every first run; the 10x re-run must not replay its draws
    import blowupforms.mcoracle as mcoracle

    seeds = []
    estimate_pF = mcoracle.estimate_pF

    def missing(flag, cfg):
        seeds.append(cfg.seed)
        est = estimate_pF(flag, cfg)
        if len(seeds) % 2 == 0:
            return est
        return mcoracle.Estimate(mean=est.mean + 1, stderr=est.stderr, samples=est.samples)

    monkeypatch.setattr(mcoracle, "estimate_pF", missing)
    _, report = run_json(capsys, ["mc-verify", "--target", "pF", "--n", "1", "--samples", "100",
                                  "--rates", "1", "--seed", "4", "--verbose-cases"])
    assert report["results"]["escalated"] == report["results"]["cases"] == 3
    assert len(seeds) == 6
    for case, first, rerun in zip(report["results"]["details"], seeds[::2], seeds[1::2]):
        assert first == (4, 0, *case["case"].encode())
        rerun_rng, first_rng = mcoracle.RaceRandom(rerun), mcoracle.RaceRandom(first)
        draws = {rerun_rng.random() for _ in range(10_000)}
        assert draws.isdisjoint(first_rng.random() for _ in range(1000)), (first, rerun)


def test_mc_verify_samples_bound(monkeypatch, capsys):
    # a missed case re-runs at 10x --samples, which the bound keeps in 64 bits:
    # one above the bound is a usage error that names it, and at the bound a case
    # runs, and so does its forced re-run
    import blowupforms.mcoracle as mcoracle

    bound = (2 ** 63 - 1) // 10
    argv = ["mc-verify", "--target", "pF", "--n", "1", "--samples"]
    assert run(argv + [str(bound + 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"--samples must be at most {bound}" in captured.err
    code, report = run_json(capsys, argv + [str(bound)])
    assert code == 0 and report["pass"] is True

    samples = []
    estimate_pF = mcoracle.estimate_pF

    def missing(flag, cfg):
        samples.append(cfg.samples)
        est = estimate_pF(flag, cfg)
        if len(samples) % 2 == 0:
            return est
        return mcoracle.Estimate(mean=est.mean + 1, stderr=est.stderr, samples=est.samples)

    monkeypatch.setattr(mcoracle, "estimate_pF", missing)
    code, report = run_json(capsys, argv + [str(bound), "--rates", "1"])
    assert report["results"]["escalated"] == report["results"]["cases"] == 3
    assert samples == [bound, 10 * bound] * 3
    assert report["results"]["failures"] == []


def test_mc_verify_dof_case_samples_are_capped(monkeypatch, capsys):
    # a DOF case's error is its ladder's bias, not noise: at the --samples bound
    # it still draws at most 10 000 samples, instead of running out of memory
    import blowupforms.mcoracle as mcoracle

    samples = []
    estimate_face_integral = mcoracle.estimate_face_integral

    def recorded(flag, form, n, seed):
        samples.append(n)
        return estimate_face_integral(flag, form, n, seed)

    monkeypatch.setattr(mcoracle, "estimate_face_integral", recorded)
    code, report = run_json(capsys, ["mc-verify", "--target", "dof", "--n", "1", "--rates", "1",
                                     "--samples", str((2 ** 63 - 1) // 10)])
    assert code == 0 and report["pass"] is True
    assert samples and max(samples) <= 10_000


def test_mc_verify_z_summary_is_opt_in(capsys):
    argv = ["mc-verify", "--target", "all", "--n", "1", "--samples", "2000", "--seed", "9"]
    _, plain = run_json(capsys, argv)
    assert "z_summary" not in plain["results"] and "details" not in plain["results"]
    _, verbose = run_json(capsys, argv + ["--verbose-cases"])
    details = verbose["results"]["details"]
    zs = [(d["estimate"] - d["exact"]) / d["stderr"] for d in details if d["stderr"] > 0]
    assert 0 < len(zs) < len(details)  # one-block flags have stderr 0
    assert verbose["results"]["z_summary"] == {
        "cases": len(zs), "max_abs_z": max(map(abs, zs)), "mean_z": math.fsum(zs) / len(zs),
        "above_2sigma": sum(abs(z) > 2 for z in zs)}
    _, dof = run_json(capsys, ["mc-verify", "--target", "dof", "--n", "1", "--samples", "2000",
                               "--verbose-cases"])
    assert dof["results"]["z_summary"] == {"cases": 0, "max_abs_z": None, "mean_z": None,
                                           "above_2sigma": 0}


def test_mc_verify_results_do_not_depend_on_the_hash_seed():
    # case seeds come from (seed, trial, label bytes), so hash randomisation never reaches the draws
    argv = ["mc-verify", "--target", "pF", "--n", "1", "--samples", "20000",
            "--seed", "5", "--verbose-cases"]
    results = []
    for hash_seed in ("1", "2"):
        proc = _fresh_python("import sys; from blowupforms.cli import run; "
                             "sys.exit(run(sys.argv[1:]))", *argv, PYTHONHASHSEED=hash_seed)
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(proc.stdout)["results"])
    assert results[0] == results[1]
    assert results[0]["details"]


def _fresh_python(code, *argv, **env):
    """Run ``python -c code *argv`` in a new interpreter that imports this checkout's package."""
    return _python("-c", code, *argv, **env)


def _python(*args, **env):
    """Run ``python *args`` in a new interpreter that imports this checkout's package."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, **env,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args],
                          env=env, capture_output=True, text=True, check=False)


def test_module_runs_as_a_script():
    # ``python -m blowupforms.cli`` runs the CLI without installing the package
    proc = _python("-m", "blowupforms.cli", "d-check", "--n", "1")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["pass"] is True
    usage = _python("-m", "blowupforms.cli", "d-check")
    assert usage.returncode == 2 and not usage.stdout


def test_only_mc_verify_loads_numpy():
    # numpy is imported by mcoracle's face integral alone, which only the DOF
    # cases of mc-verify reach: its races draw from the standard library
    code = """
import contextlib, io, json, sys
from blowupforms.cli import run
loaded = {"import": "numpy" in sys.modules}
for name, argv in (("local", ["cohomology", "local", "--n", "2"]),
                   ("global", ["cohomology", "global", "--mesh", "triangle-pair"]),
                   ("mc-verify", ["mc-verify", "--target", "all", "--n", "1", "--samples", "100"]),
                   ("dof", ["mc-verify", "--target", "dof", "--n", "1", "--samples", "100"])):
    with contextlib.redirect_stdout(io.StringIO()):
        run(argv)
    loaded[name] = "numpy" in sys.modules
print(json.dumps(loaded))
"""
    proc = _fresh_python(code)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"import": False, "local": False, "global": False,
                                       "mc-verify": False, "dof": True}


# a fresh interpreter that runs one call, its report sent to stderr, and prints
# the modules loaded; with no arguments it only imports the CLI
_MODULES_PROBE = """
import sys
out, sys.stdout = sys.stdout, sys.stderr
if sys.argv[1:]:
    from blowupforms.cli import run
    run(sys.argv[1:])
else:
    import blowupforms.cli
out.write(" ".join(sys.modules))
"""
# the layers no call of the exact core needs, and those only the mesh and degree-r
# commands need
_NOT_EXACT = {"blowupforms.mesh", "blowupforms.hiord", "blowupforms.mcoracle", "numpy"}
_NOT_COMPLEX = _NOT_EXACT | {"blowupforms.blowcx", "blowupforms.linalg"}


@pytest.fixture(scope="module")
def bare_modules():
    proc = _fresh_python("import sys; print(*sys.modules)")  # what python -c pass loads
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def _added_modules(bare, *argv):
    proc = _fresh_python(_MODULES_PROBE, *argv)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split()) - bare


def test_importing_the_cli_loads_no_layer(bare_modules):
    added = _added_modules(bare_modules)
    assert {m for m in added if m.startswith("blowupforms")} == {"blowupforms", "blowupforms.cli"}
    assert not added & {"dataclasses", "inspect"}


# what each call must not load, besides dataclasses
_ABSENT = {
    "whitney-check --n 1": _NOT_COMPLEX,
    "dof-matrix --n 1": _NOT_COMPLEX,
    "d-check --n 1": _NOT_EXACT,
    "cohomology local --n 1": _NOT_EXACT,
    "basis --n 1": _NOT_COMPLEX,
    "higher-order --n 1 --r 1": {"blowupforms.mesh", "blowupforms.mcoracle", "numpy"},
    "cohomology global --mesh triangle-pair": {"blowupforms.hiord", "blowupforms.mcoracle"},
    "mc-verify --target pF --n 1 --samples 10": {"blowupforms.mesh", "numpy"},
    "mc-verify --target dof --n 1 --samples 10": {"blowupforms.mesh"},
}


@pytest.mark.parametrize("argv", sorted(_ABSENT))
def test_each_call_loads_only_what_its_subcommand_runs(bare_modules, argv):
    added = _added_modules(bare_modules, *argv.split())
    assert not added & (_ABSENT[argv] | {"dataclasses"})
    if "--target dof" in argv:
        assert "numpy" in added  # the probe sees what a call loads


def test_emit_samples(tmp_path, capsys):
    code, report = run_json(capsys, ["emit-samples", "--outdir", str(tmp_path)])
    assert code == 0
    assert len(report["results"]["files"]) >= 7


def test_usage_error_exit_2(capsys):
    assert run(["no-such-command"]) == 2
    capsys.readouterr()


def test_global_cohomology_without_mesh_is_usage_error(capsys):
    assert run(["cohomology", "global"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--mesh" in captured.err


@pytest.mark.parametrize("mesh, cells", [("triangle-pair", 2), ("fan-disk", 6)])
def test_cell_discontinuous_h0_is_cell_count(capsys, mesh, cells):
    code, report = run_json(
        capsys, ["cohomology", "global", "--mesh", mesh, "--rule", "cell-discontinuous"]
    )
    assert code == 0
    assert report["results"]["betti_blowup"] == [cells]
    assert report["results"]["match"] is True


def _error_exit(capsys, argv):
    code, report = run_json(capsys, argv)
    assert report["pass"] is False
    assert set(report["error"]) == {"type", "message"}
    return code, report


def test_missing_mesh_file_is_usage_error(capsys):
    code, report = _error_exit(capsys, ["cohomology", "global", "--mesh", "/nonexistent.json"])
    assert code == 2
    assert report["error"]["type"] == "FileNotFoundError"
    assert report["command"] == "cohomology"


@pytest.mark.parametrize("text", [
    '{"dimension": 2, "cells": [[0, 1]]}', "not json", "[]",
    # numbers that are not non-negative JSON integers
    '{"dimension": 1, "cells": [[0.2, 1.9], [1.1, 2]]}',
    '{"dimension": 1, "cells": [[true, 2]]}',
    '{"dimension": 1, "cells": [["a", 1]]}',
    '{"dimension": 1, "cells": [[-1, 1]]}',
    '{"dimension": "1.5", "cells": [[0, 1]]}',
    '{"dimension": 1, "cells": 5}',
    # bytes that are not UTF-8
    b'\xff\xfe{"dimension": 1, "cells": [[0, 1]]}',
])
def test_malformed_mesh_is_usage_error(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_bytes(text.encode() if isinstance(text, str) else text)
    code, report = _error_exit(capsys, ["cohomology", "global", "--mesh", str(path)])
    assert code == 2
    assert report["error"]["type"] == "MeshError"


@pytest.mark.parametrize("doc, limit", [
    ({"dimension": 0, "cells": [[0], [1]]}, "1..5"),
    ({"dimension": 6, "cells": [list(range(7))]}, "|V| <= 6"),
    ({"dimension": 7, "cells": [list(range(8))]}, "|V| <= 6"),
])
def test_mesh_dimension_out_of_range_is_usage_error(tmp_path, capsys, doc, limit):
    path = tmp_path / "mesh.json"
    path.write_text(json.dumps(doc))
    code, report = _error_exit(capsys, ["cohomology", "global", "--mesh", str(path)])
    assert code == 2
    assert report["error"]["type"] == "MeshError"
    assert limit in report["error"]["message"]


@pytest.mark.parametrize("cells, face", [
    ([[0, 1, 2, 3], [0, 4, 5, 6]], "vertex 0"),
    ([[0, 1, 2, 3], [0, 1, 4, 5]], "face (0, 1)"),
    # the cone over an annulus: every star is connected, but the link of 6 is no disk
    ([[0, 1, 2, 6], [0, 1, 5, 6], [0, 3, 5, 6], [1, 2, 4, 6], [2, 3, 4, 6], [3, 4, 5, 6]],
     "vertex 6"),
])
def test_3d_pinch_is_usage_error(tmp_path, capsys, cells, face):
    # two tetrahedra sharing only a vertex, or only an edge
    path = tmp_path / "pinch.json"
    path.write_text(json.dumps({"dimension": 3, "cells": cells}))
    code, report = _error_exit(
        capsys, ["cohomology", "global", "--mesh", str(path), "--rule", "general"])
    assert code == 2
    assert report["error"]["type"] == "MeshError"
    assert report["error"]["message"].startswith(f"{face} has a link with Betti numbers")


def test_manifold_none_is_usage_error(tmp_path, capsys):
    path = tmp_path / "fan.json"
    path.write_text(json.dumps(
        {"dimension": 2, "cells": [[0, 1, 2], [0, 1, 3], [0, 1, 4]], "manifold": "none"}))
    code, report = _error_exit(capsys, ["cohomology", "global", "--mesh", str(path)])
    assert code == 2
    assert report["error"] == {"type": "MeshError",
                               "message": "manifold must be closed/boundary, got 'none'"}


@pytest.mark.parametrize("argv", [
    ["basis", "--n", "-1"],
    ["basis", "--n", "2", "--k", "3"],
    ["basis", "--n", "2", "--eval-grid", "-1"],
    ["whitney-check", "--n", "-1"],
    ["d-check", "--n", "-1"],
    ["mc-verify", "--target", "pF", "--n", "-1"],
    ["mc-verify", "--target", "all", "--n", "0"],
    ["mc-verify", "--target", "pF", "--samples", "0"],
    ["mc-verify", "--target", "pF", "--rates", "0"],
    ["mc-verify", "--target", "higher", "--r", "0"],
    ["higher-order", "--n", "-1", "--r", "2"],
    ["higher-order", "--n", "2", "--r", "0"],
    ["dof-matrix", "--n", "2", "--k", "5"],
    ["dof-matrix", "--n", "2", "--k", "-1"],
    ["cohomology", "local", "--n", "6"],
    ["cohomology", "local", "--n", "-1"],
    ["mc-verify", "--target", "pF", "--n", "1", "--seed", "-1"],
    ["d-check", "--n", "2", "--budget-seconds", "-1"],
    ["dof-matrix", "--n", "2", "--budget-seconds", "-0.5"],
    ["dof-matrix", "--n", "2", "--budget-seconds", "nan"],
    ["mc-verify", "--target", "pF", "--n", "1", "--budget-seconds", "-1"],
])
def test_out_of_range_number_is_usage_error(capsys, argv):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: --" in captured.err


def test_unknown_rule_is_usage_error(capsys):
    code, report = _error_exit(
        capsys, ["cohomology", "global", "--mesh", "triangle", "--rule", "no-such-rule"]
    )
    assert code == 2
    assert "no-such-rule" in report["error"]["message"]


def test_internal_error_exits_1_with_report(monkeypatch, capsys):
    from blowupforms import shadow

    def broken(F):
        raise ZeroDivisionError("bug")

    monkeypatch.setattr(shadow, "poisson_probability", broken)
    code, report = _error_exit(capsys, ["basis", "--n", "1"])
    assert code == 1
    assert report["error"] == {"type": "ZeroDivisionError", "message": "bug"}


@pytest.mark.parametrize("target, exc, argv", [
    ("blowcx.d_decomposition", TypeError("bug"), ["d-check", "--n", "1"]),
    ("shadow.whitney_containment", KeyError("bug"), ["whitney-check", "--n", "1"]),
    ("hiord.pr_containment", KeyError("bug"),
     ["higher-order", "--n", "1", "--r", "2", "--check", "containment"]),
], ids=["d_decomposition", "whitney_containment", "pr_containment"])
def test_kernel_bug_is_an_internal_error_not_a_check_failure(monkeypatch, capsys, target, exc,
                                                             argv):
    # only an ArithmeticError from the exact core counts as a failed check
    def broken(*args):
        raise exc

    monkeypatch.setattr(f"blowupforms.{target}", broken)
    code, report = _error_exit(capsys, argv)
    assert code == 1
    assert report["error"]["type"] == type(exc).__name__
    assert "results" not in report


def test_decomposition_failure_is_a_check_failure(monkeypatch, capsys):
    from blowupforms import blowcx
    from blowupforms.shadow import DecompositionFailed

    def failed(F):
        raise DecompositionFailed(f"coefficient 2 for {F}")

    monkeypatch.setattr(blowcx, "d_decomposition", failed)
    code, report = run_json(capsys, ["d-check", "--n", "1"])
    assert code == 1
    assert "error" not in report
    # 1|0 takes its column from the representative 0|1, so it fails with it
    assert report["results"]["failures"] == [
        {"flag": "0|1", "reason": "coefficient 2 for 0|1"},
        {"flag": "1|0", "reason": "transported from 0|1: coefficient 2 for 0|1"},
        {"flag": "0,1", "reason": "coefficient 2 for 0,1"},
    ]


def _flip_merge_sign(monkeypatch, text, j):
    """Negate Flag.merge_sign for the one flag ``text`` at merge index j."""
    from blowupforms.flagcomb import Flag

    real = Flag.merge_sign
    target = Flag.parse(text)
    monkeypatch.setattr(Flag, "merge_sign",
                        lambda F, i: -real(F, i) if (F, i) == (target, j) else real(F, i))


def test_sign_error_in_a_decomposition_fails_d_check(monkeypatch, capsys):
    # d(d psi) = 0 is checked on the columns, so one flipped sign in the column
    # of 1|0|2 leaves -2 psi_{0,1,2} in d(d psi_{1|0|2}); the proof runs on the
    # representative 0|1|2, whose column is untouched, so only 1|0|2 fails
    _flip_merge_sign(monkeypatch, "1|0|2", 1)
    code, report = run_json(capsys, ["d-check", "--n", "2"])
    assert code == 1
    assert report["results"]["flags_checked"] == 13
    assert report["results"]["failures"] == [
        {"flag": "1|0|2", "reason": "dd != 0: -2 psi_0,1,2"}]


def test_flipped_merge_sign_fails_d_check(monkeypatch, capsys):
    # every solved coefficient must equal the closed-form sign, so a flipped
    # rule fails each flag with a merge, and the report names both signs
    from blowupforms.flagcomb import Flag, enumerate_flags

    real = Flag.merge_sign
    monkeypatch.setattr(Flag, "merge_sign", lambda F, j: -real(F, j))
    code, report = run_json(capsys, ["d-check", "--n", "2"])
    assert code == 1
    failures = report["results"]["failures"]
    assert {f["flag"] for f in failures} == {
        str(F) for k in range(2) for F in enumerate_flags((0, 1, 2), k)}
    first = failures[0]
    assert first["flag"] == "0|1|2"
    assert first["reason"] == ("coefficient -1 for 0,1|2 in d(psi_0|1|2), "
                               "closed-form sign 1")


def test_negated_solved_coefficient_fails_d_check(monkeypatch, capsys):
    # one coarsening's solved coefficient flipped, as a wrong DOF of d(psi) would
    # flip it: d_decomposition holds it against the closed-form sign before the
    # dd check, so the report names both, for the whole orbit of 0|1|2
    from blowupforms import shadow
    from blowupforms.flagcomb import Flag

    real = shadow.dof_evaluate
    target = Flag.parse("0,1|2")
    monkeypatch.setattr(shadow, "dof_evaluate",
                        lambda F, w: -real(F, w) if F == target else real(F, w))
    code, report = run_json(capsys, ["d-check", "--n", "2"])
    assert code == 1
    failures = report["results"]["failures"]
    assert [f["flag"] for f in failures] == ["0|1|2", "0|2|1", "1|0|2", "1|2|0", "2|0|1", "2|1|0"]
    assert failures[0]["reason"] == ("coefficient 1 for 0,1|2 in d(psi_0|1|2), "
                                     "closed-form sign -1")


@pytest.mark.parametrize("argv", [
    ["cohomology", "local", "--n", "2"],
    ["cohomology", "global", "--mesh", "triangle-pair", "--rule", "general"],
], ids=["local", "global"])
def test_sign_error_in_a_decomposition_fails_cohomology(monkeypatch, capsys, argv):
    # a failed d-structure check while building the local complex is a check
    # failure, reported under the command's own name, not an internal error
    _flip_merge_sign(monkeypatch, "1|0|2", 1)
    code, report = run_json(capsys, argv)
    assert code == 1
    assert "error" not in report
    assert report["command"] == f"cohomology-{argv[1]}"
    assert report["pass"] is False
    assert report["results"]["failure"] == "d(psi_1|0|2): dd != 0: -2 psi_0,1,2"


def test_budget_reports_partial(capsys):
    # a run the budget cut short is no pass, even when nothing it checked failed
    for argv in (["d-check", "--n", "3"], ["dof-matrix", "--n", "3", "--assert-identity"],
                 ["mc-verify", "--target", "pF", "--n", "2", "--samples", "1000"]):
        code, report = run_json(capsys, argv + ["--budget-seconds", "0"])
        assert code == 3, argv
        assert report["pass"] is False
        assert report["results"]["partial"] is True


def test_failure_before_the_budget_cut_exits_1(monkeypatch, capsys):
    # a fake clock that advances 1 s per flag taken, and every proof failing:
    # the failures found before the cut decide the exit code
    import types

    import blowupforms.cli as cli
    from blowupforms import blowcx
    from blowupforms.shadow import DecompositionFailed

    clock = [0.0]
    real_representative = blowcx.standard_representative

    def slow_representative(F):
        clock[0] += 1.0
        return real_representative(F)

    def failed(F):
        raise DecompositionFailed(f"coefficient 2 for {F}")

    monkeypatch.setattr(cli, "time", types.SimpleNamespace(
        monotonic=lambda: clock[0], perf_counter=cli.time.perf_counter))
    monkeypatch.setattr(blowcx, "standard_representative", slow_representative)
    monkeypatch.setattr(blowcx, "d_decomposition", failed)
    code, report = run_json(capsys, ["d-check", "--n", "2", "--budget-seconds", "2.5"])
    assert code == 1
    assert report["pass"] is False
    assert report["results"]["partial"] is True
    assert len(report["results"]["failures"]) == report["results"]["flags_checked"] == 3


def test_d_check_budget_is_checked_per_flag(monkeypatch, capsys):
    # a fake clock that advances 1 s per flag taken: with a 2.5 s budget the
    # fourth flag finds the budget spent
    import types

    import blowupforms.cli as cli
    from blowupforms import blowcx

    clock = [0.0]
    real_representative = blowcx.standard_representative

    def slow_representative(F):
        clock[0] += 1.0
        return real_representative(F)

    monkeypatch.setattr(cli, "time", types.SimpleNamespace(
        monotonic=lambda: clock[0], perf_counter=cli.time.perf_counter))
    monkeypatch.setattr(blowcx, "standard_representative", slow_representative)
    code, report = run_json(capsys, ["d-check", "--n", "2", "--budget-seconds", "2.5"])
    assert code == 3
    assert report["results"]["flags_checked"] == 3
    assert report["results"]["partial"] is True


def test_d_check_budget_enumerates_at_most_one_degree(monkeypatch, capsys):
    # the flags are enumerated degree by degree as the budget takes them, so a
    # spent budget builds no degree past the first
    from blowupforms import flagcomb

    calls = [0]
    real_enumerate = flagcomb.enumerate_flags

    def counted(*args):
        calls[0] += 1
        return real_enumerate(*args)

    monkeypatch.setattr(flagcomb, "enumerate_flags", counted)
    code, report = run_json(capsys, ["d-check", "--n", "4", "--budget-seconds", "0"])
    assert code == 3
    assert report["results"] == {"flags_checked": 0, "failures": [], "partial": True}
    assert calls[0] <= 1


def test_dof_matrix_budget_is_checked_per_degree(monkeypatch, capsys):
    # a fake clock that advances 1 s each time it is read: the budget reads it
    # once at the start and once before each degree, so with a 1.5 s budget
    # degree 1 finds the budget spent; a report lists only whole degrees
    import itertools
    import types

    import blowupforms.cli as cli
    from blowupforms import shadow

    calls = [0]
    real_dof_evaluate = shadow.dof_evaluate

    def counted(*args):
        calls[0] += 1
        return real_dof_evaluate(*args)

    def fake_time():
        return types.SimpleNamespace(monotonic=itertools.count().__next__,
                                     perf_counter=cli.time.perf_counter)

    monkeypatch.setattr(shadow, "dof_evaluate", counted)
    monkeypatch.setattr(cli, "time", fake_time())
    code, report = run_json(capsys, ["dof-matrix", "--n", "2", "--budget-seconds", "1.5"])
    assert code == 3
    assert report["results"]["partial"] is True
    [degree] = report["results"]["matrices"]
    assert degree["k"] == 0 and degree["identity"] is True
    assert degree["rows_computed"] == degree["size"] == 6
    # no degree taken, no pairing
    calls[0] = 0
    monkeypatch.setattr(cli, "time", fake_time())
    code, report = run_json(capsys, ["dof-matrix", "--n", "2", "--budget-seconds", "0"])
    assert report["results"]["partial"] is True
    assert report["results"]["matrices"] == []
    assert calls[0] == 0


def test_basis_eval_grid(capsys):
    code, report = run_json(capsys, ["basis", "--n", "1", "--k", "0", "--eval-grid", "2"])
    assert code == 0
    entry = report["results"]["entries"][0]
    assert "grid" in entry and len(entry["grid"]) == 4


def test_reports_deterministic(capsys):
    _, a = run_json(capsys, ["basis", "--n", "2"])
    _, b = run_json(capsys, ["basis", "--n", "2"])
    a.pop("timing_ms"), b.pop("timing_ms")
    assert a == b


REPORT_DIGESTS = json.loads((Path(__file__).parent / "report_digests.json").read_text())


@pytest.mark.parametrize("command", sorted(REPORT_DIGESTS))
def test_report_matches_recorded_digest(monkeypatch, tmp_path, capsys, command):
    # sha256 of the canonical JSON of the whole report except timing_ms;
    # the recorded digests pin the reports byte for byte across refactors
    monkeypatch.chdir(tmp_path)  # so that a relative mesh path is missing
    code, report = run_json(capsys, command.split())
    report.pop("timing_ms", None)
    canonical = json.dumps(report, sort_keys=True, separators=(",", ":"))
    assert {"exit": code, "sha256": hashlib.sha256(canonical.encode()).hexdigest()} \
        == REPORT_DIGESTS[command]
