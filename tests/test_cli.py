import dataclasses
import hashlib
import json
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
        e = real(F)
        return dataclasses.replace(e, form=e.form * 2)

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
    from blowupforms.mcoracle import RNG_ALGORITHM, generator

    assert report["results"]["rng"] == RNG_ALGORITHM
    assert RNG_ALGORITHM == "numpy.random." + type(generator(0).bit_generator).__name__



def test_mc_verify_dof_builds_each_basis_element_once(monkeypatch, capsys):
    # the --rates trials of a flag share one basis element
    import blowupforms.cli as cli
    from blowupforms.shadow import basis_element

    built = []

    def counted(flag):
        built.append(flag)
        return basis_element(flag)

    monkeypatch.setattr(cli, "basis_element", counted)
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
        return est if len(seeds) % 2 == 0 else dataclasses.replace(est, mean=est.mean + 1)

    monkeypatch.setattr(mcoracle, "estimate_pF", missing)
    _, report = run_json(capsys, ["mc-verify", "--target", "pF", "--n", "1", "--samples", "100",
                                  "--rates", "1", "--seed", "4", "--verbose-cases"])
    assert report["results"]["escalated"] == report["results"]["cases"] == 3
    assert len(seeds) == 6
    for case, first, rerun in zip(report["results"]["details"], seeds[::2], seeds[1::2]):
        assert first == (4, 0, *case["case"].encode())
        draws = set(mcoracle.generator(rerun).random(10_000).tolist())
        assert draws.isdisjoint(mcoracle.generator(first).random(1000).tolist()), (first, rerun)


def test_mc_verify_z_summary_is_opt_in(capsys):
    argv = ["mc-verify", "--target", "all", "--n", "1", "--samples", "2000", "--seed", "9"]
    _, plain = run_json(capsys, argv)
    assert "z_summary" not in plain["results"]
    _, verbose = run_json(capsys, argv + ["--verbose-cases"])
    details = verbose["results"]["details"]
    zs = [(d["estimate"] - d["exact"]) / d["stderr"] for d in details if d["stderr"] > 0]
    assert 0 < len(zs) < len(details)  # one-block flags have stderr 0
    assert verbose["results"]["z_summary"] == {
        "cases": len(zs), "max_abs_z": max(map(abs, zs)), "mean_z": sum(zs) / len(zs),
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
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, **env,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code, *argv],
                          env=env, capture_output=True, text=True, check=False)


def test_only_mc_verify_loads_numpy():
    # numpy is imported by mcoracle alone, which the exact commands never reach
    code = """
import contextlib, io, json, sys
from blowupforms.cli import run
loaded = {"import": "numpy" in sys.modules}
for name, argv in (("local", ["cohomology", "local", "--n", "2"]),
                   ("global", ["cohomology", "global", "--mesh", "triangle-pair"]),
                   ("mc-verify", ["mc-verify", "--target", "pF", "--n", "1", "--samples", "100"])):
    with contextlib.redirect_stdout(io.StringIO()):
        run(argv)
    loaded[name] = "numpy" in sys.modules
print(json.dumps(loaded))
"""
    proc = _fresh_python(code)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"import": False, "local": False, "global": False,
                                       "mc-verify": True}


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
    # numbers that are not non-negative JSON integers, or not +-1 orientations
    '{"dimension": 1, "cells": [[0.2, 1.9], [1.1, 2]]}',
    '{"dimension": 2, "cells": [[0, 1, 2]], "orientation": [1.5]}',
    '{"dimension": 1, "cells": [[true, 2]]}',
    '{"dimension": 1, "cells": [["a", 1]]}',
    '{"dimension": 1, "cells": [[-1, 1]]}',
    '{"dimension": "1.5", "cells": [[0, 1]]}',
    '{"dimension": 1, "cells": 5}',
])
def test_malformed_mesh_is_usage_error(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
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
])
def test_3d_pinch_is_usage_error(tmp_path, capsys, cells, face):
    # two tetrahedra sharing only a vertex, or only an edge
    path = tmp_path / "pinch.json"
    path.write_text(json.dumps({"dimension": 3, "cells": cells}))
    code, report = _error_exit(
        capsys, ["cohomology", "global", "--mesh", str(path), "--rule", "general"])
    assert code == 2
    assert report["error"]["type"] == "MeshError"
    assert report["error"]["message"].startswith(f"{face} has a disconnected link")


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
    import blowupforms.cli as cli

    def broken(V, k):
        raise ZeroDivisionError("bug")

    monkeypatch.setattr(cli, "shadow_basis", broken)
    code, report = _error_exit(capsys, ["basis", "--n", "1"])
    assert code == 1
    assert report["error"] == {"type": "ZeroDivisionError", "message": "bug"}


@pytest.mark.parametrize("target, exc, argv", [
    ("blowcx.d_decomposition", TypeError("bug"), ["d-check", "--n", "1"]),
    ("cli.whitney_containment", KeyError("bug"), ["whitney-check", "--n", "1"]),
    ("cli.pr_containment", KeyError("bug"),
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


def test_sign_error_in_a_decomposition_fails_d_check(monkeypatch, capsys):
    # d(d psi) = 0 is checked on the decompositions, so one flipped sign in
    # d(psi_{0|1|2}) leaves 2 psi_{0,1,2} in d(d psi_{0|1|2}); 0|1|2 stands for
    # its whole orbit, so the flip reaches every flag with three blocks
    from blowupforms import blowcx
    from blowupforms.flagcomb import Flag

    real = blowcx.d_decomposition
    target = Flag.parse("0|1|2")

    def flipped(F):
        out = real(F)
        if F == target:
            (sign, G), *rest = out
            return [(-sign, G)] + rest
        return out

    monkeypatch.setattr(blowcx, "d_decomposition", flipped)
    code, report = run_json(capsys, ["d-check", "--n", "2"])
    assert code == 1
    assert report["results"]["flags_checked"] == 13
    failures = report["results"]["failures"]
    assert [f["flag"] for f in failures] == ["0|1|2", "0|2|1", "1|0|2", "1|2|0", "2|0|1", "2|1|0"]
    assert all(f["reason"].startswith("dd != 0") for f in failures)
    assert "2 psi_0,1,2" in failures[0]["reason"]


@pytest.mark.parametrize("argv", [
    ["cohomology", "local", "--n", "2"],
    ["cohomology", "global", "--mesh", "triangle-pair", "--rule", "general"],
], ids=["local", "global"])
def test_sign_error_in_a_decomposition_fails_cohomology(monkeypatch, capsys, argv):
    # a failed d-structure check while building the local complex is a check
    # failure, reported under the command's own name, not an internal error
    from blowupforms import blowcx
    from blowupforms.flagcomb import Flag

    real = blowcx.d_decomposition
    target = Flag.parse("0|1|2")

    def flipped(F):
        out = real(F)
        if F == target:
            (sign, G), *rest = out
            return [(-sign, G)] + rest
        return out

    monkeypatch.setattr(blowcx, "d_decomposition", flipped)
    code, report = run_json(capsys, argv)
    assert code == 1
    assert "error" not in report
    assert report["command"] == f"cohomology-{argv[1]}"
    assert report["pass"] is False
    assert report["results"]["failure"] == "d(psi_0|1|2): dd != 0: 2 psi_0,1,2"


def test_budget_reports_partial(capsys):
    code, report = run_json(capsys, ["d-check", "--n", "3", "--budget-seconds", "0"])
    assert report["results"]["partial"] is True


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
        monotonic=lambda: clock[0], time=cli.time.time))
    monkeypatch.setattr(blowcx, "standard_representative", slow_representative)
    code, report = run_json(capsys, ["d-check", "--n", "2", "--budget-seconds", "2.5"])
    assert code == 0
    assert report["results"]["flags_checked"] == 3
    assert report["results"]["partial"] is True


def test_dof_matrix_budget_is_checked_per_row(monkeypatch, capsys):
    # a fake clock that advances 1 s each time it is read: the budget reads it
    # once at the start and once before each row, so with a 2.5 s budget the
    # third row of the first degree finds the budget spent
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
        return types.SimpleNamespace(monotonic=itertools.count().__next__, time=cli.time.time)

    monkeypatch.setattr(shadow, "dof_evaluate", counted)
    monkeypatch.setattr(cli, "time", fake_time())
    code, report = run_json(capsys, ["dof-matrix", "--n", "2", "--budget-seconds", "2.5"])
    assert code == 0
    assert report["results"]["partial"] is True
    assert [m["rows_computed"] for m in report["results"]["matrices"]] == [2]
    assert calls[0] == 6  # the first row took the degree's one column: 6 DOFs of psi_0|1|2
    # no row taken, no pairing: the columns are filled when the first row is taken
    calls[0] = 0
    monkeypatch.setattr(cli, "time", fake_time())
    code, report = run_json(capsys, ["dof-matrix", "--n", "2", "--budget-seconds", "0"])
    assert report["results"]["partial"] is True
    assert [m["rows_computed"] for m in report["results"]["matrices"]] == [0]
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
