"""Command-line front end.

Every subcommand writes a machine-readable JSON report to stdout and a
one-line human summary to stderr.  Exit codes: 0 when all asserted checks
pass, 1 on a check failure or an internal error, 2 on usage errors, which
include an unreadable or invalid mesh, an unknown gluing rule and a numeric
option out of range, and 3 when a budget cut a suite short before any check
failed (``EXIT_PARTIAL``).  A check fails only on a wrong result or on an
``ArithmeticError`` raised by the exact core (``DecompositionFailed``,
``IdentityFailed`` and the like); any other exception is a bug and exits 1
with an ``"error"`` object naming the exception class.  An error after the
arguments parse still writes a JSON report, with ``"pass": false``.  Long
suites accept ``--budget-seconds`` and report partial coverage instead of
hanging; the budget is checked before each degree (``dof-matrix``), each
flag (``d-check``) and each flag or candidate (``mc-verify``).  A partial
report lists only what it checked in full, and it is no pass: ``"pass"`` is
false and the exit code 3, or 1 if a check failed before the cut.

Each ``_cmd_*`` function returns ``(inputs, results, passed)``; ``run``
alone times the command, writes the report and chooses the exit code.  The
module top imports the standard library only: each ``_cmd_*`` imports the
layers it runs, so a call loads (and compiles) no layer its subcommand does
not use.  A function-local import reads the module attribute at call time, so
a wrapper or a test patch set on the defining module sees every call.

``d-check``, ``dof-matrix`` and ``whitney-check`` work once per orbit under
relabelling of the vertices.  ``d-check`` verifies ``d(psi_R)`` in full for one
standard flag R per block-size composition (``blowcx.decompose``); every flag's
column is then read off its cells by ``Flag.merge_sign``, and ``d(d psi_F) = 0``
is checked on those columns.  ``dof-matrix`` pairs each R's DOF column once per
orbit of R's stabiliser (``shadow.orbit_pairing``), and ``flagcomb.push_forward``
carries it to every flag of R's orbit.  ``whitney-check`` proves one W per
subset size.  The tests check every column against the per-flag path.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from itertools import combinations, product

from . import __version__

SCHEMA = "blowup-report/1"
# the exit code of a suite that a budget cut short before any check failed
EXIT_PARTIAL = 3


class Budget:
    """A wall-clock budget; ``partial`` is set once it cuts a suite short."""

    def __init__(self, seconds):
        self.start = time.monotonic()
        self.seconds = seconds
        self.partial = False

    def take(self, items):
        """Yield items until one finds the budget spent, then set ``partial``."""
        for item in items:
            if self.seconds is not None and time.monotonic() - self.start > self.seconds:
                self.partial = True
                return
            yield item


def _write_latex(path: str, header: str, rows: list[str]) -> None:
    """Write a three-column LaTeX tabular with one line per row."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"\\begin{{tabular}}{{c|c|c}}\n{header} \\\\\n\\hline\n"
                 + "\n".join(rows) + "\n\\end{tabular}\n")


# ---------------------------------------------------------------------------
# subcommands: each returns (inputs, results, passed)
# ---------------------------------------------------------------------------

def _cmd_basis(args):
    from .flagcomb import enumerate_flags
    from .shadow import flag_omega, poisson_probability
    from .symexpr import form_latex, form_to_json, rational_fn_to_json

    V = tuple(range(args.n + 1))
    ks = [args.k] if args.k is not None else list(range(args.n + 1))
    elems = []
    for k in ks:
        for F in enumerate_flags(V, k):
            # psi_F as ``basis_element`` builds it, with p_F (half the work) built once
            p = poisson_probability(F)
            elems.append((k, F, p, flag_omega(F) * p))
    entries = []
    for k, F, p, psi in elems:
        entry = {
            "k": k,
            "flag": str(F),
            "flag_compact": F.compact(),
            "probability": rational_fn_to_json(p),
            "psi": form_to_json(psi),
        }
        if args.eval_grid:
            entry["grid"] = _grid_values(F, psi, args.eval_grid)
        entries.append(entry)
    if args.latex:
        _write_latex(args.latex, "$k$ & $F$ & $\\psi_F$", [
            f"{k} & ${F.compact()}$ & ${form_latex(psi)}$ \\\\"
            for k, F, _, psi in elems
        ])
    return {"n": args.n, "k": args.k}, {"count": len(entries), "entries": entries}, True


def _grid_values(F, psi, m: int):
    """Coefficient samples of psi_F on a barycentric grid (CSV-ready rows)."""
    V = F.vertices
    rows = []
    for weights in product(range(1, m + 1), repeat=len(V)):
        total = sum(weights)
        point = {v: Fraction(w, total) for v, w in zip(V, weights)}
        vals = {
            ",".join(map(str, sorted(W))): float(f.evaluate(point))
            for W, f in psi.terms.items()
        }
        rows.append({"point": [str(point[v]) for v in V], "coefficients": vals})
    return rows


def _cmd_dof_matrix(args):
    from .dof import first_mismatch
    from .flagcomb import enumerate_flags
    from .shadow import gram_matrix

    V = tuple(range(args.n + 1))
    budget = Budget(args.budget_seconds)
    ks = [args.k] if args.k is not None else list(range(args.n + 1))
    matrices = []
    for k in budget.take(ks):
        flags = list(enumerate_flags(V, k))
        entry = {"k": k, "size": len(flags)}
        try:
            columns = gram_matrix(V, k)
        except ArithmeticError as exc:  # DivergentLimit, NonPolynomialResidue
            entry.update(flags=[str(F) for F in flags], identity=False, failure=str(exc))
        else:
            bad = first_mismatch(flags, columns)
            entry.update(rows_computed=len(columns), flags=[str(F) for F in flags],
                         identity=bad is None)
            if bad is not None:
                i, j, x = bad
                entry["first_mismatch"] = {"row": str(flags[i]), "column": str(flags[j]),
                                           "value": str(x)}
            if args.matrices:
                entry["entries"] = [[str(col.get(G, 0)) for col in columns] for G in flags]
        matrices.append(entry)
    ok = all(entry["identity"] for entry in matrices)
    results = {"matrices": matrices, "partial": budget.partial, "identity_all": ok}
    return {"n": args.n, "k": args.k}, results, ok or not args.assert_identity


def _cmd_d_check(args):
    from .blowcx import decompose
    from .flagcomb import enumerate_flags

    V = tuple(range(args.n + 1))
    budget = Budget(args.budget_seconds)
    # lazy, flag by flag, so that a spent budget stops before the next flag is built
    flags = (F for k in range(args.n + 1) for F in enumerate_flags(V, k))
    taken, _, failed = decompose(budget.take(flags))
    failures = [{"flag": str(F), "reason": reason} for F, reason in failed.items()]
    results = {"flags_checked": len(taken), "failures": failures, "partial": budget.partial}
    return {"n": args.n}, results, not failures


def _cmd_whitney_check(args):
    """Prove phi_W = sum psi_F once per subset size s, on W0 = V[:s], for every W of size s.

    Exact: sigma mapping W0 onto W and V - W0 onto V - W, both ascending, carries
    each flag (W0 | singletons...) to one of W's with block sign eps = 1, and
    phi_W0 to phi_W: W's identity is W0's, relabelled.
    """
    from .shadow import whitney_containment

    V = tuple(range(args.n + 1))
    failures = []
    for size in range(1, len(V) + 1):
        W0 = V[:size]
        try:
            whitney_containment(W0, V)
        except ArithmeticError as exc:  # IdentityFailed
            failures += [{"W": list(W), "reason": str(exc) if W == W0 else
                          f"transported from {','.join(map(str, W0))}: {exc}"}
                         for W in combinations(V, size)]
    results = {"subsets_checked": 2 ** len(V) - 1, "failures": failures}
    return {"n": args.n}, results, not failures


def _cmd_cohomology(args):
    from .blowcx import betti_numbers, build_blowup_complex

    inputs = {"n": args.n} if args.mode == "local" else {"mesh": args.mesh, "rule": args.rule}
    try:
        if args.mode == "global":
            from .mesh import global_cohomology

            rep = global_cohomology(args.mesh, args.rule)
            return inputs, rep, rep["dd_zero"] and rep["match"]
        cx = build_blowup_complex(tuple(range(args.n + 1)))
    except ArithmeticError as exc:  # DecompositionFailed from a local complex's build
        return inputs, {"failure": str(exc)}, False
    betti = betti_numbers(cx)
    expected = tuple([1] + [0] * args.n)
    results = {
        "f_vector": list(cx.f_vector),
        "betti": list(betti),
    }
    if args.matrices:
        # dense rows over cells[k + 1], read off the stored columns
        results["coboundary"] = {
            str(k): [[str(col.get(r, 0)) for col in cols]
                     for r in range(len(cx.cells[k + 1]))]
            for k, cols in cx.coboundary.items()
        }
    if args.json_faces:
        results["faces"] = {
            str(k): [str(F) for F in cells] for k, cells in cx.cells.items()
        }
    return inputs, results, betti == expected


def _cmd_higher_order(args):
    from .flagcomb import enumerate_flags
    from .hiord import (
        enumerate_experiments,
        face_vanishing_check,
        independence_rank,
        pr_containment,
        r1_reduction_check,
    )
    from .symexpr import rational_fn_latex, rational_fn_to_json

    V = tuple(range(args.n + 1))
    cands = enumerate_experiments(V, args.r)
    checks = args.check
    results: dict = {"count": len(cands)}
    passed = True
    results["candidates"] = [{
        "flag": str(c.flag),
        "flag_compact": c.flag.compact(),
        "sequence": c.sequence.compact(),
        "probability": rational_fn_to_json(c.probability),
    } for c in cands]
    if checks in ("independence", "all"):
        rank = independence_rank(cands)
        results["independence_rank"] = rank
        results["independent"] = rank == len(cands)
    if checks in ("containment", "all"):
        try:
            results["containment"] = pr_containment(V, args.r)
        except ArithmeticError as exc:  # IdentityFailed
            results["containment"] = False
            results["containment_error"] = str(exc)
            passed = False
    if checks in ("vanishing", "all"):
        faces = [F for k in range(args.n + 1) for F in enumerate_flags(V, k)]
        bad = []
        for c in cands:
            for F in faces:
                if not face_vanishing_check(c, F):
                    bad.append({"sequence": c.sequence.compact(), "face": str(F)})
        results["vanishing_failures"] = bad
        passed = passed and not bad
    if checks == "all":
        results["r1_reduction"] = r1_reduction_check(V)
        passed = passed and results["r1_reduction"]
    if args.latex:
        _write_latex(args.latex, "flag & sequence & probability", [
            f"${c.flag.compact()}$ & ${c.sequence.compact()}$ & "
            f"${rational_fn_latex(c.probability)}$ \\\\"
            for c in cands
        ])
    return {"n": args.n, "r": args.r, "check": checks}, results, passed


def _cmd_mc_verify(args):
    from .flagcomb import enumerate_flags
    from .hiord import enumerate_experiments
    from .shadow import basis_element, poisson_probability

    # mcoracle, and with it numpy, loads only on this path, and after the exact
    # layers: loaded first, numpy raised the run's peak RSS by about 0.4 MiB
    from . import mcoracle

    budget = Budget(args.budget_seconds)
    rng = mcoracle.generator(args.seed)

    def pairs():
        # each case with its exact probability, or for a DOF the basis form whose
        # DOF is 1; built once per case, as the budget reaches it, for every trial
        if args.target in ("pF", "all"):
            for nv in range(2, args.n + 2):
                V = tuple(range(nv))
                for k in range(nv):
                    for F in enumerate_flags(V, k):
                        yield "pF", F, poisson_probability(F)
        if args.target in ("higher", "all"):
            for nv in range(2, min(args.n, 2) + 2):
                V = tuple(range(nv))
                for r in range(1, args.r + 1):
                    for c in enumerate_experiments(V, r):
                        yield "higher", c, c.probability
        if args.target == "dof":
            V = tuple(range(args.n + 1))
            for k in range(args.n + 1):
                for F in enumerate_flags(V, k):
                    yield "dof", F, basis_element(F)

    checked, escalated, failures = 0, 0, []
    details = []
    for kind, obj, ref in budget.take(pairs()):
        for trial in range(args.rates):
            if kind == "dof":
                res = _mc_dof_case(obj, ref, args, trial)
            else:
                V = obj.vertices if kind == "pF" else obj.flag.vertices
                rates = mcoracle.random_rates(rng, V)
                res = _mc_prob_case(kind, obj, ref, rates, args, trial)
            checked += 1
            if res["escalated"]:
                escalated += 1
            if not res["pass"]:
                failures.append(res)
            if args.verbose_cases:
                details.append(res)
    results = {
        "rng": mcoracle.RNG_ALGORITHM,
        "cases": checked,
        "escalated": escalated,
        "failures": failures,
        "partial": budget.partial,
    }
    if args.verbose_cases:
        results["details"] = details
        results["z_summary"] = _z_summary(details)
    inputs = {"target": args.target, "n": args.n, "r": args.r,
              "samples": args.samples, "seed": args.seed, "rates": args.rates}
    return inputs, results, not failures and mcoracle.within_escalation_budget(escalated, checked)


def _z_summary(details: list[dict]) -> dict:
    """z = (estimate - exact) / stderr over the probability cases with stderr > 0.

    A DOF case's error is the O(eps) bias of its face ladder, not sampling
    noise, so its z says nothing about sampling and is left out.
    """
    zs = [(d["estimate"] - d["exact"]) / d["stderr"] for d in details
          if d["kind"] != "dof" and d["stderr"] > 0]
    return {"cases": len(zs),
            "max_abs_z": max((abs(z) for z in zs), default=None),
            "mean_z": sum(zs) / len(zs) if zs else None,
            "above_2sigma": sum(abs(z) > 2 for z in zs)}


def _mc_prob_case(kind: str, obj, probability, rates: dict[int, Fraction], args,
                  trial: int) -> dict:
    from . import mcoracle

    exact = float(probability.evaluate(rates))
    label = str(obj) if kind == "pF" else obj.sequence.compact()

    def run(samples: int, seed: tuple[int, ...]):
        cfg = mcoracle.SimulationConfig(rates=rates, samples=samples, seed=seed)
        if kind == "pF":
            return mcoracle.estimate_pF(obj, cfg)
        return mcoracle.estimate_higher(obj.sequence, cfg)

    # a seed ends in a label byte, never in 256, so each re-run has a stream of its own
    est, escalated, ok = mcoracle.check_concordance(
        run, exact, args.samples, (args.seed, trial, *label.encode()))
    return {
        "kind": kind, "case": label, "rates": {str(v): str(r) for v, r in rates.items()},
        "exact": exact, "estimate": est.mean, "stderr": est.stderr,
        "escalated": escalated, "pass": ok,
    }


# the most samples a DOF case draws (the default --samples gives it): its error is
# the ladder's O(eps) bias, 3.0e-10 at n = 3, not noise, so more buy nothing
_DOF_SAMPLES = 10_000


def _mc_dof_case(flag, form, args, trial: int) -> dict:
    from . import mcoracle

    exact = 1.0
    est = mcoracle.estimate_face_integral(flag, form,
                                          min(_DOF_SAMPLES, max(1000, args.samples // 10)),
                                          (args.seed, trial, *str(flag).encode()))
    tol = max(3 * est.stderr, 1e-2)
    ok = abs(est.mean - exact) <= tol
    return {
        "kind": "dof", "case": str(flag), "exact": exact,
        "estimate": est.mean, "stderr": est.stderr, "escalated": False, "pass": ok,
    }


def _cmd_emit_samples(args):
    from .mesh import write_samples

    return {"outdir": args.outdir}, {"files": write_samples(args.outdir)}, True


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="blowup",
        description="Exact blow-up Whitney form computations and verifications",
        epilog="exit codes: 0 all checks pass; 1 a check failed, or an internal error; "
               "2 a usage error; 3 a budget cut the suite short before any check failed",
    )
    sub = p.add_subparsers(dest="cmd", required=True)

    b = sub.add_parser("basis", help="emit the psi_F basis for one simplex")
    b.add_argument("--n", type=int, required=True)
    b.add_argument("--k", type=int, default=None)
    b.add_argument("--latex", type=str, default=None)
    b.add_argument("--eval-grid", type=int, default=0)
    b.set_defaults(fn=_cmd_basis)

    d = sub.add_parser("dof-matrix", help="DOF/basis pairing matrices")
    d.add_argument("--n", type=int, required=True)
    d.add_argument("--k", type=int, default=None)
    d.add_argument("--matrices", action="store_true")
    d.add_argument("--assert-identity", action="store_true")
    d.add_argument("--budget-seconds", type=float, default=None)
    d.set_defaults(fn=_cmd_dof_matrix)

    dc = sub.add_parser("d-check", help="exterior derivative structure checks")
    dc.add_argument("--n", type=int, required=True)
    dc.add_argument("--budget-seconds", type=float, default=None)
    dc.set_defaults(fn=_cmd_d_check)

    w = sub.add_parser("whitney-check", help="classical Whitney containment checks")
    w.add_argument("--n", type=int, required=True)
    w.set_defaults(fn=_cmd_whitney_check)

    c = sub.add_parser("cohomology", help="local or global cohomology")
    c.add_argument("mode", choices=["local", "global"])
    c.add_argument("--n", type=int, default=2)
    c.add_argument("--mesh", type=str, default=None)
    c.add_argument("--rule", type=str, default="general-continuity")
    c.add_argument("--matrices", action="store_true")
    c.add_argument("--json-faces", action="store_true")
    c.set_defaults(fn=_cmd_cohomology)

    h = sub.add_parser("higher-order", help="degree-r scalar candidates and checks")
    h.add_argument("--n", type=int, required=True)
    h.add_argument("--r", type=int, required=True)
    h.add_argument("--check", choices=["independence", "containment", "vanishing", "all", "none"],
                   default="all")
    h.add_argument("--latex", type=str, default=None)
    h.set_defaults(fn=_cmd_higher_order)

    m = sub.add_parser("mc-verify", help="Monte Carlo concordance with exact values")
    m.add_argument("--target", choices=["pF", "higher", "dof", "all"], required=True,
                   help="all runs the pF and higher cases, not the dof cases")
    m.add_argument("--n", type=int, default=3)
    m.add_argument("--r", type=int, default=3)
    m.add_argument("--samples", type=int, default=100_000)
    m.add_argument("--seed", type=int, default=20240801)
    m.add_argument("--rates", type=int, default=5, help="random rate vectors per case")
    m.add_argument("--budget-seconds", type=float, default=None)
    m.add_argument("--verbose-cases", action="store_true")
    m.set_defaults(fn=_cmd_mc_verify)

    e = sub.add_parser("emit-samples", help="write the bundled sample meshes")
    e.add_argument("--outdir", type=str, required=True)
    e.set_defaults(fn=_cmd_emit_samples)
    return p


# the smallest accepted value of each numeric option
_LOWEST = {"n": 0, "k": 0, "r": 1, "samples": 1, "rates": 1, "eval_grid": 0, "seed": 0,
           "budget_seconds": 0}
# numpy counts samples in 64 bits, and a missed case re-runs at 10x --samples
_MOST_SAMPLES = (2 ** 63 - 1) // 10


def _out_of_range(args) -> str | None:
    """A usage message for the first numeric option out of range, or None."""
    lowest = _LOWEST
    if args.cmd == "mc-verify":
        # its pF and higher cases start at an edge, so n = 0 would check nothing
        lowest = {**_LOWEST, "n": 1}
    for name, low in lowest.items():
        value = getattr(args, name, None)
        if value is not None and not value >= low:  # NaN too
            return f"--{name.replace('_', '-')} must be at least {low}, got {value}"
    if getattr(args, "samples", None) is not None and args.samples > _MOST_SAMPLES:
        return (f"--samples must be at most {_MOST_SAMPLES}: a missed case re-runs "
                f"at 10x the samples in 64 bits, got {args.samples}")
    if getattr(args, "k", None) is not None and args.k > args.n:
        return f"--k must be at most --n ({args.n}), got {args.k}"
    if args.cmd == "cohomology" and args.mode == "local":
        from .blowcx import MAX_VERTICES

        if args.n >= MAX_VERTICES:
            return (f"--n must be at most {MAX_VERTICES - 1}: blow-up complexes are built "
                    f"for |V| <= {MAX_VERTICES}, got {args.n}")
    return None


def run(argv) -> int:
    # tolerate --local/--global flag spellings for the cohomology subcommand
    argv = list(argv)
    if argv and argv[0] == "cohomology":
        argv = [argv[0]] + [
            a.lstrip("-") if a in ("--local", "--global") else a for a in argv[1:]
        ]
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.cmd == "cohomology" and args.mode == "global" and args.mesh is None:
            parser.error("cohomology global requires --mesh")
        problem = _out_of_range(args)
        if problem:
            parser.error(problem)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    t0 = time.perf_counter()
    try:
        inputs, results, passed = args.fn(args)
    except Exception as exc:
        # unreadable or invalid input is a usage error; anything else is a bug
        command = args.cmd
        inputs = {k: v for k, v in vars(args).items() if k not in ("cmd", "fn")}
        outcome = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        # a MeshError comes only from a loaded mesh module, so none is loaded to ask
        mesh = sys.modules.get(f"{__package__}.mesh")
        usage = isinstance(exc, OSError) or mesh is not None and isinstance(exc, mesh.MeshError)
        code = 2 if usage else 1
        status = f"error: {type(exc).__name__}: {exc}"
    else:
        command = f"cohomology-{args.mode}" if args.cmd == "cohomology" else args.cmd
        outcome = {"results": results}
        if not passed:
            code, status = 1, "FAIL"
        elif results.get("partial"):
            code, status = EXIT_PARTIAL, "partial: cut short by the budget"
        else:
            code, status = 0, "pass"
    report = {
        "schema": SCHEMA,
        "version": __version__,
        "command": command,
        "inputs": inputs,
        **outcome,
        "pass": code == 0,
        "timing_ms": int(1000 * (time.perf_counter() - t0)),
    }
    json.dump(report, sys.stdout, indent=1, default=str)
    sys.stdout.write("\n")
    print(f"[{command}] {status} ({report['timing_ms']} ms)", file=sys.stderr)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
