"""Span tracing of blowupforms from outside the package.

The tracer wraps public functions of each layer in the benchmark's own code;
the package itself is not modified.  ``from``-imports copy bindings (for
example ``cli.basis_element`` or ``mesh.build_blowup_complex``), so every
module binding of a traced function is replaced, and installation fails if
any binding is left unwrapped.

Each call records one span ``(name, start, end, parent)``: ``parent`` is the
index of the innermost open span, or -1.  Spans stay in memory and are
written out once, when the step ends.  Spans from one thread nest properly,
so a span's self time is its duration minus the durations of its direct
children (see :func:`self_times`).

Run as a script, this module is the child process of one traced step::

    python perfbench/tracing.py SPANS.json STEP_ID -- <blowup arguments>

It installs the wrappers, calls ``blowupforms.cli.run`` and writes the spans
and counters to ``SPANS.json``.
"""

from __future__ import annotations

import importlib
import json
import sys
from functools import wraps
from time import perf_counter


def _div_counter(rec, args, result):
    if result is not None:
        rec.count("symexpr.div.successes")


def _distinct_flag(rec, args, result):
    rec.distinct.setdefault("shadow.basis_element", set()).add(args[0])


def _rank_entries(rec, args, result):
    matrix = args[0]
    rec.count("linalg.rank.entries", len(matrix) * len(matrix[0]) if matrix else 0)


def _mc_samples(rec, args, result):
    rec.count("mcoracle.samples", result.samples)


# (span name, module, attribute path, counter hook)
TRACED = (
    ("cli.run", "blowupforms.cli", "run", None),
    ("symexpr.div", "blowupforms.symexpr", "Poly.divide_by_subset_sum", _div_counter),
    ("symexpr.ratfn", "blowupforms.symexpr", "RationalFn.__init__", None),
    ("shadow.basis_element", "blowupforms.shadow", "basis_element", _distinct_flag),
    ("shadow.poisson_probability", "blowupforms.shadow", "poisson_probability", None),
    ("shadow.d_decomposition", "blowupforms.shadow", "d_decomposition", None),
    ("shadow.whitney_containment", "blowupforms.shadow", "whitney_containment", None),
    ("dof.dof_evaluate", "blowupforms.dof", "dof_evaluate", None),
    ("dof.restrict_to_theta", "blowupforms.dof", "restrict_to_theta", None),
    ("blowcx.build_blowup_complex", "blowupforms.blowcx", "build_blowup_complex", None),
    ("mesh.global_cohomology", "blowupforms.mesh", "global_cohomology", None),
    ("mesh.assemble", "blowupforms.mesh", "assemble", None),
    ("mesh.simplicial_cohomology", "blowupforms.mesh", "simplicial_cohomology", None),
    ("linalg.rank", "blowupforms.linalg", "rank", _rank_entries),
    ("mcoracle.estimate_pF", "blowupforms.mcoracle", "estimate_pF", _mc_samples),
    ("mcoracle.estimate_higher", "blowupforms.mcoracle", "estimate_higher", _mc_samples),
    ("mcoracle.estimate_face_integral", "blowupforms.mcoracle", "estimate_face_integral",
     _mc_samples),
)


class TraceError(RuntimeError):
    """The tracer could not cover a traced function."""


class Recorder:
    """Spans and counters of one traced step."""

    def __init__(self, step: str):
        self.step = step
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.distinct: dict[str, set] = {}

    def count(self, key: str, by: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + by

    def wrap(self, name: str, fn, hook):
        spans, stack = self.spans, self.stack

        @wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every binding of every traced function in the package."""
        for name, modname, path, hook in TRACED:
            owner = importlib.import_module(modname)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, hook)
            setattr(owner, attr, wrapper)
            for module in _package_modules():
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
            if _bindings_of(original):
                raise TraceError(f"{name}: unwrapped bindings {_bindings_of(original)}")

    def dump(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {
            "step": self.step,
            "names": names,
            "spans": [[index[n], s, e, p] for n, s, e, p in self.spans],
            "counts": self.counts,
            "distinct": {k: len(v) for k, v in self.distinct.items()},
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _package_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "blowupforms" or n.startswith("blowupforms."))]


def _bindings_of(fn) -> list[str]:
    """Module attributes and class attributes still holding ``fn``."""
    found = []
    for module in _package_modules():
        for key, value in vars(module).items():
            if value is fn:
                found.append(f"{module.__name__}.{key}")
            elif isinstance(value, type) and value.__module__ == module.__name__:
                found += [f"{module.__name__}.{key}.{a}"
                          for a, v in vars(value).items() if v is fn]
    return found


def load_spans(path) -> dict:
    """Read a dump back, with span names restored."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    names = doc["names"]
    doc["spans"] = [(names[i], s, e, p) for i, s, e, p in doc["spans"]]
    return doc


def self_times(spans) -> dict[str, float]:
    """Sum of self time per span name.

    ``spans`` is a sequence of ``(name, start, end, parent)`` where
    ``parent`` indexes the enclosing span or is -1.  Self time is a span's
    duration minus the time its direct children cover.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, float] = {}
    for (name, start, end, _), child in zip(spans, covered):
        out[name] = out.get(name, 0.0) + (end - start) - child
    return out


def span_counts(spans) -> dict[str, int]:
    out: dict[str, int] = {}
    for name, *_ in spans:
        out[name] = out.get(name, 0) + 1
    return out


def main(argv) -> int:
    spans_path, step, sep, *cli_argv = argv
    if sep != "--":
        raise SystemExit("usage: tracing.py SPANS.json STEP_ID -- <blowup arguments>")
    import blowupforms.cli

    recorder = Recorder(step)
    recorder.install()
    try:
        return blowupforms.cli.run(cli_argv)
    finally:
        sys.stdout.flush()
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
