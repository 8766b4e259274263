"""Cold-process benchmark of the blowup CLI.

    python3 perfbench/run.py --workload simplex|mesh|mc --seed N --seconds S --trace 0|1

Every step of a workload is one ``blowup`` invocation in a fresh
interpreter, because every CLI call is a new process and pays cold caches.
The package is not installed, so each child runs ``blowupforms.cli.run``
through ``python -c`` with ``src`` on ``PYTHONPATH``.  Each report is
checked; a step fails when it exits non-zero, reports ``pass != true`` or
fails its output check (see ``workloads.py``).

With ``--trace 0`` the workload repeats as whole passes while the next pass
is expected to end within ``--seconds`` (at least one pass), and the
end-to-end metrics are medians over passes.  With ``--trace 1`` one
untraced pass is followed by one traced pass whose children wrap the
package's public functions (see ``tracing.py``); the per-layer metrics come
from the traced pass, and ``trace.overhead_s`` is the difference between
the two passes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter, thread_time

from tracing import load_spans, self_times, span_counts
from workloads import EXPECTED_LAYERS, steps as workload_steps

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("simplex", "mesh", "mc")
SETUP_SPAWNS = 9
RUN_CLI = "import sys; from blowupforms.cli import run; sys.exit(run(sys.argv[1:]))"
IMPORT_CLI = "import blowupforms.cli"

# Other tenants slow this machine's cores by up to 2x for stretches of
# seconds to minutes, so raw seconds spread 25-60% between runs.  A probe
# that does the same kind of work as the symbolic core (sparse polynomial
# products over Fractions, stdlib only, independent of the package) runs on
# a background thread every PROBE_PERIOD_S while each child runs, and its
# mean CPU time measures that slowdown.  Every reported time is in
# reference seconds: measured seconds x PROBE_REFERENCE_S / mean probe time.
# Raw seconds are printed too.  A child that kept a second core busy would
# slow the probe and so read too fast.
PROBE_PERIOD_S = 0.025
PROBE_REFERENCE_S = 0.001
# children run on one CPU and the probe on another, so neither delays the other
_CPUS = sorted(os.sched_getaffinity(0))
CHILD_CPU, PROBE_CPU = (_CPUS[0], _CPUS[1]) if len(_CPUS) > 1 else (None, None)

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

STEP_IDS = ("d-check-n3", "dof-matrix-n3", "cohomology-local-n3", "tet-pair",
            "whitney-check-n4", "torus-general", "torus-edge-identified", "mc-verify-all")
PER_LAYER = {
    **{f"cli.{sid}.wall_s": "s" for sid in STEP_IDS},
    "cli.self_s": "s",
    "symexpr.div.attempts": "count",
    "symexpr.div.successes": "count",
    "symexpr.div.success_ratio": "ratio",
    "symexpr.div.self_s": "s",
    "symexpr.ratfn.built": "count",
    "symexpr.ratfn.self_s": "s",
    "shadow.basis_element.calls": "count",
    "shadow.basis_element.distinct": "count",
    "shadow.basis_element.self_s": "s",
    "shadow.poisson_probability.calls": "count",
    "shadow.poisson_probability.self_s": "s",
    "shadow.d_decomposition.calls": "count",
    "shadow.d_decomposition.self_s": "s",
    "shadow.whitney_containment.self_s": "s",
    "dof.dof_evaluate.calls": "count",
    "dof.dof_evaluate.self_s": "s",
    "dof.restrict_to_theta.self_s": "s",
    "blowcx.build_blowup_complex.calls": "count",
    "blowcx.build_blowup_complex.self_s": "s",
    "mesh.global_cohomology.self_s": "s",
    "mesh.assemble.self_s": "s",
    "mesh.simplicial_cohomology.self_s": "s",
    "linalg.rank.calls": "count",
    "linalg.rank.entries": "count",
    "linalg.rank.self_s": "s",
    "mcoracle.estimates": "count",
    "mcoracle.samples": "count",
    "mcoracle.self_s": "s",
    "mcoracle.samples_per_s": "1/s",
    "mcoracle.escalated": "count",
    "trace.overhead_s": "s",
}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    # the thread pool is a knob of the program, not of the workload
    env.pop("BLOWUP_THREADS", None)
    env["PYTHONPATH"] = str(SRC)
    # cli._mc_prob_case seeds each MC case with hash(label); without a fixed
    # hash seed the escalations, and so the work mc-verify does, change from
    # process to process
    env["PYTHONHASHSEED"] = "0"
    return env


@dataclass
class Outcome:
    """One finished child: its cost, its report and what is wrong with it."""

    step: str
    wall: float
    cpu: float
    rss_kib: int
    speed: float
    report: dict | None
    problems: list[str]

    @property
    def ref_wall(self) -> float:
        return self.wall * self.speed

    @property
    def ref_cpu(self) -> float:
        return self.cpu * self.speed


_PROBE_BASE = {tuple(int(i == j) for j in range(4)): Fraction(i + 1, i + 2) for i in range(4)}


def _probe() -> float:
    """CPU seconds of a fixed sparse polynomial power: the machine's current speed."""
    start = thread_time()
    poly = _PROBE_BASE
    for _ in range(3):
        product: dict = {}
        for ma, ca in poly.items():
            for mb, cb in _PROBE_BASE.items():
                m = tuple(x + y for x, y in zip(ma, mb))
                product[m] = product.get(m, 0) + ca * cb
        poly = product
    return thread_time() - start


class SpeedProbe:
    """Samples the probe on a background thread while a child runs.

    Children inherit the main thread's CPU and the probe runs on another one,
    busy about 4% of the time.  ``factor`` converts the child's measured
    seconds into reference seconds.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._done = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self):
        if PROBE_CPU is not None:
            os.sched_setaffinity(0, {PROBE_CPU})
        while True:
            self.samples.append(_probe())
            if self._done.wait(PROBE_PERIOD_S):
                return

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._done.set()
        self._thread.join()

    @property
    def factor(self) -> float:
        return PROBE_REFERENCE_S / statistics.fmean(self.samples)


def spawn(argv, env, out_path: Path) -> tuple[int, float, float, int, float]:
    """Run a child to completion.

    Returns the exit code, wall and cpu seconds, peak RSS in KiB and the
    speed factor that turns measured seconds into reference seconds.
    """
    with open(out_path, "wb") as out, SpeedProbe() as probe:
        start = perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=out,
                                stderr=subprocess.DEVNULL)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
            probe.factor)


def check_output(step, code: int, text: str) -> tuple[dict | None, list[str]]:
    if code != 0:
        return None, [f"exit code {code}"]
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return None, [f"report is not JSON: {exc}"]
    if report.get("pass") is not True:
        return report, ["pass != true"]
    return report, step.check(report)


def run_pass(steps, env, workdir: Path, traced: bool) -> list[Outcome]:
    outcomes = []
    for step in steps:
        out_path = workdir / f"{step.id}.out"
        if traced:
            argv = [sys.executable, str(HERE / "tracing.py"),
                    str(workdir / f"{step.id}.spans.json"), step.id, "--", *step.argv]
        else:
            argv = [sys.executable, "-c", RUN_CLI, *step.argv]
        code, wall, cpu, rss, speed = spawn(argv, env, out_path)
        report, problems = check_output(step, code, out_path.read_text())
        outcomes.append(Outcome(step.id, wall, cpu, rss, speed, report, problems))
        mark = "ok" if not problems else "FAIL " + "; ".join(problems)
        print(f"# {'traced ' if traced else ''}{step.id}: wall {wall:.3f} s raw, "
              f"{wall * speed:.3f} s ref; cpu {cpu:.3f} s raw; "
              f"rss {rss / 1024:.1f} MiB; {mark}", flush=True)
    return outcomes


def measure_setup(env, workdir: Path) -> float:
    """Median time, in reference seconds, for a fresh interpreter to import blowupforms.cli."""
    argv = [sys.executable, "-c", IMPORT_CLI]
    out = workdir / "setup.out"
    spawn(argv, env, out)  # untimed: fills the bytecode cache an installed package ships with
    raw, ref = [], []
    for _ in range(SETUP_SPAWNS):
        code, wall, _, _, speed = spawn(argv, env, out)
        if code != 0:
            raise RuntimeError(f"importing blowupforms.cli failed with exit code {code}")
        raw.append(wall)
        ref.append(wall * speed)
    print(f"# setup: median {statistics.median(raw):.4f} s raw; "
          f"{' '.join(f'{t:.4f}' for t in ref)} s ref", flush=True)
    return statistics.median(ref)


def end_to_end(passes: list[list[Outcome]], setup_s: float) -> dict[str, float]:
    for i, p in enumerate(passes, 1):
        print(f"# pass {i}: wall {sum(o.wall for o in p):.3f} s raw, "
              f"{sum(o.ref_wall for o in p):.3f} s ref; cpu {sum(o.cpu for o in p):.3f} s raw, "
              f"{sum(o.ref_cpu for o in p):.3f} s ref", flush=True)
    return {
        "wall_s": statistics.median(sum(o.ref_wall for o in p) for p in passes),
        "cpu_s": statistics.median(sum(o.ref_cpu for o in p) for p in passes),
        "setup_s": setup_s,
        "peak_rss_mb": statistics.median(max(o.rss_kib for o in p) for p in passes) / 1024,
    }


def per_layer(workload: str, traced: list[Outcome], untraced: list[Outcome],
              workdir: Path) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics of a traced pass, and the layers that recorded nothing."""
    self_s, calls, counts, distinct = Counter(), Counter(), Counter(), Counter()
    for o in traced:
        path = workdir / f"{o.step}.spans.json"
        if not path.exists():  # the child died before tracing; the step counts as failed
            continue
        doc = load_spans(path)
        step_calls = span_counts(doc["spans"])
        calls.update(step_calls)
        self_s.update({k: v * o.speed for k, v in self_times(doc["spans"]).items()})
        counts.update(doc["counts"])
        distinct.update(doc["distinct"])
        print(f"# traced {o.step}: " + ", ".join(f"{k} {v}" for k, v in sorted(step_calls.items())),
              flush=True)

    mc = [k for k in calls if k.startswith("mcoracle.")]
    mc_self = sum(self_s[k] for k in mc)
    div, div_ok = calls["symexpr.div"], counts["symexpr.div.successes"]
    samples = counts["mcoracle.samples"]
    values = {f"cli.{o.step}.wall_s": o.ref_wall for o in traced}
    values.update({
        "cli.self_s": self_s["cli.run"],
        "symexpr.div.attempts": div,
        "symexpr.div.successes": div_ok,
        "symexpr.div.success_ratio": div_ok / div if div else 0.0,
        "symexpr.ratfn.built": calls["symexpr.ratfn"],
        "shadow.basis_element.distinct": distinct["shadow.basis_element"],
        "linalg.rank.entries": counts["linalg.rank.entries"],
        "mcoracle.estimates": sum(calls[k] for k in mc),
        "mcoracle.samples": samples,
        "mcoracle.self_s": mc_self,
        "mcoracle.samples_per_s": samples / mc_self if mc_self else 0.0,
        "mcoracle.escalated": sum(o.report["results"]["escalated"] for o in traced
                                  if o.report and o.step == "mc-verify-all"),
        "trace.overhead_s": sum(o.ref_wall for o in traced) - sum(o.ref_wall for o in untraced),
    })
    for name in PER_LAYER:
        stem, _, field = name.rpartition(".")
        if field == "self_s" and name not in values:
            values[name] = self_s[stem]
        elif field == "calls":
            values[name] = calls[stem]
    layers = {name.split(".")[0] for name in calls}
    missing = [layer for layer in EXPECTED_LAYERS[workload] if layer not in layers]
    return values, missing


def source_identity() -> dict[str, str | None]:
    digest = hashlib.sha256()
    for path in sorted((SRC / "blowupforms").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = res.stdout.strip() or None
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "blowupforms" / "cli.py").is_file():
        print(f"error: no blowupforms sources under {SRC}", file=sys.stderr)
        return 2

    env = child_env()
    if CHILD_CPU is not None:
        os.sched_setaffinity(0, {CHILD_CPU})
    print("# " + json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(), "nproc": os.cpu_count(),
        "child_cpu": CHILD_CPU, "probe_cpu": PROBE_CPU,
        **source_identity(),
        "child_env": {"PYTHONHASHSEED": "0", "PYTHONPATH": "src", "BLOWUP_THREADS": None},
    }), flush=True)

    workdir = HERE / "_work" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        steps = workload_steps(args.workload, args.seed, workdir)
        setup_s = measure_setup(env, workdir)
        passes = []
        start = perf_counter()
        while True:
            passes.append(run_pass(steps, env, workdir, traced=False))
            elapsed = perf_counter() - start
            if args.trace or elapsed * (len(passes) + 1) / len(passes) > args.seconds:
                break
        problems = []
        if args.trace:
            traced = run_pass(steps, env, workdir, traced=True)
            values, missing = per_layer(args.workload, traced, passes[0], workdir)
            passes.append(traced)
            problems = [f"layer {layer} recorded no spans" for layer in missing]
            units = PER_LAYER
        else:
            values = end_to_end(passes, setup_s)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run is still using it
            pass

    outcomes = [o for p in passes for o in p]
    failed = sum(1 for o in outcomes if o.problems)
    for problem in problems:
        print(f"# FAIL {problem}", flush=True)
    print(f"# passes {len(passes)}, steps {len(outcomes)}, "
          f"fail_ratio {failed / len(outcomes):.4f} ({failed}/{len(outcomes)})")
    for name, unit in units.items():
        print(f"# {name} {values.get(name, 0)} {unit}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": values.get(name, 0), "unit": unit}
                    for name, unit in units.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
