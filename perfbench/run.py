"""cohkit benchmark: one workload per run, closed loop, checked outputs.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload audit-table --seed 1 --seconds 20 --trace 0

One process makes each call and waits for it before making the next.
With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
a fixed amount of work untraced and then traced, and prints the
per-layer metrics. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. The package is imported
from the checkout's src/ directory; without it the run exits with
status 1. NOTES.md describes the workloads, metrics and findings.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from reference import REF_SECONDS, reference_seconds

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench-work"
SPANS_DIR = ROOT / ".perfbench-spans"

SETUP_REPEATS = 3
MIN_OPS = 100  # so that ten operations fall beyond the 90th percentile
MAX_SECONDS_FACTOR = 1.5  # no new pass once operations took this many times --seconds

# Operation time between two runs of the reference routine (reference.py).
REF_INTERVAL_S = 0.05

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def _import_cohkit():
    if not (SRC / "cohkit" / "__init__.py").is_file():
        sys.exit(f"error: no cohkit sources under {SRC}; run from the root of a cohkit checkout")
    sys.path.insert(0, str(SRC))
    import cohkit

    if Path(cohkit.__file__).resolve().parent != SRC / "cohkit":
        sys.exit(f"error: imported cohkit from {cohkit.__file__}, not from {SRC}")


# ----------------------------------------------------------------- running


class Tally:
    """Operation outcomes of one phase: latencies, failures and problems.

    A problem is a (kind, text, known) tuple; known marks the finding
    described in NOTES.md. An operation whose only problems are known is
    counted in `known`, not in `failed`, and still shows in fail_ratio.
    """

    def __init__(self):
        self.latencies: list[float] = []  # seconds, as measured
        self.scaled: list[float] = []  # seconds at the reference speed, see scale_pending
        self.attempted = 0
        self.failed = 0  # operations with a problem that is not the known finding
        self.known = 0  # operations whose only problems are the known finding
        self.problems: Counter = Counter()
        self.first_output: bytes | None = None

    def record(self, op, seconds: float, outcome, error: str | None) -> None:
        self.latencies.append(seconds)
        self.attempted += 1
        if error is None:
            try:
                output, problems = op.check(outcome)
            except Exception as exc:  # a malformed output is a failed operation
                output, problems = b"", [("error", f"check raised {type(exc).__name__}: {exc}", False)]
        else:
            output, problems = b"", [("error", error, False)]
        if self.first_output is None:
            self.first_output = output
        self.add_problems(op.label, problems)

    def add_problems(self, label: str, problems) -> None:
        if not problems:
            return
        if all(known for _, _, known in problems):
            self.known += 1
        else:
            self.failed += 1
        for kind, text, known in problems:
            self.problems[(label, kind, text, known)] += 1

    def scale_pending(self, scale: float) -> None:
        """Give the latencies recorded since the last call their scaled value."""
        self.scaled += [t * scale for t in self.latencies[len(self.scaled):]]

    def merge(self, other: "Tally") -> None:
        self.latencies += other.latencies
        self.scaled += other.scaled
        self.attempted += other.attempted
        self.failed += other.failed
        self.known += other.known
        self.problems += other.problems

    @property
    def op_seconds(self) -> float:
        return sum(self.latencies)


def _call(op):
    start = time.perf_counter()
    try:
        outcome, error = op.call(), None
    except Exception as exc:  # an operation that raises is a failed operation
        outcome, error = None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, outcome, error


def run_passes(workload, tally: Tally, passes: int | None = None, seconds: float = 0.0) -> None:
    """Run whole passes: `passes` of them, or else until the operations
    have taken `seconds` and numbered MIN_OPS, or have taken
    MAX_SECONDS_FACTOR * `seconds`.

    The clock runs only inside operations; checks run between them. After
    every REF_INTERVAL_S of operation time the reference routine runs, and
    the operations since its previous run are scaled by REF_SECONDS over
    the mean of the two reference times around them.
    """
    k = 0
    before = reference_seconds()
    since = 0.0
    while True:
        for op in workload.pass_ops(k):
            elapsed, outcome, error = _call(op)
            tally.record(op, elapsed, outcome, error)
            since += elapsed
            if since >= REF_INTERVAL_S:
                after = reference_seconds()
                tally.scale_pending(2 * REF_SECONDS / (before + after))
                before, since = after, 0.0
        k += 1
        if passes is not None:
            done = k >= passes
        else:
            spent = tally.op_seconds
            done = spent >= MAX_SECONDS_FACTOR * seconds or (spent >= seconds and tally.attempted >= MIN_OPS)
        if done:
            tally.scale_pending(2 * REF_SECONDS / (before + reference_seconds()))
            return


def repeat_check(workload, tally: Tally) -> None:
    """Run the first operation again; its output must match byte for byte."""
    op = workload.pass_ops(0)[0]
    _, outcome, error = _call(op)
    tally.attempted += 1
    try:
        same = error is None and op.check(outcome)[0] == tally.first_output
    except Exception:  # a malformed output is a failed operation
        same = False
    if not same:
        tally.add_problems(op.label, [("repeat", "repeated operation gave different output bytes", False)])


def measure_setup(workload) -> float:
    """Median wall time of a fresh interpreter importing cohkit and finishing
    one warm-up operation.

    Not scaled by the reference routine: the import is mostly file reads
    and unmarshalling, whose speed the routine does not track (NOTES.md).
    """
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import cohkit; {workload.setup_snippet}"
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def p90(values) -> float:
    """90th percentile, by linear interpolation between order statistics."""
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


# ------------------------------------------------------------- environment


def _git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _openblas_threads() -> int | None:
    """Thread count of numpy's bundled OpenBLAS, if it can be asked."""
    import ctypes
    import glob

    import numpy

    for lib in glob.glob(os.path.join(os.path.dirname(numpy.__file__) + ".libs", "*openblas*")):
        try:
            fn = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        return int(fn())
    return None


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": _openblas_threads(),
        "thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
    }


# -------------------------------------------------------------------- main


def _report(name: str, value, unit: str) -> None:
    print(f"{name} = {value:.6g} {unit}")


def _print_failures(tally: Tally) -> None:
    failed = tally.failed + tally.known
    print(f"fail_ratio = {failed / tally.attempted:.6g} ({failed} of {tally.attempted} operations, "
          f"{tally.known} of them the known finding in NOTES.md)")
    for (label, kind, text, known), n in sorted(tally.problems.items()):
        print(f"  {n} x {label}: {kind}: {text}{' [known finding, see NOTES.md]' if known else ''}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cohkit benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="operation time per run; 0 runs a single pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    env = {"loadavg_at_start": os.getloadavg()}
    _import_cohkit()
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(workloads.WORKLOADS)}")
    env.update(environment())
    print("environment = " + json.dumps(env, sort_keys=True))

    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, work)
        _call(workload.pass_ops(0)[0])  # fill caches and finish lazy set-up before timing
        if args.trace:
            tally, metrics = _traced_run(spans, workload, args)
            units = spans.PER_LAYER_UNITS
        else:
            setup_s = measure_setup(workload)
            tally = Tally()
            run_passes(workload, tally, seconds=args.seconds)
            metrics = {
                "setup_s": setup_s,
                "ops_per_s": len(tally.scaled) / sum(tally.scaled),
                "op_p50_ms": 1000.0 * statistics.median(tally.scaled),
                "op_p90_ms": 1000.0 * p90(tally.scaled),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = END_TO_END_UNITS
            print(f"operations = {len(tally.latencies)} timed in {tally.op_seconds:.3f} s, "
                  f"{sum(tally.scaled):.3f} s at the reference speed")
            print(f"as measured, unscaled: ops_per_s {len(tally.latencies) / tally.op_seconds:.6g} 1/s, "
                  f"op_p50_ms {1000 * statistics.median(tally.latencies):.6g} ms, "
                  f"op_p90_ms {1000 * p90(tally.latencies):.6g} ms")
        repeat_check(workload, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, value in metrics.items():
        _report(name, value, units[name])
    _print_failures(tally)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def _traced_run(spans, workload, args):
    """Fixed work untraced, then traced; returns both phases' tally and the per-layer metrics.

    Span times are as measured; the tracing overhead compares the two
    phases at the reference speed, since the machine's speed may differ
    between them.
    """
    untraced = Tally()
    run_passes(workload, untraced, passes=workload.trace_passes)
    tracer = spans.Tracer()
    traced = Tally()
    with tracer:
        run_passes(workload, traced, passes=workload.trace_passes)
    mismatches = sum(n for (_, kind, _, _), n in traced.problems.items() if kind == "verdict")
    metrics = tracer.summary(traced.op_seconds, sum(traced.scaled) - sum(untraced.scaled), mismatches)
    SPANS_DIR.mkdir(exist_ok=True)
    path = SPANS_DIR / f"{args.workload}-seed{args.seed}.jsonl"
    tracer.dump(path)
    print(f"spans = {len(tracer.spans)} written to {path.relative_to(ROOT)}")
    untraced.merge(traced)
    return untraced, metrics


if __name__ == "__main__":
    sys.exit(main())
