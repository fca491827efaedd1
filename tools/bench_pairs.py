"""Alternating parent/change benchmark pairs, written as one BENCH_<n>.json.

Usage, from the root of a checkout:

    python3 tools/bench_pairs.py --parent <rev> --pairs 10 --first-seed 1001 --out BENCH_<n>.json \
        [--claim audit-table:ops_per_s] [--change "what the change does"]

The parent revision is exported from git (export_commit), and the change
is copied from this checkout's working tree (copy_worktree: tracked files
with their edits, and untracked files that git does not ignore), each into
a subdirectory of one temporary directory that is removed afterwards, so
both sides run from fresh copies. For every workload of BENCHMARK.json, pair p runs
BENCHMARK.json's command with --workload W --seed <first-seed + p>
--seconds <run_seconds> --trace 0 once on each side, one run at a time: the parent runs first in
even pairs and second in odd ones. The file holds every run's environment line and final
JSON line, and per workload and end-to-end metric the medians, quartiles
(statistics.quantiles, method='inclusive'), the ratio of the medians and in
how many pairs the change was better; per workload and side, the attempted
and failed operations summed over the runs (operations). It names the parent's commit
(parent_commit), HEAD's commit (change_commit) and whether the copied
working tree differs from HEAD (change_dirty). Without --change, the change is
described by HEAD's subject, as "uncommitted tree on <short sha>: <subject>"
when change_dirty is true. --pairs must be at least 2,
since quartiles need two pairs, and --claim must name a workload and an
end-to-end metric of BENCHMARK.json. The exit code is 1 when a run printed
no result or a result with "correct": false (an operation failed), else 0.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENV_PREFIX = "environment = "


def _git(root: Path, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=root, capture_output=True, text=True, check=True).stdout.strip()


def export_commit(root: Path, rev: str, dest: Path) -> str:
    """Extract commit rev of root's repository into dest, from git's tar export of it; return the commit id."""
    sha = _git(root, "rev-parse", "--verify", f"{rev}^{{commit}}")
    tar = subprocess.run(["git", "archive", "--format=tar", sha], cwd=root, capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as members:
        members.extractall(dest, filter="data")
    return sha


def worktree_commit(root: Path) -> tuple[str, bool]:
    """HEAD's commit id, and whether the working tree that copy_worktree copies differs from it."""
    return _git(root, "rev-parse", "HEAD"), bool(_git(root, "status", "--porcelain"))


def head_description(root: Path, dirty: bool) -> str:
    """HEAD's subject, or "uncommitted tree on <short sha>: <subject>" when the working tree differs from HEAD."""
    subject = _git(root, "log", "-1", "--format=%s")
    return f"uncommitted tree on {_git(root, 'rev-parse', '--short', 'HEAD')}: {subject}" if dirty else subject


def copy_worktree(root: Path, dest: Path) -> None:
    """Copy root's working tree into dest: tracked files with their edits, and untracked files not ignored."""
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"], cwd=root,
                            capture_output=True, check=True).stdout.decode()
    for name in filter(None, listed.split("\0")):
        if (root / name).is_file():  # a tracked file deleted from the working tree is listed but absent
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(root / name, dest / name)


def run_once(checkout: Path, command: list[str], workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in checkout: its return code, environment line and final JSON line."""
    argv = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    env = next((json.loads(line[len(ENV_PREFIX):]) for line in lines if line.startswith(ENV_PREFIX)), None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
        sys.stderr.write(proc.stderr)
    return {"environment": env, "returncode": proc.returncode, "result": result}


def _metric(run: dict, name: str):
    result = run["result"]
    return None if result is None else result["metrics"][name]["value"]


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per workload and metric: pairs, medians, quartiles, ratio and change_better_in_pairs."""
    summary = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        pairs = {}
        for run in runs:
            if run["workload"] == workload:
                pairs.setdefault(run["seed"], {})[run["side"]] = run
        complete = [p for p in pairs.values() if len(p) == 2 and all(r["result"] for r in p.values())]
        summary[workload] = {}
        if len(complete) < 2:  # quartiles need two pairs
            continue
        for metric in metrics:
            name, lower = metric["name"], metric["better"] == "lower"
            values = {side: [_metric(p[side], name) for p in complete] for side in ("parent", "change")}
            entry = {"pairs": len(complete)}
            for side, vals in values.items():
                q1, median, q3 = statistics.quantiles(vals, n=4, method="inclusive")
                entry.update({f"{side}_median": median, f"{side}_q1": q1, f"{side}_q3": q3})
            entry["ratio_change_over_parent"] = entry["change_median"] / entry["parent_median"]
            entry["change_better_in_pairs"] = sum(
                (c < p) if lower else (c > p) for p, c in zip(values["parent"], values["change"]))
            summary[workload][name] = entry
    return summary


def operation_counts(runs: list[dict]) -> dict:
    """Per workload and side: the attempted and failed operations, summed over the runs that printed a result."""
    counts = {}
    for run in runs:
        side = counts.setdefault(run["workload"], {}).setdefault(run["side"], {"attempted": 0, "failed": 0})
        for key in side:
            side[key] += run["result"][key] if run["result"] else 0
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="alternating parent/change benchmark pairs")
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--first-seed", type=int, required=True, help="workload seed of pair 0")
    parser.add_argument("--out", required=True, help="BENCH_<n>.json to write")
    parser.add_argument("--claim", default=None, help="WORKLOAD:METRIC the change claims a gain on")
    parser.add_argument("--change", default=None,
                        help="what the change does (default: HEAD's subject, marked if uncommitted)")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    command, seconds = bench["command"], bench["run_seconds"]
    if args.pairs < 2:
        parser.error("--pairs must be at least 2: the summary's quartiles need two pairs")
    claim = None
    if args.claim:
        workload, _, metric = args.claim.partition(":")
        if (workload not in {w["name"] for w in bench["workloads"]}
                or metric not in {m["name"] for m in bench["end_to_end"]}):
            parser.error(f"--claim {args.claim}: not a WORKLOAD:METRIC pair of BENCHMARK.json's workloads "
                         "and end-to-end metrics")
        claim = {"workload": workload, "metric": metric}
    runs = []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        parent_dir, change_dir = Path(tmp) / "parent", Path(tmp) / "change"
        parent_sha = export_commit(ROOT, args.parent, parent_dir)
        change_sha, change_dirty = worktree_commit(ROOT)
        copy_worktree(ROOT, change_dir)
        for workload in (w["name"] for w in bench["workloads"]):
            for p in range(args.pairs):
                seed = args.first_seed + p
                order = ("parent", "change") if p % 2 == 0 else ("change", "parent")
                for position, side in enumerate(order, start=1):
                    checkout = parent_dir if side == "parent" else change_dir
                    run = {"workload": workload, "seed": seed, "side": side, "position_in_pair": position}
                    run.update(run_once(checkout, command, workload, seed, seconds))
                    runs.append(run)
                    print(f"{workload} seed {seed} {side}: {_metric(run, 'ops_per_s')} ops/s",
                          file=sys.stderr, flush=True)

    doc = {
        "what": (f"{args.pairs} alternating parent/change pairs per workload of the cohkit benchmark "
                 "(BENCHMARK.json), one run per side per pair, sequential, made by tools/bench_pairs.py. "
                 f"Pair p uses workload seed {args.first_seed} + p; the parent runs first in even pairs "
                 "and second in odd ones (position_in_pair). Quartiles are "
                 "statistics.quantiles(method='inclusive')."),
        "command": " ".join(command + ["--workload", "<workload>", "--seed", "<seed>",
                                       "--seconds", str(seconds), "--trace", "0"]),
        "parent_commit": parent_sha,
        "change_commit": change_sha,
        "change_dirty": change_dirty,
        "change": args.change or head_description(ROOT, change_dirty),
        "claim": claim,
        "summary": summarize(runs, bench["end_to_end"]),
        "operations": operation_counts(runs),
        "runs": runs,
    }
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0 if all(run["result"] and run["result"]["correct"] for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
