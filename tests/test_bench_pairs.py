import json
import subprocess
from pathlib import Path

import pytest

import bench_pairs

ROOT = Path(__file__).resolve().parents[1]


def _committed_repo(root: Path) -> str:
    """A fresh repository at root whose one commit holds mod.py; returns the commit id."""
    root.mkdir()
    (root / ".gitignore").write_text("*.log\n")
    (root / "mod.py").write_text("committed\n")
    subprocess.run(["git", "init", "-q"], cwd=root, check=True)
    subprocess.run(["git", "add", "-A"], cwd=root, check=True)
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false",
                    "commit", "-qm", "one"], cwd=root, check=True)
    return bench_pairs._git(root, "rev-parse", "HEAD")


def test_summary_reproduces_a_hand_assembled_bench_file():
    # BENCH_9.json was assembled before the tool existed, with the same statistics
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    doc = json.loads((ROOT / "BENCH_9.json").read_text(encoding="utf-8"))
    assert bench_pairs.summarize(doc["runs"], metrics) == doc["summary"]


def test_worktree_copy_holds_edits_and_leaves_ignored_files_out(tmp_path):
    root, dest = tmp_path / "repo", tmp_path / "copy"
    (root / "pkg").mkdir(parents=True)
    (root / ".gitignore").write_text("*.log\n")
    (root / "pkg" / "mod.py").write_text("committed\n")
    (root / "gone.py").write_text("deleted\n")
    subprocess.run(["git", "init", "-q"], cwd=root, check=True)
    subprocess.run(["git", "add", "-A"], cwd=root, check=True)
    (root / "pkg" / "mod.py").write_text("edited\n")
    (root / "gone.py").unlink()
    (root / "new.py").write_text("untracked\n")
    (root / "run.log").write_text("ignored\n")
    bench_pairs.copy_worktree(root, dest)
    copied = sorted(p.relative_to(dest).as_posix() for p in dest.rglob("*") if p.is_file())
    assert copied == [".gitignore", "new.py", "pkg/mod.py"]
    assert (dest / "pkg" / "mod.py").read_text() == "edited\n"


def test_export_holds_the_committed_bytes_only(tmp_path):
    root, dest = tmp_path / "repo", tmp_path / "export"
    head = _committed_repo(root)
    (root / "mod.py").write_text("edited\n")
    (root / "new.py").write_text("untracked\n")
    assert bench_pairs.export_commit(root, "HEAD", dest) == head
    exported = sorted(p.relative_to(dest).as_posix() for p in dest.rglob("*") if p.is_file())
    assert exported == [".gitignore", "mod.py"]
    assert (dest / "mod.py").read_text() == "committed\n"
    with pytest.raises(subprocess.CalledProcessError):
        bench_pairs.export_commit(root, "no-such-rev", tmp_path / "unknown")
    assert not (tmp_path / "unknown").exists()


def test_worktree_commit_names_head_and_whether_the_copy_differs(tmp_path):
    root = tmp_path / "repo"
    head = _committed_repo(root)
    (root / "run.log").write_text("ignored\n")
    assert bench_pairs.worktree_commit(root) == (head, False)
    (root / "mod.py").write_text("edited\n")
    assert bench_pairs.worktree_commit(root) == (head, True)
    (root / "mod.py").write_text("committed\n")
    (root / "new.py").write_text("untracked\n")
    assert bench_pairs.worktree_commit(root) == (head, True)


def test_head_description_says_when_the_tree_is_uncommitted(tmp_path):
    root = tmp_path / "repo"
    head = _committed_repo(root)
    assert bench_pairs.head_description(root, False) == "one"
    assert bench_pairs.head_description(root, True) == f"uncommitted tree on {head[:7]}: one"


@pytest.mark.parametrize("bad", [["--pairs", "1"], ["--pairs", "0"], ["--claim", "distance-search:setup"],
                                 ["--claim", "distance:setup_s"], ["--claim", "audit-table"]])
def test_arguments_that_cannot_yield_a_claim_are_rejected_before_any_run(tmp_path, bad):
    out = tmp_path / "BENCH.json"
    argv = ["--parent", "HEAD", "--pairs", "2", "--first-seed", "1", "--out", str(out), *bad]
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(argv)
    assert exc.value.code == 2
    assert not out.exists()


def _run(workload, side, result):
    return {"workload": workload, "side": side, "result": result}


def test_operation_counts_sum_attempted_and_failed_per_workload_and_side():
    runs = [_run("w", "parent", {"correct": True, "attempted": 10, "failed": 0}),
            _run("w", "change", {"correct": False, "attempted": 12, "failed": 3}),
            _run("w", "change", {"correct": True, "attempted": 5, "failed": 0}),
            _run("w", "parent", None),
            _run("v", "change", None)]
    assert bench_pairs.operation_counts(runs) == {
        "w": {"parent": {"attempted": 10, "failed": 0}, "change": {"attempted": 17, "failed": 3}},
        "v": {"change": {"attempted": 0, "failed": 0}}}


@pytest.mark.parametrize("failing", [None, ("distance-search", 1, "change")])
def test_a_run_with_failed_operations_exits_1(tmp_path, monkeypatch, failing):
    # every run is faked; the one named by failing reports two failed operations of 7
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]

    def run_once(checkout, command, workload, seed, seconds):
        bad = (workload, seed, checkout.name) == failing
        result = {"correct": not bad, "attempted": 7, "failed": 2 if bad else 0,
                  "metrics": {m["name"]: {"value": 1.0 + seed} for m in metrics}}
        return {"environment": None, "returncode": 0, "result": result}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.setattr(bench_pairs, "export_commit", lambda root, rev, dest: "p" * 40)
    monkeypatch.setattr(bench_pairs, "worktree_commit", lambda root: ("c" * 40, False))
    monkeypatch.setattr(bench_pairs, "copy_worktree", lambda root, dest: None)
    out = tmp_path / "BENCH.json"
    code = bench_pairs.main(["--parent", "HEAD", "--pairs", "2", "--first-seed", "0", "--out", str(out),
                             "--change", "test"])
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert code == (1 if failing else 0)
    assert doc["operations"]["distance-search"]["change"] == {"attempted": 14, "failed": 2 if failing else 0}
    assert doc["operations"]["audit-table"]["parent"] == {"attempted": 14, "failed": 0}
    assert doc["summary"]["distance-search"]["ops_per_s"]["pairs"] == 2
