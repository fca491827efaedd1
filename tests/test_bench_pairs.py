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
