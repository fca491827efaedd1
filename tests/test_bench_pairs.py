import importlib.util
import json
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


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
