import importlib.util
import json
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
