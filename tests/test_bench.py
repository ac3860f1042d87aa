import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HEADER = {"python", "cpus", "commit", "quick", "rows"}
ROW = {"call", "sizes", "wall_s", "peak_bytes", "price_bytes", "checks", "passed"}


def _assert_documented(record):
    assert set(record) == HEADER
    assert record["rows"]
    for row in record["rows"]:
        assert set(row) == ROW, row
        assert row["passed"] and row["checks"] > 0 and row["wall_s"] > 0, row
        assert row["peak_bytes"] <= row["price_bytes"], row


def test_quick_bench_writes_the_documented_keys(tmp_path):
    out = tmp_path / "bench.json"
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bench.py"), "--quick", "--out", str(out)],
        capture_output=True, text=True, timeout=60,
    )
    seconds = time.perf_counter() - start
    assert done.returncode == 0, done.stderr
    assert seconds < 2, seconds
    record = json.loads(out.read_text())
    _assert_documented(record)
    assert record["quick"]


def test_committed_bench_files_hold_the_documented_keys():
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths
    for path in paths:
        _assert_documented(json.loads(path.read_text()))
