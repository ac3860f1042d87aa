"""Wall time and memory of fixed `verify` runs, written to a BENCH_<k>.json.

    python3 tools/bench.py [--quick] [--out PATH]

Run it from a checkout: it imports the package from the checkout's `src/`.
Each row runs one verifier of `cli.IDENTITIES` at fixed sizes and holds the
call, its sizes, the best of REPEAT wall times, the tracemalloc peak of one
more run (traced apart from the timed runs, since tracing slows the
products), the `cli` price of the same sizes and the check count of the
report.  The header gives the Python version, the CPU count and the git
commit.  `--quick` runs tiny sizes, a check of the script itself that takes
well under 2 s.  Without `--out` the file is `BENCH_<k>.json` at the root
of the checkout, k one more than the largest k there.

Stdlib only, and outside the package, so that importing the package does
not get slower.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from mobius_partitions import cli, identities  # noqa: E402

# (id of cli.IDENTITIES, sizes): thm2 from the rows stepped per r, with thm1
# and lambert as controls
ROWS = (
    ("thm2", {"nmax": 400, "rmax": 12}),
    ("thm2", {"nmax": 400, "rmax": 60}),
    ("thm2", {"nmax": 2000, "rmax": 30}),
    ("thm2", {"nmax": 6000, "rmax": 30}),
    ("thm1", {"nmax": 20000, "r": 2}),
    ("lambert", {"nmax": 200000}),
)
QUICK_ROWS = (
    ("thm2", {"nmax": 40, "rmax": 6}),
    ("thm1", {"nmax": 200, "r": 2}),
    ("lambert", {"nmax": 2000}),
)
# timed runs per row, the best of which is kept
REPEAT = 3


def _git(*argv) -> str:
    done = subprocess.run(["git", *argv], cwd=ROOT, capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else ""


def measure(name: str, sizes: dict) -> dict:
    row = cli.IDENTITIES[name]
    verify = getattr(identities, row.verifier)
    walls = []
    for _ in range(REPEAT):
        start = time.perf_counter()
        report = verify(**row.fixed, **sizes)
        walls.append(time.perf_counter() - start)
        del report
    tracemalloc.start()
    try:
        report = verify(**row.fixed, **sizes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {
        "call": f"verify {name}",
        "sizes": sizes,
        "wall_s": round(min(walls), 6),
        "peak_bytes": peak,
        "price_bytes": row.price(**sizes),
        "checks": report.checked,
        "passed": report.passed,
    }


def _next_path() -> Path:
    taken = [int(m.group(1)) for p in ROOT.glob("BENCH_*.json") if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name))]
    return ROOT / f"BENCH_{max(taken, default=0) + 1}.json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--quick", action="store_true", help="tiny sizes, to check the script")
    parser.add_argument("--out", type=Path, default=None, help="file to write (default: next BENCH_<k>.json)")
    args = parser.parse_args(argv)
    out = args.out or _next_path()
    rows = []
    for name, sizes in QUICK_ROWS if args.quick else ROWS:
        rows.append(measure(name, sizes))
        print(json.dumps(rows[-1]), flush=True)
    record = {
        "python": sys.version.split()[0],
        "cpus": os.cpu_count(),
        "commit": _git("rev-parse", "HEAD") or None,
        "quick": args.quick,
        "rows": rows,
    }
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
