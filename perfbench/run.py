"""Benchmark of the mobius-partitions CLI, run from the root of a checkout.

    python3 perfbench/run.py --workload gf-large-n --seed 1 --seconds 36 --trace 0

Workloads (see workloads.py): gf-large-n, enum-oracle, many-r-export.

A run first imports `mobius_partitions.cli` in SETUP_IMPORTS fresh
interpreters.  It then runs passes of the workload, one fresh worker process
at a time and never two at once, until the next pass would end after
`--seconds`.  The first pass checks every output against independent routes;
each later pass must reproduce its exit codes and output digests.

Times are in probe-scaled seconds (probe.py) unless named raw: each
measured time is divided by the time of a fixed probe run next to it in the
same process and multiplied by the probe's uncontended time, so that other
tenants slowing the whole machine do not move the figures.  The probe
corrects memory-bound calls by more than they slowed, so a scaled figure
can lean with the machine's load.  Every run therefore also prints
`wall_raw_min_s`, which needs no probe: the list's time in raw seconds, each
untraced call taken at its minimum over the passes.  It spreads too much
from run to run to carry a regression bound, but a speed-up counts only
where it and `wall_s` agree.

With `--trace 0` every pass is untraced and the run reports the end-to-end
metrics:
- `setup_s`: the median import time over the fresh interpreters;
- `wall_s`: the time of the workload's whole list of calls, each call taken
  at its median over the passes;
- `peak_rss_mb`: the median max RSS of the pass processes, leaving out the
  checked pass, whose checks add memory of their own;
- `passed_share`: the share of calls whose output was correct.
With `--trace 1` passes alternate untraced and traced; the run reports the
per-layer metrics of the traced pass with the median wall time, in raw
seconds so that they add up to its `trace.wall_s`, plus `trace.overhead_s`,
the traced minus the untraced `wall_s`.  The spans of every traced pass are
written under `.perfbench/`.

Prints the Python version, CPU count, platform and `wall_raw_min_s` as a
JSON line, then the result as the last line.  Exits 2 without a result if the program cannot be
loaded from the checkout's `src`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from probe import PROBE_REF_S  # noqa: E402
from tracing import COUNTS, LAYERS  # noqa: E402
from worker import ROOT, SRC, environment  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_IMPORTS = 21
PASS_TIMEOUT_S = 120
SPANS_DIR = ROOT / ".perfbench"

IMPORT_TIMER = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "import mobius_partitions.cli\n"
    "import_s = time.perf_counter() - start\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "from probe import probe\n"
    "print(import_s, probe())\n"
)

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "passed_share": "share"}


class HarnessError(Exception):
    """The program could not be loaded or a worker process failed."""


def layer_units() -> dict:
    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    for name in COUNTS:
        units[name] = "bits" if name.endswith("_bits") else "count"
    units.update({
        "partitions.sr_gf.read_ratio": "ratio",
        "cli.output_bytes": "B",
        "trace.wall_s": "s",
        "trace.remainder_s": "s",
        "trace.overhead_s": "s",
    })
    return units


def measure_setup() -> float:
    """Median time a fresh interpreter takes to import the CLI module."""
    times = []
    for _ in range(SETUP_IMPORTS):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_TIMER, str(SRC), str(HERE)],
            cwd=ROOT, capture_output=True, text=True, timeout=60,
        )
        if proc.returncode != 0:
            raise HarnessError(f"importing mobius_partitions.cli failed:\n{proc.stderr.strip()}")
        import_s, probe_s = map(float, proc.stdout.split())
        times.append(import_s / probe_s * PROBE_REF_S)
    return statistics.median(times)


def run_worker(args, index: int, check: bool, traced: bool) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size]
    if check:
        cmd.append("--check")
    if traced:
        SPANS_DIR.mkdir(exist_ok=True)
        spans = SPANS_DIR / f"spans-{args.workload}-seed{args.seed}-pass{index}.json"
        cmd += ["--spans", str(spans)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise HarnessError(f"worker exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def failed_calls(report: dict, reference: dict) -> list:
    """Calls of a pass that failed; `reference` is the checked first pass."""
    failed = []
    for call, ref in zip(report["calls"], reference["calls"]):
        problems = call.get("problems") or []
        if call is not ref and not problems:
            if call["exit"] != 0:
                problems = [f"exit code {call['exit']}"]
            elif call["digest"] != ref["digest"]:
                problems = ["output differs from the checked pass"]
            else:  # the same output as the checked call, so the same verdict
                problems = ref.get("problems") or []
        if problems:
            failed.append({"argv": call["argv"], "problems": problems})
    if len(report["calls"]) != len(reference["calls"]):
        failed.append({"argv": None, "problems": ["pass ran a different number of calls"]})
    return failed


def scaled_wall_s(reports: list) -> float:
    """The list's time in probe-scaled seconds, each call at its median over the passes.

    A call's time is divided by the mean of the probes run just before and
    just after it.
    """
    ratios = []
    for r in reports:
        probes = r["probes"]
        ratios.append([c["seconds"] * 2 / (probes[i] + probes[i + 1])
                       for i, c in enumerate(r["calls"])])
    return PROBE_REF_S * sum(statistics.median(per_call) for per_call in zip(*ratios))


def raw_min_wall_s(reports: list) -> float:
    """The list's time in raw seconds, each call at its minimum over the passes."""
    return sum(min(per_call) for per_call in zip(*([c["seconds"] for c in r["calls"]]
                                                    for r in reports)))


def run(args) -> tuple:
    """The result line of one run and its `wall_raw_min_s`."""
    if not (SRC / "mobius_partitions" / "cli.py").is_file():
        raise HarnessError(f"no mobius_partitions sources under {SRC}")
    setup_s = measure_setup()
    min_passes = 2  # the checked pass and one more
    passes = []  # (traced, report)
    start = time.perf_counter()
    last = 0.0
    while len(passes) < min_passes or time.perf_counter() - start + last <= args.seconds:
        index = len(passes)
        traced = bool(args.trace) and index % 2 == 1
        began = time.perf_counter()
        passes.append((traced, run_worker(args, index, check=index == 0, traced=traced)))
        last = time.perf_counter() - began

    reference = passes[0][1]
    attempted = failed = 0
    for _, report in passes:
        bad = failed_calls(report, reference)
        attempted += len(report["calls"])
        failed += len(bad)
        for entry in bad:
            print(f"FAILED {entry['argv']}: {'; '.join(entry['problems'])}", file=sys.stderr)

    plain = [r for traced, r in passes if not traced]
    plain_wall = scaled_wall_s(plain)
    print(f"passes: {len(passes)}, walls: {[round(r['wall_s'], 4) for _, r in passes]}",
          file=sys.stderr)
    if args.trace:
        traced_runs = sorted((r for traced, r in passes if traced), key=lambda r: r["wall_s"])
        median_run = traced_runs[(len(traced_runs) - 1) // 2]
        values = dict(median_run["layers"])
        values["trace.overhead_s"] = scaled_wall_s(traced_runs) - plain_wall
        units = layer_units()
    else:
        values = {
            "setup_s": setup_s,
            "wall_s": plain_wall,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain[1:]),
            "passed_share": (attempted - failed) / attempted,
        }
        units = END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, raw_min_wall_s(plain)


def main() -> int:
    ap = argparse.ArgumentParser(description="mobius-partitions benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="smoke: tiny sizes, for the benchmark's own tests")
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    try:
        result, wall_raw_min_s = run(args)
    except (HarnessError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"env": environment(), "workload": args.workload, "seed": args.seed,
                      "wall_raw_min_s": wall_raw_min_s}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
