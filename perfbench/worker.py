"""One pass of a workload in a fresh process.

Runs the workload's calls in order through `mobius_partitions.cli.main`, in
process and with stdout captured, times each call, runs the speed probe
(probe.py) before the first call and right after each one, and reads this
process's max RSS when the list is done.  After each call's probe, outside
the timed region, the output is reduced to its exit code, digest and size
(the digest lets later passes be compared with a checked one) and, with
`--check`, checked; the text itself is not kept.  With `--spans PATH` the
layers are wrapped first and the spans are written to PATH.

Prints one JSON object on stdout.  Exits 2 if the program cannot be imported
from the checkout's `src`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

from checks import check_call
from probe import probe
from tracing import Tracer, install
from workloads import build_calls

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
MODULES = ("arith", "series", "partitions", "identities", "cli")


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "platform": platform.platform(),
    }


def load_program() -> SimpleNamespace:
    """The package's modules, imported from this checkout's `src` only."""
    if not (SRC / "mobius_partitions" / "cli.py").is_file():
        raise ImportError(f"no mobius_partitions sources under {SRC}")
    sys.path.insert(0, str(SRC))
    package = importlib.import_module("mobius_partitions")
    if Path(package.__file__).resolve().parent != SRC / "mobius_partitions":
        raise ImportError(f"mobius_partitions imported from {package.__file__}, not {SRC}")
    modules = {name: importlib.import_module(f"mobius_partitions.{name}") for name in MODULES}
    return SimpleNamespace(package=package, **modules)


def run_call(cli, argv: list):
    """(exit code, stdout, stderr) of one in-process CLI call; exit code None if it raised."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # the pass goes on; the call counts as failed
            code = None
            err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue()


def run_pass(workload: str, seed: int, size: str, check: bool, spans_path) -> dict:
    program = load_program()
    calls = build_calls(workload, seed, size)
    tracer = None
    if spans_path:
        tracer = Tracer()
        install(tracer, program)
    report = {"probes": [probe()], "calls": []}
    for call in calls:
        began = time.perf_counter()
        code, out, err = run_call(program.cli, call.argv)
        call_s = time.perf_counter() - began
        report["probes"].append(probe())
        data = out.encode()
        entry = {
            "argv": call.argv,
            "seconds": call_s,
            "exit": code,
            "digest": hashlib.sha256(data).hexdigest(),
            "bytes": len(data),
        }
        if code is None:
            entry["problems"] = [err.strip().splitlines()[-1]]
        elif check:
            entry["problems"] = check_call(call, code, out, program)
        report["calls"].append(entry)
        del code, out, err, data  # the next call runs without this output alive
    report["wall_s"] = sum(c["seconds"] for c in report["calls"])
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        layers = tracer.layer_metrics(report["wall_s"])
        layers["cli.output_bytes"] = sum(c["bytes"] for c in report["calls"])
        report["layers"] = layers
        tracer.dump(spans_path, {"workload": workload, "seed": seed, "size": size,
                                 "wall_s": report["wall_s"], "env": environment()})
    return report


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    ap.add_argument("--check", action="store_true", help="check every output")
    ap.add_argument("--spans", metavar="PATH", help="trace the layers and write the spans to PATH")
    args = ap.parse_args()
    try:
        report = run_pass(args.workload, args.seed, args.size, args.check, args.spans)
    except ImportError as exc:
        print(f"cannot load the program: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
