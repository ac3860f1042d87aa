"""Per-layer tracing from outside the program.

`install` replaces the public functions of each layer with wrappers that
record one span per call: name, start, end, parent and active time.  Active
time is the span's duration for a plain call; for a generator it is the time
spent inside its `next` calls, because the consumer runs between them.  A
span's self time is its active time minus the active time of its children,
so the self times of all spans add up to the active time of the top-level
spans, and the traced wall time is that sum plus the remainder no span covers.

Spans stay in memory and are written out once, after the run.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict

# Metric prefix of each layer, in report order.
LAYERS = (
    "arith.build_sieve",
    "series.pochhammer",
    "series.reciprocal",
    "series.mul",
    "series.lambert_sum",
    "partitions.p_table",
    "partitions.sr_gf",
    "partitions.sr_enum",
    "partitions.enumerate",
    "partitions.count_restricted",
    "identities.build_rows",
    "identities.sweep",
    "cli.main",
)

# Counts reported next to each layer's calls and self time.
COUNTS = (
    "arith.build_sieve.limit_sum",
    "series.pochhammer.factor_sum",
    "series.reciprocal.order_sum",
    "series.reciprocal.max_coeff_bits",
    "series.lambert_sum.order_sum",
    "partitions.sr_gf.cells",
    "partitions.sr_gf.reads",
    "partitions.enumerate.yielded",
    "identities.checks",
    "identities.failures",
)


class Tracer:
    """Spans and counts of one traced run."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, active seconds]
        self.counts = defaultdict(int)
        self._stack = []

    def wrap(self, name, fn, on_result=None):
        """`fn` recording a span per call; `on_result(arguments, result)` runs after it."""
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        signature = inspect.signature(fn) if on_result else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = [name, start, end, parent, end - start]
            if on_result:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                on_result(bound.arguments, result)
            return result

        return traced

    def _wrap_generator(self, name, fn):
        spans, stack, clock, counts = self.spans, self._stack, time.perf_counter, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            start = clock()
            active = 0.0
            yielded = 0
            items = fn(*args, **kwargs)
            try:
                while True:
                    stack.append(index)
                    resumed = clock()
                    try:
                        item = next(items)
                    except StopIteration:
                        return
                    finally:
                        active += clock() - resumed
                        stack.pop()
                    yielded += 1
                    yield item
            finally:
                spans[index] = [name, start, clock(), parent, active]
                counts[f"{name}.yielded"] += yielded

        return traced

    def layer_metrics(self, wall_s: float) -> dict:
        """Every per-layer metric of this run, traced wall time `wall_s`."""
        child_active = [0.0] * len(self.spans)
        top_active = 0.0
        for _, _, _, parent, active in self.spans:
            if parent < 0:
                top_active += active
            else:
                child_active[parent] += active
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for (name, _, _, _, active), covered in zip(self.spans, child_active):
            calls[name] += 1
            self_s[name] += active - covered
        metrics = {}
        for layer in LAYERS:
            metrics[f"{layer}.calls"] = calls[layer]
            metrics[f"{layer}.self_s"] = self_s[layer]
        for name in COUNTS:
            metrics[name] = self.counts[name]
        cells = self.counts["partitions.sr_gf.cells"]
        metrics["partitions.sr_gf.read_ratio"] = (
            self.counts["partitions.sr_gf.reads"] / cells if cells else 0.0
        )
        metrics["trace.wall_s"] = wall_s
        metrics["trace.remainder_s"] = wall_s - top_active
        return metrics

    def dump(self, path, header: dict) -> None:
        """Write the spans, times relative to the first, as one JSON document."""
        origin = min((s[1] for s in self.spans), default=0.0)
        rows = [[n, s - origin, e - origin, p, a] for n, s, e, p, a in self.spans]
        with open(path, "w") as fh:
            json.dump({**header, "fields": ["name", "start", "end", "parent", "active"],
                       "spans": rows}, fh)


def install(tracer: Tracer, program) -> None:
    """Wrap each layer's public functions wherever the program's modules bind them."""
    arith, series, partitions, identities, cli = (
        program.arith, program.series, program.partitions, program.identities, program.cli
    )
    counts = tracer.counts
    modules = (program.package, arith, series, partitions, identities, cli)

    def replace(fn, wrapper):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)

    def on_sieve(args, _):
        counts["arith.build_sieve.limit_sum"] += args["limit"]

    def on_pochhammer(args, _):
        factors = args["factors"]
        if factors is None:
            factors = max(0, args["order"] - args["start"] + 1)
        counts["series.pochhammer.factor_sum"] += factors

    def on_reciprocal(args, result):
        counts["series.reciprocal.order_sum"] += args["a"].order
        bits = max(abs(c).bit_length() for c in result.coeffs)
        name = "series.reciprocal.max_coeff_bits"
        counts[name] = max(counts[name], bits)

    def on_lambert(args, _):
        counts["series.lambert_sum.order_sum"] += args["order"]

    class CountingSrTable(partitions.SrTable):
        """An S^(r) table built by the gf route, counting its reads."""

        __slots__ = ()

        def count(self, n, k):
            counts["partitions.sr_gf.reads"] += 1
            return partitions.SrTable.count(self, n, k)

    def on_sr_gf(args, result):
        counts["partitions.sr_gf.cells"] += (args["limit"] + 1) ** 2
        result.__class__ = CountingSrTable

    def on_report(_, report):
        counts["identities.checks"] += report.checked
        counts["identities.failures"] += report.failures

    targets = [
        (arith, "build_sieve", "arith.build_sieve", on_sieve),
        (series, "pochhammer", "series.pochhammer", on_pochhammer),
        (series, "reciprocal", "series.reciprocal", on_reciprocal),
        (series, "lambert_sum", "series.lambert_sum", on_lambert),
        (partitions, "partition_table_pentagonal", "partitions.p_table", None),
        (partitions, "partition_table_gf", "partitions.p_table", None),
        (partitions, "sr_table_gf", "partitions.sr_gf", on_sr_gf),
        (partitions, "sr_table_enum", "partitions.sr_enum", None),
        (partitions, "enumerate_partitions", "partitions.enumerate", None),
        (partitions, "count_restricted", "partitions.count_restricted", None),
        (identities, "build_a", "identities.build_rows", None),
        (identities, "build_b", "identities.build_rows", None),
        (cli, "main", "cli.main", None),
    ]
    targets += [
        (identities, attr, "identities.sweep", on_report)
        for attr in sorted(vars(identities))
        if attr.startswith("verify_") and callable(getattr(identities, attr))
    ]
    for module, attr, name, on_result in targets:
        fn = getattr(module, attr, None)
        if fn is not None:
            replace(fn, tracer.wrap(name, fn, on_result))
    mul = series.TruncatedSeries.__mul__
    series.TruncatedSeries.__mul__ = tracer.wrap("series.mul", mul)
