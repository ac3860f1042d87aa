"""A fixed piece of pure-Python work that gauges how fast the machine runs now.

On a shared machine other tenants slow this process by up to about 1.7x for
seconds at a time, which swamps the differences the benchmark looks for.  The
benchmark therefore runs this probe right before and right after each timed
call and divides the call's time by the probe's: the ratio barely moves when
the whole machine slows.  Times are reported as that ratio times
PROBE_REF_S, the probe's time when nothing else contends, i.e. in seconds of
an uncontended machine.

The probe resembles the program's own work (nested list loops over growing
integers and a recursive partition generator) but shares no code with it, so
a change to the program never changes the probe.
"""

import time

PROBE_REF_S = 0.012


def probe() -> float:
    """Seconds this process takes for the fixed work, now."""
    start = time.perf_counter()
    n = 180
    p = [1] * (n + 1)  # becomes p(0..n), adding one part size at a time
    for part in range(2, n + 1):
        for i in range(part, n + 1):
            p[i] += p[i - part]
    table = [[0] * (n + 1) for _ in range(n + 1)]
    for k in range(1, n + 1):
        for multiple in range(k, n + 1, k):
            for m in range(multiple, n + 1):
                table[m][k] += p[m - multiple]
    count = sum(1 for _ in _partitions(25, 25))
    if count != 1958 or table[n][1] <= 0:
        raise AssertionError("probe computed a wrong value")
    return time.perf_counter() - start


def _partitions(rest, largest):
    if rest == 0:
        yield ()
        return
    for part in range(min(rest, largest), 0, -1):
        for tail in _partitions(rest - part, part):
            yield (part,) + tail
