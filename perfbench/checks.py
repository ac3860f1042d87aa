"""Output checks: decide whether one CLI call answered correctly.

A call fails when its exit code is not 0, when a verify report does not say
`passed: true`, echoes other parameters than the ones requested, or made a
different number of checks than the parameters imply (so a vacuous PASS
fails), or when a table export disagrees with an independent route:

- p cells against `partition_table_gf` and, for small n, enumeration counts;
- S^(r) cells against `sr_table_enum` for n <= SR_ORACLE_N;
- b rows against the coefficients of `pochhammer(1, r-1, .)`;
- a rows against (q;q)_{r-1} (q - sum_{k<r} mu(k) q^k/(1-q^k)) / q^r, built
  here from plain lists and a trial-division mu.

None of this runs inside a timed region.
"""

from __future__ import annotations

import csv
import io
import json

from workloads import Call, expected_checks

SR_ORACLE_N = 30
P_ENUM_N = 20
MAX_PROBLEMS = 3

# A cell whose value no independent route gives here; only its presence is checked.
UNKNOWN = object()


def check_call(call: Call, exit_code, out: str, program) -> list:
    """Problems found in one call's output; an empty list means correct."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        if call.command == "verify":
            return _check_report(call, json.loads(out))
        return _check_table(call, out, program)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"output check failed: {exc!r}"]


def _check_report(call: Call, report: dict) -> list:
    problems = []
    if report.get("identity") != call.target:
        problems.append(f"identity {report.get('identity')!r}")
    if report.get("passed") is not True:
        problems.append(f"passed={report.get('passed')!r}, failures={report.get('failures')!r}")
    echoed = report.get("params", {})
    for key, value in call.params.items():
        if echoed.get(key) != value:
            problems.append(f"param {key}: requested {value!r}, echoed {echoed.get(key)!r}")
    want = expected_checks(call.target, call.params)
    if report.get("checked") != want:
        problems.append(f"checked {report.get('checked')!r}, expected {want}")
    return problems


def _check_table(call: Call, out: str, program) -> list:
    row_labels, col_labels, cells = _EXPECTED[call.target](call.params, program)
    corner = "r" if call.target in ("a", "b") else "n"
    if call.fmt == "csv":
        rows = list(csv.reader(io.StringIO(out)))
        if rows[0] != [corner] + [str(c) for c in col_labels]:
            return [f"csv header {rows[0][:4]}..."]
        if [r[0] for r in rows[1:]] != [str(label) for label in row_labels]:
            return ["csv row labels differ"]
        got = [[None if v == "" else int(v) for v in r[1:]] for r in rows[1:]]
        absent = None
    else:
        doc = json.loads(out)
        if doc["kind"] != call.target or doc["params"] != call.params:
            return [f"json kind/params {doc['kind']!r} {doc['params']!r}"]
        got, absent = doc["rows"], 0
    if len(got) != len(cells):
        return [f"{len(got)} rows, expected {len(cells)}"]
    problems = []
    for label, got_row, want_row in zip(row_labels, got, cells):
        if len(got_row) != len(want_row):
            problems.append(f"row {label}: {len(got_row)} cells, expected {len(want_row)}")
            continue
        for col, g, w in zip(col_labels, got_row, want_row):
            if w is None:
                ok = g == absent
            elif w is UNKNOWN:
                ok = isinstance(g, int) and not isinstance(g, bool)
            else:
                ok = g == w
            if not ok:
                want = "an int" if w is UNKNOWN else repr(w)
                problems.append(f"cell ({label}, {col}): got {g!r}, expected {want}")
        if len(problems) >= MAX_PROBLEMS:
            break
    return problems[:MAX_PROBLEMS]


def _expected_p(params, program):
    n = params["nmax"]
    values = program.partitions.partition_table_gf(n).values
    for m in range(min(n, P_ENUM_N) + 1):
        count = sum(1 for _ in program.partitions.enumerate_partitions(m))
        if count != values[m]:
            raise ValueError(f"partition_table_gf p({m})={values[m]} but enumeration gives {count}")
    return list(range(n + 1)), ["p"], [[v] for v in values]


def _expected_sr(params, program):
    r, n = params["r"], params["nmax"]
    oracle_n = min(n, SR_ORACLE_N)
    oracle = program.partitions.sr_table_enum(r, oracle_n) if oracle_n >= r else None
    cols = list(range(r, n + 1))
    cells = [
        [None if k > m else (oracle.count(m, k) if m <= oracle_n else UNKNOWN) for k in cols]
        for m in range(n + 1)
    ]
    return list(range(n + 1)), cols, cells


def _expected_b(params, program):
    rmax = params["rmax"]
    width = rmax * (rmax - 1) // 2 + 1
    cells = []
    for r in range(1, rmax + 1):
        degree = r * (r - 1) // 2
        coeffs = program.series.pochhammer(1, r - 1, width - 1).coeffs
        cells.append([coeffs[j] if j <= degree else None for j in range(width)])
    return list(range(1, rmax + 1)), list(range(width)), cells


def _expected_a(params, program):
    rmax = params["rmax"]
    rows = [_a_row(r) for r in range(1, rmax + 1)]
    width = max(len(row) for row in rows)
    cells = [row + [None] * (width - len(row)) for row in rows]
    return list(range(1, rmax + 1)), list(range(width)), cells


def _a_row(r: int) -> list:
    """a_{r,.} as the coefficients of (q;q)_{r-1} (q - sum_{k<r} mu(k) q^k/(1-q^k)) / q^r.

    The product is a polynomial (each 1-q^k with k < r divides (q;q)_{r-1})
    whose terms must lie in q^r .. q^(r + width - 1), width = (r-1)(r-2)/2 + 1.
    """
    width = (r - 1) * (r - 2) // 2 + 1
    order = r + width + r
    series = [0] * (order + 1)
    series[1] = 1
    for k in range(1, r):
        for m in range(k, order + 1, k):
            series[m] -= _mu(k)
    for j in range(1, r):
        for i in range(order, j - 1, -1):
            series[i] -= series[i - j]
    if any(series[:r]) or any(series[r + width:]):
        raise ValueError(f"a-row {r} reference has terms outside q^{r}..q^{r + width - 1}")
    return series[r:r + width]


def _mu(k: int) -> int:
    sign, d = 1, 2
    while d * d <= k:
        if k % d == 0:
            k //= d
            if k % d == 0:
                return 0
            sign = -sign
        d += 1
    return -sign if k > 1 else sign


_EXPECTED = {"p": _expected_p, "sr": _expected_sr, "a": _expected_a, "b": _expected_b}
