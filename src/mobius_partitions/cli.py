"""Command-line front end: table generation, identity verification sweeps,
and replay of the worked examples.

Exit codes: 0 pass, 1 verification failure, 2 usage error, 3 internal
numeric error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from typing import Optional

from mobius_partitions.arith import build_sieve, mobius
from mobius_partitions.identities import (
    build_a,
    build_b,
    verify_b_symmetry,
    verify_corollary,
    verify_lambert,
    verify_lemma1,
    verify_phi_identities,
    verify_prime_corollary,
    verify_sr_oracle,
    verify_theorem1,
    verify_theorem2,
    verify_weighted_corollary,
)
from mobius_partitions.partitions import (
    backward_difference,
    count_restricted,
    partition_table_pentagonal,
    sr_table_enum,
    sr_table_gf,
)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3

# The sweep flags each identity reads and each table kind needs; any other
# sweep flag given is refused rather than silently ignored.
VERIFY_FLAGS = {
    "thm1": ("nmax", "r"),
    "thm2": ("nmax", "rmax"),
    "cor2": ("nmax",),
    "cor3": ("nmax",),
    "cor4": ("nmax",),
    "weighted": ("nmax", "r"),
    "phi": ("nmax",),
    "prime-alpha": ("nmax", "alpha", "which"),
    "b-symmetry": ("rmax",),
    "lemma1": ("nmax", "rmax"),
    "lambert": ("nmax",),
    "oracle-sr": ("nmax", "rmax"),
}
TABLE_FLAGS = {"a": ("rmax",), "b": ("rmax",), "sr": ("r", "nmax"), "p": ("nmax",)}
SWEEP_FLAGS = ("nmax", "rmax", "r", "alpha", "which")


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out, "w") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")


def _refuse_ignored_flags(args, command: str, accepted) -> bool:
    """Print an error and return True if a flag the command ignores was given."""
    ignored = [
        f"--{name}"
        for name in SWEEP_FLAGS
        if name not in accepted and getattr(args, name, None) is not None
    ]
    if ignored:
        print(f"error: {command} does not take {', '.join(ignored)}", file=sys.stderr)
    return bool(ignored)


def _table_text(header, row_labels, rows) -> str:
    widths = [max(len(str(h)), 1) for h in header]
    cells = []
    for label, row in zip(row_labels, rows):
        line = [str(label)]
        for i, v in enumerate(row):
            s = "" if v is None else str(v)
            if i < len(widths):
                widths[i] = max(widths[i], len(s))
            line.append(s)
        cells.append(line)
    lw = max(len(str(l)) for l in [""] + list(row_labels))
    out = [" ".join([" " * lw] + [str(h).rjust(w) for h, w in zip(header, widths)])]
    for line in cells:
        out.append(
            " ".join([line[0].rjust(lw)] + [s.rjust(w) for s, w in zip(line[1:], widths)])
        )
    return "\n".join(out)


def _table_csv(corner, header, row_labels, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([corner] + list(header))
    for label, row in zip(row_labels, rows):
        writer.writerow([label] + ["" if v is None else v for v in row])
    return buf.getvalue()


def _table_json(kind, params, rows) -> str:
    dense = [[0 if v is None else v for v in row] for row in rows]
    return json.dumps({"kind": kind, "params": params, "rows": dense})


def _pad(rows):
    """Jagged rows to a rectangle, None marking out-of-support cells."""
    width = max(len(r) for r in rows)
    return [list(r) + [None] * (width - len(r)) for r in rows], width


def cmd_table(args) -> int:
    if _refuse_ignored_flags(args, f"table {args.kind}", TABLE_FLAGS[args.kind]):
        return EXIT_USAGE
    fmt = args.format
    if args.kind in ("a", "b"):
        if args.rmax is None:
            print("table a/b requires --rmax", file=sys.stderr)
            return EXIT_USAGE
        if args.kind == "b":
            jagged = build_b(args.rmax)
        else:
            jagged = build_a(args.rmax, build_sieve(max(args.rmax, 1)))
        rows, width = _pad(jagged)
        params = {"rmax": args.rmax}
        header = list(range(width))
        labels = list(range(1, args.rmax + 1))
        corner = "r"
    elif args.kind == "p":
        if args.nmax is None:
            print("table p requires --nmax", file=sys.stderr)
            return EXIT_USAGE
        table = partition_table_pentagonal(args.nmax)
        if fmt == "text":
            _emit(",".join(str(v) for v in table.values), args.out)
            return EXIT_OK
        rows = [[v] for v in table.values]
        params = {"nmax": args.nmax}
        header = ["p"]
        labels = list(range(args.nmax + 1))
        corner = "n"
    elif args.kind == "sr":
        if args.r is None or args.nmax is None:
            print("table sr requires --r and --nmax", file=sys.stderr)
            return EXIT_USAGE
        sr = sr_table_gf(args.r, args.nmax)
        header = list(range(args.r, args.nmax + 1))
        labels = list(range(args.nmax + 1))
        rows = []
        for n in labels:
            cells = sr.row(n, args.r, n)
            rows.append(cells + [None] * (len(header) - len(cells)))
        params = {"r": args.r, "nmax": args.nmax}
        corner = "n"

    if fmt == "csv":
        _emit(_table_csv(corner, header, labels, rows), args.out)
    elif fmt == "json":
        _emit(_table_json(args.kind, params, rows), args.out)
    else:
        _emit(_table_text(header, labels, rows), args.out)
    return EXIT_OK


def _given(value, default):
    """The flag's value unless it was left out; an explicit 0 stays 0."""
    return default if value is None else value


def _run_verifier(args):
    nmax = args.nmax
    ident = args.identity
    cap = args.max_counterexamples
    if ident == "thm1":
        return verify_theorem1(_given(nmax, 100), _given(args.r, 1), cap=cap)
    if ident == "thm2":
        return verify_theorem2(_given(nmax, 60), _given(args.rmax, 6), cap=cap)
    if ident in ("cor2", "cor3", "cor4"):
        return verify_corollary(int(ident[3]), _given(nmax, 45), cap=cap)
    if ident == "weighted":
        return verify_weighted_corollary(_given(nmax, 30), _given(args.r, 1), cap=cap)
    if ident == "phi":
        return verify_phi_identities(_given(nmax, 60), cap=cap)
    if ident == "prime-alpha":
        return verify_prime_corollary(
            _given(nmax, 50), _given(args.alpha, 2), _given(args.which, "i"), cap=cap
        )
    if ident == "b-symmetry":
        return verify_b_symmetry(_given(args.rmax, 10), cap=cap)
    if ident == "lemma1":
        return verify_lemma1(_given(nmax, 40), _given(args.rmax, 5), cap=cap)
    if ident == "lambert":
        return verify_lambert(_given(nmax, 200), cap=cap)
    if ident == "oracle-sr":
        return verify_sr_oracle(_given(nmax, 30), _given(args.rmax, 4), cap=cap)
    raise AssertionError(ident)


def cmd_verify(args) -> int:
    if args.identity not in VERIFY_FLAGS:
        print(
            f"unknown identity {args.identity!r}; choose from {', '.join(VERIFY_FLAGS)}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    if _refuse_ignored_flags(args, f"verify {args.identity}", VERIFY_FLAGS[args.identity]):
        return EXIT_USAGE
    if args.max_counterexamples < 0:
        print(
            f"error: --max-counterexamples must be >= 0, got {args.max_counterexamples}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    report = _run_verifier(args)
    if report.checked == 0:
        print(f"error: {report.identity} {report.params} checks nothing", file=sys.stderr)
        return EXIT_USAGE
    if args.format == "json":
        _emit(json.dumps(report.to_dict()), args.out)
    else:
        _emit(report.summary(), args.out)
    return EXIT_OK if report.passed else EXIT_VERIFY_FAIL


def _example_blocks():
    """The five worked examples, with expected values hard-coded."""
    sieve = build_sieve(20)
    p = partition_table_pentagonal(12)

    def mu(k):
        return mobius(sieve, k)

    blocks = []

    s1 = sr_table_enum(1, 5)
    terms = [s1.count(5, k) * mu(k) for k in range(1, 6)]
    blocks.append(
        {
            "name": "thm1-r1",
            "detail": "p(4) from mu-weighted part counts over partitions of 5",
            "expected": {"terms": [12, -4, -2, 0, -1], "total": 5, "p4": 5},
            "actual": {"terms": terms, "total": sum(terms), "p4": p.value(4)},
        }
    )

    s2 = sr_table_enum(2, 6)
    terms2 = [-s2.count(6, k) * mu(k) for k in range(2, 7)]
    blocks.append(
        {
            "name": "thm1-r2",
            "detail": "p(4) from partitions of 6 with no 1's",
            "expected": {"terms": [4, 2, 0, 0, -1], "total": 5, "p4": 5},
            "actual": {"terms": terms2, "total": sum(terms2), "p4": p.value(4)},
        }
    )

    s3 = sr_table_enum(3, 9)
    msum3 = -sum(s3.count(9, k) * mu(k) for k in range(3, 10))
    blocks.append(
        {
            "name": "cor2-n6",
            "detail": "partitions of 6 with no 1's",
            "expected": {"count": 4, "mobius_sum": 4, "difference": 4},
            "actual": {
                "count": count_restricted(6, "no-ones"),
                "mobius_sum": msum3,
                "difference": backward_difference(p, 1, 6),
            },
        }
    )

    s4 = sr_table_enum(4, 13)
    msum4 = -sum(s4.count(13, k) * mu(k) for k in range(4, 14))
    blocks.append(
        {
            "name": "cor3-n8",
            "detail": "partitions of 8 with no 1's, largest part repeated",
            "expected": {"count": 3, "mobius_sum": 3, "difference": 3},
            "actual": {
                "count": count_restricted(8, "no-ones-and-largest-repeated"),
                "mobius_sum": msum4,
                "difference": backward_difference(p, 2, 8),
            },
        }
    )

    s5 = sr_table_enum(5, 17)
    msum5 = -sum(s5.count(17, k) * mu(k) for k in range(5, 18))
    blocks.append(
        {
            "name": "cor4-n12",
            "detail": "partitions of 12 with no 1's, at most one 2, largest repeated",
            "expected": {"count": 4, "mobius_sum": 4, "difference": 4},
            "actual": {
                "count": count_restricted(
                    12, "no-ones-at-most-one-two-largest-repeated"
                ),
                "mobius_sum": msum5,
                "difference": backward_difference(p, 2, 12)
                - backward_difference(p, 2, 8),
            },
        }
    )
    return blocks


def cmd_examples(args) -> int:
    blocks = _example_blocks()
    if args.only is not None:
        names = {b["name"] for b in blocks}
        if args.only not in names:
            print(
                f"unknown example {args.only!r}; choose from {', '.join(sorted(names))}",
                file=sys.stderr,
            )
            return EXIT_USAGE
        blocks = [b for b in blocks if b["name"] == args.only]
    results = []
    for b in blocks:
        results.append(
            {
                "name": b["name"],
                "detail": b["detail"],
                "expected": b["expected"],
                "actual": b["actual"],
                "passed": b["expected"] == b["actual"],
            }
        )
    if args.format == "json":
        _emit(json.dumps(results), args.out)
    else:
        lines = []
        for r in results:
            status = "PASS" if r["passed"] else "FAIL"
            lines.append(f"{status} {r['name']}: {r['detail']}")
            if not r["passed"]:
                lines.append(f"  expected {r['expected']}")
                lines.append(f"  actual   {r['actual']}")
        _emit("\n".join(lines), args.out)
    return EXIT_OK if all(r["passed"] for r in results) else EXIT_VERIFY_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mobius-partitions",
        description="Partition/Mobius identity tables and verification sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--nmax", type=int, default=None)
        p.add_argument("--rmax", type=int, default=None)
        p.add_argument("--r", type=int, default=None)
        p.add_argument("--alpha", type=int, default=None)
        p.add_argument("--format", choices=("csv", "json", "text"), default="text")
        p.add_argument("--out", default=None, help="write output to a file")

    pt = sub.add_parser("table", help="emit a coefficient, partition or S table")
    pt.add_argument("kind", metavar="which", choices=tuple(TABLE_FLAGS))
    common(pt)
    pt.set_defaults(func=cmd_table)

    pv = sub.add_parser("verify", help="run an identity verification sweep")
    pv.add_argument("identity")
    common(pv)
    pv.add_argument("--which", default=None, help="sub-identity (prime-alpha: i, ii, alternate-form)")
    pv.add_argument("--max-counterexamples", type=int, default=10)
    pv.set_defaults(func=cmd_verify)

    pe = sub.add_parser("examples", help="replay the worked examples")
    pe.add_argument("--only", default=None, help="run a single named example block")
    pe.add_argument("--format", choices=("json", "text"), default="text")
    pe.add_argument("--out", default=None)
    pe.set_defaults(func=cmd_examples)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OverflowError, ArithmeticError, AssertionError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError:
        # not exit 1, which means that a verification failed
        print("error: out of memory; try smaller sizes", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
