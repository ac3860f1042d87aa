"""Command-line front end: table generation, identity verification sweeps,
and replay of the worked examples.

Exit codes: 0 pass, 1 verification failure, 2 usage error, 3 internal
error: a numeric fault, an index fault or out of memory.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import namedtuple
from itertools import chain, islice, zip_longest
from math import isqrt
from typing import Optional

from mobius_partitions import identities
from mobius_partitions.arith import build_sieve
from mobius_partitions.identities import build_a, build_b
from mobius_partitions.partitions import (
    count_restricted,
    part_counts,
    partition_table_pentagonal,
    sr_table_gf,
)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3

# A run priced above this many bytes is refused before anything is allocated.
MEMORY_BUDGET = 2 << 30
# tracemalloc peak per entry of each sieve row at limits 10^5 and 10^6, with
# a fifth added: 17.0 B for build_sieve's mu, 48.0 B for totient_row's phi
MU_ENTRY_BYTES = 21
PHI_ENTRY_BYTES = 58


def _p_bits(n: int) -> int:
    """Bits of p(n) or of a smaller int: p(n) has fewer than
    pi sqrt(2n/3) / ln 2 < 4 sqrt(n) bits."""
    return 4 * isqrt(max(n, 0))


def _ints(count: int, n: int) -> int:
    """Bytes of count list slots holding ints no larger than about p(n)."""
    return count * (36 + _p_bits(n) // 8)


def _sweep(order: int, entry_bytes: int = MU_ENTRY_BYTES) -> int:
    """Bytes of a generating-function sweep to this order: its sieve row at
    entry_bytes per entry and about ten p-sized ints per n (6 to 9 measured
    for thm1 at order 3000 to 20000)."""
    return entry_bytes * order + _ints(10 * (order + 1), order)


def _coefficient_bits(r: int) -> int:
    """Bits of any entry of the a or b row r or of an earlier row: under r/3
    (max |a_{r,j}| and max |b_{r,j}| measured about 0.27 r bits at r = 200
    to 400)."""
    return r // 3 + 1


def _row_family(rmax: int) -> int:
    """Bytes of the a rows or of the b rows for r = 1..rmax: about rmax^3/6
    ints, row r's r^2/2 entries each r/3 bits more than a small int, which
    is sum_r r^3/48 = rmax^3 (rmax/3) / 64 bytes in all."""
    return _ints(rmax**3 // 6, 0) + rmax**3 * _coefficient_bits(rmax) // 64


# A verify row: the verifier's name in identities (its parameters are named
# like the flags), the flags it reads -> their defaults, the bytes a run
# needs from the flag values, and the arguments that no flag sets.
Identity = namedtuple("Identity", "verifier flags price fixed", defaults=({},))


# The verifier is looked up by name when it runs, so that a replaced module
# attribute (a tracer's wrapper, a test double) is the one called.  Dense
# S^(r) tables have half their cells zero; thm2 holds four rows of p-sized
# ints more than a sweep (its peak measured 7.5 to 11.1 per n in all, at
# nmax + rmax = 20 to 3030, rmax up to 100 nmax) and 4 KiB for its report,
# series and generators (2.1 KiB at most measured at nmax + rmax <= 10,
# where the rows are small).  thm1 is priced at r = 2, its largest r,
# and so is prime-alpha, whose every form reads mu(k) for k <= nmax + r only.
IDENTITIES = {
    "thm1": Identity("verify_theorem1", {"nmax": 100, "r": 1}, lambda nmax, r: _sweep(nmax + 2)),
    "thm2": Identity(
        "verify_theorem2", {"nmax": 60, "rmax": 6},
        lambda nmax, rmax: 4096 + _sweep(nmax + rmax) + _ints(4 * (nmax + rmax + 1), nmax + rmax),
    ),
    "cor2": Identity("verify_corollary", {"nmax": 45}, lambda nmax: _sweep(nmax + 5), {"which": 2}),
    "cor3": Identity("verify_corollary", {"nmax": 45}, lambda nmax: _sweep(nmax + 5), {"which": 3}),
    "cor4": Identity("verify_corollary", {"nmax": 45}, lambda nmax: _sweep(nmax + 5), {"which": 4}),
    "weighted": Identity("verify_weighted_corollary", {"nmax": 30, "r": 1}, lambda nmax, r: _sweep(nmax)),
    # phi holds p while it builds the series of forms 2 and 3, one p-sized int per n
    # more than thm1; three are priced (7.5 to 10.0 in all measured at order 3000 to 20000)
    "phi": Identity(
        "verify_phi_identities", {"nmax": 60},
        lambda nmax: _sweep(nmax + 2, PHI_ENTRY_BYTES) + _ints(3 * (nmax + 3), nmax + 2),
    ),
    "prime-alpha": Identity(
        "verify_prime_corollary", {"nmax": 50, "alpha": 2, "which": "i"},
        lambda nmax, alpha, which: _sweep(nmax + 2),
    ),
    "b-symmetry": Identity("verify_b_symmetry", {"rmax": 10}, _row_family),
    # the tables for r and r + 1 at once: (N+1)^2 slots each, about half of
    # them holding p-sized ints (one table measures 19 to 28 B per cell)
    "lemma1": Identity(
        "verify_lemma1", {"nmax": 40, "rmax": 5},
        lambda nmax, rmax: (8 + _ints(1, nmax + rmax)) * (nmax + rmax + 1) ** 2,
    ),
    "lambert": Identity(
        "verify_lambert", {"nmax": 200}, lambda nmax: MU_ENTRY_BYTES * nmax + _ints(nmax + 1, 0)
    ),
    # the scan rows of every r at each n, about rmax (N+1)^2 / 2 cells, and
    # one gf table at a time, (N+1)^2 cells; every cell is priced as a
    # p-sized int, and the scan rows at rmax (N+1)^2, twice what they hold
    "oracle-sr": Identity(
        "verify_sr_oracle", {"nmax": 30, "rmax": 4},
        lambda nmax, rmax: _ints((rmax + 1) * (nmax + 1) ** 2, nmax),
    ),
}
SWEEP_FLAGS = tuple(dict.fromkeys(flag for row in IDENTITIES.values() for flag in row.flags))


def _emit(chunks, out: Optional[str]) -> None:
    """Write the strs of chunks to stdout, or to the file out."""
    if out is None:
        sys.stdout.writelines(chunks)
    else:
        try:
            with open(out, "w") as fh:
                fh.writelines(chunks)
        except OSError as exc:
            raise ValueError(f"cannot write {out}: {exc.strerror}") from exc


def _checked_values(args, command: str, defaults: dict, price) -> dict:
    """Each flag the command reads, at its default where it was left out (an
    explicit 0 stays 0; a default of None marks a required flag).  Refused
    before anything is allocated: a sweep flag it would silently ignore, a
    negative --nmax or --rmax and a run priced over MEMORY_BUDGET."""
    ignored = [f"--{f}" for f in SWEEP_FLAGS if f not in defaults and getattr(args, f, None) is not None]
    if ignored:
        raise ValueError(f"{command} does not take {', '.join(ignored)}")
    values = {f: default if getattr(args, f) is None else getattr(args, f) for f, default in defaults.items()}
    missing = [f"--{f}" for f, value in values.items() if value is None]
    if missing:
        raise ValueError(f"{command} requires {' and '.join(missing)}")
    for flag in ("nmax", "rmax"):
        if values.get(flag, 0) < 0:
            raise ValueError(f"--{flag} must be >= 0, got {values[flag]}")
    need = price(**values)
    if need > MEMORY_BUDGET:
        raise ValueError(f"{command} would need about {need / 2**30:.1f} GiB, over the "
                         f"{MEMORY_BUDGET / 2**30:.0f} GiB limit; try smaller sizes")
    return values


# json writes its rows in blocks of about this many cells, one json.dumps
# per block: one per row would build an encoder for every row, and one for
# the whole table would hold a str per cell.
BLOCK_CELLS = 4096


def _csv(corner, header, labels, rows):
    """One line a row, cells past the row's end blank.  No int and no corner
    label needs quoting, so a plain join writes what csv.writer would."""
    yield ",".join(map(str, (corner, *header))) + "\n"
    for label, row in zip(labels, rows):
        yield ",".join(map(str, (label, *row))) + "," * (len(header) - len(row)) + "\n"


def _json(kind, params, width, rows):
    """The document {"kind", "params", "rows"}, its rows padded with 0 to
    width cells and written a block at a time."""
    padded = (row + [0] * (width - len(row)) for row in rows)
    step = max(1, BLOCK_CELLS // max(width, 1))
    yield json.dumps({"kind": kind, "params": params})[:-1] + ', "rows": ['
    sep = ""
    for block in iter(lambda: list(islice(padded, step)), []):
        yield sep + json.dumps(block)[1:-1]
        sep = ", "
    yield "]}\n"


def _text(header, labels, rows):
    """Every column right-aligned to its widest entry, cells past a row's
    end blank.  The widest decimal int of a column is its largest or its
    smallest, and a blank, read as 0, is never wider than either."""
    columns = zip_longest(*rows, fillvalue=0)
    widths = [max(len(str(h)), len(str(max(c))), len(str(min(c)))) for h, c in zip(header, columns)]
    label_width = max(len(str(label)) for label in labels)
    for label, row in chain([("", header)], zip(labels, rows)):
        cells = map(str.rjust, map(str, row), widths)
        yield " ".join([str(label).rjust(label_width), *cells, *(" " * w for w in widths[len(row) :])]) + "\n"


def _coefficient_rows(rows):
    return "r", range(max(map(len, rows))), range(1, len(rows) + 1), rows


def _p_rows(nmax):
    return "n", ["p"], range(nmax + 1), [[v] for v in partition_table_pentagonal(nmax).values]


def _sr_rows(r, nmax):
    sr = sr_table_gf(r, nmax)
    return "n", range(r, nmax + 1), range(nmax + 1), [sr.row(n, r, n) for n in range(nmax + 1)]


# A table row: the flags it requires, in the order json echoes them, the
# bytes a run needs from the flag values, flag values -> (corner, header,
# row labels, rows), the rows as built, and (header, row labels, rows) ->
# the strs of the text format.
Table = namedtuple("Table", "flags price build text", defaults=(_text,))


def _one_block(width: int, bits: int) -> int:
    """Bytes of writing a table out whose rows are width cells wide, no cell
    over bits bits, so none over 2 + 0.3 bits characters: 512 KiB for the
    command line (322 KiB measured for ten cells in a fresh process, whose
    first call also makes argparse's lazy imports) and one block of rows
    being written, at most BLOCK_CELLS + width cells, each at 80 B for its
    slots and its str object plus 3 B per character: its str, and the
    block's text joined and copied."""
    return (1 << 19) + (BLOCK_CELLS + width) * (80 + 3 * (2 + bits * 3 // 10))


# Each price is, from the flags, the table as built (the a rows hold the b
# rows too; the p table, its rows of one cell each at 72 B and the
# pentagonal recurrence's own list) plus writing it out.
TABLES = {
    "a": Table(
        ("rmax",),
        lambda rmax: 2 * _row_family(rmax) + _one_block(rmax * (rmax - 1) // 2 + 1, _coefficient_bits(rmax)),
        lambda rmax: _coefficient_rows(build_a(rmax, build_sieve(max(rmax, 1)))),
    ),
    "b": Table(
        ("rmax",),
        lambda rmax: _row_family(rmax) + _one_block(rmax * (rmax - 1) // 2 + 1, _coefficient_bits(rmax)),
        lambda rmax: _coefficient_rows(build_b(rmax)),
    ),
    "sr": Table(
        ("r", "nmax"),
        lambda r, nmax: _ints((nmax + 1) ** 2, nmax) + _one_block(nmax + 1, _p_bits(nmax)),
        _sr_rows,
    ),
    "p": Table(
        ("nmax",),
        lambda nmax: 2 * _ints(nmax + 1, nmax) + 72 * (nmax + 1) + _one_block(1, _p_bits(nmax)),
        _p_rows,
        # p(0), ..., p(nmax) on one line, comma-separated
        lambda header, labels, rows: chain([str(rows[0][0])], (f",{v}" for [v] in islice(rows, 1, None)), ["\n"]),
    ),
}


def cmd_table(args) -> int:
    table = TABLES[args.kind]
    params = _checked_values(args, f"table {args.kind}", dict.fromkeys(table.flags), table.price)
    corner, header, labels, rows = table.build(**params)
    if args.format == "csv":
        chunks = _csv(corner, header, labels, rows)
    elif args.format == "json":
        chunks = _json(args.kind, params, len(header), rows)
    else:
        chunks = table.text(header, labels, rows)
    _emit(chunks, args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.identity not in IDENTITIES:
        raise ValueError(f"unknown identity {args.identity!r}; choose from {', '.join(IDENTITIES)}")
    row = IDENTITIES[args.identity]
    if args.max_counterexamples < 0:
        raise ValueError(f"--max-counterexamples must be >= 0, got {args.max_counterexamples}")
    values = _checked_values(args, f"verify {args.identity}", row.flags, row.price)
    report = getattr(identities, row.verifier)(**row.fixed, **values, cap=args.max_counterexamples)
    if report.checked == 0:
        raise ValueError(f"{report.identity} {report.params} checks nothing")
    if args.format == "json":
        _emit([json.dumps(report.to_dict()), "\n"], args.out)
    else:
        _emit([report.summary(), "\n"], args.out)
    return EXIT_OK if report.passed else EXIT_VERIFY_FAIL


def _thm1_example(r: int, n: int) -> dict:
    """Theorem 1 with S-index n: the terms (-1)^(r-1) S^(r)_{n,k} mu(k) for
    k = r..n, by enumeration, their total, and p(n - r)."""
    mu, [row] = build_sieve(n), part_counts(n, r, r)
    terms = [(-1) ** (r - 1) * row[k] * mu[k] for k in range(r, n + 1)]
    return {"terms": terms, "total": sum(terms), f"p{n - r}": partition_table_pentagonal(n).value(n - r)}


def _corollary_example(which: int, n: int) -> dict:
    """Corollary `which` at n, each leg by its own route: the enumerated
    count, the Mobius sum by enumeration and the difference of p."""
    spec = identities.COROLLARY_SPECS[which]
    r, m = spec["r"], n + spec["offset"]
    mu, [row], p = build_sieve(m), part_counts(m, r, r), partition_table_pentagonal(n)
    return {
        "count": count_restricted(n, spec["predicate"]),
        "mobius_sum": -sum(row[k] * mu[k] for k in range(r, m + 1)),
        "difference": sum(c * p.value(n - shift) for c, shift in spec["diff"]),
    }


# The worked examples: name, what it shows, the function and arguments that
# compute it, and the values worked out by hand.
EXAMPLES = (
    ("thm1-r1", "p(4) from mu-weighted part counts over partitions of 5",
     _thm1_example, (1, 5), {"terms": [12, -4, -2, 0, -1], "total": 5, "p4": 5}),
    ("thm1-r2", "p(4) from partitions of 6 with no 1's",
     _thm1_example, (2, 6), {"terms": [4, 2, 0, 0, -1], "total": 5, "p4": 5}),
    ("cor2-n6", "partitions of 6 with no 1's",
     _corollary_example, (2, 6), {"count": 4, "mobius_sum": 4, "difference": 4}),
    ("cor3-n8", "partitions of 8 with no 1's, largest part repeated",
     _corollary_example, (3, 8), {"count": 3, "mobius_sum": 3, "difference": 3}),
    ("cor4-n12", "partitions of 12 with no 1's, at most one 2, largest repeated",
     _corollary_example, (4, 12), {"count": 4, "mobius_sum": 4, "difference": 4}),
)


def cmd_examples(args) -> int:
    names = [row[0] for row in EXAMPLES]
    if args.only is not None and args.only not in names:
        raise ValueError(f"unknown example {args.only!r}; choose from {', '.join(sorted(names))}")
    results = []
    for name, detail, evaluate, arguments, expected in EXAMPLES:
        if args.only in (None, name):
            actual = evaluate(*arguments)
            results.append(
                {"name": name, "detail": detail, "expected": expected, "actual": actual,
                 "passed": expected == actual}
            )
    if args.format == "json":
        _emit([json.dumps(results), "\n"], args.out)
    else:
        lines = []
        for r in results:
            lines.append(f"{'PASS' if r['passed'] else 'FAIL'} {r['name']}: {r['detail']}")
            if not r["passed"]:
                lines += [f"  expected {r['expected']}", f"  actual   {r['actual']}"]
        _emit(["\n".join(lines), "\n"], args.out)
    return EXIT_OK if all(r["passed"] for r in results) else EXIT_VERIFY_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mobius-partitions",
        description="Partition/Mobius identity tables and verification sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def output(p, formats):
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--out", default=None, help="write output to a file")

    def common(p, formats):
        for flag in ("nmax", "rmax", "r", "alpha"):
            p.add_argument(f"--{flag}", type=int, default=None)
        output(p, formats)

    pt = sub.add_parser("table", help="emit a coefficient, partition or S table")
    pt.add_argument("kind", metavar="which", choices=tuple(TABLES))
    common(pt, ("csv", "json", "text"))
    pt.set_defaults(func=cmd_table)

    pv = sub.add_parser("verify", help="run an identity verification sweep")
    pv.add_argument("identity")
    common(pv, ("json", "text"))
    pv.add_argument("--which", default=None, help="sub-identity (prime-alpha: i, ii, alternate-form)")
    pv.add_argument("--max-counterexamples", type=int, default=identities.DEFAULT_COUNTEREXAMPLE_CAP)
    pv.set_defaults(func=cmd_verify)

    pe = sub.add_parser("examples", help="replay the worked examples")
    pe.add_argument("--only", default=None, help="run a single named example block")
    output(pe, ("json", "text"))
    pe.set_defaults(func=cmd_examples)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ArithmeticError, AssertionError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except IndexError as exc:
        # no flag value reaches a table read out of range: the fault is ours
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError:
        # not exit 1, which means that a verification failed
        print("error: out of memory; try smaller sizes", file=sys.stderr)
        return EXIT_NUMERIC
