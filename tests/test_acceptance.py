"""Acceptance sweep: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import time

import pytest

from mobius_partitions import identities
from mobius_partitions.arith import build_sieve
from mobius_partitions.cli import main
from mobius_partitions.identities import (
    COROLLARY_SPECS,
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
)
from mobius_partitions.partitions import (
    count_restricted,
    partition_table_gf,
    partition_table_pentagonal,
    sr_table_enum,
)
from partitions_reference import backward_difference

SUITE_START = time.monotonic()


def report(criterion, ok, extra=""):
    line = f"acceptance {criterion}: {'PASS' if ok else 'FAIL'}"
    if extra:
        line += f" ({extra})"
    print(line)
    assert ok, line


def test_c01_figure_reproduction(a_rows, b_rows):
    t0 = time.monotonic()
    ok = build_b(6) == b_rows and build_a(7, build_sieve(7)) == a_rows
    code_b = main(["table", "b", "--rmax", "6", "--format", "json"])
    code_a = main(["table", "a", "--rmax", "7", "--format", "json"])
    elapsed = time.monotonic() - t0
    report(
        "1 coefficient-table reproduction",
        ok and code_a == 0 and code_b == 0 and elapsed < 1.0,
        f"{elapsed:.3f}s",
    )


def test_c02_worked_examples(capsys):
    code = main(["examples"])
    out = capsys.readouterr().out
    lines = [l for l in out.strip().splitlines() if l]
    with capsys.disabled():
        report(
            "2 worked examples",
            code == 0 and len(lines) == 5 and all(l.startswith("PASS") for l in lines),
        )


def test_c03_theorem1_sweep():
    t0 = time.monotonic()
    r1 = verify_theorem1(200, 1)
    r2 = verify_theorem1(200, 2)
    elapsed = time.monotonic() - t0
    report(
        "3 main decomposition sweep n<=200",
        r1.passed and r2.passed and elapsed < 10.0,
        f"{elapsed:.3f}s",
    )


def test_c04_theorem2_sweep():
    rep = verify_theorem2(100, 10)
    report("4 coefficient-family sweep n<=100 r<=10", rep.passed)


def test_c05_oracle_equivalence():
    sr = verify_sr_oracle(40, 6)
    p_ok = partition_table_pentagonal(500).values == partition_table_gf(500).values
    report("5 oracle equivalence (S-tables, p-tables)", sr.passed and p_ok)


def test_c06_lambert_identity():
    rep = verify_lambert(500)
    report("6 Lambert mu-series equals q up to order 500", rep.passed)


def test_c07_lemma_sweep(monkeypatch):
    # Lemma 1 on the enumeration oracle's tables
    monkeypatch.setattr(identities, "sr_table_gf", sr_table_enum)
    rep = verify_lemma1(40, 5)
    report("7 table recurrence vs enumeration r<=5 n<=40", rep.passed)


def test_c08_combinatorial_interpretations():
    p = partition_table_pentagonal(45)
    cor2, cor3, cor4 = (COROLLARY_SPECS[which]["predicate"] for which in (2, 3, 4))
    ok = True
    for n in range(46):
        ok &= count_restricted(n, cor2) == backward_difference(p, 1, n)
        if n >= 3:
            ok &= count_restricted(n, cor3) == backward_difference(p, 2, n)
        if n >= 6:
            ok &= count_restricted(n, cor4) == (
                backward_difference(p, 2, n) - backward_difference(p, 2, n - 4)
            )
    report("8 restricted counts vs differences n<=45", ok)


def test_c09_totient_identities():
    rep = verify_phi_identities(100)
    report("9 totient identities n<=100", rep.passed)


def test_c10_prime_alpha_identities():
    ok = True
    for alpha in (2, 3, 5, 7):
        for which in ("i", "ii", "alternate-form"):
            ok &= verify_prime_corollary(100, alpha, which).passed
    report("10 prime-scaled mu identities n<=100", ok)


def test_c11_b_symmetry():
    rep = verify_b_symmetry(10)
    report("11 b-row symmetry r<=10", rep.passed)


def test_c12_total_runtime():
    elapsed = time.monotonic() - SUITE_START
    report("12 acceptance suite runtime", elapsed < 120.0, f"{elapsed:.1f}s")
