"""No check of a verify sweep takes both of its sides from one route.

Every compared (index, lhs, rhs) is recorded at
VerificationReport.record_all.  Then the entry points of one route at a
time are replaced, wherever a package module binds them, by versions whose
every output is shifted, and the sweep runs again: a side that moves was
computed by that route.  The shifts add 3^i to entry i, and one partition
[1] to the partitions of every n, which no difference of p, a-row sum or
running sum in the catalogue cancels at every n.  The μ and φ rows are
inputs that both sides share, not routes.

lemma1 and b-symmetry are exempt: each compares one route with itself on
purpose.  Lemma 1 relates the S^(r+1) table to the S^(r) table, and the
b-symmetry relates row r of b to row r - 1, so either route moves both
sides.  test_identities.py pins instead that lemma1 builds every table
from its own inverse.
"""

import re
from itertools import count
from pathlib import Path

import pytest

import mobius_partitions
from mobius_partitions import arith, cli, identities, partitions, series
from mobius_partitions.identities import VerificationReport
from mobius_partitions.partitions import PartitionTable, SrTable
from mobius_partitions.series import TruncatedSeries

MODULES = (mobius_partitions, arith, series, partitions, identities, cli)
RECORD_ALL = VerificationReport.record_all
EXEMPT = {"lemma1", "b-symmetry"}
CLOSED_FORM = "closed form"

# Every --which form and both r values, at small sizes.
CASES = [
    ("thm1", {"nmax": 30, "r": 1}),
    ("thm1", {"nmax": 30, "r": 2}),
    ("thm2", {"nmax": 20, "rmax": 6}),
    ("cor2", {"nmax": 20}),
    ("cor3", {"nmax": 20}),
    ("cor4", {"nmax": 20}),
    ("weighted", {"nmax": 20, "r": 1}),
    ("weighted", {"nmax": 20, "r": 2}),
    ("phi", {"nmax": 30}),
    ("prime-alpha", {"nmax": 30, "alpha": 3, "which": "i"}),
    ("prime-alpha", {"nmax": 30, "alpha": 3, "which": "ii"}),
    ("prime-alpha", {"nmax": 30, "alpha": 3, "which": "alternate-form"}),
    ("lambert", {"nmax": 100}),
    ("oracle-sr", {"nmax": 12, "rmax": 4}),
]
EXEMPT_CASES = [("lemma1", {"nmax": 12, "rmax": 3}), ("b-symmetry", {"rmax": 8})]


def _case_ids(cases):
    return [f"{i}-" + "-".join(map(str, v.values())) for i, v in cases]


def _shifted(values):
    return [v + 3**i for i, v in enumerate(values)]


def _shifted_table(table):
    return SrTable(table.r, table.limit, _shifted(table._cells))


def _with_extra_partition(real):
    def enumerate_partitions(n, min_part=1):
        yield from real(n, min_part)
        yield [1]

    return enumerate_partitions


# route -> entry point -> its replacement, made from the real function
ROUTES = {
    "series": {
        "weighted_sr_sums": lambda real: lambda pairs, order: (
            TruncatedSeries(_shifted(s.coeffs), order) for s in real(pairs, order)
        ),
        "lambert_sum": lambda real: lambda weights, order: TruncatedSeries(
            _shifted(real(weights, order).coeffs), order
        ),
        "sr_table_gf": lambda real: lambda r, limit: _shifted_table(real(r, limit)),
    },
    "pentagonal": {
        "partition_table_pentagonal": lambda real: lambda limit: PartitionTable(
            limit, tuple(_shifted(real(limit).values))
        ),
    },
    "enumeration": {
        "enumerate_partitions": _with_extra_partition,
        "count_restricted": lambda real: lambda n, predicate: real(n, predicate) + 3**n,
        "part_counts": lambda real: lambda n, lo, hi: [_shifted(row) for row in real(n, lo, hi)],
    },
    "counting": {
        "count_by_part_size": lambda real: lambda top, **recipe: _shifted(real(top, **recipe)),
    },
    # build_b stays: shifted b rows would trip build_a's support assertion
    "recurrence": {
        "build_a": lambda real: lambda rmax, mu: [_shifted(row) for row in real(rmax, mu)],
        "convolved_a_rows": lambda real: lambda p, mu, rmax: (_shifted(row) for row in real(p, mu, rmax)),
    },
}


def _poison(monkeypatch, route):
    """Replace each entry point of route wherever a package module binds it."""
    for name, replacement in ROUTES[route].items():
        real = next(vars(m)[name] for m in MODULES if name in vars(m))
        poisoned = replacement(real)
        for module in MODULES:
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, poisoned)


def _checks(monkeypatch, identity, values):
    """The report of the sweep, and every (index, lhs, rhs) it compares, in order."""
    seen = []

    def recording(report, first, lhs, rhs):
        *head, start = first
        seen.extend(zip(((*head, last) for last in count(start)), lhs, rhs))
        RECORD_ALL(report, first, lhs, rhs)

    monkeypatch.setattr(VerificationReport, "record_all", recording)
    row = cli.IDENTITIES[identity]
    report = getattr(identities, row.verifier)(**row.fixed, **values)
    assert len(seen) == report.checked > 0
    return report, seen


def _readme_routes():
    """id -> the routes column of the README identity catalogue."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    catalogue = readme[readme.index("## Identity catalogue"):]
    return dict(re.findall(r"^\| `([\w-]+)` \|.*\| ([^|]+?) \|$", catalogue, re.M))


def test_cases_and_exempt_ids_make_up_the_registry():
    covered = {identity for identity, _ in CASES}
    assert covered | EXEMPT == set(cli.IDENTITIES)
    assert not covered & EXEMPT
    assert {identity for identity, _ in EXEMPT_CASES} == EXEMPT
    assert set(_readme_routes()) == set(cli.IDENTITIES)


@pytest.mark.parametrize("identity, values", CASES + EXEMPT_CASES, ids=_case_ids(CASES + EXEMPT_CASES))
def test_every_check_has_its_own_index(monkeypatch, identity, values):
    # past the lowered enumeration cap, cor2-4 check one leg per n
    monkeypatch.setattr(identities, "ENUMERATION_CAP", 12)
    _, seen = _checks(monkeypatch, identity, values)
    indices = [index for index, _, _ in seen]
    assert len(set(indices)) == len(indices)


@pytest.mark.parametrize("identity, values", CASES, ids=_case_ids(CASES))
def test_no_check_takes_both_sides_from_one_route(monkeypatch, identity, values):
    # a low cap puts cor2-4's checks past the enumeration cap within nmax 20
    monkeypatch.setattr(identities, "ENUMERATION_CAP", 12)
    report, clean = _checks(monkeypatch, identity, values)
    # a value read at the wrong index may still come from one route a side
    assert report.passed, report.summary()
    moved = [(set(), set()) for _ in clean]
    for route in ROUTES:
        with monkeypatch.context() as m:
            _poison(m, route)
            _, poisoned = _checks(m, identity, values)
        assert [c[0] for c in poisoned] == [c[0] for c in clean], route
        for (index, lhs, rhs), (_, lhs2, rhs2), (left, right) in zip(clean, poisoned, moved):
            assert lhs == lhs2 or rhs == rhs2, f"{route} computes both sides at {index}"
            if lhs != lhs2:
                left.add(route)
            if rhs != rhs2:
                right.add(route)

    # The README lists the routes of one side of the identity against the
    # other's; a check may compare them in either order (phi's third check
    # does).  Every side moves under some route except a closed form.
    listed = [set(side.split(" and ")) for side in _readme_routes()[identity].split(" vs ")]
    assert len(listed) == 2 and not listed[0] & listed[1]
    assert set().union(*listed) <= set(ROUTES) | {CLOSED_FORM}
    seen = (set(), set())
    for left, right in moved:
        if not (left <= listed[0] and right <= listed[1]):
            left, right = right, left
        assert left <= listed[0] and right <= listed[1], (left, right)
        seen[0].update(left)
        seen[1].update(right)
    assert [listed[0] - {CLOSED_FORM}, listed[1] - {CLOSED_FORM}] == list(seen)
