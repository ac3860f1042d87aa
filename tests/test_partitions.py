import inspect
from operator import mul

import pytest

from mobius_partitions import partitions
from mobius_partitions.arith import build_sieve, totient_row
from mobius_partitions.identities import COROLLARY_SPECS
from mobius_partitions.partitions import (
    ENUMERATION_CAP,
    SrTable,
    count_by_part_size,
    count_restricted,
    enumerate_partitions,
    part_counts,
    partition_table_gf,
    partition_table_pentagonal,
    sr_table_enum,
    sr_table_gf,
    weighted_sr_sums,
)
from mobius_partitions.series import TruncatedSeries, lambert_sum, pochhammer_inverse
from partitions_reference import (
    backward_difference,
    pentagonal_while_loop,
    per_part_sr_rows,
    triple_loop_sr_rows,
)

# the test each of corollaries 2, 3 and 4 counts by
COR2, COR3, COR4 = (COROLLARY_SPECS[which]["predicate"] for which in (2, 3, 4))


def parts_of(n, min_part=1):
    return list(enumerate_partitions(n, min_part))


def reference_partitions(n, min_part=1, max_part=None):
    """Partitions of n as non-increasing tuples, by plain recursion on the
    largest part; the reference the ascending generator is checked against."""
    if n == 0:
        return [()]
    top = n if max_part is None else min(n, max_part)
    return [
        (part,) + rest
        for part in range(top, min_part - 1, -1)
        for rest in reference_partitions(n - part, min_part, part)
    ]


def test_partition_values():
    p = partition_table_pentagonal(10)
    assert p.value(0) == 1
    assert p.value(4) == 5
    assert p.value(5) == 7
    assert p.value(6) == 11
    assert p.values == (1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42)


def test_partition_counts_match_enumeration():
    p = partition_table_pentagonal(20)
    for n in range(21):
        assert p.value(n) == len(parts_of(n)), n


def test_negative_and_out_of_range():
    p = partition_table_pentagonal(5)
    assert p.value(-3) == 0
    with pytest.raises(IndexError, match="n=6 exceeds table limit 5"):
        p.value(6)
    for build in (partition_table_pentagonal, partition_table_gf):
        with pytest.raises(ValueError, match="limit must be >= 0, got -1"):
            build(-1)


def test_dual_route_equality():
    assert partition_table_pentagonal(2000).values == partition_table_gf(2000).values


def test_sliding_sum_matches_while_loop():
    # every limit up to 300 crosses each generalized pentagonal boundary
    # 1, 2, 5, 7, 12, 15, ... as the last n of some table
    for limit in range(301):
        table = partition_table_pentagonal(limit)
        assert table.limit == limit
        assert list(table.values) == pentagonal_while_loop(limit), limit
    assert list(partition_table_pentagonal(2000).values) == pentagonal_while_loop(2000)


def test_partition_values_match_sympy():
    # a third route: sympy's Hardy-Ramanujan-Rademacher evaluation
    numbers = pytest.importorskip("sympy.functions.combinatorial.numbers")
    limit = 5000
    pentagonal = partition_table_pentagonal(limit)
    gf = partition_table_gf(limit)
    for n in (0, 1, 2, 100, 1000, 2500, 4999, 5000):
        expected = int(numbers.partition(n))
        assert pentagonal.value(n) == expected, n
        assert gf.value(n) == expected, n


def test_strictly_increasing():
    p = partition_table_pentagonal(100)
    for n in range(2, 101):
        assert p.value(n) > p.value(n - 1)


def test_enumerate_empty_partition():
    for mp in (1, 2, 7):
        assert parts_of(0, mp) == [[]]


def test_enumerate_refuses_bad_args():
    with pytest.raises(ValueError, match="n must be >= 0, got -1"):
        list(enumerate_partitions(-1))
    with pytest.raises(ValueError, match="min_part must be >= 1, got 0"):
        list(enumerate_partitions(5, 0))


def test_enumerate_order_and_content():
    assert parts_of(4) == [[1, 1, 1, 1], [1, 1, 2], [1, 3], [2, 2], [4]]
    assert parts_of(6, 2) == [[2, 2, 2], [2, 4], [3, 3], [6]]
    assert parts_of(17, 5) == [
        [5, 5, 7],
        [5, 6, 6],
        [5, 12],
        [6, 11],
        [7, 10],
        [8, 9],
        [17],
    ]


def test_enumerate_uniqueness_and_constraints():
    for n in range(31):
        for mp in range(1, 9):
            seen = parts_of(n, mp)
            if 0 < n < mp:
                assert seen == []
            assert len(set(map(tuple, seen))) == len(seen)
            for parts in seen:
                assert sum(parts) == n
                assert all(parts[i] <= parts[i + 1] for i in range(len(parts) - 1))
                assert all(p >= mp for p in parts)
            # ascending lexicographic
            assert seen == sorted(seen)


def test_enumerate_matches_recursive_reference():
    for n in range(23):
        for mp in (1, 2, 3, 5):
            got = sorted(tuple(sorted(parts, reverse=True)) for parts in parts_of(n, mp))
            assert got == sorted(reference_partitions(n, mp)), (n, mp)


def test_enumerate_yields_fresh_lists():
    seen = parts_of(7)
    seen[0].append(99)
    assert all(99 not in parts for parts in seen[1:])
    assert len(seen) == 15


def test_tracer_reads_these_signatures():
    # the benchmark tracer wraps these by name and binds their arguments
    assert inspect.isgeneratorfunction(enumerate_partitions)
    assert list(inspect.signature(enumerate_partitions).parameters) == ["n", "min_part"]
    for fn in (sr_table_enum, sr_table_gf):
        assert list(inspect.signature(fn).parameters) == ["r", "limit"]


def test_sr_enum_known_rows():
    s1 = sr_table_enum(1, 5)
    assert [s1.count(5, k) for k in range(1, 6)] == [12, 4, 2, 1, 1]
    s2 = sr_table_enum(2, 6)
    assert s2.count(6, 2) == 4
    assert s2.count(6, 3) == 2
    assert s2.count(6, 4) == 1
    assert s2.count(6, 6) == 1
    s3 = sr_table_enum(3, 9)
    assert s3.count(9, 3) == 4
    assert s3.count(9, 5) == 1
    assert s3.count(9, 6) == 1


def test_sr_gf_examples():
    for r in (1, 2, 3, 5):
        s = sr_table_gf(r, 2 * r)
        assert s.count(r, r) == 1
    s4 = sr_table_gf(4, 13)
    assert s4.count(13, 4) == 3
    assert s4.count(13, 5) == 2


def test_sr_zero_outside_support():
    s = sr_table_gf(3, 10)
    assert s.count(5, 2) == 0
    assert s.count(5, 6) == 0
    assert s.count(5, 99) == 0
    assert s.count(0, 3) == 0
    with pytest.raises(IndexError):
        s.count(11, 3)
    assert s.row(5, 0, 10) == [0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0]
    assert s.row(5, 3, 5) == [s.count(5, k) for k in range(3, 6)]
    assert s.row(2, 3, 2) == []
    for bad in ((11, 3, 5), (-1, 3, 5), (5, -1, 5), (5, 3, 11)):
        with pytest.raises(IndexError):
            s.row(*bad)


@pytest.mark.parametrize("r", range(1, 7))
def test_sr_gf_matches_triple_loop(r):
    inv = pochhammer_inverse(r, 60).coeffs
    # S^(r)_{n,k} does not depend on the limit, so one reference table at 60
    # holds every smaller one in its corner
    want = triple_loop_sr_rows(inv, r, 60)
    for limit in range(r, 61):
        table = sr_table_gf(r, limit)
        for n in range(limit + 1):
            assert table.row(n, 0, limit) == want[n][: limit + 1], (limit, n)


def test_sr_table_class_can_be_swapped():
    # the benchmark tracer reassigns __class__ to a slot-less subclass
    class Counting(SrTable):
        __slots__ = ()

    table = sr_table_gf(2, 8)
    want = [table.row(n, 0, 8) for n in range(9)]
    table.__class__ = Counting
    assert [table.row(n, 0, 8) for n in range(9)] == want
    assert table == sr_table_gf(2, 8)


def test_sr_diagonal():
    s = sr_table_gf(2, 20)
    for n in range(2, 21):
        assert s.count(n, n) == 1


def test_sr_routes_agree():
    for r in range(1, 7):
        assert sr_table_gf(r, 30) == sr_table_enum(r, 30)


@pytest.mark.parametrize("limit", range(1, 21))
def test_sr_tables_enum_matches_per_part_loop(limit):
    # every enumerated table sr_table_enum(r, limit), r = 1..limit
    for r in range(1, limit + 1):
        t = sr_table_enum(r, limit)
        assert (t.r, t.limit) == (r, limit)
        rows = [t.row(n, 0, limit) for n in range(limit + 1)]
        assert rows == per_part_sr_rows(r, limit), r


@pytest.fixture(scope="module")
def per_part_rows():
    """s -> the per-part loop's S^(s) rows for n <= 30."""
    return {s: per_part_sr_rows(s, 30) for s in range(1, 9)}


def test_part_counts_matches_per_part_loop(per_part_rows):
    for n in range(1, 31):
        for lo in range(1, min(n, 8) + 1):
            for hi in range(lo, min(n, 8) + 1):
                expected = [per_part_rows[s][n][: n + 1] for s in range(lo, hi + 1)]
                assert part_counts(n, lo, hi) == expected, (n, lo, hi)


def test_part_counts_below_lo_and_at_zero():
    # no partition of n has every part >= lo > n, and the empty partition of 0 has no parts
    for n in range(8):
        for lo in range(n + 1, 10):
            assert part_counts(n, lo, lo + 2) == [[0] * (n + 1)] * 3
    assert part_counts(0, 1, 4) == [[0]] * 4


def test_part_counts_in_the_last_family():
    # with smallest part >= 4 the partitions of 10 are [4, 6], [5, 5] and [10]:
    # the last family, with an empty prefix, one smallest part each
    rows = part_counts(10, 1, 12)
    only_ten = [0] * 10 + [1]
    assert rows[3] == [0, 0, 0, 0, 1, 2, 1, 0, 0, 0, 1]
    assert rows[4] == [0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 1]
    assert rows[5:10] == [only_ten] * 5
    assert rows[10:] == [[0] * 11] * 2


def test_part_counts_adds_up_to_n_per_partition():
    for n in range(31):
        for s, hist in enumerate(part_counts(n, 1, 8), 1):
            assert sum(k * c for k, c in enumerate(hist)) == n * len(parts_of(n, s)), (n, s)


def test_part_counts_bad_args():
    for args in [(-1, 1, 1), (5, 0, 2), (5, 3, 2)]:
        with pytest.raises(ValueError):
            part_counts(*args)


def test_sr_tables_enum_bad_args():
    # the argument checks of the enumerated tables, sr_table_enum(r, limit)
    with pytest.raises(ValueError):
        sr_table_enum(0, 10)
    with pytest.raises(ValueError, match="smaller than r=6"):
        sr_table_enum(6, 5)
    with pytest.raises(ValueError, match="capped"):
        sr_table_enum(6, ENUMERATION_CAP + 1)


def test_enumeration_walks_are_capped(monkeypatch):
    p = partition_table_pentagonal(ENUMERATION_CAP)
    [hist] = part_counts(ENUMERATION_CAP, 1, 1)
    assert sum(k * c for k, c in enumerate(hist)) == ENUMERATION_CAP * p.value(ENUMERATION_CAP)
    assert count_restricted(ENUMERATION_CAP, COR2) == backward_difference(p, 1, ENUMERATION_CAP)

    def refuse(*args):
        raise AssertionError("walked")

    monkeypatch.setattr(partitions, "enumerate_partitions", refuse)
    with pytest.raises(ValueError, match="capped"):
        count_restricted(ENUMERATION_CAP + 1, COR2)
    # at n = 200 an uncapped walk would pass 4.0e12 partitions
    for n in (ENUMERATION_CAP + 1, 200):
        with pytest.raises(ValueError, match="capped"):
            part_counts(n, 1, 1)


@pytest.mark.parametrize("r", range(1, 7))
def test_weighted_sr_series_matches_enumeration(r):
    mu = build_sieve(90)
    weights = {
        "mu": mu,
        "phi": totient_row(90),
        "mu(2k)": [0] + [mu[2 * k] for k in range(1, 31)],
        "mu(3k)": [0] + [mu[3 * k] for k in range(1, 31)],
        "mu, 3 not dividing k": [0] + [mu[k] if k % 3 else 0 for k in range(1, 31)],
        "k == 1": [0, 1] + [0] * 29,
    }
    # one call: every weight at r, then every weight at r + 1
    pairs = [(s, name) for s in (r, r + 1) for name in weights]
    sums = weighted_sr_sums(((s, weights[name]) for s, name in pairs), 30)
    oracles = {s: sr_table_enum(s, 30) for s in (r, r + 1)}
    for (s, name), series in zip(pairs, sums, strict=True):
        for n in range(31):
            want = sum(oracles[s].count(n, k) * weights[name][k] for k in range(s, n + 1))
            assert series.coeffs[n] == want, (s, name, n)


def test_stepped_inverses_match_pochhammer_inverse(monkeypatch):
    # with the Lambert factor replaced by 1, each sum is the inverse at its r
    monkeypatch.setattr(partitions, "lambert_sum", lambda row, order: TruncatedSeries([1], order))
    for order in (1, 5, 11, 12, 13, 150):
        for rs in (range(1, 13), (1, 1, 3, 3, 7, 12)):
            rs = [r for r in rs if r <= order]
            sums = list(weighted_sr_sums(((r, [0] * (order + 1)) for r in rs), order))
            assert len(sums) == len(rs)
            for r, inv in zip(rs, sums):
                assert inv == pochhammer_inverse(r, order), (order, r)


def test_weighted_sr_sums_match_one_inverse_per_r():
    for w in (build_sieve(80), totient_row(80)):
        sweep = list(weighted_sr_sums(((r, w) for r in range(1, 10)), 80))
        assert sweep == [
            pochhammer_inverse(r, 80) * lambert_sum([0] * r + list(w[r:81]), 80) for r in range(1, 10)
        ]


def test_weighted_sr_sums_step_down_as_well_as_up():
    # descents, repeats and drops of more than one step: each series matches
    # a fresh one-pair call and the row sums of the gf table at its r
    order = 40
    rows = (build_sieve(order), totient_row(order))
    tables = {r: sr_table_gf(r, order) for r in range(1, 8)}
    for rs in ((5, 2), (2, 1, 1, 3, 2), (7, 7, 1, 6, 3, 3, 5), (3, 1, 4, 1, 5, 2, 6)):
        pairs = [(r, rows[i % 2]) for i, r in enumerate(rs)]
        for (r, w), series in zip(pairs, weighted_sr_sums(pairs, order), strict=True):
            assert [series] == list(weighted_sr_sums([(r, w)], order)), (rs, r)
            sums = [sum(map(mul, tables[r].row(n, r, n), w[r : n + 1])) for n in range(order + 1)]
            assert list(series.coeffs) == sums, (rs, r)


def test_weighted_sr_ignores_entries_below_r():
    mu = build_sieve(60)
    junk = [3**k + 5 for k in range(61)]
    for r in range(1, 8):
        # entries 0..r-1 are junk in one row and zero in the other
        clean_row, junk_row = [0] * r + list(mu[r:]), junk[:r] + list(mu[r:])
        clean, dirty = weighted_sr_sums([(r, clean_row), (r, junk_row)], 60)
        assert dirty == clean
        assert list(weighted_sr_sums(((s, junk_row) for s in range(1, r + 1)), 60))[-1] == clean


def test_sr_bad_args():
    with pytest.raises(ValueError):
        sr_table_gf(0, 5)
    with pytest.raises(IndexError, match="n=-1 outside 0..6"):
        sr_table_gf(2, 6).count(-1, 3)
    with pytest.raises(ValueError):
        sr_table_enum(4, 3)
    with pytest.raises(ValueError, match="capped"):
        sr_table_enum(1, ENUMERATION_CAP + 1)
    with pytest.raises(ValueError, match="smaller than r=4"):
        list(weighted_sr_sums([(4, [0] * 4)], 3))
    with pytest.raises(ValueError, match="r must be >= 1"):
        list(weighted_sr_sums([(0, [0] * 4)], 3))
    with pytest.raises(ValueError, match="shorter than order"):
        list(weighted_sr_sums([(2, [0] * 5)], 5))
    with pytest.raises(ValueError, match="shorter than order"):
        list(weighted_sr_sums([(1, [0] * 6), (2, [0] * 5)], 5))


def test_backward_difference():
    p = partition_table_pentagonal(12)
    for n in range(13):
        assert backward_difference(p, 0, n) == p.value(n)
    assert backward_difference(p, 1, 6) == 4
    assert backward_difference(p, 2, 8) == 3
    # against the definition, computed longhand
    assert backward_difference(p, 2, 8) == p.value(8) - 2 * p.value(7) + p.value(6)
    assert backward_difference(p, 3, 9) == (
        p.value(9) - 3 * p.value(8) + 3 * p.value(7) - p.value(6)
    )


def test_count_restricted_known_values():
    assert count_restricted(6, COR2) == 4
    assert count_restricted(8, COR3) == 3
    assert count_restricted(12, COR4) == 4
    assert sum(1 for _ in enumerate_partitions(17, 5)) == 7


def test_count_restricted_witnesses():
    wit = [a for a in enumerate_partitions(8, 2) if len(a) > 1 and a[-1] == a[-2]]
    assert wit == [[2, 2, 2, 2], [2, 3, 3], [4, 4]]
    wit12 = [
        a
        for a in enumerate_partitions(12, 2)
        if sum(k == 2 for k in a) <= 1 and len(a) > 1 and a[-1] == a[-2]
    ]
    assert wit12 == [[2, 5, 5], [3, 3, 3, 3], [4, 4, 4], [6, 6]]


def test_count_restricted_vs_differences():
    p = partition_table_pentagonal(45)
    for n in range(46):
        assert count_restricted(n, COR2) == backward_difference(p, 1, n)
        if n >= 3:
            assert count_restricted(n, COR3) == backward_difference(p, 2, n)
        if n >= 6:
            assert count_restricted(n, COR4) == (
                backward_difference(p, 2, n) - backward_difference(p, 2, n - 4)
            )


@pytest.mark.parametrize("which", sorted(COROLLARY_SPECS))
def test_count_by_part_size_matches_enumeration(which):
    spec = COROLLARY_SPECS[which]
    expected = [count_restricted(n, spec["predicate"]) for n in range(ENUMERATION_CAP + 1)]
    assert count_by_part_size(ENUMERATION_CAP, **spec["recipe"]) == expected


def test_count_by_part_size_counts_every_partition_past_the_cap():
    # every partition but the empty one has a largest part L, one copy of
    # which leaves parts 1..L: the recipe of p(n) itself
    assert count_by_part_size(200, 1, 1, ((1, 0),)) == list(partition_table_pentagonal(200).values)
    assert count_by_part_size(0, 2, 1, ((1, 0),)) == [1]


@pytest.mark.parametrize(
    "top, lo, shifts", [(-1, 2, ((1, 0),)), (5, 0, ((1, 0),)), (5, 2, ((0, 1),)), (5, 2, ((1, -1),))]
)
def test_count_by_part_size_refuses_bad_arguments(top, lo, shifts):
    with pytest.raises(ValueError, match="bad arguments"):
        count_by_part_size(top, lo, 0, shifts)


def test_conjugation_symmetry():
    # no part equal to 1  <->  largest part repeated, via conjugation
    for n in range(1, 46):
        largest_repeated = sum(
            1 for a in enumerate_partitions(n) if len(a) > 1 and a[-1] == a[-2]
        )
        assert count_restricted(n, COR2) == largest_repeated


def test_q_r_difference_counts_min_part_partitions():
    for r in range(1, 7):
        s = sr_table_gf(r, 40 + r)
        for n in range(41):
            got = s.count(n + r, r) - (s.count(n, r) if n >= 0 else 0)
            assert got == sum(1 for _ in enumerate_partitions(n, r))
