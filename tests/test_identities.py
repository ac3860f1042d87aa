import weakref

import pytest

from mobius_partitions import identities
from mobius_partitions.arith import build_sieve, totient_row
from mobius_partitions.identities import (
    VerificationReport,
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
from mobius_partitions.partitions import sr_table_enum
from mobius_partitions.series import TruncatedSeries, pochhammer
from arith_reference import linear_sieve
from identities_reference import closure_build_a
from partitions_reference import backward_difference

def test_build_b_matches_reference_rows(b_rows):
    assert build_b(6) == b_rows


def test_build_a_matches_reference_rows(a_rows):
    assert build_a(7, build_sieve(7)) == a_rows


def test_build_a_matches_closure_loop():
    mu = build_sieve(60)
    reference = closure_build_a(60, mu)
    # row r does not depend on rmax, so every rmax is a prefix of one run
    for rmax in range(1, 61):
        assert build_a(rmax, mu) == reference[:rmax], rmax


def test_build_a_support_check_fires(monkeypatch):
    # one less than the true width leaves a nonzero entry in every tail
    monkeypatch.setattr(identities, "_a_support", lambda r: (r - 1) * (r - 2) // 2)
    with pytest.raises(AssertionError, match="support beyond expected width"):
        build_a(7, build_sieve(7))


def test_b_rows_equal_pochhammer_coefficients():
    rows = build_b(12)
    for r in range(1, 13):
        width = r * (r - 1) // 2
        assert tuple(rows[r - 1]) == pochhammer(1, r - 1, width).coeffs


def test_row_widths():
    rows_b = build_b(9)
    rows_a = build_a(9, build_sieve(9))
    for r in range(1, 10):
        assert len(rows_b[r - 1]) == r * (r - 1) // 2 + 1
        assert len(rows_a[r - 1]) == (r - 1) * (r - 2) // 2 + 1


def test_build_rejects_bad_args():
    with pytest.raises(ValueError):
        build_b(0)
    with pytest.raises(ValueError, match="rmax must be >= 1, got 0"):
        build_a(0, build_sieve(5))
    with pytest.raises(ValueError):
        build_a(10, build_sieve(5))
    with pytest.raises(ValueError, match="rmax must be >= 2, got 1"):
        verify_b_symmetry(1)


def test_report_bookkeeping():
    r = VerificationReport("demo", {}, cap=2)
    r.record((0,), 1, 1)
    assert r.passed
    for n in range(5):
        r.record((n,), 0, 1)
    assert not r.passed
    assert r.failures == 5
    assert len(r.counterexamples) == 2
    d = r.to_dict()
    assert d["checked"] == 6 and d["failures"] == 5 and not d["passed"]
    assert "FAIL" in r.summary()


def test_report_keeps_full_index():
    r = VerificationReport("demo", {})
    r.record((7,), 1, 2)
    r.record((46, 1000), 1, 2)
    r.record((47, 0), 3, 4)
    assert [c["index"] for c in r.to_dict()["counterexamples"]] == [[7], [46, 1000], [47, 0]]
    assert "at (46, 1000): lhs=1 rhs=2" in r.summary()


def test_theorem1_worked_examples():
    mu = build_sieve(10)
    s1 = sr_table_enum(1, 5)
    terms = [s1.count(5, k) * mu[k] for k in range(1, 6)]
    assert terms == [12, -4, -2, 0, -1]
    assert sum(terms) == 5
    s2 = sr_table_enum(2, 6)
    assert -sum(s2.count(6, k) * mu[k] for k in range(2, 7)) == 5


def test_theorem1_base_case():
    r = verify_theorem1(0, 1)
    assert r.passed and r.checked == 1


def test_theorem1_sweeps():
    for r in (1, 2):
        rep = verify_theorem1(80, r)
        assert rep.passed, rep.summary()
    with pytest.raises(ValueError):
        verify_theorem1(10, 3)


def test_theorem2_sweep():
    rep = verify_theorem2(60, 6)
    assert rep.passed, rep.summary()


def test_theorem2_r3_example():
    # r=3, n=6 gives minus the count of partitions of 6 with no 1's
    mu = build_sieve(9)
    s3 = sr_table_enum(3, 9)
    assert sum(s3.count(9, k) * mu[k] for k in range(3, 10)) == -4


def test_weighted_corollary():
    for r in (1, 2):
        rep = verify_weighted_corollary(25, r)
        assert rep.passed, rep.summary()
    with pytest.raises(ValueError):
        verify_weighted_corollary(10, 5)
    with pytest.raises(ValueError, match="capped"):
        verify_weighted_corollary(46, 1)


def test_corollaries():
    for which in (2, 3, 4):
        rep = verify_corollary(which, 45)
        assert rep.passed, rep.summary()
    with pytest.raises(ValueError):
        verify_corollary(5, 10)


def test_phi_identities():
    rep = verify_phi_identities(60)
    assert rep.passed, rep.summary()


def test_phi_identity_n4_by_hand():
    phi = totient_row(6)
    s2 = sr_table_enum(2, 6)
    lhs = sum(s2.count(6, k) * phi[k] for k in range(2, 7))
    assert lhs == 4 * 1 + 2 * 2 + 1 * 2 + 1 * 2 == 12
    assert lhs == 5 + 3 + 2 + 1 + 1
    assert lhs == sr_table_enum(1, 5).count(5, 1)


def test_prime_corollary_small_case():
    # alpha=2, n=1: S^(1)_{2,1} mu(2) + S^(1)_{2,2} mu(4) = -2 = -(p(1)+p(0))
    rep = verify_prime_corollary(1, 2, "i")
    assert rep.passed
    s1 = sr_table_enum(1, 2)
    mu = build_sieve(8)
    assert s1.count(2, 1) * mu[2] + s1.count(2, 2) * mu[4] == -2


def test_prime_corollary_sweeps():
    for alpha in (2, 3, 5, 7):
        for which in ("i", "ii", "alternate-form"):
            rep = verify_prime_corollary(40, alpha, which)
            assert rep.passed, rep.summary()


def test_prime_corollary_errors():
    with pytest.raises(ValueError):
        verify_prime_corollary(10, 4, "i")
    with pytest.raises(ValueError):
        verify_prime_corollary(10, 2, "iii")


class _Captured(Exception):
    pass


@pytest.mark.parametrize("alpha", [2, 3, 5, 7])
def test_prime_alpha_weight_rows_match_linear_sieve(monkeypatch, alpha):
    # forms i and ii weight by mu(alpha k), which is -mu(k) [alpha does not
    # divide k] for prime alpha; the alternate form by mu(k) [alpha does not
    # divide k].  The double captures the row each form hands over.
    def capture(pairs, order):
        raise _Captured(list(pairs), order)

    monkeypatch.setattr(identities, "weighted_sr_sums", capture)
    mu = linear_sieve(alpha * 202)[0]
    for nmax in (0, 1, 2, 3, 7, 12, 30, 63, 64, 101, 150, 199, 200):
        for which, r, scaled in (("i", 1, True), ("ii", 2, True), ("alternate-form", 1, False)):
            with pytest.raises(_Captured) as caught:
                verify_prime_corollary(nmax, alpha, which)
            [(r_seen, weights)], order = caught.value.args
            assert (r_seen, order) == (r, nmax + r)
            if scaled:
                expected = [mu[alpha * k] for k in range(order + 1)]
            else:
                expected = [mu[k] if k % alpha else 0 for k in range(order + 1)]
            assert list(weights) == expected, (which, nmax)


def test_b_symmetry():
    rep = verify_b_symmetry(10)
    assert rep.passed, rep.summary()
    # spot-check r=2 by hand: b_{2,0} = b_{1,0} - b_{1,1}, b_{2,1} = b_{1,1} - b_{1,0}
    rows = build_b(2)
    assert rows[1][0] == rows[0][0] - 0 == 1
    assert rows[1][1] == 0 - rows[0][0] == -1


def test_lemma1_gf_and_enum():
    assert verify_lemma1(40, 5, "gf").passed
    assert verify_lemma1(25, 3, "enum").passed
    # the smallest range with a check: n = 2, r = 1, k = 2
    assert verify_lemma1(2, 1).checked == verify_lemma1(2, 1, "enum").checked == 1
    with pytest.raises(ValueError):
        verify_lemma1(10, 2, "magic")
    # the enum route builds tables to nmax + rmax; c07's 40 + 5 is the cap
    with pytest.raises(ValueError, match="capped"):
        verify_lemma1(45, 1, "enum")


def test_lemma1_hand_case():
    s1 = sr_table_enum(1, 6)
    s2 = sr_table_enum(2, 6)
    assert s1.count(6, 2) == 8
    assert s2.count(6, 2) == s1.count(6, 2) - s1.count(5, 2) == 4


def test_lambert_identity():
    assert verify_lambert(300).passed


def test_sr_oracle(monkeypatch):
    assert verify_sr_oracle(30, 5).passed

    # an oversized run is refused before any table is built
    def refuse(r, limit):
        raise AssertionError("table built before the size check")

    monkeypatch.setattr(identities, "sr_table_gf", refuse)
    with pytest.raises(ValueError, match="capped"):
        verify_sr_oracle(46, 1)


def test_weighted_sweeps_build_no_dense_table(monkeypatch):
    def refuse(r, limit):
        raise AssertionError("dense S^(r) table built")

    monkeypatch.setattr(identities, "sr_table_gf", refuse)
    reports = [verify_theorem1(25, r) for r in (1, 2)]
    reports.append(verify_theorem2(20, 5))
    reports += [verify_corollary(which, 20) for which in (2, 3, 4)]
    reports.append(verify_phi_identities(25))
    reports += [verify_prime_corollary(25, 3, which) for which in ("i", "ii", "alternate-form")]
    for rep in reports:
        assert rep.passed and rep.checked > 0, rep.summary()


def test_theorem2_specializations_recover_corollaries():
    # a_3 = [-1,1] is -nabla p; a_4 = [0,-1,2,-1] is -nabla^2 p(n-1);
    # a_5 is -(nabla^2 p(n) - nabla^2 p(n-4))
    from mobius_partitions.partitions import partition_table_pentagonal

    p = partition_table_pentagonal(100)
    rows = build_a(5, build_sieve(5))
    for n in range(101):
        s3 = sum(c * p.value(n - j) for j, c in enumerate(rows[2]))
        assert s3 == -backward_difference(p, 1, n)
        s4 = sum(c * p.value(n - j) for j, c in enumerate(rows[3]))
        nb2 = backward_difference(p, 2, n - 1) if n >= 1 else 0
        assert s4 == -nb2
        s5 = sum(c * p.value(n - j) for j, c in enumerate(rows[4]))
        d4 = backward_difference(p, 2, n - 4) if n >= 4 else 0
        assert s5 == -(backward_difference(p, 2, n) - d4)


def test_reports_deterministic():
    a = verify_theorem2(20, 4).to_dict()
    b = verify_theorem2(20, 4).to_dict()
    assert a == b


def _per_element(identity, cap, rows):
    """The report record makes from (index, lhs, rhs) triples one at a time."""
    report = VerificationReport(identity, {}, cap=cap)
    for index, lhs, rhs in rows:
        report.record(index, lhs, rhs)
    return report


def _bookkeeping(report):
    return report.checked, report.failures, report.counterexamples, report.cap


@pytest.mark.parametrize("cap", [0, 1, 2, 10])
def test_record_all_matches_record(cap):
    lhs = [3, 1, 4, 1, 5, 9, 2, 6]
    rhs = [3, 0, 4, 1, 7, 9, 2, 5]
    report = VerificationReport("demo", {}, cap=cap)
    report.record((0,), 1, 1)
    report.record_all((2, 0), lhs, rhs)
    triples = [((2, i), a, b) for i, (a, b) in enumerate(zip(lhs, rhs))]
    expected = _per_element("demo", cap, [((0,), 1, 1)] + triples)
    assert _bookkeeping(report) == _bookkeeping(expected)
    assert report.failures == 3 and len(report.counterexamples) == min(cap, 3)


def test_record_all_rejects_unequal_rows():
    report = VerificationReport("demo", {})
    with pytest.raises(ValueError, match="unequal"):
        report.record_all((0,), [1, 2, 3], [1, 2])
    assert report.checked == 0


def test_negative_cap_rejected():
    with pytest.raises(ValueError, match="cap"):
        VerificationReport("demo", {}, cap=-1)
    assert VerificationReport("demo", {}, cap=0).cap == 0


@pytest.mark.parametrize("cap", [0, 1, 10])
def test_lambert_injected_error(monkeypatch, cap):
    real = identities.lambert_sum

    def broken(weights, order):
        coeffs = list(real(weights, order).coeffs)
        coeffs[7] += 1
        return TruncatedSeries(coeffs, order)

    monkeypatch.setattr(identities, "lambert_sum", broken)
    report = verify_lambert(40, cap=cap)
    expected = _per_element(
        "lambert", cap, [((n,), int(n in (1, 7)), int(n == 1)) for n in range(41)]
    )
    assert _bookkeeping(report) == _bookkeeping(expected)
    assert report.failures == 1


@pytest.mark.parametrize("cap", [0, 1, 10])
def test_b_symmetry_injected_error(monkeypatch, cap):
    real = identities.build_b

    def broken(rmax):
        rows = real(rmax)
        rows[5][4] += 1  # b_{6,4}, read as the lhs at r = 6 and as prev at r = 7
        return rows

    monkeypatch.setattr(identities, "build_b", broken)
    def at(row, j):
        return row[j] if 0 <= j < len(row) else 0

    rows = broken(8)
    triples = []
    for r in range(2, 9):
        cur, prev = rows[r - 1], rows[r - 2]
        half = r * (r - 1) // 2
        for j in range(len(cur)):
            triples.append(((r, j), cur[j], at(prev, j) - (-1) ** r * at(prev, half - j)))
    report = verify_b_symmetry(8, cap=cap)
    assert _bookkeeping(report) == _bookkeeping(_per_element("b-symmetry", cap, triples))
    assert report.failures == 3
    assert [c.index for c in _per_element("b-symmetry", 10, triples).counterexamples] == [
        (6, 4), (7, 4), (7, 17)
    ]


@pytest.mark.parametrize("cap", [0, 1, 10])
def test_theorem2_injected_error(monkeypatch, cap):
    from mobius_partitions.partitions import partition_table_pentagonal

    real = identities.weighted_sr_sums

    def broken(pairs, order):
        for r, series in enumerate(real(pairs, order), 1):
            if r == 3:
                coeffs = list(series.coeffs)
                coeffs[9 + r] -= 2  # the lhs at (r, n) = (3, 9)
                series = TruncatedSeries(coeffs, order)
            yield series

    monkeypatch.setattr(identities, "weighted_sr_sums", broken)
    nmax, rmax = 25, 5
    a_rows = build_a(rmax, build_sieve(nmax + rmax))
    p = partition_table_pentagonal(nmax)
    mu = build_sieve(nmax + rmax)
    lhs_rows = list(broken(((r, mu) for r in range(1, rmax + 1)), nmax + rmax))
    triples = []
    for r in range(1, rmax + 1):
        lhs = lhs_rows[r - 1]
        for n in range(nmax + 1):
            rhs = sum(c * p.value(n - j) for j, c in enumerate(a_rows[r - 1]))
            triples.append(((r, n), lhs.coeffs[n + r], rhs))
    report = verify_theorem2(nmax, rmax, cap=cap)
    assert _bookkeeping(report) == _bookkeeping(_per_element("thm2", cap, triples))
    assert report.failures == 1 and report.checked == rmax * (nmax + 1)


@pytest.mark.parametrize("cap", [1, 10])
def test_lemma1_injected_errors(monkeypatch, cap):
    real = identities.sr_table_gf
    wrong = {3: (10, 5), 2: (14, 6)}  # table r -> cell (n, k) made one too large

    def broken(r, limit):
        table = real(r, limit)
        if r in wrong:
            n, k = wrong[r]
            table._cells[n * (limit + 1) + k] += 1
        return table

    monkeypatch.setattr(identities, "sr_table_gf", broken)
    nmax, rmax = 20, 4
    tables = {r: broken(r, nmax + rmax) for r in range(1, rmax + 2)}
    triples = []
    for r in range(1, rmax + 1):
        lo, hi = tables[r], tables[r + 1]
        for n in range(r + 1, nmax + 1):
            for k in range(r + 1, n + 1):
                triples.append(((r, n, k), hi.count(n + r, k), lo.count(n + r, k) - lo.count(n, k)))
    report = verify_lemma1(nmax, rmax, cap=cap)
    assert _bookkeeping(report) == _bookkeeping(_per_element("lemma1", cap, triples))
    # each wrong cell fails once as the larger table and twice as the smaller one
    assert report.failures == 6
    assert report.counterexamples[0].index == (1, 13, 6)


def test_theorem2_builds_one_inverse(monkeypatch):
    from mobius_partitions import partitions

    real = partitions.pochhammer_inverse
    starts = []

    def counting(start, order):
        starts.append(start)
        return real(start, order)

    monkeypatch.setattr(partitions, "pochhammer_inverse", counting)
    assert verify_theorem2(60, 12).passed
    assert starts == [1]


def test_theorem2_frees_each_leg_before_the_next(monkeypatch):
    # no series and no row of leg r is alive when leg r + 1's series is
    # asked for: each is weakly referenced, the series and its lhs slice
    # through a wrapped weighted_sr_sums and the rhs through the p sums
    refs = []

    def tracked(obj):
        refs.append(weakref.ref(obj))
        return obj

    class Row(list):
        pass

    class Coefficients(tuple):
        def __getitem__(self, key):
            return tracked(Row(tuple.__getitem__(self, key)))

    class Series:
        def __init__(self, coeffs):
            self.coeffs = Coefficients(coeffs)

    real_sums, real_series = identities._shifted_p_sums, identities.weighted_sr_sums

    def weighted_sr_sums(pairs, order):
        sums = real_series(pairs, order)
        while True:
            alive = sum(ref() is not None for ref in refs)
            assert alive == 0, f"{alive} objects of earlier legs alive as the next series is built"
            series = next(sums, None)
            if series is None:
                return
            yield tracked(Series(series.coeffs))

    monkeypatch.setattr(identities, "_shifted_p_sums", lambda *args: tracked(Row(real_sums(*args))))
    monkeypatch.setattr(identities, "weighted_sr_sums", weighted_sr_sums)
    report = verify_theorem2(40, 6)
    assert report.passed and report.checked == 6 * 41
    assert len(refs) == 3 * 6


def test_lemma1_builds_each_table_from_its_own_inverse(monkeypatch):
    # lemma1 compares tables of one route, so the route-independence test
    # exempts it; a table stepped from the one before it would satisfy
    # Lemma 1 by construction
    from mobius_partitions import partitions

    real = partitions.pochhammer_inverse
    starts = []

    def counting(start, order):
        starts.append(start)
        return real(start, order)

    monkeypatch.setattr(partitions, "pochhammer_inverse", counting)
    assert verify_lemma1(20, 4).passed
    assert starts == [1, 2, 3, 4, 5]


def test_sr_oracle_scans_each_n_once(monkeypatch):
    scans = []
    real = identities.part_counts

    def counting(n, lo, hi):
        scans.append((n, lo, hi))
        return real(n, lo, hi)

    monkeypatch.setattr(identities, "part_counts", counting)
    assert verify_sr_oracle(30, 5).passed
    assert scans == [(n, 1, 5) for n in range(31)]


def test_sr_oracle_frees_each_gf_table_before_the_next(monkeypatch):
    # the gf table of r is dead when the table of r + 1 is asked for
    from mobius_partitions.partitions import SrTable

    class Table(SrTable):
        __slots__ = ("__weakref__",)

    real = identities.sr_table_gf
    refs = []

    def sr_table_gf(r, limit):
        alive = [ref().r for ref in refs if ref() is not None]
        assert alive == [], f"gf tables {alive} alive as table {r} is built"
        table = real(r, limit)
        table = Table(table.r, table.limit, table._cells)
        refs.append(weakref.ref(table))
        return table

    monkeypatch.setattr(identities, "sr_table_gf", sr_table_gf)
    assert verify_sr_oracle(20, 5).passed
    assert len(refs) == 5


def test_sr_oracle_rmax_bounds(monkeypatch):
    # rmax = nmax is admitted; rmax > nmax is refused (see test_cli)
    assert verify_sr_oracle(3, 3).checked == 10

    def refuse(*args):
        raise AssertionError("built")

    for name in ("sr_table_gf", "part_counts"):
        monkeypatch.setattr(identities, name, refuse)
    # rmax = 0 checks nothing, which the CLI refuses, and builds nothing
    assert verify_sr_oracle(5, 0).checked == 0


def test_weighted_corollary_matches_per_part_mobius_sums(monkeypatch):
    from mobius_partitions.partitions import PartitionTable, enumerate_partitions

    mu = build_sieve(20)
    # a p table that is wrong everywhere, so that every n >= r is a
    # counterexample whose rhs is the enumerated side; below r both sides
    # are 0, since p(< 0) = 0 and there is no partition to sum over
    monkeypatch.setattr(identities, "partition_table_pentagonal",
                        lambda limit: PartitionTable(limit, (-1,) * (limit + 1)))
    for r in (1, 2):
        sums = [(-1) ** (r - 1) * sum(mu[k] for parts in enumerate_partitions(n, r) for k in parts)
                for n in range(21)]
        report = verify_weighted_corollary(20, r, cap=21)
        assert (report.checked, report.failures) == (21, 21 - r)
        assert [(c.index, c.rhs) for c in report.counterexamples] == [((n,), sums[n]) for n in range(r, 21)]
        assert sums[:r] == [0] * r


def test_dense_sweeps_do_not_step_the_inverse(monkeypatch):
    from mobius_partitions import partitions

    def refuse(pairs, order):
        raise AssertionError("stepped inverse used")

    for module in (partitions, identities):
        monkeypatch.setattr(module, "weighted_sr_sums", refuse)
    for rep in (verify_lemma1(30, 5), verify_lemma1(20, 3, "enum"), verify_sr_oracle(25, 4)):
        assert rep.passed and rep.checked > 0, rep.summary()


def test_prime_alpha_refuses_composite_before_sieve(monkeypatch):
    def refuse(limit):
        raise AssertionError("sieve built")

    monkeypatch.setattr(identities, "build_sieve", refuse)
    for alpha in (0, 1, 4, 9, 25, 1_000_000):
        with pytest.raises(ValueError, match="not prime"):
            verify_prime_corollary(10, alpha, "i")


def test_phi_builds_the_partition_series_once(monkeypatch):
    from mobius_partitions import partitions

    real = partitions.pochhammer_inverse
    starts = []

    def counting(start, order):
        starts.append(start)
        return real(start, order)

    monkeypatch.setattr(partitions, "pochhammer_inverse", counting)
    assert verify_phi_identities(30).passed
    assert starts == [1]


def _shifted_reference(p, terms, count):
    return [sum(c * p.value(n - s) for c, s in terms) for n in range(count)]


@pytest.mark.parametrize("terms", [
    [],
    [(1, 0)],
    [(0, 0), (3, 2), (0, 5)],  # zero coefficients
    [(2, 3), (-1, 3), (5, 0), (-4, 3)],  # repeated shifts
    [(1, 40), (-7, 41), (2, 1000), (1, 39)],  # shifts at and past count
    [(-1, 1), (2, 7), (-3, 12), (1, 15)],
])
def test_shifted_p_sums_match_per_n_sums(terms):
    from mobius_partitions.partitions import partition_table_pentagonal

    p = partition_table_pentagonal(45)
    for count in (0, 1, 13, 40, 46):
        assert identities._shifted_p_sums(p, terms, count) == _shifted_reference(p, terms, count)


def test_shifted_p_sums_rejects_bad_terms():
    from mobius_partitions.partitions import partition_table_pentagonal

    p = partition_table_pentagonal(10)
    with pytest.raises(ValueError, match="shift"):
        identities._shifted_p_sums(p, [(1, 0), (1, -1)], 5)
    with pytest.raises(ValueError, match="too short"):
        identities._shifted_p_sums(p, [(1, 0)], 12)


def test_corollary_terms_are_the_differences():
    from mobius_partitions.partitions import partition_table_pentagonal

    p = partition_table_pentagonal(100)
    expected = {
        2: [backward_difference(p, 1, n) for n in range(101)],
        3: [backward_difference(p, 2, n) for n in range(101)],
        4: [backward_difference(p, 2, n) - (backward_difference(p, 2, n - 4) if n >= 4 else 0)
            for n in range(101)],
    }
    for which, diffs in expected.items():
        terms = identities.COROLLARY_SPECS[which]["diff"]
        assert identities._shifted_p_sums(p, terms, 101) == diffs, which


def test_p_oracle_runs_without_series(monkeypatch):
    from mobius_partitions import partitions, series
    from mobius_partitions.partitions import partition_table_pentagonal

    def refuse(*args):
        raise AssertionError("series kernel called")

    for module in (series, partitions, identities):
        for name in ("_mul", "_log_solve", "lambert_sum", "pochhammer", "pochhammer_inverse"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    p = partition_table_pentagonal(500)
    assert p.values[100] == 190569292
    assert identities._shifted_p_sums(p, [(1, 0), (-1, 1)], 501)[100] == 190569292 - 169229875


def test_enumeration_oracle_runs_without_series(monkeypatch):
    from mobius_partitions import partitions, series
    from mobius_partitions.partitions import count_restricted

    def refuse(*args):
        raise AssertionError("series kernel called")

    for module in (series, partitions, identities):
        for name in ("_mul", "_log_solve", "lambert_sum", "pochhammer", "pochhammer_inverse"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    assert [sr_table_enum(r, 12).count(12, 3) for r in range(1, 5)] == [45, 14, 8, 0]
    assert verify_weighted_corollary(25, 1).passed and verify_weighted_corollary(25, 2).passed
    assert count_restricted(12, identities.COROLLARY_SPECS[4]["predicate"]) == 4


def _bump_products(monkeypatch, changes):
    """Make the i-th TruncatedSeries product come out with its coefficient
    j raised by d, for each (i, j, d) in changes."""
    real = TruncatedSeries.__mul__
    made = []

    def broken(self, other):
        out = list(real(self, other).coeffs)
        for i, j, d in changes:
            if i == len(made):
                out[j] += d
        made.append(None)
        return TruncatedSeries(out, self.order)

    monkeypatch.setattr(TruncatedSeries, "__mul__", broken)


def _evidence(report):
    return report.failures, [(c.index, c.lhs, c.rhs) for c in report.counterexamples]


def test_signed_weight_rows_keep_products_unsigned(monkeypatch):
    # thm1 at r = 2 and cor2 weight by -mu, whose Lambert series from k = r
    # on has no negative term, so neither operand of the product is signed
    real = TruncatedSeries.__mul__
    lows = []

    def recording(self, other):
        lows.append(min(min(self.coeffs), min(other.coeffs)))
        return real(self, other)

    monkeypatch.setattr(TruncatedSeries, "__mul__", recording)
    assert verify_theorem1(200, 2).passed and verify_corollary(2, 200).passed
    assert len(lows) == 2 and min(lows) >= 0, lows


# The expected failures and counterexamples below come row by row: every
# failure of one (first, lhs, rhs) row of checks, by position, before those
# of the next row.

@pytest.mark.parametrize("cap", [1, 10])
def test_theorem1_injected_errors(monkeypatch, cap):
    from mobius_partitions.partitions import partition_table_pentagonal

    p = partition_table_pentagonal(60).values
    # r = 2: the weight row carries the sign, so the right-hand side at n is
    # coefficient(n + 2)
    _bump_products(monkeypatch, [(0, 40 + 2, -3), (0, 7 + 2, 1)])
    report = verify_theorem1(60, 2, cap=cap)
    assert report.checked == 61
    assert _evidence(report) == (2, [((7,), p[7], p[7] + 1), ((40,), p[40], p[40] - 3)][:cap])


@pytest.mark.parametrize("cap", [1, 10])
def test_phi_injected_errors(monkeypatch, cap):
    # products in order: s1_phi, s1_ones, s2_phi; the checks at n are
    # s1_phi(n+1) = rhs1, s2_phi(n+2) = rhs2, rhs2 = s1_ones(n+1)
    _bump_products(monkeypatch, [(0, 5 + 1, 1), (2, 5 + 2, 1), (1, 3 + 1, 1)])
    report = verify_phi_identities(30, cap=cap)
    assert report.checked == 3 * 31
    # p = 1, 1, 2, 3, 5, 7: rhs2(3) = 7, rhs2(5) = 19, rhs1(5) = 45
    assert _evidence(report) == (3, [((1, 5), 46, 45), ((2, 5), 20, 19), ((3, 3), 7, 8)][:cap])


@pytest.mark.parametrize("cap", [1, 10])
def test_prime_alpha_injected_errors(monkeypatch, cap):
    from mobius_partitions.partitions import partition_table_pentagonal

    p = partition_table_pentagonal(40)

    def rhs(n):  # which="ii", alpha = 3
        total, power = 0, 1
        while power <= n + 1:
            total += p.value(n + 1 - power) - p.value(n + 2 - 3 * power)
            power *= 3
        return total

    _bump_products(monkeypatch, [(0, 26 + 2, -2), (0, 2 + 2, 1)])
    report = verify_prime_corollary(40, 3, "ii", cap=cap)
    assert report.checked == 41
    expected = [((2,), rhs(2) + 1, rhs(2)), ((26,), rhs(26) - 2, rhs(26))]
    assert _evidence(report) == (2, expected[:cap])


@pytest.mark.parametrize("cap", [1, 2, 10])
def test_corollary3_injected_errors(monkeypatch, cap):
    from mobius_partitions.partitions import partition_table_pentagonal

    p = partition_table_pentagonal(60)

    def enumerated(n, predicate):  # the true count, one too large at n = 8
        return backward_difference(p, 2, n) + (n == 8)

    monkeypatch.setattr(identities, "count_restricted", enumerated)
    # the weight row carries the sign, so the Mobius leg at n is
    # coefficient(n + 5)
    _bump_products(monkeypatch, [(0, 50 + 5, -1), (0, 10 + 5, 1), (0, 8 + 5, -4)])
    report = verify_corollary(3, 60, cap=cap)
    assert report.checked == 2 * (45 - 3 + 1) + (60 - 45)
    d = [backward_difference(p, 2, n) for n in range(61)]
    expected = [
        ((1, 8), d[8], d[8] - 4),
        ((1, 10), d[10], d[10] + 1),
        ((1, 50), d[50], d[50] - 1),
        ((2, 8), d[8], d[8] + 1),
    ]
    assert _evidence(report) == (4, expected[:cap])
