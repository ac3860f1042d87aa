"""Coefficient families a_{r,j}, b_{r,j} and verifiers for every identity
connecting p(n), S^(r)_{n,k}, mu and phi.

Each verifier sweeps a configurable range and hands its rows of checks to
_sweep, the one place that builds a VerificationReport.  Every weighted sum
of S^(r) set against a sum of p values is a Leg handed to _weighted_vs_p.
Failures are report content, never exceptions: a sweep always covers its
full range and keeps up to a capped number of counterexamples as evidence.
tests/test_independence.py checks that no check takes both sides from one route.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import accumulate, chain, count, islice, repeat
from math import isqrt
from operator import add, eq, mul, sub

from mobius_partitions.arith import build_sieve, totient_row
from mobius_partitions.partitions import (
    ENUMERATION_CAP,
    PartitionTable,
    check_enumeration_size,
    count_by_part_size,
    part_counts,
    partition_table_pentagonal,
    sr_table_gf,
    weighted_sr_sums,
)
from mobius_partitions.series import lambert_sum

DEFAULT_COUNTEREXAMPLE_CAP = 10

# Proved width of a-row r: a_r = q^-r (q;q)_{r-1} (q - sum_{k<r} mu(k) q^k/(1-q^k)), each (q;q)_{r-1}/(1-q^k)
# with k < r is a polynomial, and sum_k mu(k) q^k/(1-q^k) = q makes the bracket O(q^r): deg a_r <= (r-1)(r-2)/2.
def _a_support(r: int) -> int:
    return (r - 1) * (r - 2) // 2 + 1


# A failed check; index is the sweep position, e.g. (n,) or (r, n, k).
Counterexample = namedtuple("Counterexample", "index lhs rhs")

# One weighted-vs-p row of checks; _weighted_vs_p names its fields.
Leg = namedtuple("Leg", "first r weights offset terms sums p_first", defaults=(0, False))


class VerificationReport:
    """Structured pass/fail evidence for one identity over one sweep."""

    __slots__ = ("identity", "params", "checked", "failures", "counterexamples", "cap")

    def __init__(self, identity: str, params: dict, cap: int = DEFAULT_COUNTEREXAMPLE_CAP):
        if cap < 0:
            raise ValueError(f"counterexample cap must be >= 0, got {cap}")
        self.identity = identity
        self.params = params
        self.checked = self.failures = 0
        self.counterexamples = []
        self.cap = cap

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def record(self, index: tuple, lhs: int, rhs: int) -> None:
        """Count one check; index is the tuple of its sweep indices."""
        self.checked += 1
        if lhs != rhs:
            self.failures += 1
            if len(self.counterexamples) < self.cap:
                self.counterexamples.append(Counterexample(index, lhs, rhs))

    def record_all(self, first: tuple, lhs, rhs) -> None:
        """Count one check per position i of two equal-length rows, indexed
        by first with i added to its last coordinate; the same bookkeeping
        as record at every position, with one C-level pass over rows that
        agree: one == where both rows have one type."""
        if len(lhs) != len(rhs):
            raise ValueError(f"rows of unequal length: {len(lhs)} != {len(rhs)}")
        if lhs == rhs or all(map(eq, lhs, rhs)):
            self.checked += len(lhs)
            return
        *head, start = first
        for last, left, right in zip(count(start), lhs, rhs):
            self.record((*head, last), left, right)

    def to_dict(self) -> dict:
        return {
            "identity": self.identity,
            "params": self.params,
            "checked": self.checked,
            "failures": self.failures,
            "passed": self.passed,
            "counterexamples": [{"index": list(c.index), "lhs": c.lhs, "rhs": c.rhs} for c in self.counterexamples],
        }

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        line = f"{status} {self.identity} {self.params}: {self.checked} checks, {self.failures} failures"
        for c in self.counterexamples:
            line += f"\n  at {c.index}: lhs={c.lhs} rhs={c.rhs}"
        return line


def build_b(rmax: int) -> list:
    """Rows b_{r,.} for r = 1..rmax from the recurrence alone.

    b_{r+1,j} = b_{r,j} - b_{r,j-r} (second term only for j >= r), starting
    from b_1 = [1].  Row r has r(r-1)/2 + 1 entries.
    """
    if rmax < 1:
        raise ValueError(f"rmax must be >= 1, got {rmax}")
    rows = [[1]]
    for r in range(1, rmax):
        prev = rows[-1]
        # prev has r(r-1)/2 + 1 >= r entries; the new row is r entries longer,
        # extended in place so that no full-length temporary is made
        row = prev[:r]
        row += map(sub, chain(islice(prev, r, None), repeat(0, r)), prev)
        rows.append(row)
    return rows


def build_a(rmax: int, mu: tuple) -> list:
    """Rows a_{r,.} for r = 1..rmax from the recurrence, reading mu(r)
    from a sieve row that reaches rmax.

    a_{r+1,j} = a_{r,j+1} - mu(r) b_{r,j+1} - a_{r,j+1-r} (last term only
    for j+1 >= r), starting from a_1 = [1].  The recurrence is evaluated on
    a generous index range; the trailing entries beyond the proved
    support width are asserted zero and trimmed.
    """
    if len(mu) <= rmax:
        raise ValueError(f"sieve limit {len(mu) - 1} < rmax {rmax}")
    rows = [[1]]
    for r, b_prev in zip(range(1, rmax), build_b(rmax)):
        prev = rows[-1]
        mu_r = mu[r]
        span = (r + 1) * (r + 2) // 2 + 1
        # a_{r,j+1}, b_{r,j+1} and a_{r,j+1-r} at j = 0, 1, ..., zero
        # outside each row
        a_next = chain(islice(prev, 1, None), repeat(0))
        b_next = chain(islice(b_prev, 1, None), repeat(0))
        a_back = chain(repeat(0, r - 1), prev, repeat(0))
        row = [a - mu_r * b - back for a, b, back in islice(zip(a_next, b_next, a_back), span)]
        width = _a_support(r + 1)
        tail = row[width:]
        if any(tail):
            raise AssertionError(
                f"a-row {r + 1} has support beyond expected width {width}: {row}"
            )
        rows.append(row[:width])
    return rows


def convolved_a_rows(p: PartitionTable, mu: tuple, rmax: int):
    """Yield [A_r(n) for n <= p.limit + 1 - r], r = 1..rmax, where A_r(n) =
    sum_j a_{r,j} p(n-j) and p(<0) = 0, with no a or b row built: the a and b
    recurrences step A_r and B_r(n) = sum_j b_{r,j} p(n-j) from A_1 = B_1 = p,
    in a few C-level passes over p, since A_r(0) = a_{r,0} and B_r(0) = 1:
      A_{r+1}(n) = A_r(n+1) - A_r(0) p(n+1) - mu(r) (B_r(n+1) - p(n+1)) - A_r(n+1-r),
      B_{r+1}(n) = B_r(n) - B_r(n-r).
    Each row is yielded uncopied; the next step builds a new one."""
    if len(mu) < rmax or p.limit + 1 < rmax:
        raise ValueError(f"rmax={rmax} needs mu and p to rmax - 1, got {len(mu) - 1} and {p.limit}")
    a, b = p.values, list(p.values)
    yield a
    for r in range(1, rmax):
        # A_r and B_r are held for n <= p.limit + 1 - r
        prev, mu_r = a, mu[r]
        up = map(add, islice(prev, 1, None), map(mul, repeat(mu_r - prev[0]), islice(p.values, 1, None)))
        a = list(map(sub, up, map(mul, repeat(mu_r), islice(b, 1, None))))
        a[r - 1 :] = map(sub, islice(a, r - 1, None), prev)
        del prev, b[p.limit + 1 - r :]
        b[r:] = map(sub, islice(b, r, None), b)
        yield a


def _shifted_p_sums(p: PartitionTable, terms) -> list:
    """[sum of c p(n - s) over the (c, s) in terms, for n <= p.limit], with
    p(<0) = 0: one C-level pass over p per nonzero c.  Every shift s is >= 0."""
    out = [0] * (p.limit + 1)
    for c, s in terms:
        if s < 0:
            raise ValueError(f"shift must be >= 0, got {s}")
        if c:
            out[s:] = map(add, out[s:], map(mul, repeat(c), p.values))
    return out


def _sweep(identity: str, params: dict, cap: int, checks) -> VerificationReport:
    """The report of one sweep: one record_all per (first, lhs, rhs) in
    checks, in order.  A generator of checks makes each row as it is compared."""
    report = VerificationReport(identity, params, cap=cap)
    for first, lhs, rhs in checks:
        report.record_all(first, lhs, rhs)
        # the next check may build the next leg's rows: not with these held
        del lhs, rhs
    return report


def _weighted_vs_p(nmax: int, legs, p_rows=None):
    """For each Leg (first, r, weights, offset, terms, sums, p_first) of the
    list legs, the check (first, lhs, rhs) over n = first[-1]..nmax.  One side
    is sum_k S^(r)_{n+offset,k} w(k), weights being the statement's weight
    row, its sign included; the other is sum c p(n - s) over the (c, s) in
    terms, from one pentagonal p to the series' order, taken through `sums`
    running sums, and it is lhs if p_first.  p_rows, if given, maps that p
    to an iterator of the legs' p sides in place of their terms.  One
    weighted_sr_sums pass builds the series in leg order, each after the
    check before it has been yielded and freed."""
    order = nmax + max(leg.offset for leg in legs)
    series = weighted_sr_sums(((leg.r, leg.weights) for leg in legs), order)
    if p_rows is None:
        p_rows = lambda p: (_shifted_p_sums(p, leg.terms) for leg in legs)
    rows = None
    for first, _, _, offset, _, sums, p_first in legs:
        # next(series), not a zip over legs and series: zip's reused result
        # tuple would hold each series until the next one is built
        s_row = next(series).coeffs[offset + first[-1] : offset + nmax + 1]
        # p is built after the first series, so it is not held through that product
        rows = rows or p_rows(partition_table_pentagonal(order))
        p_row = next(rows)
        for _ in range(sums):
            p_row = accumulate(p_row)
        p_row = list(islice(p_row, first[-1], nmax + 1))
        yield (first, p_row, s_row) if p_first else (first, s_row, p_row)
        del s_row, p_row


def verify_theorem1(nmax: int, r: int, cap: int = DEFAULT_COUNTEREXAMPLE_CAP) -> VerificationReport:
    """p(n) = (-1)^(r-1) sum_k S^(r)_{n+r,k} mu(k) for r in {1, 2}."""
    if r not in (1, 2):
        raise ValueError(f"r must be 1 or 2, got {r}")
    weights = [(-1) ** (r - 1) * m for m in build_sieve(nmax + r)]
    checks = _weighted_vs_p(nmax, [Leg((0,), r, weights, r, ((1, 0),), p_first=True)])
    return _sweep("thm1", {"nmax": nmax, "r": r}, cap, checks)


def verify_theorem2(nmax: int, rmax: int, cap: int = DEFAULT_COUNTEREXAMPLE_CAP) -> VerificationReport:
    """sum_k S^(r)_{n+r,k} mu(k) = sum_j a_{r,j} p(n-j) for r <= rmax."""
    if rmax < 1:
        raise ValueError(f"rmax must be >= 1, got {rmax}")
    mu = build_sieve(nmax + rmax)
    legs = [Leg((r, 0), r, mu, r, None) for r in range(1, rmax + 1)]
    checks = _weighted_vs_p(nmax, legs, lambda p: convolved_a_rows(p, mu, rmax))
    return _sweep("thm2", {"nmax": nmax, "rmax": rmax}, cap, checks)


def verify_weighted_corollary(nmax: int, r: int, cap: int = DEFAULT_COUNTEREXAMPLE_CAP) -> VerificationReport:
    """p(n-r) = (-1)^(r-1) * sum over partitions of n with parts >= r of
    sum_k mu(k) * multiplicity(k), checked by full enumeration
    (nmax <= ENUMERATION_CAP)."""
    if r not in (1, 2):
        raise ValueError(f"r must be 1 or 2, got {r}")
    check_enumeration_size(nmax)
    # Every part lies in r..n <= nmax, inside the sieve.
    weights = [(-1) ** (r - 1) * m for m in build_sieve(max(nmax, 1))]
    p = _shifted_p_sums(partition_table_pentagonal(nmax), ((1, r),))
    sums = [sum(map(mul, weights, part_counts(n, r, r)[0])) for n in range(nmax + 1)]
    return _sweep("weighted", {"nmax": nmax, "r": r}, cap, [((0,), p, sums)])


# which -> S^(r) table r, S-table index offset, first n, difference of p as
# (coefficient, shift) terms of p(n - shift), the test on the ascending part
# list of a partition with no 1's that it counts (None: every one), and the
# same count as a recipe for count_by_part_size, which leg 2 reads for
# n <= ENUMERATION_CAP, the range of the enumeration it replaced: a partition
# counted is empty or has a largest part L, and each shift (c, e) takes c
# copies of L and e more out of it, leaving parts lo..L
COROLLARY_SPECS = {
    # nabla p(n) = p(n) - p(n-1); one copy of L >= 2 leaves parts 2..L
    2: dict(r=3, offset=3, nmin=0, diff=((1, 0), (-1, 1)), predicate=None,
            recipe=dict(lo=2, empty=1, shifts=((1, 0),))),
    # nabla^2 p(n) = p(n) - 2 p(n-1) + p(n-2); largest part repeated: two
    # copies of L >= 2 leave parts 2..L
    3: dict(r=4, offset=5, nmin=3, diff=((1, 0), (-2, 1), (1, 2)),
            predicate=lambda a: len(a) > 1 and a[-1] == a[-2],
            recipe=dict(lo=2, empty=0, shifts=((2, 0),))),
    # nabla^2 p(n) - nabla^2 p(n-4); also at most one 2: with parts >= 2 in
    # ascending order, a second 2 sits at a[1], tested last, since "largest
    # part repeated" fails more often; two copies of L >= 3 and no 2 or one 2
    # leave parts 3..L
    4: dict(r=5, offset=5, nmin=6, diff=((1, 0), (-2, 1), (1, 2), (-1, 4), (2, 5), (-1, 6)),
            predicate=lambda a: len(a) > 1 and a[-1] == a[-2] and a[1:2] != [2],
            recipe=dict(lo=3, empty=0, shifts=((2, 0), (2, 2)))),
}


def verify_corollary(which: int, nmax: int, cap: int = DEFAULT_COUNTEREXAMPLE_CAP) -> VerificationReport:
    """Three-way check of the combinatorial corollaries.

    which=2: partitions with no 1's, nabla p(n)          vs -sum S^(3)_{n+3,k} mu(k)
    which=3: + largest part repeated, nabla^2 p(n)       vs -sum S^(4)_{n+5,k} mu(k)
    which=4: + at most one 2, nabla^2 p(n)-nabla^2 p(n-4) vs -sum S^(5)_{n+5,k} mu(k)

    The difference of p is checked against the Mobius sum, leg 1, for
    nmin <= n <= nmax, and against the count, leg 2, for
    nmin <= n <= min(nmax, ENUMERATION_CAP): the index of a check is (leg, n).
    Leg 2 counts by part size, one count_by_part_size pass from the row's
    recipe, and keeps the range of the enumeration it replaced.
    """
    if which not in COROLLARY_SPECS:
        raise ValueError(f"which must be 2, 3 or 4, got {which}")
    spec = COROLLARY_SPECS[which]
    offset, nmin = spec["offset"], spec["nmin"]
    weights = [-m for m in build_sieve(nmax + offset)]
    [leg1] = _weighted_vs_p(nmax, [Leg((1, nmin), spec["r"], weights, offset, spec["diff"], p_first=True)])
    top, diff = min(nmax, ENUMERATION_CAP), leg1[1]
    counts = count_by_part_size(top, **spec["recipe"])[nmin:]
    checks = [leg1, ((2, nmin), diff[: top + 1 - nmin], counts)]
    return _sweep(f"cor{which}", {"nmax": nmax}, cap, checks)


def verify_phi_identities(nmax: int, cap: int = DEFAULT_COUNTEREXAMPLE_CAP) -> VerificationReport:
    """Totient analogues: sum_k S^(1)_{n+1,k} phi(k) = sum_k (k+1) p(n-k)
    and sum_k S^(2)_{n+2,k} phi(k) = sum_k p(n-k) = S^(1)_{n+1,1}."""
    phi = totient_row(nmax + 2)
    ones = [0, 1] + [0] * (nmax + 1)
    # one leg per form, indexed (form, n), in the order of the docstring; form 1
    # takes two running sums of p, since sum_k (k+1) p(n-k) = sum_{j<=n} (n-j+1) p(j)
    p_n = ((1, 0),)
    legs = [Leg((1, 0), 1, phi, 1, p_n, 2), Leg((2, 0), 2, phi, 2, p_n, 1), Leg((3, 0), 1, ones, 1, p_n, 1, True)]
    return _sweep("phi", {"nmax": nmax}, cap, _weighted_vs_p(nmax, legs))


# which -> (S^(r) table r, sign of the row mu(k) [alpha does not divide k],
# which is -mu(alpha k) for prime alpha, coefficient of p(n+1-alpha^j),
# coefficient of p(n+2-alpha^(j+1))); the right-hand sides sum over the
# powers alpha^j <= nmax+1, and at each n the powers past n+1 add nothing,
# since both p arguments are < 0.
_PRIME_ALPHA_SPECS = {
    "i": (1, -1, -1, 0),
    "ii": (2, -1, 1, -1),
    "alternate-form": (1, 1, 1, 0),
}


def verify_prime_corollary(
    nmax: int, alpha: int, which: str = "i", cap: int = DEFAULT_COUNTEREXAMPLE_CAP
) -> VerificationReport:
    """Identities weighting S^(1) or S^(2) by mu(alpha*k) for prime alpha.

    which="i":   sum_{k=1}^{n+1} S^(1)_{n+1,k} mu(alpha k)
                   = -sum_j p(n+1-alpha^j)
    which="ii":  sum_{k=2}^{n+2} S^(2)_{n+2,k} mu(alpha k)
                   = sum_j (p(n+1-alpha^j) - p(n+2-alpha^(j+1)))
    which="alternate-form": the rewrite of (i) as a double sum skipping
    k = 0 mod alpha, equal to +sum_j p(n+1-alpha^j).
    """
    if which not in _PRIME_ALPHA_SPECS:
        raise ValueError(f"which must be i, ii or alternate-form, got {which!r}")
    r, sign, c_this, c_next = _PRIME_ALPHA_SPECS[which]
    # trial division first, so that a composite alpha is refused before any
    # sieve is built; the bound keeps it to 10^6 steps
    if alpha > 10**12:
        raise ValueError(f"alpha={alpha} is over 10^12, the largest alpha tested for primality")
    if alpha < 2 or any(alpha % d == 0 for d in range(2, isqrt(alpha) + 1)):
        raise ValueError(f"alpha={alpha} is not prime")
    weights = [sign * m for m in build_sieve(nmax + r)]
    weights[::alpha] = [0] * ((nmax + r) // alpha + 1)
    terms = []
    power = 1
    while power <= nmax + 1:
        terms += [(c_this, power - 1), (c_next, alpha * power - 2)]
        power *= alpha
    checks = _weighted_vs_p(nmax, [Leg((0,), r, weights, r, terms)])
    return _sweep("prime-alpha", {"nmax": nmax, "alpha": alpha, "which": which}, cap, checks)


def verify_b_symmetry(rmax: int, cap: int = DEFAULT_COUNTEREXAMPLE_CAP) -> VerificationReport:
    """b_{r,j} = b_{r-1,j} - (-1)^r b_{r-1, r(r-1)/2 - j} for r >= 2,
    reading out-of-support entries as zero."""
    if rmax < 2:
        raise ValueError(f"rmax must be >= 2, got {rmax}")
    rows = build_b(rmax)
    def checks():
        for r in range(2, rmax + 1):
            cur, prev = rows[r - 1], rows[r - 2]
            # prev is r - 1 entries shorter than cur: j -> b_{r-1,j} and
            # j -> b_{r-1,half-j}, both zero-padded to cur's r(r-1)/2 + 1 entries
            at_j = chain(prev, repeat(0, r - 1))
            at_half_minus_j = chain(repeat(0, r - 1), reversed(prev))
            yield (r, 0), cur, list(map(sub if r % 2 == 0 else add, at_j, at_half_minus_j))
    return _sweep("b-symmetry", {"rmax": rmax}, cap, checks())


def verify_lemma1(nmax: int, rmax: int, cap: int = DEFAULT_COUNTEREXAMPLE_CAP) -> VerificationReport:
    """S^(r+1)_{n+r,k} = S^(r)_{n+r,k} - S^(r)_{n,k} for n >= k > r >= 1."""
    def checks():
        # Only the tables for r and r + 1 are held, each built on its own: one
        # stepped from the table before it would satisfy the lemma by construction.
        if rmax < 1 or nmax < 2:
            return
        lo = sr_table_gf(1, nmax + rmax)
        for r in range(1, rmax + 1):
            hi = sr_table_gf(r + 1, nmax + rmax)
            for n in range(r + 1, nmax + 1):
                rhs = list(map(sub, lo.row(n + r, r + 1, n), lo.row(n, r + 1, n)))
                yield (r, n, r + 1), hi.row(n + r, r + 1, n), rhs
            lo = hi
    return _sweep("lemma1", {"nmax": nmax, "rmax": rmax}, cap, checks())


def verify_lambert(nmax: int, cap: int = DEFAULT_COUNTEREXAMPLE_CAP) -> VerificationReport:
    """The Lambert series sum_k mu(k) q^k/(1-q^k) collapses to q exactly."""
    series = lambert_sum(build_sieve(max(nmax, 1)), nmax)
    # a tuple, like the coefficients, so that record_all compares them with one ==
    expected = (0, 1)[: nmax + 1] + (0,) * (nmax - 1)
    return _sweep("lambert", {"nmax": nmax}, cap, [((0,), series.coeffs, expected)])


def verify_sr_oracle(nmax: int, rmax: int, cap: int = DEFAULT_COUNTEREXAMPLE_CAP) -> VerificationReport:
    """Generating-function S-tables, one r at a time, against the enumeration
    oracle (nmax <= ENUMERATION_CAP), whose rows all come from one scan per n."""
    check_enumeration_size(nmax)
    if rmax > nmax:
        raise ValueError(f"rmax={rmax} exceeds nmax={nmax}: S^(r) needs r <= nmax")
    def checks():
        if rmax < 1:
            return
        # scans[n][r - 1][r : n + 1] is the enumerated S^(r) row at n
        scans = [part_counts(n, 1, rmax) for n in range(nmax + 1)]
        for r in range(1, rmax + 1):
            fast = sr_table_gf(r, nmax)
            for n, slow in enumerate(scans):
                yield (r, n, r), fast.row(n, r, n), slow[r - 1][r : n + 1]
            # the next r's table is built with this one freed
            del fast
    return _sweep("oracle-sr", {"nmax": nmax, "rmax": rmax}, cap, checks())
