"""Coefficient families a_{r,j}, b_{r,j} and verifiers for every identity
connecting p(n), S^(r)_{n,k}, mu and phi.

Each verifier sweeps a configurable range and hands its rows of checks to
_sweep, the one place that builds a VerificationReport; _weighted_vs_p sets
each weighted sum of S^(r) against its sum of p values, one route a side.
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
    count_restricted,
    part_counts,
    partition_table_pentagonal,
    sr_table_enum,
    sr_table_gf,
    weighted_sr_sums,
)
from mobius_partitions.series import lambert_sum

DEFAULT_COUNTEREXAMPLE_CAP = 10

# Empirical support width of row r of the a-table: the recurrence is run on
# a generous index range and entries past this width are asserted zero.
def _a_support(r: int) -> int:
    return (r - 1) * (r - 2) // 2 + 1


# A failed check; index is the sweep position, e.g. (n,) or (r, n, k).
Counterexample = namedtuple("Counterexample", "index lhs rhs")


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
        agree."""
        if len(lhs) != len(rhs):
            raise ValueError(f"rows of unequal length: {len(lhs)} != {len(rhs)}")
        if all(map(eq, lhs, rhs)):
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
    a generous index range; the trailing entries beyond the observed
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


def _shifted_p_sums(p: PartitionTable, terms, count: int) -> list:
    """[sum of c p(n - s) over the (c, s) in terms, for n < count], with
    p(<0) = 0: one C-level pass over p per nonzero c.  Every shift s is
    >= 0, and p must reach count - 1."""
    if count > p.limit + 1:
        raise ValueError(f"p table to {p.limit} is too short for {count} sums")
    out = [0] * count
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


def _weighted_vs_p(nmax: int, legs):
    """For each leg (first, r, weights, offset, terms) of the list legs, in
    turn, the check (first, lhs, rhs) over n = first[-1]..nmax: lhs is
    sum_k S^(r)_{n+offset,k} w(k), from one weighted_sr_sums pass over every
    leg (so r must not decrease), and rhs is sum c p(n - s) over the (c, s)
    in terms, from one pentagonal p.  weights is the statement's weight row,
    its sign included."""
    order = nmax + max(offset for _, _, _, offset, _ in legs)
    sums = weighted_sr_sums(((r, weights) for _, r, weights, _, _ in legs), order)
    p = None
    # next(sums), not a zip over legs and sums: zip's reused result tuple
    # would hold each series until the next one is built
    for first, _, _, offset, terms in legs:
        nmin = first[-1]
        lhs = next(sums).coeffs[offset + nmin : offset + nmax + 1]
        # p is built after the first series, so it is not held through that product
        p = p or partition_table_pentagonal(nmax)
        yield first, lhs, _shifted_p_sums(p, terms, nmax + 1)[nmin:]
        del lhs


def verify_theorem1(nmax: int, r: int, cap: int = DEFAULT_COUNTEREXAMPLE_CAP) -> VerificationReport:
    """p(n) = (-1)^(r-1) sum_k S^(r)_{n+r,k} mu(k) for r in {1, 2}."""
    if r not in (1, 2):
        raise ValueError(f"r must be 1 or 2, got {r}")
    weights = [(-1) ** (r - 1) * m for m in build_sieve(nmax + r)]
    [(first, lhs, p)] = _weighted_vs_p(nmax, [((0,), r, weights, r, ((1, 0),))])
    return _sweep("thm1", {"nmax": nmax, "r": r}, cap, [(first, p, lhs)])


def verify_theorem2(nmax: int, rmax: int, cap: int = DEFAULT_COUNTEREXAMPLE_CAP) -> VerificationReport:
    """sum_k S^(r)_{n+r,k} mu(k) = sum_j a_{r,j} p(n-j) for r <= rmax."""
    if rmax < 1:
        raise ValueError(f"rmax must be >= 1, got {rmax}")
    mu = build_sieve(nmax + rmax)
    # Only the right-hand sides read the a rows, each one term at a time.
    legs = [((r, 0), r, mu, r, ((c, j) for j, c in enumerate(a_row))) for r, a_row in enumerate(build_a(rmax, mu), 1)]
    return _sweep("thm2", {"nmax": nmax, "rmax": rmax}, cap, _weighted_vs_p(nmax, legs))


def verify_weighted_corollary(nmax: int, r: int, cap: int = DEFAULT_COUNTEREXAMPLE_CAP) -> VerificationReport:
    """p(n-r) = (-1)^(r-1) * sum over partitions of n with parts >= r of
    sum_k mu(k) * multiplicity(k), checked by full enumeration
    (nmax <= ENUMERATION_CAP)."""
    if r not in (1, 2):
        raise ValueError(f"r must be 1 or 2, got {r}")
    check_enumeration_size(nmax)
    # Every part lies in r..n <= nmax, inside the sieve.
    weights = [(-1) ** (r - 1) * m for m in build_sieve(max(nmax, 1))]
    p = _shifted_p_sums(partition_table_pentagonal(nmax), ((1, r),), nmax + 1)
    sums = [sum(map(mul, weights, part_counts(n, r, r)[0])) for n in range(nmax + 1)]
    return _sweep("weighted", {"nmax": nmax, "r": r}, cap, [((0,), p, sums)])


# which -> S^(r) table r, S-table index offset, first n, difference of p as
# (coefficient, shift) terms of p(n - shift), and the test on the ascending
# part list of a partition with no 1's that it counts (None: every one)
COROLLARY_SPECS = {
    # nabla p(n) = p(n) - p(n-1)
    2: dict(r=3, offset=3, nmin=0, diff=((1, 0), (-1, 1)), predicate=None),
    # nabla^2 p(n) = p(n) - 2 p(n-1) + p(n-2); largest part repeated
    3: dict(r=4, offset=5, nmin=3, diff=((1, 0), (-2, 1), (1, 2)),
            predicate=lambda a: len(a) > 1 and a[-1] == a[-2]),
    # nabla^2 p(n) - nabla^2 p(n-4); also at most one 2: with parts >= 2 in
    # ascending order, a second 2 sits at a[1], tested last, since "largest
    # part repeated" fails more often
    4: dict(r=5, offset=5, nmin=6, diff=((1, 0), (-2, 1), (1, 2), (-1, 4), (2, 5), (-1, 6)),
            predicate=lambda a: len(a) > 1 and a[-1] == a[-2] and a[1:2] != [2]),
}


def verify_corollary(which: int, nmax: int, cap: int = DEFAULT_COUNTEREXAMPLE_CAP) -> VerificationReport:
    """Three-way check of the combinatorial corollaries.

    which=2: partitions with no 1's, nabla p(n)          vs -sum S^(3)_{n+3,k} mu(k)
    which=3: + largest part repeated, nabla^2 p(n)       vs -sum S^(4)_{n+5,k} mu(k)
    which=4: + at most one 2, nabla^2 p(n)-nabla^2 p(n-4) vs -sum S^(5)_{n+5,k} mu(k)

    The difference of p is checked against the Mobius sum, leg 1, for
    nmin <= n <= nmax, and against the enumerated count, leg 2, for
    nmin <= n <= min(nmax, ENUMERATION_CAP): the index of a check is (leg, n).
    """
    if which not in COROLLARY_SPECS:
        raise ValueError(f"which must be 2, 3 or 4, got {which}")
    spec = COROLLARY_SPECS[which]
    offset, nmin = spec["offset"], spec["nmin"]
    weights = [-m for m in build_sieve(nmax + offset)]
    [(first, msum, diff)] = _weighted_vs_p(nmax, [((1, nmin), spec["r"], weights, offset, spec["diff"])])
    top = min(nmax, ENUMERATION_CAP)
    counts = [count_restricted(n, spec["predicate"]) for n in range(nmin, top + 1)]
    checks = [(first, diff, msum), ((2, nmin), diff[: top + 1 - nmin], counts)]
    return _sweep(f"cor{which}", {"nmax": nmax}, cap, checks)


def verify_phi_identities(nmax: int, cap: int = DEFAULT_COUNTEREXAMPLE_CAP) -> VerificationReport:
    """Totient analogues: sum_k S^(1)_{n+1,k} phi(k) = sum_k (k+1) p(n-k)
    and sum_k S^(2)_{n+2,k} phi(k) = sum_k p(n-k) = S^(1)_{n+1,1}."""
    order = nmax + 2
    phi = totient_row(order)
    ones = [0, 1] + [0] * (order - 1)
    s1_phi, s1_ones, s2_phi = weighted_sr_sums([(1, phi), (1, ones), (2, phi)], order)
    # Running sums: rhs2(n) = sum_{j<=n} p(j), and rhs1 is the running sum of
    # rhs2 since sum_k (k+1) p(n-k) = sum_{j<=n} (n-j+1) p(j).
    rhs2 = list(accumulate(partition_table_pentagonal(nmax).values))
    rhs1 = list(accumulate(rhs2))
    # one row per form, indexed (form, n), in the order of the docstring
    checks = [
        ((1, 0), s1_phi.coeffs[1:order], rhs1),
        ((2, 0), s2_phi.coeffs[2:], rhs2),
        ((3, 0), rhs2, s1_ones.coeffs[1:order]),
    ]
    return _sweep("phi", {"nmax": nmax}, cap, checks)


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
    checks = _weighted_vs_p(nmax, [((0,), r, weights, r, terms)])
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


def verify_lemma1(
    nmax: int, rmax: int, route: str = "gf", cap: int = DEFAULT_COUNTEREXAMPLE_CAP
) -> VerificationReport:
    """S^(r+1)_{n+r,k} = S^(r)_{n+r,k} - S^(r)_{n,k} for n >= k > r >= 1."""
    if route not in ("gf", "enum"):
        raise ValueError(f"route must be gf or enum, got {route!r}")
    build = sr_table_gf if route == "gf" else sr_table_enum
    def checks():
        # Only the tables for r and r + 1 are held, each built on its own: one
        # stepped from the table before it would satisfy the lemma by construction.
        if rmax < 1 or nmax < 2:
            return
        lo = build(1, nmax + rmax)
        for r in range(1, rmax + 1):
            hi = build(r + 1, nmax + rmax)
            for n in range(r + 1, nmax + 1):
                rhs = list(map(sub, lo.row(n + r, r + 1, n), lo.row(n, r + 1, n)))
                yield (r, n, r + 1), hi.row(n + r, r + 1, n), rhs
            lo = hi
    return _sweep("lemma1", {"nmax": nmax, "rmax": rmax, "route": route}, cap, checks())


def verify_lambert(nmax: int, cap: int = DEFAULT_COUNTEREXAMPLE_CAP) -> VerificationReport:
    """The Lambert series sum_k mu(k) q^k/(1-q^k) collapses to q exactly."""
    series = lambert_sum(build_sieve(max(nmax, 1)), nmax)
    expected = [0] * (nmax + 1)
    if nmax >= 1:
        expected[1] = 1
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
