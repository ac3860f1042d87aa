"""Partition counts p(n), explicit enumeration with a smallest-part bound,
restricted-partition counts by enumeration and by part size, and the
statistic S^(r)_{n,k} by two independent routes.

S^(r)_{n,k} is the total number of parts equal to k across all partitions
of n whose smallest part is at least r.  The enumeration route scans the
partitions themselves and is the oracle; the generating-function route
extracts the same numbers from q^k/(1-q^k) * 1/(q^r; q)_inf and scales to
much larger n.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import accumulate
from operator import add, sub
from typing import Iterator

from mobius_partitions.series import TruncatedSeries, lambert_sum, pochhammer_inverse

# Full enumeration stays sub-second up to about here (p(45) ~ 89k partitions).
ENUMERATION_CAP = 45


class PartitionTable(namedtuple("PartitionTable", "limit values")):
    """p(0..limit) as exact integers; p(n) = 0 for negative n by convention."""

    __slots__ = ()

    def value(self, n: int) -> int:
        if n < 0:
            return 0
        if n > self.limit:
            raise IndexError(f"n={n} exceeds table limit {self.limit}")
        return self.values[n]


def partition_table_pentagonal(limit: int) -> PartitionTable:
    """p(0..limit) via Euler's pentagonal-number recurrence,
    p(n) = sum over the generalized pentagonal g <= n of +-p(n - g), where
    g is k(3k - 1)/2 or k(3k + 1)/2 and the sign is + for odd k, - for even.

    While p(n) is summed, p holds p(0..n-1), so p[-g] is p(n - g): each g
    joins the list of its sign once g <= n, and every p(n) is two C-level
    sums over those lists.  Independent of the series module on purpose:
    this is the oracle the generating-function route is checked against.
    """
    if limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    plus, minus = [], []

    def pentagonals():
        k = 1
        while True:
            side = plus if k % 2 else minus
            yield k * (3 * k - 1) // 2, side
            yield k * (3 * k + 1) // 2, side
            k += 1

    p = [1]
    upcoming = pentagonals()
    g, side = next(upcoming)
    for n in range(1, limit + 1):
        # the generalized pentagonal numbers are distinct, so at most one joins per n
        if g == n:
            side.append(-g)
            g, side = next(upcoming)
        p.append(sum(map(p.__getitem__, plus)) - sum(map(p.__getitem__, minus)))
    return PartitionTable(limit, tuple(p))


def partition_table_gf(limit: int) -> PartitionTable:
    """p(0..limit) as the coefficients of 1/(q;q)_inf."""
    if limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    return PartitionTable(limit, pochhammer_inverse(1, limit).coeffs)


def enumerate_partitions(n: int, min_part: int = 1) -> Iterator[list]:
    """All partitions of n with every part >= min_part, each exactly once.

    Each is a fresh non-decreasing list, smallest part first, and the lists
    come in ascending lexicographic order, e.g. for n=6, min_part=2:
    [2, 2, 2], [2, 4], [3, 3], [6].  n = 0 yields the empty partition.

    This is AccelAsc, the ascending-composition generator of Kelleher and
    O'Sullivan ("Generating All Partitions: A Comparison of Two Encodings",
    arXiv:0909.2331), started from min_part - 1 in place of 0.  a[:k] is
    the fixed prefix, x the next part and y what is left after it.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if min_part < 1:
        raise ValueError(f"min_part must be >= 1, got {min_part}")
    if n < min_part:
        if n == 0:
            yield []
        return
    a = [0] * (n + 1)
    a[0] = min_part - 1
    k = 1
    y = n - min_part
    while k:
        x = a[k - 1] + 1
        k -= 1
        while 2 * x <= y:
            a[k] = x
            y -= x
            k += 1
        while x <= y:
            a[k] = x
            a[k + 1] = y
            yield a[: k + 2]
            x += 1
            y -= 1
        a[k] = x + y
        y = x + y - 1
        yield a[: k + 1]


def part_counts(n: int, lo: int, hi: int) -> list:
    """For s = lo..hi, [the total multiplicity of part k over the partitions
    of n with smallest part >= s, for k = 0..n], from one AccelAsc walk (as
    in enumerate_partitions) that passes every partition with parts >= lo
    (n <= ENUMERATION_CAP).

    t counts the partitions passed.  A part that joins the fixed prefix at
    count t and leaves it at t' is in the t' - t partitions passed meanwhile,
    so it is charged -t on joining and +t' on leaving; each family's last
    two parts and its closing part are counted one partition at a time.
    Whenever the prefix is empty hist is exact, and the partitions passed are
    those with smallest part below the next one: below[s - lo] is a copy of
    hist taken there, and row s is the final hist less it.  In the last
    family the prefix stays empty, so each member has its own smallest part.
    """
    if n < 0 or lo < 1 or hi < lo:
        raise ValueError(f"bad arguments n={n}, lo={lo}, hi={hi}")
    check_enumeration_size(n)
    hist = [0] * (n + 1)
    below = [hist[:]]

    def snap(s):
        while len(below) <= min(s, hi) - lo:
            below.append(hist[:])

    if n >= lo:
        a = [0] * (n + 1)
        a[0] = lo - 1
        k, y, t = 1, n - lo, 0
        while True:
            x = a[k - 1] + 1
            k -= 1
            hist[a[k]] += t
            if not k:
                snap(x)
                if 2 * x > y:
                    break
            while 2 * x <= y:
                a[k] = x
                hist[x] -= t
                y -= x
                k += 1
            while x <= y:
                hist[x] += 1
                hist[y] += 1
                t += 1
                x += 1
                y -= 1
            hist[x + y] += 1
            t += 1
            y = x + y - 1
        while x <= y:
            snap(x)
            hist[x] += 1
            hist[y] += 1
            x += 1
            y -= 1
        snap(n)
        hist[n] += 1
    snap(hi)
    return [list(map(sub, hist, b)) for b in below]


class SrTable:
    """Dense table of S^(r)_{n,k} for 0 <= n, k <= limit, read-only after build.

    Stored as one flat list in row-major order, _cells[n * (limit + 1) + k]
    = S^(r)_{n,k}, zero wherever k < r or k > n, so a row is one slice.
    """

    __slots__ = ("r", "limit", "_cells")

    def __init__(self, r: int, limit: int, cells):
        self.r = r
        self.limit = limit
        self._cells = cells

    def count(self, n: int, k: int) -> int:
        """S^(r)_{n,k}; zero for k < r or k > n (including k beyond limit)."""
        if not 0 <= n <= self.limit:
            raise IndexError(f"n={n} outside 0..{self.limit}")
        if k < self.r or k > n:
            return 0
        return self._cells[n * (self.limit + 1) + k]

    def row(self, n: int, lo: int, hi: int) -> list:
        """[S^(r)_{n,k} for k = lo..hi], empty when hi < lo; lo and hi
        within 0..limit."""
        if not 0 <= n <= self.limit:
            raise IndexError(f"n={n} outside 0..{self.limit}")
        if lo < 0 or hi > self.limit:
            raise IndexError(f"columns {lo}..{hi} outside 0..{self.limit}")
        start = n * (self.limit + 1)
        return self._cells[start + lo : start + hi + 1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, SrTable):
            return NotImplemented
        return (self.r, self.limit, self._cells) == (other.r, other.limit, other._cells)


def sr_table_enum(r: int, limit: int) -> SrTable:
    """S^(r) from one part_counts scan per n; the brute-force oracle
    (limit <= ENUMERATION_CAP)."""
    _check_sr_args(r, limit)
    check_enumeration_size(limit)
    size = limit + 1
    # rows below n = r stay zero
    cells = [0] * (size * size)
    for n in range(r, size):
        cells[n * size : n * size + n + 1] = part_counts(n, r, r)[0]
    return SrTable(r, limit, cells)


def sr_table_gf(r: int, limit: int) -> SrTable:
    """S^(r) via coefficient extraction from q^k/(1-q^k) * 1/(q^r; q)_inf.

    Column k is that series, so S^(r)_{n,k} = inv[n-k] + S^(r)_{n-k,k}
    with inv = 1/(q^r; q)_inf.  The cells S^(r)_{n-k,k}, k = n down to r,
    run down the anti-diagonal from (0, n) with stride limit, so row n,
    written backwards, is inv[0..n-r] plus that slice: one update per row.
    """
    _check_sr_args(r, limit)
    # a list, not the tuple: short tuple slices would stay behind in
    # CPython's tuple free lists
    inv = list(pochhammer_inverse(r, limit).coeffs)
    size = limit + 1
    cells = [0] * (size * size)
    for n in range(r, size):
        diagonal = cells[n : (n - r) * size + r + 1 : limit]
        cells[n * size + n : n * size + r - 1 : -1] = map(add, inv[: n - r + 1], diagonal)
    return SrTable(r, limit, cells)


def weighted_sr_sums(pairs, order: int) -> Iterator[TruncatedSeries]:
    """For each (r, weights) in pairs, in turn, sum_k S^(r)_{n,k} w(k) for
    n = 0..order: the coefficients of 1/(q^r; q)_inf * sum_{k >= r} w(k)
    q^k/(1-q^k), where weights[k] = w(k) for r <= k <= order, the only
    entries read.  The Lambert factor is built from divisor sums and never
    simplified, so an identity about it (such as the mu-series collapsing
    to q) is not assumed here.

    One 1/(q; q)_inf is stepped to each r, in whatever order the pairs
    come: 1/(q^(s+1); q)_inf = (1 - q^s) * 1/(q^s; q)_inf, so a step up
    from s is one subtraction of the series shifted by s, and a step down
    to s divides by 1 - q^s, one running sum along each residue class mod s.
    """
    inv = None
    for r, weights in pairs:
        _check_sr_args(r, order)
        if inv is None:
            inv, at = list(pochhammer_inverse(1, order).coeffs), 1
        for s in range(at, r):
            inv[s:] = map(sub, inv[s:], inv[:-s])
        for s in range(r, at):
            for c in range(s):
                inv[c::s] = accumulate(inv[c::s])
        at = r
        row = [0] * r
        row += weights[r : order + 1]
        yield TruncatedSeries(inv, order) * lambert_sum(row, order)


def check_enumeration_size(n: int) -> None:
    """Refuse, before any work, to enumerate the partitions of more than
    ENUMERATION_CAP (p(100) is already about 1.9e8)."""
    if n > ENUMERATION_CAP:
        raise ValueError(f"enumeration is capped at n <= {ENUMERATION_CAP}, got {n}")


def _check_sr_args(r: int, limit: int) -> None:
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    if limit < r:
        raise ValueError(f"limit {limit} smaller than r={r}")


def count_restricted(n: int, test) -> int:
    """Count the partitions of n with no part 1 whose ascending part list
    passes test, or all of them when test is None, by enumeration
    (n <= ENUMERATION_CAP)."""
    check_enumeration_size(n)
    scan = enumerate_partitions(n, 2)
    if test is None:
        # counted with no call per partition (n = 0 yields the empty one)
        return sum(1 for _ in scan)
    return sum(map(test, scan))


def count_by_part_size(top: int, lo: int, empty: int, shifts) -> list:
    """[empty * [n = 0] + sum over L = lo..top and (c, e) in shifts of
    P_{lo..L}(n - c*L - e), for n = 0..top], where P_{lo..L}(m) counts the
    partitions of m into parts lo..L (zero for m < 0), from one pass over
    the part sizes L in increasing order.  Each c is >= 1 and each e >= 0.

    dp holds P_{lo..L} as L rises.  A part may repeat, so L is added block
    by block, dp[b:b+L] += dp[b-L:b] for b = L, 2L, ..., each block reading
    one already updated; a single dp[L:] += dp[:-L] would read the old row
    and count each part at most once.  No partition is enumerated, nothing
    is read from series and no table of p is used.
    """
    if top < 0 or lo < 1 or not all(c >= 1 and e >= 0 for c, e in shifts):
        raise ValueError(f"bad arguments top={top}, lo={lo}, shifts={shifts}")
    dp = [1] + [0] * top
    out = [empty] + [0] * top
    for size in range(lo, top + 1):
        for b in range(size, top + 1, size):
            dp[b : b + size] = map(add, dp[b : b + size], dp[b - size : b])
        for c, e in shifts:
            s = c * size + e
            out[s:] = map(add, out[s:], dp)
    return out
