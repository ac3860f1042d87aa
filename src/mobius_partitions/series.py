"""Exact integer arithmetic on formal power series truncated at a fixed order.

A series of order N stores the N+1 coefficients of q^0 .. q^N as Python
ints (arbitrary precision, so nothing ever wraps).  The order is part of
the value: binary operations demand equal orders rather than silently
re-truncating, which would hide off-by-one errors in identity sweeps.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from itertools import compress, repeat
from math import isqrt
from operator import add, mul, sub
from typing import Iterable, Sequence


class TruncatedSeries:
    """Immutable series modulo q^(order+1), from at most order+1 coeffs (zero-padded)."""

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs: Iterable[int], order: int):
        coeffs = tuple(coeffs)
        if order < 0:
            raise ValueError(f"order must be >= 0, got {order}")
        if len(coeffs) > order + 1:
            raise ValueError(f"{len(coeffs)} coefficients exceed order {order}")
        if len(coeffs) < order + 1:
            coeffs = coeffs + (0,) * (order + 1 - len(coeffs))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    def _check_same_order(self, other: "TruncatedSeries") -> None:
        if not isinstance(other, TruncatedSeries):
            raise TypeError(f"expected TruncatedSeries, got {type(other).__name__}")
        if self.order != other.order:
            raise ValueError(f"order mismatch: {self.order} != {other.order}")

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Truncated Cauchy product, by Kronecker substitution (see _mul)."""
        self._check_same_order(other)
        return TruncatedSeries(_mul(self.coeffs, other.coeffs, self.order), self.order)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        shown = self.coeffs if self.order <= 8 else self.coeffs[:9] + ("...",)
        return f"TruncatedSeries(order={self.order}, coeffs={list(shown)})"


def _mul(a: Sequence[int], b: Sequence[int], order: int, start: int = 0) -> list:
    """Coefficients start..order of the product of coefficient sequences a, b.

    With a, b cut to their first order+1 terms and trailing zeros dropped,
    the product is formed by Kronecker substitution (Harvey, J. Symbolic
    Comput. 44, 2009): each sequence becomes one integer holding a
    coefficient per fixed-width slot, the two integers are multiplied once
    by CPython's big-int multiply, and the product's slots are cut apart
    and read back as unsigned ints.  Each slot then holds
    - its coefficient c, when neither operand has a negative term (the
      unsigned read): a slot of w bits is wide enough for every c to
      satisfy c < 2^w, and no slot borrows;
    - c + 2^(w-1) otherwise (the biased signed read): the slot has one bit
      more, so that |c| < 2^(w-1).  One bias serves both ends: _pack writes
      a signed operand's slots as a[i] + 2^(w-1) and subtracts 2^(w-1) from
      all of them at once, so slots borrow from their neighbours; adding
      2^(w-1) to every slot of the truncated product puts each at
      c + 2^(w-1), in 0..2^w - 1, with no carry to undo, and 2^(w-1) is
      subtracted from each slot read.
    Slots below start are never unpacked, and start past order + 1 gives [].

    Kernels call this directly, so that TruncatedSeries.__mul__ stays the
    one entry point for products a caller asks for.
    """
    a = _trimmed(a, order)
    b = _trimmed(b, order)
    slots = min(order + 1, len(a) + len(b) - 1) if a and b else 0
    if start >= slots:
        return [0] * (order + 1 - start)
    low_a, low_b = min(a), min(b)
    signed = low_a < 0 or low_b < 0
    bits = (
        max(max(a), -low_a).bit_length()
        + max(max(b), -low_b).bit_length()
        + min(len(a), len(b)).bit_length()
        + signed
    )
    width = (bits + 7) // 8  # bytes per slot
    product = _pack(a, width) * _pack(b, width)
    half = signed << (8 * width - 1)
    if signed:
        product += int.from_bytes(half.to_bytes(width, "little") * slots, "little")
    size = width * (slots - start)
    data = ((product >> (8 * width * start)) & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
    cells = map(slice, range(0, size, width), range(width, size + width, width))
    out = list(map(int.from_bytes, map(data.__getitem__, cells), repeat("little")))
    if signed:
        out = list(map(sub, out, repeat(half)))
    out += [0] * (order + 1 - slots)
    return out


def _trimmed(a: Sequence[int], order: int) -> Sequence[int]:
    """a cut to its first order+1 terms, trailing zeros dropped."""
    end = min(len(a), order + 1)
    while end and not a[end - 1]:
        end -= 1
    return a[:end]


def _pack(a: Sequence[int], width: int) -> int:
    """sum_i a[i] 2^(8 width i), every a[i] < 2^(8 width) when none is
    negative, else every |a[i]| < 2^(8 width - 1): then one pass writes each
    slot as a[i] + 2^(8 width - 1), and one subtraction takes the bias out."""
    if min(a) >= 0:
        return int.from_bytes(b"".join(map(int.to_bytes, a, repeat(width), repeat("little"))), "little")
    half = 1 << (8 * width - 1)
    biased = b"".join(map(int.to_bytes, map(half.__add__, a), repeat(width), repeat("little")))
    return int.from_bytes(biased, "little") - int.from_bytes(half.to_bytes(width, "little") * len(a), "little")


# Below this many terms the online convolution in _log_solve runs as a
# plain double loop.
_POCHHAMMER_BASE = 32


def pochhammer(start: int, factors: int, order: int) -> TruncatedSeries:
    """Truncated q-Pochhammer product prod_{k=0..factors-1} (1 - q^(start+k)).

    Factors with start+k > order are congruent to 1 modulo q^(order+1), so
    any factors >= order - start + 1 gives (q^start; q)_inf to that order.

    The product G over the exponent set S is found from its logarithmic
    derivative: q G'/G = -sum_k sigma_S(k) q^k, with sigma_S(k) the sum of
    the m in S dividing k, so n G_n = -sum_{k=1..n} sigma_S(k) G_{n-k}.
    -sigma_S is the Lambert sum of the row holding -m at each m in S and 0
    elsewhere, and _log_solve solves the recurrence.
    """
    if start < 1:
        raise ValueError(f"start must be >= 1, got {start}")
    if factors < 0:
        raise ValueError(f"factor count must be >= 0, got {factors}")
    stop = min(start + factors, order + 1)
    weights = [0] * (order + 1)
    weights[start:stop] = range(-start, -stop, -1)
    return _log_solve(lambert_sum(weights, order).coeffs, order)


def pochhammer_inverse(start: int, order: int) -> TruncatedSeries:
    """1/(q^start; q)_inf modulo q^(order+1), whose q^n coefficient counts
    the partitions of n with every part >= start.

    Its logarithmic derivative is that of (q^start; q)_inf negated, so it
    is _log_solve of the Lambert sum of the row holding +m at each
    m >= start; at start = 1 this is Euler's n p(n) = sum_k sigma(k) p(n-k).
    """
    if start < 1:
        raise ValueError(f"start must be >= 1, got {start}")
    weights = [0] * (order + 1)
    weights[start:] = range(start, order + 1)
    return _log_solve(lambert_sum(weights, order).coeffs, order)


def _log_solve(sigma: Sequence[int], order: int) -> TruncatedSeries:
    """The series g modulo q^(order+1) with g_0 = 1 and
    n g_n = sum_{k=1..n} sigma[k] g_{n-k}, which is q g'/g = sum_k sigma[k] q^k.

    The recurrence is solved by divide-and-conquer online convolution: once
    g[lo:mid] is solved, its product with sigma is added by one _mul into
    the unsolved slots g[mid:hi].  Only those slots of the product are
    read: _mul starts at coefficient mid - lo and unpacks nothing below
    it.  So when the plain loop over [lo, hi) reaches g[n], the slot
    already holds the terms of the sum with j < lo, and the loop adds those
    with lo <= j < n, in one C-level sum of products.
    """
    g = [1] + [0] * order
    _solve(g, sigma, 0, order + 1)
    return TruncatedSeries(g, order)


def _solve(g: list, sigma: Sequence[int], lo: int, hi: int) -> None:
    """Solve g[lo:hi] of _log_solve's recurrence in place (see _log_solve)."""
    if hi - lo <= _POCHHAMMER_BASE:
        for n in range(max(lo, 1), hi):
            # sigma[n - j] g[j] for j = lo..n-1; exact: n g_n is the sum
            g[n] = (g[n] + sum(map(mul, sigma[n - lo : 0 : -1], g[lo:n]))) // n
        return
    mid = (lo + hi) // 2
    _solve(g, sigma, lo, mid)
    g[mid:hi] = map(add, g[mid:hi], _mul(g[lo:mid], sigma[: hi - lo], hi - lo - 1, mid - lo))
    _solve(g, sigma, mid, hi)


def lambert_sum(weights: Sequence[int], order: int) -> TruncatedSeries:
    """Sum of w(k) q^k/(1-q^k) for k = 1..order, truncated, where the row
    weights holds w(k) at index k; weights[0] and entries past order are
    never read.

    The coefficient of q^n is the divisor sum of w over the divisors of n,
    since q^k/(1-q^k) contributes 1 at every positive multiple of k.
    """
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    if len(weights) < order + 1:
        raise ValueError(f"weight row of length {len(weights)} is shorter than order + 1 = {order + 1}")
    out = [0]
    out += weights[1 : order + 1]
    _divisor_sums(out)
    return TruncatedSeries(out, order)


def _divisor_sums(out: list) -> None:
    """Replace out[n] by the sum of out[d] over the divisors d of n, for
    every n >= 1, in place.

    It is built one prime at a time (a zeta transform over the divisor
    lattice): once every prime p <= order = len(out) - 1 has added out[k]
    to out[k p], k rising, out[n] holds the divisor sum, about
    order log log order adds in all.  The primes come from a sieve of
    Eratosthenes of the kernel's own, so that a check of the sieve in arith
    against this kernel shares no code with it.  With s = isqrt(order):
    - each p <= s makes one slice update per block of sources k in
      [p^e, p^(e+1)); the block's sources were the previous block's
      targets, so they are final when read;
    - each p > s divides n <= order at most once, and every cofactor
      k <= order // (s+1) is at most s, so out[k] is final after the
      small primes: one gather, add and scatter per nonzero cofactor k
      covers k p for every p in (s, order // k].
    The primes and the scatter's index lists die with the call, before the
    caller copies out.
    """
    order = len(out) - 1
    primes = _primes_upto(order)
    s = isqrt(order)
    small = bisect_right(primes, s)
    for p in primes[:small]:
        lo = 1
        while lo <= order // p:
            hi = min(lo * p, order // p + 1)
            block = slice(lo * p, hi * p, p)
            out[block] = map(add, out[block], out[lo:hi])
            lo *= p
    for k in range(1, order // (s + 1) + 1):
        v = out[k]
        if v:
            targets = list(map(k.__mul__, primes[small : bisect_right(primes, order // k)]))
            sums = map(add, map(out.__getitem__, targets), repeat(v))
            deque(map(out.__setitem__, targets, sums), maxlen=0)  # runs the scatter


def _primes_upto(n: int) -> list:
    """The primes <= n, by a bytearray sieve of Eratosthenes."""
    is_prime = bytearray([0, 0]) + bytearray([1]) * (n - 1)
    for p in range(2, isqrt(n) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return list(compress(range(n + 1), is_prime))
