"""Exact integer arithmetic on formal power series truncated at a fixed order.

A series of order N stores the N+1 coefficients of q^0 .. q^N as Python
ints (arbitrary precision, so nothing ever wraps).  The order is part of
the value: binary operations demand equal orders rather than silently
re-truncating, which would hide off-by-one errors in identity sweeps.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional


class TruncatedSeries:
    """Immutable formal power series modulo q^(order+1)."""

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs: Iterable[int], order: Optional[int] = None):
        coeffs = tuple(int(c) for c in coeffs)
        if order is None:
            if not coeffs:
                raise ValueError("empty coefficient list and no order given")
            order = len(coeffs) - 1
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

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls((0,), order)

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls((1,), order)

    @classmethod
    def monomial(cls, power: int, order: int, coeff: int = 1) -> "TruncatedSeries":
        if not 0 <= power <= order:
            raise ValueError(f"monomial power {power} outside 0..{order}")
        return cls((0,) * power + (coeff,), order)

    def coefficient(self, j: int) -> int:
        """Coefficient of q^j; raises IndexError outside 0..order."""
        if not 0 <= j <= self.order:
            raise IndexError(f"index {j} outside 0..{self.order}")
        return self.coeffs[j]

    def _check_same_order(self, other: "TruncatedSeries") -> None:
        if not isinstance(other, TruncatedSeries):
            raise TypeError(f"expected TruncatedSeries, got {type(other).__name__}")
        if self.order != other.order:
            raise ValueError(f"order mismatch: {self.order} != {other.order}")

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_same_order(other)
        return TruncatedSeries(
            (a + b for a, b in zip(self.coeffs, other.coeffs)), self.order
        )

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_same_order(other)
        return TruncatedSeries(
            (a - b for a, b in zip(self.coeffs, other.coeffs)), self.order
        )

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Truncated Cauchy product; schoolbook O(N^2) is plenty at desk scale."""
        self._check_same_order(other)
        n = self.order
        a, b = self.coeffs, other.coeffs
        out = [0] * (n + 1)
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            for j in range(n + 1 - i):
                out[i + j] += ai * b[j]
        return TruncatedSeries(out, n)

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries((-c for c in self.coeffs), self.order)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.order, self.coeffs))

    def __repr__(self) -> str:
        shown = self.coeffs if self.order <= 8 else self.coeffs[:9] + ("...",)
        return f"TruncatedSeries(order={self.order}, coeffs={list(shown)})"


def pochhammer(start: int, factors: Optional[int], order: int) -> TruncatedSeries:
    """Truncated q-Pochhammer product prod_k (1 - q^(start+k)).

    With factors=m the product has exactly m terms, k = 0..m-1.  With
    factors=None ("infinite") factors are included while start+k <= order:
    every omitted factor is congruent to 1 modulo q^(order+1).
    """
    if start < 1:
        raise ValueError(f"start must be >= 1, got {start}")
    if factors is not None and factors < 0:
        raise ValueError(f"factor count must be >= 0, got {factors}")
    out = [1] + [0] * order
    k = 0
    while (factors is None and start + k <= order) or (factors is not None and k < factors):
        m = start + k
        # multiply in place by (1 - q^m)
        for j in range(order, m - 1, -1):
            out[j] -= out[j - m]
        k += 1
    return TruncatedSeries(out, order)


def reciprocal(a: TruncatedSeries) -> TruncatedSeries:
    """Multiplicative inverse modulo q^(order+1); constant term must be +-1."""
    c0 = a.coeffs[0]
    if c0 not in (1, -1):
        raise ValueError(f"constant term {c0} is not a unit (+-1)")
    n = a.order
    out = [0] * (n + 1)
    out[0] = c0  # 1/c0 == c0 for c0 in {1, -1}
    for j in range(1, n + 1):
        acc = 0
        for i in range(1, j + 1):
            acc += a.coeffs[i] * out[j - i]
        out[j] = -c0 * acc
    return TruncatedSeries(out, n)


def lambert_sum(f: Callable[[int], int], order: int) -> TruncatedSeries:
    """Sum of f(k) q^k/(1-q^k) for k = 1..order, truncated.

    The coefficient of q^n is the divisor sum of f over the divisors of n,
    since q^k/(1-q^k) contributes 1 at every positive multiple of k.
    """
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    out = [0] * (order + 1)
    for k in range(1, order + 1):
        fk = f(k)
        if fk == 0:
            continue
        for n in range(k, order + 1, k):
            out[n] += fk
    return TruncatedSeries(out, order)
