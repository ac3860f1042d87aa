"""Sieved arithmetic functions: Mobius mu, Euler's totient phi, smallest
prime factors.

One sieve fills all three arrays up to a fixed limit; the resulting table
is immutable and safe to share between threads.
"""

from dataclasses import dataclass, field
from itertools import repeat
from math import isqrt


@dataclass(frozen=True)
class MultiplicativeTable:
    """mu, phi and smallest-prime-factor values for 1..limit.

    The internal arrays are 1-indexed (index 0 is a dead slot) so that
    table.mu[k] really is mu(k).  spf[1] = 1 by convention; mu(1) = phi(1) = 1.
    """

    limit: int
    mu: tuple = field(repr=False)
    phi: tuple = field(repr=False)
    spf: tuple = field(repr=False)

    def is_prime(self, k: int) -> bool:
        self._check_range(k)
        return k >= 2 and self.spf[k] == k

    def _check_range(self, k: int) -> None:
        if not 1 <= k <= self.limit:
            raise IndexError(f"k={k} outside sieved range 1..{self.limit}")


def build_sieve(limit: int) -> MultiplicativeTable:
    """Build mu, phi and spf for 1..limit.

    An Eratosthenes bytearray finds the primes up to sqrt(limit); each writes
    itself into every multiple's spf slot, largest prime first, so the
    smallest prime factor is written last.  Slots left at 0 are primes.  One
    pass then reads mu and phi off n/p, p = spf(n).
    """
    if limit < 1:
        raise ValueError(f"sieve limit must be >= 1, got {limit}")
    root = isqrt(limit)
    composite = bytearray(root + 1)
    primes = []
    for p in range(2, root + 1):
        if not composite[p]:
            primes.append(p)
            composite[p * p :: p] = b"\x01" * len(range(p * p, root + 1, p))
    spf = [0] * (limit + 1)
    spf[1] = 1
    for p in reversed(primes):
        spf[p::p] = repeat(p, limit // p)
    mu = [0] * (limit + 1)
    phi = [0] * (limit + 1)
    mu[1] = phi[1] = 1
    for n in range(2, limit + 1):
        p = spf[n]
        if not p:
            spf[n] = n
            mu[n] = -1
            phi[n] = n - 1
            continue
        m = n // p
        if m % p:
            mu[n] = -mu[m]
            phi[n] = phi[m] * (p - 1)
        else:  # p^2 divides n, so mu(n) stays 0
            phi[n] = phi[m] * p
    # one list at a time becomes a tuple, so at most one extra copy is alive
    mu = tuple(mu)
    phi = tuple(phi)
    spf = tuple(spf)
    return MultiplicativeTable(limit, mu, phi, spf)


def mobius(table: MultiplicativeTable, k: int) -> int:
    """mu(k); raises IndexError for k outside 1..limit (mu(0) is undefined)."""
    if not 1 <= k <= table.limit:
        raise IndexError(f"k={k} outside sieved range 1..{table.limit}")
    return table.mu[k]


def totient(table: MultiplicativeTable, k: int) -> int:
    """phi(k); raises IndexError outside the sieved range."""
    if not 1 <= k <= table.limit:
        raise IndexError(f"k={k} outside sieved range 1..{table.limit}")
    return table.phi[k]


def mobius_scaled(table: MultiplicativeTable, alpha: int, k: int) -> int:
    """mu(alpha*k) for prime alpha.  Zero whenever alpha divides k."""
    if not (2 <= alpha <= table.limit and table.is_prime(alpha)):
        raise ValueError(f"alpha={alpha} is not a prime in the sieved range")
    if k < 1 or alpha * k > table.limit:
        raise IndexError(f"alpha*k={alpha * k} outside sieved range 1..{table.limit}")
    return table.mu[alpha * k]
