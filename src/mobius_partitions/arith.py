"""Sieved arithmetic functions: Mobius mu and Euler's totient phi.

One sieve fills both rows up to a fixed limit; the resulting table is
immutable and safe to share between threads.  A row is the weight format
the series kernels read: w[k] for k = 0..limit.
"""

from collections import namedtuple
from itertools import repeat
from math import isqrt


class MultiplicativeTable(namedtuple("MultiplicativeTable", "limit mu phi")):
    """mu and phi rows for 0..limit.

    The rows are 1-indexed (index 0 is a dead slot holding 0) so that
    table.mu[k] really is mu(k); mu(1) = phi(1) = 1.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        # the rows are left out: a failing test must not print a million entries
        return f"MultiplicativeTable(limit={self.limit})"


def build_sieve(limit: int) -> MultiplicativeTable:
    """Build mu and phi for 1..limit.

    An Eratosthenes bytearray finds the primes up to sqrt(limit); each writes
    itself into every multiple's slot of a smallest-prime-factor list,
    largest prime first, so the smallest prime factor is written last.
    Slots left at 0 are primes.  One pass then reads mu and phi off n/p,
    p = spf(n).
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
    for p in reversed(primes):
        spf[p::p] = repeat(p, limit // p)
    mu = [0] * (limit + 1)
    phi = [0] * (limit + 1)
    mu[1] = phi[1] = 1
    for n in range(2, limit + 1):
        p = spf[n]
        if not p:
            mu[n] = -1
            phi[n] = n - 1
            continue
        m = n // p
        if m % p:
            mu[n] = -mu[m]
            phi[n] = phi[m] * (p - 1)
        else:  # p^2 divides n, so mu(n) stays 0
            phi[n] = phi[m] * p
    del spf
    # one list at a time becomes a tuple, so at most one extra copy is alive
    mu = tuple(mu)
    phi = tuple(phi)
    return MultiplicativeTable(limit, mu, phi)

