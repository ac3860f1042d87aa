"""Sieved arithmetic functions: Mobius mu and Euler's totient phi.

Each function has its own row builder, so a caller that reads only mu never
pays for phi.  A row is an immutable tuple and the weight format the series
kernels read: w[k] for k = 0..limit, with the dead slot w[0] = 0.
"""

from itertools import repeat
from math import isqrt

# byte table that swaps 0x01 (mu = 1) and 0xff (mu = -1) and keeps 0x00
_NEGATE = bytes.maketrans(b"\x01\xff", b"\xff\x01")


def _check_limit(limit: int) -> None:
    if limit < 1:
        raise ValueError(f"sieve limit must be >= 1, got {limit}")


def build_sieve(limit: int) -> tuple:
    """The row (0, mu(1), ..., mu(limit)), built in byte-string passes.

    mu(n) is held as one signed byte.  Each prime p <= s = isqrt(limit)
    negates every multiple of p with one `bytes.translate` and zeroes the
    multiples of p^2.  A number left with a prime factor q > s is k q with
    k <= limit // (s + 1) <= s, so its slot now holds mu(k); for each k with
    mu(k) != 0 one big-int XOR with 0xfe negates the slots k q at once,
    masked by a byte row that holds 0xfe at the primes q in (s, limit // k].
    """
    _check_limit(limit)
    s = isqrt(limit)
    # an Eratosthenes row: once the primes p <= s have crossed out their
    # multiples, flip[n] is 0xfe exactly when n is prime
    flip = bytearray(b"\xfe") * (limit + 1)
    flip[:2] = b"\x00\x00"
    mu = bytearray(b"\x01") * (limit + 1)
    mu[0] = 0
    for p in range(2, s + 1):
        if flip[p]:
            flip[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
            mu[p::p] = mu[p::p].translate(_NEGATE)
            mu[p * p :: p * p] = bytes(limit // (p * p))
    for k in range(1, limit // (s + 1) + 1):
        if mu[k]:
            multiples = slice(k * (s + 1), None, k)
            mask = flip[s + 1 : limit // k + 1]
            xored = int.from_bytes(mu[multiples], "little") ^ int.from_bytes(mask, "little")
            mu[multiples] = xored.to_bytes(len(mask), "little")
    del flip
    return tuple(memoryview(mu).cast("b").tolist())


def totient_row(limit: int) -> tuple:
    """The row (0, phi(1), ..., phi(limit)).

    An Eratosthenes bytearray finds the primes up to sqrt(limit); each writes
    itself into every multiple's slot of a smallest-prime-factor list,
    largest prime first, so the smallest prime factor is written last.
    Slots left at 0 are primes.  One pass then reads phi(n) off n/p,
    p = spf(n).
    """
    _check_limit(limit)
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
    phi = [0] * (limit + 1)
    phi[1] = 1
    for n in range(2, limit + 1):
        p = spf[n]
        if not p:
            phi[n] = n - 1
            continue
        m = n // p
        phi[n] = phi[m] * (p - 1) if m % p else phi[m] * p
    del spf
    return tuple(phi)
