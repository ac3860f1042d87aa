"""Reference sieve for the arith module, kept for the tests.

A linear sieve: each composite m is crossed out exactly once, as n * p
with p = spf(m).  Its mu row checks `mobius_partitions.arith.build_sieve`
and its phi row `totient_row`.  It shares no code with the module it
checks.
"""


def linear_sieve(limit):
    """(mu, phi) tuples over 0..limit; slot 0 is 0."""
    mu = [0] * (limit + 1)
    phi = [0] * (limit + 1)
    spf = [0] * (limit + 1)
    mu[1] = phi[1] = spf[1] = 1
    primes = []
    for n in range(2, limit + 1):
        if spf[n] == 0:
            spf[n] = n
            mu[n] = -1
            phi[n] = n - 1
            primes.append(n)
        for p in primes:
            if p > spf[n] or n * p > limit:
                break
            m = n * p
            spf[m] = p
            if n % p == 0:
                mu[m] = 0
                phi[m] = phi[n] * p
                break
            mu[m] = -mu[n]
            phi[m] = phi[n] * (p - 1)
    return tuple(mu), tuple(phi)
