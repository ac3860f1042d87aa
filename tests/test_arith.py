import math
import random

import pytest
from arith_reference import linear_sieve

from mobius_partitions.arith import MultiplicativeTable, build_sieve


def brute_mobius(n):
    # factor by trial division, independent of the sieve
    count = 0
    m = n
    d = 2
    while d * d <= m:
        if m % d == 0:
            m //= d
            if m % d == 0:
                return 0
            count += 1
        else:
            d += 1
    if m > 1:
        count += 1
    return (-1) ** count


def brute_totient(n):
    return sum(1 for m in range(1, n + 1) if math.gcd(m, n) == 1)


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def test_limit_one():
    t = build_sieve(1)
    assert t.mu[1] == 1
    assert t.phi[1] == 1
    assert (t.mu, t.phi) == ((0, 1), (0, 1))
    with pytest.raises(AttributeError):
        t.mu = ()
    assert repr(t) == "MultiplicativeTable(limit=1)"


def test_zero_limit_rejected():
    with pytest.raises(ValueError):
        build_sieve(0)


def test_known_mu_values():
    t = build_sieve(10)
    assert t.mu[2] == -1
    assert t.mu[4] == 0
    assert t.mu[6] == 1
    assert t.mu[9] == 0


def test_mu_against_trial_division():
    t = build_sieve(300)
    for n in range(1, 301):
        assert t.mu[n] == brute_mobius(n), n
    assert t.mu[30] == -1
    assert t.mu[13] == -1


def test_phi_against_gcd_count():
    t = build_sieve(200)
    for n in range(1, 201):
        assert t.phi[n] == brute_totient(n), n
    assert t.phi[2] == 1
    assert t.phi[12] == 4


def test_divisor_sum_identities():
    t = build_sieve(200)
    assert sum(t.mu[d] for d in divisors(12)) == 0
    for n in range(1, 201):
        assert sum(t.mu[d] for d in divisors(n)) == (1 if n == 1 else 0)
        assert sum(t.phi[d] for d in divisors(n)) == n


def test_prime_entries():
    t = build_sieve(100)
    # phi(n) = n - 1 exactly when n is prime
    for p in (2, 3, 5, 7, 11, 97):
        assert t.mu[p] == -1
        assert t.phi[p] == p - 1
    for n in (1, 4, 6, 9, 100):
        assert t.phi[n] != n - 1


def test_mu_zero_iff_squarefull():
    t = build_sieve(500)
    for n in range(2, 501):
        has_square = any(n % (p * p) == 0 for p in range(2, int(n**0.5) + 1))
        assert (t.mu[n] == 0) == has_square, n


def test_multiplicativity_random_coprime_pairs():
    t = build_sieve(2000)
    rng = random.Random(7)
    pairs = 0
    while pairs < 200:
        a = rng.randint(1, 60)
        b = rng.randint(1, 60)
        if math.gcd(a, b) != 1 or a * b > t.limit:
            continue
        assert t.mu[a * b] == t.mu[a] * t.mu[b]
        assert t.phi[a * b] == t.phi[a] * t.phi[b]
        pairs += 1


@pytest.mark.parametrize("limits", [range(1, 601), [10**5]])
def test_sieve_matches_linear_sieve(limits):
    for limit in limits:
        assert build_sieve(limit) == MultiplicativeTable(limit, *linear_sieve(limit)), limit
