import ast
import math
import random
from pathlib import Path

import pytest
from arith_reference import linear_sieve
from hypothesis import given
from hypothesis import strategies as st

from mobius_partitions import arith, identities
from mobius_partitions.arith import build_sieve, totient_row


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
    mu, phi = build_sieve(1), totient_row(1)
    assert mu[1] == 1
    assert phi[1] == 1
    assert (mu, phi) == ((0, 1), (0, 1))
    for row in (mu, phi):
        with pytest.raises(TypeError):
            row[1] = 0


def test_zero_limit_rejected():
    for build in (build_sieve, totient_row):
        with pytest.raises(ValueError):
            build(0)


def test_known_mu_values():
    mu = build_sieve(10)
    assert mu[2] == -1
    assert mu[4] == 0
    assert mu[6] == 1
    assert mu[9] == 0


def test_mu_against_trial_division():
    mu = build_sieve(300)
    for n in range(1, 301):
        assert mu[n] == brute_mobius(n), n
    assert mu[30] == -1
    assert mu[13] == -1


def test_phi_against_gcd_count():
    phi = totient_row(200)
    for n in range(1, 201):
        assert phi[n] == brute_totient(n), n
    assert phi[2] == 1
    assert phi[12] == 4


def test_divisor_sum_identities():
    mu, phi = build_sieve(200), totient_row(200)
    assert sum(mu[d] for d in divisors(12)) == 0
    for n in range(1, 201):
        assert sum(mu[d] for d in divisors(n)) == (1 if n == 1 else 0)
        assert sum(phi[d] for d in divisors(n)) == n


def test_prime_entries():
    mu, phi = build_sieve(100), totient_row(100)
    # phi(n) = n - 1 exactly when n is prime
    for p in (2, 3, 5, 7, 11, 97):
        assert mu[p] == -1
        assert phi[p] == p - 1
    for n in (1, 4, 6, 9, 100):
        assert phi[n] != n - 1


def test_mu_zero_iff_squarefull():
    mu = build_sieve(500)
    for n in range(2, 501):
        has_square = any(n % (p * p) == 0 for p in range(2, int(n**0.5) + 1))
        assert (mu[n] == 0) == has_square, n


def test_multiplicativity_random_coprime_pairs():
    limit = 2000
    mu, phi = build_sieve(limit), totient_row(limit)
    rng = random.Random(7)
    pairs = 0
    while pairs < 200:
        a = rng.randint(1, 60)
        b = rng.randint(1, 60)
        if math.gcd(a, b) != 1 or a * b > limit:
            continue
        assert mu[a * b] == mu[a] * mu[b]
        assert phi[a * b] == phi[a] * phi[b]
        pairs += 1


@pytest.mark.parametrize("limits", [range(1, 601), [10**5]])
def test_sieve_matches_linear_sieve(limits):
    for limit in limits:
        mu, phi = linear_sieve(limit)
        assert build_sieve(limit) == mu, limit
        assert totient_row(limit) == phi, limit


# The primes up to 1009, by trial division.
_PRIMES = [p for p in range(2, 1010) if all(p % d for d in range(2, math.isqrt(p) + 1))]


@pytest.fixture(scope="module")
def reference():
    """linear_sieve past the largest limit below: mu(n) and phi(n) do not
    depend on the limit, so every smaller row is a prefix of these."""
    return linear_sieve(_PRIMES[-1] ** 2 + 1)


@pytest.mark.parametrize("p", _PRIMES)
def test_sieve_matches_linear_sieve_around_prime_squares(reference, p):
    # at p^2 the bound s = isqrt(limit) steps from p - 1 to p: p leaves the
    # primes that the cofactor pass flips and joins the small primes
    mu = reference[0]
    for limit in (p * p - 1, p * p, p * p + 1):
        assert build_sieve(limit) == mu[: limit + 1], limit


@given(st.integers(1, 20000))
def test_sieve_matches_linear_sieve_at_any_limit(reference, limit):
    mu, phi = reference
    assert build_sieve(limit) == mu[: limit + 1]
    assert totient_row(limit) == phi[: limit + 1]


def test_arith_imports_no_other_package_module():
    # verify lambert checks the mu row against series.lambert_sum, so arith
    # must share no code with the rest of the package
    tree = ast.parse(Path(arith.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert "math" in imported
    assert [m for m in imported if m.startswith((".", "mobius_partitions"))] == []


def test_only_the_phi_verifier_builds_phi():
    # every other sweep reads mu only, so none of them pays for the phi row
    tree = ast.parse(Path(identities.__file__).read_text())
    readers = {
        node.name
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        for name in ast.walk(node)
        if isinstance(name, ast.Name) and name.id == "totient_row"
    }
    assert readers == {"verify_phi_identities"}
