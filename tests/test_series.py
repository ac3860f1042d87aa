import ast
import inspect
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from series_reference import (
    divisor_loop_lambert,
    inplace_pochhammer,
    schoolbook_mul,
    schoolbook_reciprocal,
)

from mobius_partitions import series
from mobius_partitions.arith import build_sieve, totient_row
from mobius_partitions.partitions import enumerate_partitions
from mobius_partitions.series import (
    TruncatedSeries,
    lambert_sum,
    pochhammer,
    pochhammer_inverse,
)

small_series = st.lists(
    st.integers(min_value=-9, max_value=9), min_size=1, max_size=9
).map(lambda c: TruncatedSeries(c, 8))

# Magnitudes at and next to whole-byte boundaries, where a Kronecker slot
# that is one byte too narrow would first overflow.
_BOUNDARY = [2 ** (8 * j) + d for j in range(1, 33) for d in (-1, 0, 1)]
_nonzero = st.one_of(
    st.integers(min_value=-(2**256), max_value=2**256).filter(bool),
    st.sampled_from(_BOUNDARY + [-v for v in _BOUNDARY]),
)
_coefficient = st.one_of(st.just(0), _nonzero)


@st.composite
def series_pairs(draw):
    """Two series of one order in 0..80: random, all zero, a monomial, one
    coefficient repeated (the largest possible product coefficients), or
    sparse: k = (order + 1).bit_length() or one more nonzero terms at
    random places, so that runs of zero slots lie between them."""
    order = draw(st.integers(min_value=0, max_value=80))

    def one():
        kind = draw(st.sampled_from(["random", "zero", "monomial", "constant", "sparse"]))
        if kind == "zero":
            return TruncatedSeries([0], order)
        if kind == "monomial":
            power = draw(st.integers(min_value=0, max_value=order))
            return TruncatedSeries([0] * power + [draw(_coefficient)], order)
        if kind == "sparse":
            k = (order + 1).bit_length() + draw(st.integers(min_value=0, max_value=1))
            k = min(k, order + 1)
            where = draw(st.lists(st.integers(0, order), min_size=k, max_size=k, unique=True))
            terms = draw(st.lists(_nonzero, min_size=k, max_size=k))
            coeffs = [0] * (order + 1)
            for j, c in zip(where, terms):
                coeffs[j] = c
            return TruncatedSeries(coeffs, order)
        if kind == "constant":
            return TruncatedSeries([draw(_coefficient)] * (order + 1), order)
        return TruncatedSeries(
            draw(st.lists(_coefficient, min_size=order + 1, max_size=order + 1)), order
        )

    return one(), one()


def test_constructor_pads_and_validates():
    s = TruncatedSeries([1, 2], 4)
    assert s.coeffs == (1, 2, 0, 0, 0)
    with pytest.raises(ValueError):
        TruncatedSeries([1, 2, 3], 1)
    with pytest.raises(ValueError, match="order must be >= 0, got -1"):
        TruncatedSeries([], -1)


def test_order_mismatch_rejected():
    with pytest.raises(ValueError):
        TruncatedSeries([1], 2) * TruncatedSeries([1], 3)
    with pytest.raises(TypeError, match="expected TruncatedSeries, got int"):
        TruncatedSeries([1], 0) * 3


def test_mul_identity_and_telescope():
    x = TruncatedSeries([2, 0, -3, 1], 3)
    one = TruncatedSeries([1], 3)
    assert one * x == x
    geom = TruncatedSeries([1] * 11, 10)
    assert ((TruncatedSeries([1, -1], 10)) * geom).coeffs == (1,) + (0,) * 10


def test_mul_matches_poch_row():
    lhs = pochhammer(1, 2, 6) * TruncatedSeries([1, 0, 0, -1], 6)
    assert lhs.coeffs == (1, -1, -1, 0, 1, 1, -1)


@settings(max_examples=60)
@given(small_series, small_series)
def test_mul_commutative(a, b):
    assert a * b == b * a


@settings(max_examples=60)
@given(small_series, small_series, small_series)
def test_mul_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@settings(max_examples=200, deadline=None)
@given(series_pairs())
def test_mul_matches_schoolbook(pair):
    a, b = pair
    assert (a * b).coeffs == schoolbook_mul(a.coeffs, b.coeffs)


@pytest.mark.parametrize("sign_a, sign_b", [(1, 1), (1, -1), (-1, -1)])
@pytest.mark.parametrize("bits", [7, 8, 9, 63, 64, 256])
def test_mul_full_slots(bits, sign_a, sign_b):
    # every product coefficient at its largest magnitude, n * (2^bits - 1)^2
    n = 80
    a = TruncatedSeries([sign_a * (2**bits - 1)] * (n + 1), n)
    b = TruncatedSeries([sign_b * (2**bits - 1)] * (n + 1), n)
    assert (a * b).coeffs == schoolbook_mul(a.coeffs, b.coeffs)


@pytest.mark.parametrize("shape", ["dense", "short", "sparse"])
@pytest.mark.parametrize("signed", [False, True], ids=["nonnegative", "signed"])
def test_mul_reads_from_start(shape, signed):
    # every start in 0..order+1: a short pair's product fills slots 0..21, so
    # the starts past it read no slot; a sparse operand leaves runs of zero
    # slots between its three terms
    order = 40
    rng = random.Random(f"{shape}-{signed}")
    low = -(2**70) if signed else 0

    def row(length):
        return [rng.randint(low, 2**70) for _ in range(length)] + [0] * (order + 1 - length)

    a, b = (row(9), row(14)) if shape == "short" else (row(order + 1), row(order + 1))
    if shape == "sparse":
        a = [c if j in (0, 7, 33) else 0 for j, c in enumerate(a)]
    full = schoolbook_mul(a, b)
    for start in range(order + 2):
        assert series._mul(a, b, order, start) == list(full[start:]), start
        assert series._mul(b, a, order, start) == list(full[start:]), start


@pytest.mark.parametrize("sparse", ["minus-powers-of-two", "q"])
@pytest.mark.parametrize("signed", [False, True], ids=["nonnegative", "signed"])
def test_mul_sparse_times_dense_row(sparse, signed):
    # -sum_j q^(2^j) and q times a row of ~100-bit coefficients: between the
    # sparse operand's terms lie runs of up to 255 zero slots, through which
    # the biased read must pass a signed operand's borrows
    order = 600
    rng = random.Random(f"{sparse}-{signed}")
    dense = [rng.randint(-(2**100) if signed else 0, 2**100) for _ in range(order + 1)]
    terms = {2**j: -1 for j in range(10)} if sparse == "minus-powers-of-two" else {1: 1}
    a = [terms.get(j, 0) for j in range(order + 1)]
    full = [0] * (order + 1)
    for j, c in terms.items():
        for i in range(order + 1 - j):
            full[i + j] += c * dense[i]
    assert (TruncatedSeries(a, order) * TruncatedSeries(dense, order)).coeffs == tuple(full)
    for start in (1, 255, 513, order):
        assert series._mul(a, dense, order, start) == full[start:], start
        assert series._mul(dense, a, order, start) == full[start:], start


def test_pochhammer_empty_product():
    assert pochhammer(1, 0, 5).coeffs == (1, 0, 0, 0, 0, 0)


def test_pochhammer_refuses_a_negative_count():
    with pytest.raises(ValueError, match="factor count must be >= 0, got -1"):
        pochhammer(1, -1, 5)


def test_pochhammer_known_rows():
    assert pochhammer(1, 3, 6).coeffs == (1, -1, -1, 0, 1, 1, -1)
    assert pochhammer(1, 5, 15).coeffs == (
        1, -1, -1, 0, 0, 1, 1, 1, -1, -1, -1, 0, 0, 1, 1, -1,
    )


def test_pochhammer_infinite_matches_long_finite():
    # omitted factors are 1 mod q^(N+1)
    for r in (1, 2, 3):
        assert pochhammer(r, max(30 - r + 1, 0), 30) == pochhammer(r, 40, 30)


@pytest.mark.parametrize("start", range(1, 11))
def test_pochhammer_matches_inplace_product(start):
    for order in (0, 1, 2, 7, 31, 32, 33, 80):
        # every factor up to the order
        assert pochhammer(start, max(order - start + 1, 0), order).coeffs == inplace_pochhammer(
            start, None, order
        ), (start, order)
        for factors in range(13):
            assert pochhammer(start, factors, order).coeffs == inplace_pochhammer(
                start, factors, order
            ), (start, factors, order)


def test_pochhammer_long_product_matches_inplace():
    # past the base case of the online convolution, both factor counts
    assert pochhammer(1, 400, 400).coeffs == inplace_pochhammer(1, None, 400)
    assert pochhammer(3, 60, 400).coeffs == inplace_pochhammer(3, 60, 400)


def test_pochhammer_start_beyond_order_is_one():
    for factors in (0, 5):
        assert pochhammer(9, factors, 4) == TruncatedSeries([1], 4)


def test_pochhammer_rejects_zero_start():
    with pytest.raises(ValueError):
        pochhammer(0, 3, 5)
    with pytest.raises(ValueError):
        pochhammer_inverse(0, 5)


@pytest.mark.parametrize("order", [0, 1, 31, 32, 33, 64, 65, 150])
def test_pochhammer_inverse_matches_schoolbook(order):
    # orders on both sides of series._POCHHAMMER_BASE and of its doubling
    for start in range(1, order + 2):
        want = schoolbook_reciprocal(inplace_pochhammer(start, None, order))
        assert pochhammer_inverse(start, order).coeffs == want, start


def test_reciprocal_gives_partition_counts():
    # oracle: count partitions of n by enumeration
    inv = pochhammer_inverse(1, 10)
    expected = tuple(sum(1 for _ in enumerate_partitions(n)) for n in range(11))
    assert expected == (1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42)
    assert inv.coeffs == expected


def test_kernel_signatures_are_fixed():
    # the benchmark's tracer reads these arguments by name
    assert list(inspect.signature(pochhammer).parameters) == ["start", "factors", "order"]
    assert list(inspect.signature(lambert_sum).parameters) == ["weights", "order"]
    assert list(inspect.signature(build_sieve).parameters) == ["limit"]


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 6])
def test_pochhammer_reciprocal_roundtrip(r):
    assert pochhammer(r, max(100 - r + 1, 0), 100) * pochhammer_inverse(r, 100) == TruncatedSeries([1], 100)


def test_reciprocal_poch_counts_min_part_partitions():
    for r in (1, 2, 3, 5):
        inv = pochhammer_inverse(r, 40)
        for n in range(41):
            assert inv.coeffs[n] == sum(1 for _ in enumerate_partitions(n, r))


def test_lambert_mu_collapses_to_q():
    s = lambert_sum(build_sieve(200), 200)
    assert s == TruncatedSeries([0, 1], 200)


# Weights for the Lambert kernel: zeros, small values of both signs, and
# magnitudes far past a machine word.
_LAMBERT_WEIGHTS = (0, 0, 1, -1, 2, -3, 2**100, -(2**100))
# Orders where isqrt(order) steps up, the orders just before them, and 0..3.
_ISQRT_STEPS = sorted({t * t + d for t in range(1, 21) for d in (-1, 0)} | {0, 1, 2, 3})


@pytest.mark.parametrize("seed", [1, 5, 32768])
def test_lambert_matches_divisor_loop_at_every_order(seed):
    # each seed puts its zeros, which the kernel skips as cofactors, elsewhere
    rng = random.Random(seed)
    weights = [rng.choice(_LAMBERT_WEIGHTS) for _ in range(401)]
    for order in range(401):
        assert lambert_sum(weights, order).coeffs == divisor_loop_lambert(weights, order), order


def test_lambert_matches_divisor_loop_at_a_large_order():
    # small primes over many blocks (2^14 < 30 011 < 2^15), and primes past
    # isqrt(30 011) = 173 reached from many cofactors, up to 30 011 // 174
    order = 30_011
    rng = random.Random(13)
    weights = [rng.choice(_LAMBERT_WEIGHTS) for _ in range(order + 1)]
    assert lambert_sum(weights, order).coeffs == divisor_loop_lambert(weights, order)


@settings(max_examples=80, deadline=None)
@given(
    st.one_of(st.integers(min_value=0, max_value=400), st.sampled_from(_ISQRT_STEPS)),
    st.randoms(use_true_random=False),
)
def test_lambert_matches_divisor_loop(order, rng):
    # junk in slot 0 and past the order, which the kernel must not read
    weights = [7] + [rng.choice(_LAMBERT_WEIGHTS) for _ in range(order)] + [2**64, -1]
    assert lambert_sum(weights, order).coeffs == divisor_loop_lambert(weights, order)
    assert lambert_sum(weights, order) == lambert_sum([0] + weights[1 : order + 1], order)


def test_series_imports_no_other_package_module():
    # verify lambert checks the sieve's mu in arith against lambert_sum, so
    # series must share no code with the rest of the package
    tree = ast.parse(Path(series.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert "math" in imported
    assert [m for m in imported if m.startswith((".", "mobius_partitions"))] == []


def test_lambert_refuses_short_row():
    for order in (0, 1, 5, 100):
        with pytest.raises(ValueError, match="shorter than order"):
            lambert_sum([1] * order, order)
        assert lambert_sum([1] * (order + 1), order).order == order


def test_lambert_refuses_a_negative_order_before_summing(monkeypatch):
    # the refusal comes first: without it the divisor-sum pass would run on
    # the weights before TruncatedSeries refused the order
    def summed(out):
        raise AssertionError("divisor sums ran")

    monkeypatch.setattr(series, "_divisor_sums", summed)
    with pytest.raises(ValueError, match=r"^order must be >= 0, got -5$"):
        lambert_sum(list(range(100)), -5)


def test_lambert_phi_gives_n():
    phi = totient_row(60)
    s = lambert_sum(phi, 60)
    # oracle: brute-force divisor sums
    for n in range(1, 61):
        assert sum(phi[d] for d in range(1, n + 1) if n % d == 0) == n
        assert s.coeffs[n] == n
    assert s.coeffs[0] == 0


def test_lambert_mu_alpha_scaled():
    s = lambert_sum(build_sieve(40)[::2], 9)
    assert s.coeffs == (0, -1, -1, 0, -1, 0, 0, 0, -1, 0)


def test_immutability():
    s = TruncatedSeries([1, 2], 2)
    with pytest.raises(AttributeError):
        s.order = 5
