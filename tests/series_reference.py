"""Schoolbook reference kernels for the series module, kept for the tests.

These are the plain loops the fast kernels in `mobius_partitions.series`
replaced.  They return coefficient tuples and share no code with the module
they check.
"""


def schoolbook_mul(a, b):
    """Truncated Cauchy product of two equal-length coefficient tuples."""
    n = len(a) - 1
    out = [0] * (n + 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j in range(n + 1 - i):
            out[i + j] += ai * b[j]
    return tuple(out)


def schoolbook_reciprocal(a):
    """Inverse of a coefficient tuple whose constant term is +-1."""
    c0 = a[0]
    n = len(a) - 1
    out = [0] * (n + 1)
    out[0] = c0  # 1/c0 == c0 for c0 in {1, -1}
    for j in range(1, n + 1):
        acc = 0
        for i in range(1, j + 1):
            acc += a[i] * out[j - i]
        out[j] = -c0 * acc
    return tuple(out)


def inplace_pochhammer(start, factors, order):
    """prod_k (1 - q^(start+k)) mod q^(order+1), one factor at a time."""
    out = [1] + [0] * order
    k = 0
    while (factors is None and start + k <= order) or (factors is not None and k < factors):
        m = start + k
        # multiply in place by (1 - q^m)
        for j in range(order, m - 1, -1):
            out[j] -= out[j - m]
        k += 1
    return tuple(out)


def divisor_loop_lambert(weights, order):
    """sum_k w(k) q^k/(1-q^k) mod q^(order+1), w(k) = weights[k]: w(k) added
    at every multiple of k."""
    out = [0] * (order + 1)
    for k in range(1, order + 1):
        wk = weights[k]
        if wk == 0:
            continue
        for n in range(k, order + 1, k):
            out[n] += wk
    return tuple(out)
