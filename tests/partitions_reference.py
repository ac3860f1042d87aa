"""Reference builders for the partitions module, kept for the tests.

`triple_loop_sr_rows` is the triple loop that the slice-built
`sr_table_gf` replaced, and `pentagonal_while_loop` the per-n loop that the
sliding-sum `partition_table_pentagonal` replaced.  Neither shares code with
the module it checks.  `per_part_sr_rows` counts every part of every
partition one at a time, the loop that the prefix-charging `part_counts`
scan replaced: it takes its partitions from `enumerate_partitions`, which
the tests check against a plain recursion.  `backward_difference` is the difference of p
that the corollaries' term lists are checked against.
"""

from math import comb

from mobius_partitions.partitions import enumerate_partitions


def triple_loop_sr_rows(inv, r, limit):
    """S^(r)_{n,k} for 0 <= n, k <= limit from inv = 1/(q^r; q)_inf, by
    adding inv shifted to every multiple of k into column k."""
    rows = [[0] * (limit + 1) for _ in range(limit + 1)]
    for k in range(r, limit + 1):
        for mk in range(k, limit + 1, k):
            for n in range(mk, limit + 1):
                rows[n][k] += inv[n - mk]
    return rows


def pentagonal_while_loop(limit):
    """[p(0), ..., p(limit)] by Euler's pentagonal recurrence, one while
    loop over k per n."""
    p = [0] * (limit + 1)
    p[0] = 1
    for n in range(1, limit + 1):
        total = 0
        k = 1
        while True:
            g1 = n - k * (3 * k - 1) // 2
            g2 = n - k * (3 * k + 1) // 2
            if g1 < 0 and g2 < 0:
                break
            term = (p[g1] if g1 >= 0 else 0) + (p[g2] if g2 >= 0 else 0)
            total += term if k % 2 == 1 else -term
            k += 1
        p[n] = total
    return p


def per_part_sr_rows(r, limit):
    """S^(r)_{n,k} as rows[n][k] for 0 <= n, k <= limit, by scanning the
    partitions of each n with parts >= r and counting every part."""
    rows = [[0] * (limit + 1) for _ in range(limit + 1)]
    for n in range(r, limit + 1):
        row = rows[n]
        for parts in enumerate_partitions(n, r):
            for k in parts:
                row[k] += 1
    return rows


def backward_difference(table, order, n):
    """Backward difference of p: sum_k (-1)^k C(order,k) p(n-k), p(<0) = 0."""
    if order < 0:
        raise ValueError(f"difference order must be >= 0, got {order}")
    if not 0 <= n <= table.limit:
        raise IndexError(f"n={n} outside 0..{table.limit}")
    return sum((-1) ** k * comb(order, k) * table.value(n - k) for k in range(order + 1))
