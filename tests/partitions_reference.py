"""Reference builders for the partitions module, kept for the tests.

`triple_loop_sr_rows` is the triple loop that the column-built
`sr_table_gf` replaced, and `pentagonal_while_loop` the per-n loop that the
sliding-sum `partition_table_pentagonal` replaced.  Neither shares code with
the module it checks.
"""


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
