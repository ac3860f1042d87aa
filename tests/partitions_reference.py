"""Reference S^(r) table builder for the partitions module, kept for the tests.

This is the triple loop that the column-built `sr_table_gf` replaced.  It
returns rows, rows[n][k] = S^(r)_{n,k}, and shares no code with the module
it checks.
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
