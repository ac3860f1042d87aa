"""Reference builder for the identities module, kept for the tests.

`closure_build_a` is the loop that the zero-padded-row `build_a` replaced:
it reads a_{r,.} and b_{r,.} through closures that return 0 outside each
row.  It takes its b rows from `build_b`, which the tests check against
frozen rows and against the q-Pochhammer coefficients.
"""

from mobius_partitions.identities import build_b


def closure_build_a(rmax, mu):
    """Rows a_{r,.} for r = 1..rmax: a_{r+1,j} = a_{r,j+1} - mu(r) b_{r,j+1}
    - a_{r,j+1-r}, the last term only for j+1 >= r, each row cut to
    (r-1)(r-2)/2 + 1 entries."""
    b_rows = build_b(rmax)
    rows = [[1]]
    for r in range(1, rmax):
        prev = rows[-1]
        b_prev = b_rows[r - 1]
        mu_r = mu[r]

        def a_prev(j):
            return prev[j] if 0 <= j < len(prev) else 0

        def b_prev_at(j):
            return b_prev[j] if 0 <= j < len(b_prev) else 0

        span = (r + 1) * (r + 2) // 2 + 1
        row = []
        for j in range(span):
            v = a_prev(j + 1) - mu_r * b_prev_at(j + 1)
            if j + 1 >= r:
                v -= a_prev(j + 1 - r)
            row.append(v)
        width = r * (r - 1) // 2 + 1
        assert not any(row[width:]), r + 1
        rows.append(row[:width])
    return rows
