"""Exact integer elimination kernels.

These are the inner loops everything else sits on: Smith reduction,
mod-p Gaussian elimination, fraction-free determinants and matrix
products, all on rows of Python ints (arbitrary precision, no floating
point anywhere).  Callers validate their matrices before handing them
in; nothing here re-checks entries.

The three elimination kernels (``*_inplace``) work on a list of list
rows and destroy it.  The Smith kernel reduces a leading block and
carries any entries beside or below it through the same operations,
which is how its caller gets the unimodular transforms: one reduction
with or without them.  ``matmul`` only reads its inputs, so an immutable
matrix can hand it its own row tuples.  It takes the right factor as
sparse rows and touches only the nonzero entries of both factors.

``KERNEL_BACKEND`` names this implementation; result records stamp it
so timings are only compared between runs of the same kernels.
"""

KERNEL_BACKEND: str = "python"


def _swap_cols(m, a, b):
    for row in m:
        row[a], row[b] = row[b], row[a]


def _negate_row(m, i):
    row = m[i]
    for j in range(len(row)):
        row[j] = -row[j]


def _row_sub(m, i, t, q):
    # row i -= q * row t
    ri = m[i]
    rt = m[t]
    for j in range(len(ri)):
        ri[j] -= q * rt[j]


def _row_add(m, t, i):
    # row t += row i
    rt = m[t]
    ri = m[i]
    for j in range(len(rt)):
        rt[j] += ri[j]


def _col_sub(m, j, t, q):
    # col j -= q * col t, skipping the rows where col t is zero
    for row in m:
        e = row[t]
        if e:
            row[j] -= q * e


def snf_inplace(m, nr, nc):
    """Reduce the leading ``nr`` x ``nc`` block of ``m`` to Smith normal
    form in place.

    Row operations act on whole rows and column operations on the first
    ``nc`` entries of every row, so entries to the right of the block
    follow the row transform and rows below it follow the column
    transform.  With I_nr appended to the right of the block and the
    rows of I_nc below it, those entries end as unimodular ``u`` and
    ``v`` with ``u * block_original * v == block_final``.  The final
    block is diagonal with nonnegative entries forming a divisibility
    chain.

    Pivot rule: the entry of smallest nonzero magnitude in the
    untouched block, first match in row-major scan order.  The scan stops
    at the first unit, which no later entry can beat, and a unit pivot
    skips the divisibility check of the remaining block.
    """
    limit = min(nr, nc)
    t = 0
    while t < limit:
        best_i = -1
        best_j = -1
        best = 0
        for i in range(t, nr):
            mi = m[i]
            for j in range(t, nc):
                e = mi[j]
                if e:
                    if e < 0:
                        e = -e
                    if best_i < 0 or e < best:
                        best = e
                        best_i = i
                        best_j = j
                        if e == 1:
                            break
            if best == 1:
                break
        if best_i < 0:
            break  # nothing nonzero left
        if best_i != t:
            m[t], m[best_i] = m[best_i], m[t]
        if best_j != t:
            _swap_cols(m, t, best_j)
        while True:
            p = m[t][t]
            if p < 0:
                _negate_row(m, t)
                p = -p
            again = False
            for i in range(t + 1, nr):
                e = m[i][t]
                if e:
                    q = e // p
                    if q:
                        _row_sub(m, i, t, q)
                    if m[i][t]:
                        # remainder beats the pivot; promote it
                        m[t], m[i] = m[i], m[t]
                        again = True
                        break
            if again:
                continue
            for j in range(t + 1, nc):
                e = m[t][j]
                if e:
                    q = e // p
                    if q:
                        _col_sub(m, j, t, q)
                    if m[t][j]:
                        _swap_cols(m, t, j)
                        again = True
                        break
            if again:
                continue
            break
        # the pivot must divide the whole remaining block for the
        # divisor chain; fold an offending row into row t and redo
        p = m[t][t]
        clean = True
        for i in range(t + 1, nr if p != 1 else t + 1):  # 1 divides all
            mi = m[i]
            for j in range(t + 1, nc):
                if mi[j] % p:
                    _row_add(m, t, i)
                    clean = False
                    break
            if not clean:
                break
        if clean:
            t += 1


def rank_mod_inplace(m, p):
    """Rank of ``m`` over the field with ``p`` elements (``p`` prime).

    Destroys ``m``.  Caller guarantees primality.
    """
    nr = len(m)
    nc = len(m[0]) if nr else 0
    for i in range(nr):
        mi = m[i]
        for j in range(nc):
            mi[j] %= p
    rank = 0
    col = 0
    while rank < nr and col < nc:
        piv = -1
        for i in range(rank, nr):
            if m[i][col]:
                piv = i
                break
        if piv < 0:
            col += 1
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
        row = m[rank]
        inv = pow(row[col], -1, p)
        for j in range(col, nc):
            row[j] = row[j] * inv % p
        for i in range(nr):
            if i != rank and m[i][col]:
                f = m[i][col]
                mi = m[i]
                for j in range(col, nc):
                    mi[j] = (mi[j] - f * row[j]) % p
        rank += 1
        col += 1
    return rank


def det_inplace(m):
    """Determinant by fraction-free (Bareiss) elimination.  Destroys ``m``."""
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            piv = -1
            for i in range(k + 1, n):
                if m[i][k]:
                    piv = i
                    break
            if piv < 0:
                return 0
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        pkk = m[k][k]
        for i in range(k + 1, n):
            mi = m[i]
            mk = m[k]
            mik = mi[k]
            for j in range(k + 1, n):
                mi[j] = (mi[j] * pkk - mik * mk[j]) // prev
            mi[k] = 0
        prev = pkk
    return sign * m[n - 1][n - 1]


def sparse_rows(m):
    """The nonzero entries of each row of ``m`` as (column, value) pairs,
    the form in which ``matmul`` takes its right factor."""
    return tuple([tuple([(j, x) for j, x in enumerate(row) if x]) for row in m])


def matmul(a, b, cols):
    """Product of the rows ``a`` by the right factor whose sparse rows are
    ``b`` (``sparse_rows``) and which has ``cols`` columns; inner
    dimensions must agree.

    Each nonzero a[i][t] adds its multiple of row t of the right factor
    over that row's nonzero entries only.  Neither input is mutated.
    """
    out = []
    for ai in a:
        row = [0] * cols
        for f, bt in zip(ai, b):
            if f:
                for j, x in bt:
                    row[j] += f * x
        out.append(row)
    return out
