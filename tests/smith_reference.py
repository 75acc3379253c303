"""Reference Smith elimination for the differential tests.

This is the elimination loop as it stood before the per-row pivot search and
the live-row column operations: it builds one ``(|x|, i, j)`` tuple per
nonzero entry of the trailing block to find the pivot, and applies every
column operation to every row.  ``smith_normal_form`` must choose the same
pivots and log the same operations, because the canonical coordinates of
every cokernel are read from that log.
"""

from __future__ import annotations

from typing import List

from bundlesec.zlinalg import IntMatrix, Op, SmithDecomposition


def smith_normal_form(m: IntMatrix) -> SmithDecomposition:
    """Diagonalize by row/column operations, pivoting on the minimal nonzero
    entry; only the working matrix is updated, each operation is logged."""
    r, c = m.rows, m.cols
    a = [list(row) for row in m.data]
    row_ops: List[Op] = []
    col_ops: List[Op] = []

    def addmul_row(dst, src, q):
        # row[dst] += q * row[src]
        a[dst] = [x + q * y for x, y in zip(a[dst], a[src])]
        row_ops.append((dst, src, q))

    t = 0
    limit = min(r, c)
    while t < limit:
        # the minimal nonzero entry of the trailing submatrix, first in row-major order
        found = min(((abs(x), i, j) for i in range(t, r) for j, x in enumerate(a[i][t:], t) if x),
                    default=None)
        if found is None:
            break
        _, pi, pj = found
        if pi != t:
            a[t], a[pi] = a[pi], a[t]
            row_ops.append((t, pi))
        if pj != t:
            for row in a:
                row[t], row[pj] = row[pj], row[t]
            col_ops.append((t, pj))
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            row_ops.append((t,))
        p = a[t][t]

        dirty = False
        for i in range(t + 1, r):
            if a[i][t] != 0:
                addmul_row(i, t, -(a[i][t] // p))
                dirty = dirty or a[i][t] != 0
        for j in range(t + 1, c):
            if a[t][j] != 0:
                # col[j] -= q * col[t]
                q = a[t][j] // p
                for row in a:
                    row[j] -= q * row[t]
                col_ops.append((j, t, -q))
                dirty = dirty or a[t][j] != 0
        if dirty:
            continue  # pivot strictly shrank; re-select

        # pivot must divide the whole trailing block for the chain to hold
        offender = next((i for i in range(t + 1, r) if any(x % p for x in a[i][t + 1:])), None)
        if offender is not None:
            addmul_row(t, offender, 1)
            continue
        t += 1

    return SmithDecomposition(IntMatrix(r, c, tuple(tuple(row) for row in a)),
                              tuple(row_ops), tuple(col_ops))
