"""Reference integer linear algebra for the differential tests.

``smith_normal_form`` is the elimination loop as it stood before the per-row
pivot search and the live-row column operations: it builds one
``(|x|, i, j)`` tuple per nonzero entry of the trailing block to find the
pivot, and applies every column operation to every row.  The program's
``smith_normal_form`` must choose the same pivots and log the same
operations, because the canonical coordinates of every cokernel are read
from that log.

``invariant_factors_by_minors`` is the independent route to the invariant
factors: gcds of k x k minors, with no elimination at all.  The matrix
helpers below it are ones the program itself does not need.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd
from typing import List, Sequence, Tuple

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


def invariant_factors_by_minors(m: IntMatrix) -> Tuple[int, ...]:
    """The nonzero invariant factors d_k = g_k / g_(k-1), where g_k is the gcd
    of the k x k minors of m.  Exponential in the dimensions: small matrices
    only."""
    diag = []
    prev = 1
    for k in range(1, min(m.rows, m.cols) + 1):
        g = 0
        for rows in combinations(range(m.rows), k):
            for cols in combinations(range(m.cols), k):
                sub = IntMatrix.from_rows([[m.data[i][j] for j in cols] for i in rows])
                g = gcd(g, sub.determinant())
        if g == 0:
            break
        diag.append(g // prev)
        prev = g
    return tuple(diag)


def from_columns(cols: Sequence[Sequence[int]], rows: int) -> IntMatrix:
    """The rows x len(cols) matrix with the given columns (none is allowed)."""
    return IntMatrix(rows, len(cols), tuple(tuple(col[i] for col in cols) for i in range(rows)))


def is_unimodular(m: IntMatrix) -> bool:
    return m.rows == m.cols and m.determinant() in (1, -1)


def minus_identity(m: IntMatrix) -> IntMatrix:
    """m - I for a square m."""
    return IntMatrix.from_rows([[x - (i == j) for j, x in enumerate(row)]
                                for i, row in enumerate(m.data)])
