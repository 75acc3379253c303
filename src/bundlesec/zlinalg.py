"""Exact integer linear algebra: Smith normal form, cokernels, lattice membership.

Everything here works over plain Python ints (arbitrary precision), since
intermediate entries in a Smith reduction can grow well past 64 bits.  The
Smith reduction always moves the minimal nonzero |entry| of the trailing
block to the pivot, and on a tie takes the first in row-major order.  That
tie-break fixes the operation log, and with it the canonical coordinates of
every cokernel, so it is part of the contract.  The reduction updates only
the matrix and logs its operations; a column operation touches only the rows
that are nonzero (live) in the pivot column, since it leaves the others
unchanged.  A decomposition reads its pivots from D once: the diagonal, the
rank, and the rows a cokernel keeps, the torsion rows (pivot >= 2) and then
the free rows; cokernels, coordinates, solutions and kernels read them, and
so do lemma 2 and H^1.  Coordinates in a cokernel come from the row log,
applied to the vector alone.  Only ``solve`` reads the transform U, and only
it and ``kernel_basis`` read V; each is replayed from its log when first read.
"""

from __future__ import annotations

from functools import cached_property
from operator import mul
from typing import List, Optional, Sequence, Tuple

Vector = Tuple[int, ...]


class InvariantError(AssertionError):
    """An internal consistency check failed: a bug, never a property of the input."""


class IntMatrix:
    """Immutable dense integer matrix, row-major."""

    def __init__(self, rows: int, cols: int, data: Tuple[Tuple[int, ...], ...]):
        self.rows = rows
        self.cols = cols
        self.data = data
        if len(self.data) != self.rows:
            raise ValueError("row count mismatch")
        for row in self.data:
            if len(row) != self.cols:
                raise ValueError("column count mismatch")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.data) == (other.rows, other.cols, other.data)

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]]) -> "IntMatrix":
        data = tuple(tuple(int(x) for x in row) for row in rows)
        nrows = len(data)
        ncols = len(data[0]) if data else 0
        return IntMatrix(nrows, ncols, data)

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @staticmethod
    def zeros(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix(rows, cols, tuple(tuple(0 for _ in range(cols)) for _ in range(rows)))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        cols = other.columns()
        return IntMatrix(self.rows, other.cols, tuple(
            tuple(sum(map(mul, row, col)) for col in cols) for row in self.data))

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("dimension mismatch in matrix sum")
        return IntMatrix(self.rows, self.cols, tuple(
            tuple(a + b for a, b in zip(r1, r2)) for r1, r2 in zip(self.data, other.data)
        ))

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return self + (-other)

    def __neg__(self) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, tuple(tuple(-a for a in r) for r in self.data))

    def transpose(self) -> "IntMatrix":
        return IntMatrix(self.cols, self.rows, self.columns())

    def column(self, j: int) -> Vector:
        return tuple(self.data[i][j] for i in range(self.rows))

    def columns(self) -> Tuple[Vector, ...]:
        """The columns, by one zip of the rows; a matrix with no rows has
        cols empty columns."""
        return tuple(zip(*self.data)) if self.rows else ((),) * self.cols

    def apply(self, v: Sequence[int]) -> Vector:
        if len(v) != self.cols:
            raise ValueError("vector length does not match column count")
        return tuple(sum(map(mul, row, v)) for row in self.data)

    def is_identity(self) -> bool:
        return self.rows == self.cols and self == IntMatrix.identity(self.rows)

    def determinant(self) -> int:
        """Fraction-free Bareiss elimination; exact for any integer matrix."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        a = [list(row) for row in self.data]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                for i in range(k + 1, n):
                    if a[i][k] != 0:
                        a[k], a[i] = a[i], a[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
                a[i][k] = 0
            prev = a[k][k]
        return sign * a[n - 1][n - 1]

    def inverse_unimodular(self) -> "IntMatrix":
        """Inverse of a determinant +-1 matrix by Gauss-Jordan elimination over Z.

        Euclid steps on each column leave one pivot, the gcd of the column
        below the diagonal; a unimodular matrix makes every pivot a unit, which
        then clears its column above and below.
        """
        if self.rows != self.cols:
            raise ValueError("matrix is not invertible over the integers")
        n = self.rows
        a = [list(row) + [1 if i == j else 0 for j in range(n)]
             for i, row in enumerate(self.data)]
        for t in range(n):
            while True:
                live = [i for i in range(t, n) if a[i][t] != 0]
                if not live:
                    raise ValueError("matrix is not invertible over the integers")
                p = min(live, key=lambda i: abs(a[i][t]))
                a[t], a[p] = a[p], a[t]
                pivot_row = a[t]
                done = True
                for i in range(t + 1, n):
                    if a[i][t] == 0:
                        continue
                    q = a[i][t] // pivot_row[t]
                    a[i] = [x - q * y for x, y in zip(a[i], pivot_row)]
                    done = done and a[i][t] == 0
                if done:
                    break
            if a[t][t] not in (1, -1):
                raise ValueError("matrix is not invertible over the integers")
            if a[t][t] == -1:
                a[t] = [-x for x in a[t]]
            pivot_row = a[t]
            for i in range(n):
                if i != t and a[i][t] != 0:
                    q = a[i][t]
                    a[i] = [x - q * y for x, y in zip(a[i], pivot_row)]
        return IntMatrix(n, n, tuple(tuple(row[n:]) for row in a))


# Logged operations: (i, j) swaps rows (columns) i and j, (dst, src, q) adds q
# times src to dst, and (i,) negates row i.
Op = Tuple[int, ...]


def _apply_ops(ops: Sequence[Op], rows: List[List[int]]) -> List[List[int]]:
    """The rows with the logged row operations applied in order, in place."""
    for op in ops:
        if len(op) == 2:
            i, j = op
            rows[i], rows[j] = rows[j], rows[i]
        elif len(op) == 3:
            dst, src, q = op
            rows[dst] = [x + q * y for x, y in zip(rows[dst], rows[src])]
        else:
            rows[op[0]] = [-x for x in rows[op[0]]]
    return rows


def _replay(n: int, ops: Sequence[Op]) -> IntMatrix:
    """The n x n identity with the logged row operations applied in order."""
    rows = _apply_ops(ops, [[1 if i == j else 0 for j in range(n)] for i in range(n)])
    return IntMatrix(n, n, tuple(tuple(row) for row in rows))


class SmithDecomposition:
    """U @ M @ V == D with U, V unimodular and D diagonal, d1 | d2 | ...

    The pivots are read from D once, into ``diagonal``, ``rank`` (the
    nonzero pivots), ``torsion_rows`` (the rows with a pivot >= 2) and
    ``free_rows`` (the rows with pivot 0, then the rows past the diagonal).
    A cokernel keeps the torsion rows, then the free rows: ``cokernel``,
    ``project``, ``solve``, lemma 2 and H^1 read them; ``kernel_basis`` the
    rank.  The elimination reduces M alone and logs its row and column
    operations.  U and V are replayed from the logs on an identity the first
    time each is read: ``solve`` reads both and ``kernel_basis`` V; the
    pivots, the cokernel and coordinates in it read neither.
    """

    def __init__(self, D: IntMatrix, row_ops: Tuple[Op, ...], col_ops: Tuple[Op, ...]):
        self.D = D
        self.row_ops = row_ops
        self.col_ops = col_ops
        n = min(D.rows, D.cols)
        self.diagonal: Vector = tuple(D.data[i][i] for i in range(n))
        self.rank = sum(1 for d in self.diagonal if d != 0)
        self.torsion_rows = tuple(i for i, d in enumerate(self.diagonal) if d >= 2)
        self.free_rows = (tuple(i for i, d in enumerate(self.diagonal) if d == 0)
                          + tuple(range(n, D.rows)))

    @cached_property
    def U(self) -> IntMatrix:
        return _replay(self.D.rows, self.row_ops)

    @cached_property
    def V(self) -> IntMatrix:
        # a column operation on V is the same row operation on V^T
        return _replay(self.D.cols, self.col_ops).transpose()

    def left_apply(self, rows: Sequence[Sequence[int]]) -> List[List[int]]:
        """The rows of U @ X, for X given by its rows, from the row log: U is
        not built."""
        return _apply_ops(self.row_ops, [list(row) for row in rows])

    def kernel_basis(self) -> Tuple[Vector, ...]:
        """A lattice basis of { v : M @ v == 0 }: the columns of V where D e_j == 0."""
        return tuple(self.V.column(j) for j in range(self.rank, self.D.cols))

    def cokernel(self) -> "AbelianGroup":
        """The quotient Z^rows / im(M): a Z/d for each torsion row's pivot d,
        then a Z for each free row."""
        diag = self.diagonal
        return AbelianGroup(tuple(diag[i] for i in self.torsion_rows)
                            + (0,) * len(self.free_rows))

    def project(self, v: Sequence[int]) -> Vector:
        """The coordinates of v in the cokernel: U @ v at the torsion rows, each
        mod its pivot, then at the free rows, from the row log: U is not built."""
        if len(v) != self.D.rows:
            raise ValueError("vector length does not match row count")
        w = [row[0] for row in self.left_apply([[x] for x in v])]
        diag = self.diagonal
        torsion = tuple(w[i] % diag[i] for i in self.torsion_rows)
        return torsion + tuple(w[i] for i in self.free_rows)

    def solve(self, v: Sequence[int]) -> Optional[Vector]:
        """One integer solution x of M @ x == v, or None if there is none:
        U @ v must vanish at the free rows, and each pivot must divide it at
        its row."""
        if len(v) != self.D.rows:
            raise ValueError("dimension mismatch")
        w = self.U.apply(v)
        if any(w[i] for i in self.free_rows):
            return None
        y = [0] * self.D.cols
        for i in range(self.rank):
            y[i], rest = divmod(w[i], self.diagonal[i])
            if rest:
                return None
        return self.V.apply(y)


def smith_normal_form(m: IntMatrix) -> SmithDecomposition:
    """Diagonalize by row/column operations; only the working matrix is
    updated, and each operation is logged.

    The pivot is the minimal nonzero |entry| of the trailing block, the first
    one in row-major order on a tie.  After the rows below the pivot are
    reduced, each column operation col[j] -= q * col[t] updates only the rows
    live in column t (nonzero there): the pivot row, and any row the
    reduction left with a nonzero remainder.  The divisibility scan of the
    trailing block is skipped when the pivot is 1."""
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
        # the first row holding the least row minimum, then the first column
        # in it with that |entry|; no later row beats a minimum of 1
        p, pi = 0, t
        for i in range(t, r):
            row_abs = [abs(x) for x in a[i][t:] if x]
            if row_abs:
                least = min(row_abs)
                if not p or least < p:
                    p, pi = least, i
                    if p == 1:
                        break
        if not p:
            break
        pj = t + [abs(x) for x in a[pi][t:]].index(p)
        if pi != t:
            a[t], a[pi] = a[pi], a[t]
            row_ops.append((t, pi))
        if pj != t:
            # rows above t are zero from column t on
            for row in a[t:]:
                row[t], row[pj] = row[pj], row[t]
            col_ops.append((t, pj))
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            row_ops.append((t,))

        dirty = False
        for i in range(t + 1, r):
            if a[i][t] != 0:
                addmul_row(i, t, -(a[i][t] // p))
                dirty = dirty or a[i][t] != 0
        # col[j] -= q * col[t] leaves the rows that are zero in column t unchanged
        live = [row for row in a[t:] if row[t]]
        pivot_row = a[t]
        for j in range(t + 1, c):
            if pivot_row[j] != 0:
                # col[j] -= q * col[t]
                q = pivot_row[j] // p
                for row in live:
                    row[j] -= q * row[t]
                col_ops.append((j, t, -q))
                dirty = dirty or pivot_row[j] != 0
        if dirty:
            continue  # pivot strictly shrank; re-select

        # pivot must divide the whole trailing block for the chain to hold
        if p != 1:
            offender = next((i for i in range(t + 1, r) if any(x % p for x in a[i][t + 1:])),
                            None)
            if offender is not None:
                addmul_row(t, offender, 1)
                continue
        t += 1

    return SmithDecomposition(IntMatrix(r, c, tuple(tuple(row) for row in a)),
                              tuple(row_ops), tuple(col_ops))


class AbelianGroup:
    """Finitely generated abelian group in invariant-factor form.

    ``invariant_factors`` lists torsion factors (each >= 2, divisibility chain)
    followed by zeros, one per infinite cyclic factor.  Coordinates in a
    cokernel are read from its Smith form, ``SmithDecomposition.project``.
    """

    def __init__(self, invariant_factors: Tuple[int, ...]):
        self.invariant_factors = invariant_factors
        fs = self.invariant_factors
        for f in fs:
            if f < 0 or f == 1:
                raise ValueError(f"invalid invariant factor {f}")
        for x, y in zip(fs, fs[1:]):
            if x == 0 and y != 0:
                raise ValueError("free factors must come last")
            if x != 0 and y != 0 and y % x != 0:
                raise ValueError("divisibility chain violated")

    @property
    def rank(self) -> int:
        return sum(1 for f in self.invariant_factors if f == 0)

    @property
    def torsion(self) -> Tuple[int, ...]:
        return tuple(f for f in self.invariant_factors if f != 0)

    def __str__(self) -> str:
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        parts.extend(f"Z/{f}" for f in self.torsion)
        return " + ".join(parts) if parts else "0"


def cokernel(m: IntMatrix) -> AbelianGroup:
    """The quotient Z^rows / im(m)."""
    return smith_normal_form(m).cokernel()


def kernel_basis(m: IntMatrix) -> Tuple[Vector, ...]:
    """A lattice basis of { v : m @ v == 0 }."""
    return smith_normal_form(m).kernel_basis()


def solve(m: IntMatrix, v: Sequence[int]) -> Optional[Vector]:
    """One integer solution x of m @ x == v, or None if there is none."""
    return smith_normal_form(m).solve(v)

