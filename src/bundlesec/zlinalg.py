"""Exact integer linear algebra: Smith normal form, cokernels, lattice membership.

Everything here works over plain Python ints (arbitrary precision), since
intermediate entries in a Smith reduction can grow well past 64 bits.  The
Smith reduction always moves the minimal nonzero |entry| of the trailing
block to the pivot, and on a tie takes the first in row-major order.  That
tie-break fixes the operation log, and with it the canonical coordinates of
every cokernel, so it is part of the contract.  The reduction updates only
the matrix and logs its operations; a column operation touches only the rows
that are nonzero (live) in the pivot column, since it leaves the others
unchanged.  The transforms U and V are replayed from the logs when first
read, and a cokernel reads U only the first time something projects into it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import mul
from typing import Callable, List, Optional, Sequence, Tuple

Vector = Tuple[int, ...]


class InvariantError(AssertionError):
    """An internal consistency check failed: a bug, never a property of the input."""


@dataclass(frozen=True)
class IntMatrix:
    """Immutable dense integer matrix, row-major."""

    rows: int
    cols: int
    data: Tuple[Tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(self.data) != self.rows:
            raise ValueError("row count mismatch")
        for row in self.data:
            if len(row) != self.cols:
                raise ValueError("column count mismatch")

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]]) -> "IntMatrix":
        data = tuple(tuple(int(x) for x in row) for row in rows)
        nrows = len(data)
        ncols = len(data[0]) if data else 0
        return IntMatrix(nrows, ncols, data)

    @staticmethod
    def from_columns(cols: Sequence[Sequence[int]], rows: Optional[int] = None) -> "IntMatrix":
        if cols:
            rows = len(cols[0])
        elif rows is None:
            raise ValueError("need explicit row count for an empty column list")
        data = tuple(tuple(int(col[i]) for col in cols) for i in range(rows))
        return IntMatrix(rows, len(cols), data)

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @staticmethod
    def zeros(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix(rows, cols, tuple(tuple(0 for _ in range(cols)) for _ in range(rows)))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        cols = tuple(zip(*other.data)) if other.rows else ((),) * other.cols
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
        return IntMatrix(self.cols, self.rows,
                         tuple(tuple(self.data[i][j] for i in range(self.rows))
                               for j in range(self.cols)))

    def column(self, j: int) -> Vector:
        return tuple(self.data[i][j] for i in range(self.rows))

    def columns(self) -> Tuple[Vector, ...]:
        return tuple(self.column(j) for j in range(self.cols))

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

    def is_unimodular(self) -> bool:
        return self.rows == self.cols and self.determinant() in (1, -1)

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

    def __str__(self) -> str:
        return "\n".join(" ".join(str(x) for x in row) for row in self.data)


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


@dataclass(frozen=True)
class SmithDecomposition:
    """U @ M @ V == D with U, V unimodular and D diagonal, d1 | d2 | ...

    The elimination reduces M alone and logs its row and column operations.
    U and V are replayed from the logs on an identity the first time each is
    read: a projection into the cokernel reads U, the kernel and solutions of
    M read U and V, and the diagonal reads neither.
    """

    D: IntMatrix
    row_ops: Tuple[Op, ...]
    col_ops: Tuple[Op, ...]

    @cached_property
    def U(self) -> IntMatrix:
        return _replay(self.D.rows, self.row_ops)

    @cached_property
    def V(self) -> IntMatrix:
        # a column operation on V is the same row operation on V^T
        return _replay(self.D.cols, self.col_ops).transpose()

    def diagonal(self) -> Tuple[int, ...]:
        n = min(self.D.rows, self.D.cols)
        return tuple(self.D.data[i][i] for i in range(n))

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal() if d != 0)

    def left_apply(self, rows: Sequence[Sequence[int]]) -> List[List[int]]:
        """The rows of U @ X, for X given by its rows, from the row log: U is
        not built."""
        return _apply_ops(self.row_ops, [list(row) for row in rows])

    def kernel_basis(self) -> Tuple[Vector, ...]:
        """A lattice basis of { v : M @ v == 0 }: the columns of V where D e_j == 0."""
        return tuple(self.V.column(j) for j in range(self.rank, self.D.cols))

    def cokernel(self) -> "AbelianGroup":
        """The quotient Z^rows / im(M); its canonical projection, the rows of U
        at the pivots >= 2 and then at the free rows, is built when first read."""
        diag = self.diagonal()
        torsion_rows = [i for i, d in enumerate(diag) if d >= 2]
        free_rows = [i for i, d in enumerate(diag) if d == 0] + list(range(len(diag), self.D.rows))
        factors = tuple(diag[i] for i in torsion_rows) + tuple(0 for _ in free_rows)
        kept = torsion_rows + free_rows
        return AbelianGroup(factors, lambda: IntMatrix(
            len(kept), self.D.rows, tuple(self.U.data[i] for i in kept)))

    def solve(self, v: Sequence[int]) -> Optional[Vector]:
        """One integer solution x of M @ x == v, or None if there is none."""
        if len(v) != self.D.rows:
            raise ValueError("dimension mismatch")
        w = self.U.apply(v)
        diag = self.diagonal()
        y = [0] * self.D.cols
        for i, wi in enumerate(w):
            d = diag[i] if i < len(diag) else 0
            if d == 0:
                if wi != 0:
                    return None
            else:
                if wi % d != 0:
                    return None
                y[i] = wi // d
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


@dataclass(frozen=True)
class AbelianGroup:
    """Finitely generated abelian group in invariant-factor form.

    ``invariant_factors`` lists torsion factors (each >= 2, divisibility chain)
    followed by zeros, one per infinite cyclic factor.  ``projection`` maps an
    ambient vector to canonical coordinates; coordinate i is taken mod the
    i-th factor when that factor is nonzero.  It is built by
    ``make_projection`` the first time it is read, so a group that nothing
    projects into costs no transform.  Without ``make_projection`` the ambient
    lattice is Z^(factor count), and the projection is the identity.
    """

    invariant_factors: Tuple[int, ...]
    make_projection: Optional[Callable[[], IntMatrix]] = field(
        default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        fs = self.invariant_factors
        for f in fs:
            if f < 0 or f == 1:
                raise ValueError(f"invalid invariant factor {f}")
        for x, y in zip(fs, fs[1:]):
            if x == 0 and y != 0:
                raise ValueError("free factors must come last")
            if x != 0 and y != 0 and y % x != 0:
                raise ValueError("divisibility chain violated")

    @cached_property
    def projection(self) -> IntMatrix:
        if self.make_projection is None:
            return IntMatrix.identity(len(self.invariant_factors))
        projection = self.make_projection()
        if projection.rows != len(self.invariant_factors):
            raise ValueError("projection row count must equal factor count")
        return projection

    @property
    def rank(self) -> int:
        return sum(1 for f in self.invariant_factors if f == 0)

    @property
    def torsion(self) -> Tuple[int, ...]:
        return tuple(f for f in self.invariant_factors if f != 0)

    def project(self, v: Sequence[int]) -> Vector:
        raw = self.projection.apply(v)
        return tuple(x % f if f else x for x, f in zip(raw, self.invariant_factors))

    def __str__(self) -> str:
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        parts.extend(f"Z/{f}" for f in self.torsion)
        return " + ".join(parts) if parts else "0"


def cokernel(m: IntMatrix) -> AbelianGroup:
    """The quotient Z^rows / im(m), with its canonical projection."""
    return smith_normal_form(m).cokernel()


def kernel_basis(m: IntMatrix) -> Tuple[Vector, ...]:
    """A lattice basis of { v : m @ v == 0 }."""
    return smith_normal_form(m).kernel_basis()


def solve(m: IntMatrix, v: Sequence[int]) -> Optional[Vector]:
    """One integer solution x of m @ x == v, or None if there is none."""
    return smith_normal_form(m).solve(v)


def invariant_factors_by_minors(m: IntMatrix) -> Tuple[int, ...]:
    """Invariant factors via gcds of k x k minors; an independent cross-check.

    Only usable for small matrices (exponential in the dimensions).
    """
    from itertools import combinations
    from math import gcd

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
