"""Exact integer linear algebra: Smith normal form, cokernels, lattice membership.

Everything here works over plain Python ints (arbitrary precision), since
intermediate entries in a Smith reduction can grow well past 64 bits.  The
pivoting strategy (always move the minimal nonzero entry to the pivot) is
deterministic, which keeps canonical coordinates stable across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

Vector = Tuple[int, ...]


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
        odata = other.data
        out = []
        for row in self.data:
            out.append(tuple(
                sum(row[k] * odata[k][j] for k in range(self.cols))
                for j in range(other.cols)
            ))
        return IntMatrix(self.rows, other.cols, tuple(out))

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
        return tuple(sum(row[j] * v[j] for j in range(self.cols)) for row in self.data)

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


@dataclass(frozen=True)
class SmithDecomposition:
    """U @ M @ V == D with U, V unimodular and D diagonal, d1 | d2 | ...

    Vinv is the inverse of V.  Kernel, cokernel and solutions of M are all
    read from one decomposition.
    """

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix
    Vinv: IntMatrix

    def diagonal(self) -> Tuple[int, ...]:
        n = min(self.D.rows, self.D.cols)
        return tuple(self.D.data[i][i] for i in range(n))

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal() if d != 0)

    def free_columns(self) -> Tuple[int, ...]:
        """The j with D e_j == 0; the columns of V there span the kernel of M."""
        diag = self.diagonal()
        return (tuple(j for j, d in enumerate(diag) if d == 0)
                + tuple(range(len(diag), self.D.cols)))

    def kernel_basis(self) -> Tuple[Vector, ...]:
        """A lattice basis of { v : M @ v == 0 }."""
        return tuple(self.V.column(j) for j in self.free_columns())

    def kernel_coordinates(self, v: Sequence[int]) -> Optional[Vector]:
        """Coordinates of v in ``kernel_basis()``, or None if M @ v != 0.

        y = Vinv @ v satisfies D @ y == U @ M @ v, so M @ v == 0 exactly when
        y vanishes at every nonzero pivot; then v is the sum of y_j V e_j over
        the free columns j.
        """
        y = self.Vinv.apply(v)
        if any(y[j] != 0 for j, d in enumerate(self.diagonal()) if d != 0):
            return None
        return tuple(y[j] for j in self.free_columns())

    def cokernel(self) -> "AbelianGroup":
        """The quotient Z^rows / im(M), with its canonical projection."""
        diag = self.diagonal()
        torsion_rows = [i for i, d in enumerate(diag) if d >= 2]
        free_rows = [i for i, d in enumerate(diag) if d == 0] + list(range(len(diag), self.D.rows))
        factors = tuple(diag[i] for i in torsion_rows) + tuple(0 for _ in free_rows)
        proj_rows = tuple(self.U.data[i] for i in torsion_rows + free_rows)
        return AbelianGroup(factors, IntMatrix(len(factors), self.D.rows, proj_rows))

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
    """Diagonalize by row/column operations, pivoting on the minimal nonzero entry."""
    r, c = m.rows, m.cols
    a = [list(row) for row in m.data]
    u = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    v = [[1 if i == j else 0 for j in range(c)] for i in range(c)]
    # V's inverse: each column operation on v is undone by a row operation here
    vinv = [[1 if i == j else 0 for j in range(c)] for i in range(c)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]
        vinv[i], vinv[j] = vinv[j], vinv[i]

    def addmul_row(dst, src, q):
        # row[dst] += q * row[src]
        arow, srow = a[dst], a[src]
        for k in range(c):
            arow[k] += q * srow[k]
        urow, usrc = u[dst], u[src]
        for k in range(r):
            urow[k] += q * usrc[k]

    def addmul_col(dst, src, q):
        # col[dst] += q * col[src]; its inverse is row[src] -= q * row[dst]
        for row in a:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]
        isrc, idst = vinv[src], vinv[dst]
        for k in range(c):
            isrc[k] -= q * idst[k]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    limit = min(r, c)
    while t < limit:
        # locate the minimal nonzero entry in the trailing submatrix
        pivot = None
        best = None
        for i in range(t, r):
            for j in range(t, c):
                x = a[i][j]
                if x != 0 and (best is None or abs(x) < best):
                    best = abs(x)
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        if a[t][t] < 0:
            negate_row(t)

        dirty = False
        for i in range(t + 1, r):
            if a[i][t] != 0:
                q = a[i][t] // a[t][t]
                addmul_row(i, t, -q)
                if a[i][t] != 0:
                    dirty = True
        for j in range(t + 1, c):
            if a[t][j] != 0:
                q = a[t][j] // a[t][t]
                addmul_col(j, t, -q)
                if a[t][j] != 0:
                    dirty = True
        if dirty:
            continue  # pivot strictly shrank; re-select

        # pivot must divide the whole trailing block for the chain to hold
        offender = None
        for i in range(t + 1, r):
            for j in range(t + 1, c):
                if a[i][j] % a[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            addmul_row(t, offender, 1)
            continue
        t += 1

    def frozen(rows, ncols):
        return IntMatrix(len(rows), ncols, tuple(tuple(row) for row in rows))

    return SmithDecomposition(frozen(u, r), frozen(a, c), frozen(v, c), frozen(vinv, c))


@dataclass(frozen=True)
class AbelianGroup:
    """Finitely generated abelian group in invariant-factor form.

    ``invariant_factors`` lists torsion factors (each >= 2, divisibility chain)
    followed by zeros, one per infinite cyclic factor.  ``projection`` maps an
    ambient vector to canonical coordinates; coordinate i is taken mod the
    i-th factor when that factor is nonzero.
    """

    invariant_factors: Tuple[int, ...]
    projection: IntMatrix

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
        if self.projection.rows != len(fs):
            raise ValueError("projection row count must equal factor count")

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


def direct_sum(a: AbelianGroup, b: AbelianGroup) -> AbelianGroup:
    """Canonical invariant factors of a (+) b."""
    fs = list(a.invariant_factors) + list(b.invariant_factors)
    n = len(fs)
    diag = IntMatrix(n, n, tuple(tuple(fs[i] if i == j else 0 for j in range(n)) for i in range(n)))
    return cokernel(diag)


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
