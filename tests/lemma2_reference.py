"""Reference lemma 2 for the differential tests.

``lemma2_check`` below is the abelianization test as it stood before it was
read through one Smith form of the action block: it takes the cokernel of the
whole (n + m) x (m|X| + R) matrix, once with the offsets and once without.
``cyclic_sum`` builds the expected group of the word-level reference as the
sum of the fibre coinvariants and the base abelianization, and
``coinvariants`` the first summand; ``coinvariants_smith`` is the Smith form
whose cokernel it is, which gives the coordinates of a fibre vector there.
"""

from __future__ import annotations

from typing import Sequence

from bundlesec.extensions import Lemma2Report
from bundlesec.groupring import LinearRep
from bundlesec.words import Presentation
from bundlesec.zlinalg import (AbelianGroup, IntMatrix, SmithDecomposition, Vector, cokernel,
                               smith_normal_form)
from smith_reference import from_columns, minus_identity


def coinvariants(rank: int, mats: Sequence[IntMatrix]) -> AbelianGroup:
    """Largest quotient of Z^rank on which all the matrices act trivially:
    Z^rank modulo the columns of every theta(x) - I, in the given order."""
    return coinvariants_smith(rank, mats).cokernel()


def coinvariants_smith(rank: int, mats: Sequence[IntMatrix]) -> SmithDecomposition:
    """The Smith form of [theta(x) - I]_x, in the given order: its cokernel
    is ``coinvariants(rank, mats)``, and ``project`` gives coordinates there."""
    for m in mats:
        if m.rows != rank or m.cols != rank:
            raise ValueError("matrix size does not match the fibre rank")
    return smith_normal_form(from_columns(
        [col for m in mats for col in minus_identity(m).columns()], rows=rank))


def lemma2_check(base: Presentation, action: LinearRep,
                 offsets: Sequence[Vector]) -> Lemma2Report:
    """Abelianization splitting test (lemma 2): if the extension
    pi = (Z^m x|_theta F(X)) / << r . offset_r^-1 >> splits, then pi is the
    semidirect product Z^m x|_theta B, whose abelianization is
    (fibre coinvariants) + B^ab.

    pi^ab is the cokernel of one integer matrix whose rows are the base
    generators, then the m fibre coordinates: a column (0, column j of
    theta(x) - I) for each x and j, and a column (exponent sums of r,
    -offset_r) for each relator r.  The fibre commutators contribute nothing.
    The expected group is the cokernel of the same columns with the offsets
    set to zero, the abelianization of the split twin: that matrix is
    block-diagonal, diag(exponent sums, [theta(x) - I]_x), so its cokernel is
    B^ab + (fibre coinvariants).
    """
    m = action.dim
    n = len(base.generators)
    pad = (0,) * n
    action_cols = [pad + col for x in base.generators
                   for col in minus_identity(action.matrix(x)).columns()]
    sums = base.exponent_matrix().columns()

    def pi_ab(offs: Sequence[Vector]) -> AbelianGroup:
        offset_cols = [s + tuple(-c for c in off) for s, off in zip(sums, offs, strict=True)]
        return cokernel(from_columns(action_cols + offset_cols, rows=n + m))

    group_ab = pi_ab(offsets)
    expected = pi_ab([(0,) * m] * len(sums))
    return Lemma2Report(group_ab.invariant_factors == expected.invariant_factors,
                        group_ab, expected)


def cyclic_sum(factors: Sequence[int]) -> AbelianGroup:
    """The sum of the cyclic groups Z/f (Z for f == 0), in canonical form:
    Z^n modulo the vectors f e_i, one for each nonzero factor."""
    n = len(factors)
    cols = [tuple(f if i == j else 0 for i in range(n)) for j, f in enumerate(factors) if f]
    return cokernel(from_columns(cols, rows=n))
