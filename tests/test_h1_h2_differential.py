"""Differential check of base cohomology: ``h1_h2_base`` reads H^1 from the
diagonals of delta1 and delta2 and H^2 from the cokernel of delta2; the
reference below takes the kernel basis of delta2 and then solves for each
delta1 column in it, with delta2 built from the reference Fox derivatives."""

import random

from bundlesec.extensions import h1_h2_base
from bundlesec.groupring import LinearRep
from bundlesec.words import Presentation, Word, commutator
from bundlesec.zlinalg import IntMatrix, cokernel, kernel_basis, solve
from fox_reference import evaluate_linear, fox_derivative


def _h1_h2_reference(base, module):
    m = module.dim
    eye = IntMatrix.identity(m)
    diffs = [module.matrix(x) - eye for x in base.generators]
    d1_cols = [tuple(c for d in diffs for c in d.column(j)) for j in range(m)]
    d2_rows = []
    for r in base.relators:
        blocks = [evaluate_linear(fox_derivative(r, x), module) for x in base.generators]
        for i in range(m):
            d2_rows.append(tuple(c for blk in blocks for c in blk.data[i]))
    d2 = IntMatrix(m * len(base.relators), m * len(base.generators), tuple(d2_rows))
    kb = kernel_basis(d2)
    kmat = IntMatrix.from_columns(list(kb), rows=d2.cols)
    coeff_cols = [solve(kmat, col) for col in d1_cols]
    assert all(x is not None for x in coeff_cols)
    return cokernel(IntMatrix.from_columns(coeff_cols, rows=len(kb))), cokernel(d2)


def _surface(genus):
    gens = [f"{s}{i}" for i in range(1, genus + 1) for s in "ab"]
    rel = Word.identity()
    for i in range(genus):
        rel = rel * commutator(Word.gen(gens[2 * i]), Word.gen(gens[2 * i + 1]))
    return Presentation(tuple(gens), (rel,))


def _elementary_product(rng, n, steps):
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            q = rng.choice((-1, 1))
            rows[i] = [a + q * b for a, b in zip(rows[i], rows[j])]
        else:
            rows[i] = [-a for a in rows[i]]
    return IntMatrix.from_rows(rows)


def _block(top, n):
    """top (k x k) in the upper-left corner of the n x n identity."""
    k = top.rows
    return IntMatrix.from_rows(
        [[top.data[i][j] if i < k and j < k else int(i == j) for j in range(n)]
         for i in range(n)])


def _power(mat, e):
    out = IntMatrix.identity(mat.rows)
    step = mat if e >= 0 else mat.inverse_unimodular()
    for _ in range(abs(e)):
        out = out @ step
    return out


def _action(rng, kind, n):
    if kind == "finite":
        perm = list(range(n))
        rng.shuffle(perm)
        signed = IntMatrix.from_rows(
            [[rng.choice((-1, 1)) if j == perm[i] else 0 for j in range(n)] for i in range(n)])
        if n >= 2 and rng.random() < 0.5:
            return _block(IntMatrix.from_rows([[0, -1], [1, 1]]), n) @ signed  # order 6 block
        return signed
    if kind == "unipotent":
        return IntMatrix.from_rows(
            [[int(i == j) if j <= i else rng.randint(-2, 2) for j in range(n)] for i in range(n)])
    # hyperbolic: a rank-2 Anosov block, or -1 for a rank-1 fibre
    if n == 1:
        return IntMatrix.from_rows([[-1]])
    return _block(IntMatrix.from_rows([[2, 1], [1, 1]]), n)


def _random_module(rng, base, genus, rank, kind):
    p = _elementary_product(rng, rank, 2 * rank)
    pinv = p.inverse_unimodular()
    mats = {}
    for i in range(genus):
        # a and b of one handle commute, so the relator is killed
        mat = p @ _action(rng, rng.choice((kind, "finite")), rank) @ pinv
        mats[base.generators[2 * i]] = _power(mat, rng.randint(-2, 2))
        mats[base.generators[2 * i + 1]] = _power(mat, rng.randint(-2, 2))
    return LinearRep(mats, rank)


def _assert_matches_reference(base, module):
    h1, h2 = h1_h2_base(base, module)
    ref_h1, ref_h2 = _h1_h2_reference(base, module)
    assert (str(h1), str(h2)) == (str(ref_h1), str(ref_h2))
    assert h1.invariant_factors == ref_h1.invariant_factors
    assert h2.invariant_factors == ref_h2.invariant_factors
    return h1


def test_h1_h2_base_matches_kernel_basis_then_solve():
    rng = random.Random(2013)
    cases = 0
    for genus in (1, 2, 3):
        base = _surface(genus)
        for rank in (1, 2, 3, 4):
            for kind in ("finite", "unipotent", "hyperbolic"):
                for _ in range(3):
                    _assert_matches_reference(base, _random_module(rng, base, genus, rank, kind))
                    cases += 1
    assert cases == 108


def test_h1_h2_base_matches_the_reference_on_large_bases_and_fibres():
    # genus 4-5 with fibre rank 4-8: delta2 is up to 8 x 80, as on the
    # benchmark's `wide` grid
    rng = random.Random(1309)
    torsion = 0
    cases = 0
    for genus in (4, 5):
        base = _surface(genus)
        for rank in (4, 6, 8):
            for kind in ("finite", "unipotent", "hyperbolic"):
                for _ in range(2):
                    h1 = _assert_matches_reference(
                        base, _random_module(rng, base, genus, rank, kind))
                    torsion += bool(h1.torsion)
                    cases += 1
    assert cases == 36
    # the torsion of H^1 is read from the diagonal of delta1
    assert torsion >= 1
