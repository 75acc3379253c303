"""Differential check of the Smith elimination: ``zlinalg.smith_normal_form``
against the tuple-scan loop kept in ``smith_reference``.  The two must agree
on D and on every logged row and column operation, not only on the invariant
factors, because cokernel coordinates are read from the log.

Inputs are wide (up to 10 x 40) and tall (up to 40 x 10), sparse and dense,
with zeroed rows and columns, many ties in the minimal |entry| (small or
scaled entries), and entries up to 2^70; then the delta1, delta2 and lemma-2
matrices of a genus-12 base with a rank-16 hyperbolic action, together with
the two whole-matrix lemma-2 cokernels of ``lemma2_reference``.

The invariant factors are also checked by a route with no elimination at
all, gcds of minors, on the two matrices the pipeline reduces: delta2 and the
action block [theta(x) - I]_x of seeded small torus specs."""

import random

from hypothesis import given, settings, strategies as st

from bundlesec import extensions, zlinalg
from bundlesec.extensions import h1_h2_base, lemma2_check
from bundlesec.groupring import LinearRep
from bundlesec.words import Presentation, Word
from bundlesec.zlinalg import IntMatrix, smith_normal_form
from lemma2_reference import lemma2_check as reference_lemma2_check
from smith_reference import invariant_factors_by_minors
from smith_reference import smith_normal_form as reference_smith_normal_form
from test_h1_h2_differential import _elementary_product, _random_module, _surface


def _assert_same_elimination(m):
    dec, ref = smith_normal_form(m), reference_smith_normal_form(m)
    assert dec.D == ref.D
    assert dec.row_ops == ref.row_ops
    assert dec.col_ops == ref.col_ops


@st.composite
def matrices(draw):
    max_rows, max_cols = draw(st.sampled_from(((10, 40), (40, 10))))
    r = draw(st.integers(min_value=0, max_value=max_rows))
    c = draw(st.integers(min_value=0, max_value=max_cols))
    # bound 1 makes ties at |entry| 1, a scale of 2 or 6 ties above 1
    bound = draw(st.sampled_from((1, 3, 9, 2**70)))
    scale = draw(st.sampled_from((1, 1, 2, 6)))
    density = draw(st.sampled_from((0.05, 0.3, 1.0)))
    rng = draw(st.randoms(use_true_random=False))
    rows = [[scale * rng.randint(-bound, bound) if rng.random() < density else 0
             for _ in range(c)] for _ in range(r)]
    for i in range(r):
        if rng.random() < 0.1:
            rows[i] = [0] * c
    for j in range(c):
        if rng.random() < 0.1:
            for row in rows:
                row[j] = 0
    return IntMatrix(r, c, tuple(tuple(row) for row in rows))


@settings(max_examples=400, derandomize=True, deadline=None)
@given(matrices())
def test_smith_normal_form_logs_the_reference_operations(m):
    _assert_same_elimination(m)


def test_ties_are_broken_in_row_major_order():
    # the minimal |entry| 2 sits at (0, 2), (0, 3), (1, 0) and (1, 1); (0, 2) wins,
    # being in the first row and, within that row, in the first column
    m = IntMatrix.from_rows([[5, 3, -2, 2], [2, -2, 7, 4], [4, 6, 8, 3]])
    dec = smith_normal_form(m)
    assert dec.col_ops[0] == (0, 2)
    assert dec.row_ops[0] == (0,)  # the pivot -2 is negated, no row swap
    _assert_same_elimination(m)


def test_smith_normal_form_logs_the_reference_operations_at_genus_12_rank_16(monkeypatch):
    base = _surface(12)
    module = _random_module(random.Random(17), base, 12, 16, "hyperbolic")
    seen = []

    def record(m):
        seen.append(m)
        return smith_normal_form(m)

    monkeypatch.setattr(zlinalg, "smith_normal_form", record)
    monkeypatch.setattr(extensions, "smith_normal_form", record)
    offsets = [tuple(range(-8, 8))]
    h1_h2_base(base, module)
    lemma2_check(base, module, offsets)
    reference_lemma2_check(base, module, offsets)
    shapes = [(m.rows, m.cols) for m in seen]
    assert shapes.count((16, 384)) == 2  # delta2, and lemma 2's action block
    assert shapes.count((40, 385)) == 2  # the reference, with and without the offsets
    assert len(shapes) == 7  # delta1 and lemma 2's two small matrices besides
    for m in seen:
        _assert_same_elimination(m)


def _small_torus_specs(rng, count):
    """Torus specs with m|R| <= 4 and m|X| <= 8, where the minors stay few:
    relators of 1-8 random letters, unimodular actions that need not kill them."""
    for _ in range(count):
        m = rng.choice((1, 2, 3, 4))
        gens = tuple(f"g{i}" for i in range(rng.randint(1, 8 // m)))
        relators = tuple(
            Word((rng.choice(gens), rng.choice((1, -1))) for _ in range(rng.randint(1, 8)))
            for _ in range(rng.randint(1, 4 // m)))
        theta = {g: _elementary_product(rng, m, rng.randint(0, 2 * m)) for g in gens}
        yield extensions.TorusBundleSpec(Presentation(gens, relators), LinearRep(theta, m),
                                         {g: (0,) * m for g in gens})


def _pipeline_matrices(spec):
    m, gens = spec.fibre_rank, spec.base.generators
    return (extensions._delta2(spec.fox_rows, m, len(gens)),
            extensions._action_block(m, [spec.coefficients.matrix(g) for g in gens]))


def test_smith_diagonals_of_the_pipeline_match_the_minors_route():
    torsion = 0
    for spec in _small_torus_specs(random.Random(21), 150):
        for mat in _pipeline_matrices(spec):
            assert mat.rows <= 4 and mat.cols <= 8
            diag = tuple(d for d in smith_normal_form(mat).diagonal() if d)
            assert diag == invariant_factors_by_minors(mat)
            torsion += any(d >= 2 for d in diag)
    assert torsion >= 30
