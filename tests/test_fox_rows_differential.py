"""Differential check of the Fox pass that s(r), J_w and delta2 read: the
rows of ``extensions.BaseComplex``, whose pass runs on flat integer tuples,
against the formal derivatives of ``fox_reference`` evaluated term by term,
and s(r) against the letter-by-letter affine fold.

Bases have one to three relators over three generators, with letters of both
signs; the modules are GL(m, Z) actions of rank 1 to 10, on both sides of
KERNEL_MAX_RANK, and the 1 x 1 centre modules of Klein-bottle fibres.  The
generated product of each rank up to KERNEL_MAX_RANK is also checked alone
against the generic product, on seeded entries of up to 1,024 bits: the two
agree on every product under the entry cap, and both raise above it.

Long relators, on both sides of each fold of the pass's term lists, are
checked against the reference's linear-time fold with matrix translations,
``fox_block_row``: their actions are signed diagonals times unitriangular
matrices, which generate a group of polynomial growth, so the entries of a
10,000-letter relator stay far under the cap."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from bundlesec.extensions import (
    KERNEL_MAX_RANK,
    MAX_ENTRY_BITS,
    BaseComplex,
    KbBundleSpec,
    TorusBundleSpec,
    _OverCap,
    _generic_product,
    _product_kernel,
    s_of_r,
)
from bundlesec.groupring import KB_AUT_NAMES, KbElement, LinearRep
from bundlesec.words import Presentation, Word
from bundlesec.zlinalg import IntMatrix
from fox_reference import (
    affine_multiply,
    evaluate_affine,
    evaluate_linear,
    fox_block_row,
    fox_derivative,
    linear_value,
)
from test_groupring import reduced_word, unimodular

GENS = ("x", "y", "z")

relators = st.lists(st.tuples(st.sampled_from(GENS), st.sampled_from((1, -1))),
                    max_size=16).map(Word)
bases = st.lists(relators, min_size=1, max_size=3).map(
    lambda rels: Presentation(GENS, tuple(rels)))
ranks = st.integers(min_value=1, max_value=10)


def _actions(m):
    return st.fixed_dictionaries({g: unimodular(m) for g in GENS})


def _vectors(m):
    return st.tuples(*[st.integers(min_value=-3, max_value=3)] * m)


def _assert_rows_match_the_reference(base, module):
    rows = BaseComplex(base, module).fox_rows
    assert len(rows) == len(base.relators)
    for r, (value, block_row) in zip(base.relators, rows):
        assert value == linear_value(r, module)
        # the reference blocks laid side by side
        blocks = [evaluate_linear(fox_derivative(r, x), module) for x in GENS]
        assert block_row == IntMatrix.from_rows(
            [sum((blk.data[i] for blk in blocks), ()) for i in range(module.dim)])


@settings(max_examples=150, derandomize=True, deadline=None)
@given(bases, ranks.flatmap(_actions))
def test_fox_rows_match_the_formal_derivatives(base, action):
    _assert_rows_match_the_reference(base, LinearRep(action, next(iter(action.values())).rows))


kb_auts = st.sampled_from(sorted(KB_AUT_NAMES)).map(KB_AUT_NAMES.__getitem__)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(bases, st.fixed_dictionaries({g: kb_auts for g in GENS}))
def test_fox_rows_of_a_klein_bottle_centre_match_the_formal_derivatives(base, auts):
    spec = KbBundleSpec(base, {g: (aut, KbElement.identity()) for g, aut in auts.items()})
    assert spec.coefficients.dim == 1
    _assert_rows_match_the_reference(base, spec.coefficients)
    assert spec.complex.fox_rows == BaseComplex(base, spec.coefficients).fox_rows


def _lifts(m):
    # an action, a translation per generator and an offset for each of up
    # to three relators
    return st.tuples(_actions(m), st.lists(_vectors(m), min_size=6, max_size=6))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(bases, ranks.flatmap(_lifts))
def test_s_of_r_matches_the_affine_fold(base, lifts):
    action, vectors = lifts
    m = len(vectors[0])
    rep = LinearRep(action, m)
    translations = dict(zip(GENS, vectors))
    offsets = tuple(vectors[3:3 + len(base.relators)])
    # the action need not kill the relators
    spec = TorusBundleSpec(base, rep, translations, offsets)
    eye = IntMatrix.identity(m)
    for i, (r, offset) in enumerate(zip(base.relators, offsets)):
        assert s_of_r(spec, i) == affine_multiply(evaluate_affine(r, rep, translations),
                                                  (eye, offset))


def _rows(flat, m):
    return [flat[k:k + m] for k in range(0, m * m, m)]


@pytest.mark.parametrize("m", range(1, KERNEL_MAX_RANK + 1))
def test_the_generated_product_equals_the_generic_product(m):
    rng = random.Random(m)
    big = 2 ** 1023
    kernel = _product_kernel(m)
    assert kernel.__code__.co_filename == f"<fox product m={m}>"
    outcomes = set()
    # entries of 1,000 bits keep every product under the cap at every rank
    for p_bound, bound in ((big, 1), (big, 5), (big, big), (2 ** 1000, 5)):
        for _ in range(20):
            p = tuple(rng.randint(-p_bound, p_bound) for _ in range(m * m))
            q = tuple(rng.randint(-bound, bound) for _ in range(m * m))
            product = IntMatrix.from_rows(_rows(p, m)) @ IntMatrix.from_rows(_rows(q, m))
            flat = sum(product.data, ())
            over = max(map(abs, flat)).bit_length() > MAX_ENTRY_BITS
            outcomes.add(over)
            if over:
                # both refuse an entry of more than MAX_ENTRY_BITS bits
                for multiply in (kernel, _generic_product):
                    with pytest.raises(_OverCap):
                        multiply(p, q)
            else:
                assert kernel(p, q) == _generic_product(p, q) == flat
    assert outcomes == {False, True}


@pytest.mark.parametrize("m", [0, KERNEL_MAX_RANK + 1])
def test_no_product_is_generated_outside_ranks_1_to_the_bound(m):
    with pytest.raises(ValueError, match=f"rank {m}"):
        _product_kernel(m)


def _triangular_action(rng, m):
    """A signed diagonal times an upper unitriangular matrix, entries in -2..2,
    for each generator."""
    action = {}
    for g in GENS:
        signs = [rng.choice((1, -1)) for _ in range(m)]
        action[g] = IntMatrix.from_rows(
            [[signs[i] * (1 if i == j else rng.randint(-2, 2) if j > i else 0)
              for j in range(m)] for i in range(m)])
    return LinearRep(action, m)


@pytest.mark.parametrize("letters, m", [(n, m) for m in (2, 3)
                                        for n in (255, 256, 257, 1000, 10_000)] + [(1000, 9)])
def test_fox_rows_of_long_relators_match_the_matrix_translation_fold(letters, m):
    rng = random.Random(f"{letters}:{m}")
    module = _triangular_action(rng, m)
    relators = (reduced_word(rng, GENS, letters), reduced_word(rng, GENS[:2], letters))
    rows = BaseComplex(Presentation(GENS, relators), module).fox_rows
    for r, (value, block_row) in zip(relators, rows):
        assert len(r.letters) == letters
        assert (value, block_row) == fox_block_row(r, module, GENS)
