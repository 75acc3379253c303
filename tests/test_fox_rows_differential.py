"""Differential check of the Fox pass that s(r), J_w and delta2 read:
``extensions._fox_rows``, which runs on flat integer tuples, against the
formal derivatives of ``fox_reference`` evaluated term by term, and s(r)
against the letter-by-letter affine fold.

Bases have one to three relators over three generators, with letters of both
signs; the modules are GL(m, Z) actions of rank 1 to 4 and the 1 x 1
centre modules of Klein-bottle fibres."""

from hypothesis import given, settings, strategies as st

from bundlesec.extensions import KbBundleSpec, TorusBundleSpec, _fox_rows, s_of_r
from bundlesec.groupring import KB_AUT_NAMES, KbElement, LinearRep
from bundlesec.words import Presentation, Word
from bundlesec.zlinalg import IntMatrix
from fox_reference import (
    affine_multiply,
    evaluate_affine,
    evaluate_linear,
    fox_derivative,
    linear_value,
)
from test_groupring import unimodular

GENS = ("x", "y", "z")

relators = st.lists(st.tuples(st.sampled_from(GENS), st.sampled_from((1, -1))),
                    max_size=16).map(Word)
bases = st.lists(relators, min_size=1, max_size=3).map(
    lambda rels: Presentation(GENS, tuple(rels)))
ranks = st.integers(min_value=1, max_value=4)


def _actions(m):
    return st.fixed_dictionaries({g: unimodular(m) for g in GENS})


def _vectors(m):
    return st.tuples(*[st.integers(min_value=-3, max_value=3)] * m)


def _assert_rows_match_the_reference(base, module):
    rows = _fox_rows(base, module)
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
    assert spec.fox_rows == _fox_rows(base, spec.coefficients)


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
