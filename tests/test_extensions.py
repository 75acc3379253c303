"""Obstruction classes, the abelianization test, and base cohomology."""

import pytest
from hypothesis import given, settings, strategies as st

from bundlesec.extensions import (
    KbBundleSpec,
    MalformedSpec,
    TorusBundleSpec,
    VERDICT_ACTION_DOES_NOT_LIFT,
    VERDICT_NO_SECTION,
    VERDICT_NO_SPLITTING,
    VERDICT_SPLITS,
    coinvariants,
    h1_h2_base,
    jw_submodule,
    lemma2_check,
    obstruction_class,
    s_of_r,
    semidirect_presentation,
)
from bundlesec.groupring import (
    KB_ALPHA,
    KB_CONJ_X,
    KB_CONJ_Y,
    KB_GAMMA,
    AffineRep,
    KbAut,
    KbElement,
    LinearRep,
    kb_conjugation,
    kb_inverse,
    kb_multiply,
)
from bundlesec.words import Word, abelianization, parse_presentation
from bundlesec.zlinalg import IntMatrix

TORUS = parse_presentation("< u, v | [u,v] >")
I2 = IntMatrix.identity(2)


def _torus_spec(mat_u, mat_v, c_u=(0, 0), c_v=(0, 0), offset=(0, 0)):
    rep = AffineRep({"u": (mat_u, tuple(c_u)), "v": (mat_v, tuple(c_v))}, 2)
    return TorusBundleSpec(TORUS, 2, rep, (tuple(offset),))


def _kb_spec(aut_u, aut_v, k_u=KbElement.identity(), k_v=KbElement.identity(),
             offset=KbElement.identity()):
    return KbBundleSpec(TORUS, {"u": (aut_u, k_u), "v": (aut_v, k_v)}, (offset,))


# --- worked torus examples -------------------------------------------------------


def test_product_bundle_splits():
    report = obstruction_class(_torus_spec(I2, I2))
    assert report.verdict == VERDICT_SPLITS
    assert report.lifted
    assert report.s_of_r == ((0, 0),)


def test_heisenberg_has_no_section():
    report = obstruction_class(_torus_spec(I2, I2, offset=(1, 0)))
    assert report.verdict == VERDICT_NO_SECTION
    assert report.s_of_r == ((1, 0),)
    # trivial action: J_w is zero and the quotient is all of Z^2
    assert report.quotient.invariant_factors == (0, 0)
    assert report.class_coordinates == ((1, 0),)


def test_action_that_does_not_lift():
    shear = IntMatrix.from_rows([[1, 1], [0, 1]])
    flip = IntMatrix.from_rows([[0, 1], [1, 0]])
    report = obstruction_class(_torus_spec(shear, flip))
    assert not report.lifted
    assert report.verdict == VERDICT_ACTION_DOES_NOT_LIFT


def test_rank_one_fibre_reports_no_splitting():
    rep = AffineRep({"u": (IntMatrix.identity(1), (0,)),
                     "v": (IntMatrix.identity(1), (0,))}, 1)
    spec = TorusBundleSpec(TORUS, 1, rep, ((1,),))
    report = obstruction_class(spec)
    # a rank-1 fibre is no surface, so only the group-level verdict is made
    assert report.verdict == VERDICT_NO_SPLITTING


def test_jw_submodule_for_shear_action():
    shear = IntMatrix.from_rows([[1, 1], [0, 1]])
    spec = _torus_spec(shear, I2)
    gens = set(jw_submodule(spec))
    # d[u,v]/du = 1 - uvu^-1 -> I - theta(v) = 0; d[u,v]/dv -> theta(u) - I,
    # which sends e2 to e1
    assert gens == {(0, 0), (1, 0)}


def test_s_of_r_includes_the_offset():
    spec = _torus_spec(I2, I2, c_u=(2, 3), c_v=(-1, 4), offset=(1, 0))
    m, t = s_of_r(spec, 0)
    assert m.is_identity()
    # translations commute under a trivial action, so only the offset remains
    assert t == (1, 0)


def _count_letter_walks(monkeypatch):
    """Count calls of the word fold and the Fox pass, wherever they are bound."""
    import sys
    from bundlesec import groupring
    calls = {"evaluate_word": 0, "fox_jacobian": 0}
    for name in calls:
        original = getattr(groupring, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("bundlesec") and getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)
    return calls


def test_split_check_walks_each_relator_once(monkeypatch, tmp_path):
    import io
    from contextlib import redirect_stdout
    from bundlesec import cli
    path = tmp_path / "two_relators.bundle"
    path.write_text("[base]\n< u, v | [u,v], [u,v] u v u^-1 v^-1 >\n[fibre]\ntorus 2\n"
                    "[action]\nu = 1 1 ; 0 1\nv = 1 0 ; 0 1\n"
                    "[cocycle]\nu = 1 2\noffset 1 = 1 0\n")
    calls = _count_letter_walks(monkeypatch)
    with redirect_stdout(io.StringIO()):
        assert cli.main(["--json", "split-check", str(path)]) == 0
    # s(r), J_w and theta(r) all come from one Fox pass per relator
    assert calls == {"evaluate_word": 0, "fox_jacobian": 2}


# --- worked Klein-bottle examples ---------------------------------------------


def test_flat_example_quotient_and_class():
    report = obstruction_class(_kb_spec(KbAut.identity(), KB_ALPHA,
                                        offset=KbElement(2, 0)))
    assert report.verdict == VERDICT_NO_SECTION
    assert str(report.quotient) == "Z/2"
    assert report.class_coordinates == ((1,),)


def test_flat_example_with_trivial_offset_splits():
    report = obstruction_class(_kb_spec(KbAut.identity(), KB_ALPHA))
    assert report.verdict == VERDICT_SPLITS


def test_nil_times_circle_example():
    report = obstruction_class(_kb_spec(KbAut.identity(), KbAut.identity(),
                                        offset=KbElement(2, 0)))
    assert report.verdict == VERDICT_NO_SECTION
    assert str(report.quotient) == "Z"
    assert report.class_coordinates == ((1,),)


def test_kb_action_that_does_not_lift():
    report = obstruction_class(_kb_spec(KB_CONJ_X, KB_GAMMA))
    assert not report.lifted
    assert report.verdict == VERDICT_ACTION_DOES_NOT_LIFT


def test_kb_noncentral_relator_value_does_not_lift():
    report = obstruction_class(_kb_spec(KbAut.identity(), KbAut.identity(),
                                        offset=KbElement(0, 1)))
    assert not report.lifted


kb_small = st.builds(KbElement, st.integers(min_value=-3, max_value=3),
                     st.integers(min_value=-3, max_value=3))
kb_auts = st.sampled_from([KbAut.identity(), KB_ALPHA, KB_GAMMA, KB_CONJ_X, KB_CONJ_Y,
                           kb_conjugation(KbElement(1, 2)), KB_ALPHA.compose(KB_GAMMA)])
uv_words = st.lists(st.tuples(st.sampled_from("uv"), st.sampled_from((1, -1))),
                    max_size=16).map(Word.make)


@settings(max_examples=200, derandomize=True)
@given(uv_words, kb_auts, kb_auts, kb_small, kb_small)
def test_kb_evaluation_matches_a_letter_by_letter_product(w, aut_u, aut_v, k_u, k_v):
    spec = _kb_spec(aut_u, aut_v, k_u, k_v)
    elem, aut = KbElement.identity(), KbAut.identity()
    for g, s in w.letters:
        a, k = spec.action_cocycle[g]
        if s == -1:
            a = a.inverse()
            k = kb_inverse(a.apply(k))
        elem = kb_multiply(elem, aut.apply(k))
        aut = aut.compose(a)
    assert spec.evaluate(w) == (elem, aut)


# --- coinvariants and the abelianization test ------------------------------------


def test_coinvariants_examples():
    assert coinvariants(2, [I2]).invariant_factors == (0, 0)
    minus = IntMatrix.from_rows([[-1, 0], [0, -1]])
    assert coinvariants(2, [minus]).invariant_factors == (2, 2)
    flip = IntMatrix.from_rows([[0, 1], [1, 0]])
    assert str(coinvariants(2, [flip])) == "Z"


def test_lemma2_detects_the_nil_example():
    pi = parse_presentation(
        "< u, v, x, y | comm(u v ; x y), [u,v] x^-2, x y x^-1 y >")
    action = LinearRep({"u": I2, "v": I2}, 2)
    report = lemma2_check(pi, ("x", "y"), TORUS, action)
    assert not report.is_isomorphic
    assert str(report.group_ab) == "Z^2 + Z/2 + Z/2"
    assert str(report.expected) == "Z^3 + Z/2"


def test_lemma2_passes_on_the_product():
    pi = semidirect_presentation(TORUS, LinearRep({"u": I2, "v": I2}, 2))
    action = LinearRep({"u": I2, "v": I2}, 2)
    report = lemma2_check(pi, ("f0", "f1"), TORUS, action)
    assert report.is_isomorphic
    assert str(report.group_ab) == "Z^4"


def test_lemma2_detects_heisenberg():
    pi = semidirect_presentation(TORUS, LinearRep({"u": I2, "v": I2}, 2),
                                 offsets=[(1, 0)])
    action = LinearRep({"u": I2, "v": I2}, 2)
    report = lemma2_check(pi, ("f0", "f1"), TORUS, action)
    assert not report.is_isomorphic
    assert str(report.group_ab) == "Z^3"


# --- base cohomology --------------------------------------------------------------


def test_cohomology_trivial_coefficients():
    module = LinearRep({"u": IntMatrix.identity(1), "v": IntMatrix.identity(1)}, 1)
    h1, h2 = h1_h2_base(TORUS, module)
    assert str(h1) == "Z^2"
    assert str(h2) == "Z"


def test_cohomology_flat_coefficients():
    module = LinearRep({"u": IntMatrix.identity(1),
                        "v": IntMatrix.from_rows([[-1]])}, 1)
    h1, h2 = h1_h2_base(TORUS, module)
    assert str(h2) == "Z/2"


def test_cohomology_rejects_modules_that_miss_the_relator():
    shear = IntMatrix.from_rows([[1, 1], [0, 1]])
    flip = IntMatrix.from_rows([[0, 1], [1, 0]])
    module = LinearRep({"u": shear, "v": flip}, 2)
    with pytest.raises(ValueError):
        h1_h2_base(TORUS, module)


# --- randomized properties ---------------------------------------------------------

entries = st.integers(min_value=-3, max_value=3)


@st.composite
def commuting_pairs(draw):
    """Two commuting GL(2, Z) matrices with entries bounded by 3."""
    rows = draw(st.lists(st.lists(entries, min_size=2, max_size=2),
                         min_size=2, max_size=2))
    a = IntMatrix.from_rows(rows)
    if a.determinant() not in (1, -1):
        a = I2
    pool = [I2, -a @ I2, a, a.inverse_unimodular()]
    b = draw(st.sampled_from(pool))
    return a, b


vectors = st.tuples(st.integers(min_value=-4, max_value=4),
                    st.integers(min_value=-4, max_value=4))


@settings(max_examples=200, derandomize=True)
@given(commuting_pairs(), vectors, vectors, vectors, vectors)
def test_class_is_invariant_under_lift_perturbation(pair, c_u, c_v, d_u, d_v):
    a, b = pair
    base = _torus_spec(a, b, c_u, c_v, offset=(1, -2))
    perturbed = _torus_spec(
        a, b,
        tuple(x + y for x, y in zip(c_u, d_u)),
        tuple(x + y for x, y in zip(c_v, d_v)),
        offset=(1, -2))
    r1 = obstruction_class(base)
    r2 = obstruction_class(perturbed)
    assert r1.lifted and r2.lifted
    assert r1.class_coordinates == r2.class_coordinates
    assert r1.verdict == r2.verdict


@settings(max_examples=200, derandomize=True, deadline=None)
@given(commuting_pairs(), vectors, vectors)
def test_semidirect_products_split(pair, c_u, c_v):
    a, b = pair
    spec = _torus_spec(a, b, c_u, c_v)
    report = obstruction_class(spec)
    assert report.verdict == VERDICT_SPLITS

    action = LinearRep({"u": a, "v": b}, 2)
    pi = semidirect_presentation(TORUS, action)
    check = lemma2_check(pi, ("f0", "f1"), TORUS, action)
    assert check.is_isomorphic


# --- spec validation ----------------------------------------------------------------


def test_spec_validation():
    with pytest.raises(MalformedSpec):
        TorusBundleSpec(parse_presentation("< u, v | >"), 2,
                        AffineRep({"u": (I2, (0, 0)), "v": (I2, (0, 0))}, 2))
    with pytest.raises(MalformedSpec):
        _torus_spec(I2, I2, offset=(1,))
    with pytest.raises(MalformedSpec):
        TorusBundleSpec(TORUS, 2, AffineRep({"u": (I2, (0, 0))}, 2))
    with pytest.raises(MalformedSpec):
        KbBundleSpec(TORUS, {"u": (KbAut.identity(), KbElement.identity())})
