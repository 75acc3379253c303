"""Fox calculus, representation evaluation, and the Klein-bottle model.

The formal Fox calculus and the letter-by-letter affine fold are the
reference routes in ``fox_reference``; the program's own Fox pass, and the
conveniences read from it, are checked against them."""

import pytest
from hypothesis import given, settings, strategies as st

from bundlesec import groupring
from bundlesec.extensions import TorusBundleSpec, s_of_r
from bundlesec.groupring import (
    KB_ALPHA,
    KB_CONJ_X,
    KB_CONJ_Y,
    KB_GAMMA,
    KbAut,
    KbElement,
    LinearRep,
    fox_jacobian,
    kb_inverse,
    kb_multiply,
)
from bundlesec.words import Presentation, Word, commutator
from bundlesec.zlinalg import IntMatrix
from fox_reference import (
    FreeRingElement,
    affine_multiply,
    affine_pair,
    evaluate_affine,
    evaluate_linear,
    fox_derivative,
    fox_identity_residual,
    linear_value,
)

letters = st.lists(
    st.tuples(st.sampled_from("xy"), st.sampled_from((1, -1))), max_size=12)
words = letters.map(Word)


# --- Fox calculus --------------------------------------------------------------


def test_fox_derivative_base_cases():
    x = Word.gen("x")
    assert fox_derivative(x, "x") == FreeRingElement.one()
    assert fox_derivative(x, "y") == FreeRingElement.zero()
    assert fox_derivative(x.inverse(), "x") == FreeRingElement.of(x.inverse(), -1)
    assert fox_derivative(Word.identity(), "x") == FreeRingElement.zero()


def test_fox_derivative_of_commutator():
    r = commutator(Word.gen("x"), Word.gen("y"))
    # d/dx [x,y] = 1 - x y x^-1
    expected = FreeRingElement.one() - FreeRingElement.of(
        Word.gen("x") * Word.gen("y") * Word.gen("x", -1))
    assert fox_derivative(r, "x") == expected


def test_fox_derivative_of_power():
    r = Word.gen("x", 3)
    expected = (FreeRingElement.one()
                + FreeRingElement.of(Word.gen("x"))
                + FreeRingElement.of(Word.gen("x", 2)))
    assert fox_derivative(r, "x") == expected


@settings(max_examples=200, derandomize=True)
@given(words, words)
def test_fox_product_rule(u, v):
    for g in ("x", "y"):
        lhs = fox_derivative(u * v, "x" if g == "x" else "y")
        rhs = fox_derivative(u, g) + FreeRingElement.of(u) * fox_derivative(v, g)
        assert lhs == rhs


@settings(max_examples=200, derandomize=True)
@given(words)
def test_fox_fundamental_identity(w):
    assert fox_identity_residual(w, ("x", "y")) == FreeRingElement.zero()


@settings(max_examples=200, derandomize=True)
@given(words)
def test_fox_augmentation_is_exponent_sum(w):
    from bundlesec.words import exponent_sum
    assert fox_derivative(w, "x").augmentation() == exponent_sum(w, "x")


# --- representations ------------------------------------------------------------


def _heisenberg_rep():
    eye = IntMatrix.identity(2)
    return LinearRep({"u": eye, "v": eye}, 2), {"u": (0, 0), "v": (0, 0)}


def test_affine_evaluation_trivial_action():
    rep, translations = _heisenberg_rep()
    m, t = evaluate_affine(commutator(Word.gen("u"), Word.gen("v")), rep, translations)
    assert m.is_identity()
    assert t == (0, 0)


def test_affine_inverse_pairs():
    shear = IntMatrix.from_rows([[1, 1], [0, 1]])
    rep, translations = LinearRep({"u": shear}, 2), {"u": (3, -2)}
    forward = affine_pair(rep, translations, "u", 1)
    backward = affine_pair(rep, translations, "u", -1)
    m, t = affine_multiply(forward, backward)
    assert m.is_identity() and t == (0, 0)
    m, t = affine_multiply(backward, forward)
    assert m.is_identity() and t == (0, 0)


def test_affine_nonabelian_value():
    # theta(u) = shear: the commutator [u,v] picks up a nonzero translation
    shear = IntMatrix.from_rows([[1, 1], [0, 1]])
    rep = LinearRep({"u": shear, "v": IntMatrix.identity(2)}, 2)
    m, t = evaluate_affine(commutator(Word.gen("u"), Word.gen("v")), rep,
                           {"u": (0, 0), "v": (0, 1)})
    assert m.is_identity()
    assert t == (1, 0)


def test_evaluate_linear_extends_linearly():
    rep = LinearRep({"x": IntMatrix.from_rows([[-1]])}, 1)
    e = FreeRingElement.one() - FreeRingElement.of(Word.gen("x"))
    assert evaluate_linear(e, rep).data == ((2,),)


def test_linear_rep_rejects_singular():
    with pytest.raises(ValueError):
        LinearRep({"x": IntMatrix.from_rows([[2]])}, 1)


# --- differential checks of the one-pass evaluators --------------------------------


@st.composite
def unimodular(draw, m):
    """A product of elementary GL(m, Z) matrices: shears and sign flips."""
    out = IntMatrix.identity(m)
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        i = draw(st.integers(min_value=0, max_value=m - 1))
        j = draw(st.integers(min_value=0, max_value=m - 1))
        rows = [[int(a == b) for b in range(m)] for a in range(m)]
        if i == j:
            rows[i][i] = -1
        else:
            rows[i][j] = draw(st.integers(min_value=-2, max_value=2))
        out = out @ IntMatrix.from_rows(rows)
    return out


@st.composite
def linear_reps(draw):
    m = draw(st.integers(min_value=1, max_value=4))
    return LinearRep({g: draw(unimodular(m)) for g in "xyz"}, m)


@st.composite
def affine_reps(draw):
    """theta and one translation per generator."""
    rep = draw(linear_reps())
    vec = st.tuples(*[st.integers(min_value=-3, max_value=3)] * rep.dim)
    return rep, {g: draw(vec) for g in rep.assignment}


xy_words = st.lists(st.tuples(st.sampled_from("xy"), st.sampled_from((1, -1))),
                    max_size=16).map(Word)


@settings(max_examples=200, derandomize=True)
@given(xy_words, linear_reps())
def test_fox_jacobian_matches_the_reference_derivatives(w, rep):
    value, jac = fox_jacobian(w, "xyz", rep.matrix, IntMatrix.__matmul__,
                              IntMatrix.identity(rep.dim), IntMatrix.zeros(rep.dim, rep.dim))
    assert value == linear_value(w, rep)
    assert set(jac) == {"x", "y", "z"}
    for g in "xyz":
        assert jac[g] == evaluate_linear(fox_derivative(w, g), rep)
    # z never occurs in w
    assert jac["z"] == IntMatrix.zeros(rep.dim, rep.dim)


@settings(max_examples=200, derandomize=True)
@given(xy_words, linear_reps())
def test_formal_fox_derivative_from_the_pass_matches_the_reference(w, rep):
    for g in "xyz":
        d = groupring.fox_derivative(w, g)
        assert d == fox_derivative(w, g).terms
        assert groupring.evaluate_linear(d, rep) == evaluate_linear(fox_derivative(w, g), rep)


@settings(max_examples=200, derandomize=True)
@given(xy_words, affine_reps())
def test_evaluate_affine_matches_a_letter_by_letter_product(w, lifts):
    rep, translations = lifts
    assert groupring.evaluate_affine(w, rep, translations) == evaluate_affine(w, rep, translations)
    assert rep.evaluate_word(w) == linear_value(w, rep)


@settings(max_examples=200, derandomize=True)
@given(xy_words, xy_words, affine_reps(), st.data())
def test_affine_value_from_the_fox_pass_matches_a_letter_by_letter_product(r1, r2, lifts, data):
    # s(r) = (theta(r), sum_x theta(d r / d x) t_x + theta(r) offset) from the
    # Fox pass; the actions need not lift, and the offsets need not be zero
    rep, translations = lifts
    vec = st.tuples(*[st.integers(min_value=-3, max_value=3)] * rep.dim)
    offsets = (data.draw(vec), data.draw(vec))
    spec = TorusBundleSpec(Presentation(("x", "y", "z"), (r1, r2)), rep, translations, offsets)
    eye = IntMatrix.identity(rep.dim)
    for i, (r, offset) in enumerate(zip((r1, r2), offsets)):
        assert s_of_r(spec, i) == affine_multiply(evaluate_affine(r, rep, translations),
                                                  (eye, offset))


def test_fox_jacobian_in_the_integers():
    # x, y -> -1: d(x^3 y^-1)/dx = 1 + x + x^2 -> 1, d/dy = -x^3 y^-1 -> -1
    value, jac = fox_jacobian(Word.gen("x", 3) * Word.gen("y", -1), "xyz",
                              lambda g, s: -1, int.__mul__, 1, 0)
    assert (value, jac) == (1, {"x": 1, "y": -1, "z": 0})


# --- Klein-bottle model ----------------------------------------------------------


kb_elements = st.builds(KbElement,
                        st.integers(min_value=-6, max_value=6),
                        st.integers(min_value=-6, max_value=6))


@settings(max_examples=200, derandomize=True)
@given(kb_elements, kb_elements, kb_elements)
def test_kb_group_laws(p, q, r):
    assert kb_multiply(kb_multiply(p, q), r) == kb_multiply(p, kb_multiply(q, r))
    assert kb_multiply(p, kb_inverse(p)) == KbElement.identity()
    assert kb_multiply(kb_inverse(p), p) == KbElement.identity()


def test_kb_defining_relation():
    x, y = KbElement(1, 0), KbElement(0, 1)
    lhs = kb_multiply(kb_multiply(x, y), kb_inverse(x))
    assert lhs == kb_inverse(y)


def test_kb_centre():
    assert KbElement(2, 0).is_central()
    assert KbElement(-4, 0).is_central()
    assert not KbElement(1, 0).is_central()
    assert not KbElement(2, 1).is_central()
    # central elements commute with everything
    z = KbElement(2, 0)
    for other in (KbElement(1, 0), KbElement(0, 1), KbElement(3, -2)):
        assert kb_multiply(z, other) == kb_multiply(other, z)


@settings(max_examples=200, derandomize=True)
@given(kb_elements)
def test_kb_aut_is_homomorphism(p):
    for aut in (KB_ALPHA, KB_GAMMA, KbAut(1, 4, -1)):  # the last: conjugation by x y^2
        q = KbElement(2, -1)
        assert aut.apply(kb_multiply(p, q)) == kb_multiply(aut.apply(p), aut.apply(q))


def test_kb_aut_compose_and_inverse():
    for aut in (KB_ALPHA, KB_GAMMA, KbAut(1, 2, -1)):  # the last: conjugation by x^3 y
        ident = aut.compose(aut.inverse())
        assert ident == KbAut.identity()
        assert aut.inverse().compose(aut) == KbAut.identity()


def test_gamma_squared_is_conjugation_by_y():
    assert KB_GAMMA.compose(KB_GAMMA) == KB_CONJ_Y


def test_alpha_is_an_involution():
    assert KB_ALPHA.compose(KB_ALPHA) == KbAut.identity()


def test_centre_action_values():
    # the centre is generated by x^2, which an automorphism sends to x^(2 eps)
    for aut in (KbAut.identity(), KB_ALPHA, KB_GAMMA, KB_CONJ_X, KB_CONJ_Y):
        assert aut.apply(KbElement(2, 0)) == KbElement(2 * aut.eps, 0)
    assert (KbAut.identity().eps, KB_ALPHA.eps, KB_GAMMA.eps, KB_CONJ_Y.eps) == (1, -1, 1, 1)


def test_kb_aut_rejects_invalid_images():
    with pytest.raises(ValueError):
        KbAut(2, 0, 1)
    with pytest.raises(ValueError):
        KbAut(1, 1, 0)
