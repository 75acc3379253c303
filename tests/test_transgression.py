"""The transgression identity over the torus base."""

import pytest
from hypothesis import given, settings, strategies as st

from bundlesec import transgression
from bundlesec.transgression import (
    _BASE_RELATOR,
    _D1,
    _IMAGES,
    CentralExtensionSpec,
    LaurentElement,
    check_composition,
    laurent_divide,
    transgress,
    _fox_row,
    xi_star,
)
from bundlesec.words import Word
from fox_reference import fox_derivative


# --- Laurent arithmetic ---------------------------------------------------------


def test_laurent_ring_examples():
    x = LaurentElement.monomial(1, 0)
    one = LaurentElement.one()
    assert (one - x) * (one + x) == one - LaurentElement.monomial(2, 0)
    assert (one - x).augmentation() == 0
    assert x * LaurentElement.monomial(-1, 0) == one


laurent = st.dictionaries(
    st.tuples(st.integers(min_value=-3, max_value=3),
              st.integers(min_value=-3, max_value=3)),
    st.integers(min_value=-5, max_value=5),
    max_size=5,
).map(LaurentElement)


@settings(max_examples=200, derandomize=True)
@given(laurent, laurent, laurent)
def test_laurent_ring_laws(a, b, c):
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a + b).augmentation() == a.augmentation() + b.augmentation()
    assert (a * b).augmentation() == a.augmentation() * b.augmentation()


@settings(max_examples=200, derandomize=True)
@given(laurent, laurent)
def test_laurent_exact_division(q, d):
    if d.is_zero():
        with pytest.raises(ValueError):
            laurent_divide(q, d)
        return
    assert laurent_divide(q * d, d) == q


def test_laurent_inexact_division_raises():
    x = LaurentElement.monomial(1, 0)
    one = LaurentElement.one()
    with pytest.raises(ValueError):
        laurent_divide(one, one + x)


def test_laurent_inexact_division_fails_fast_inside_the_lex_window():
    # the leading x-coefficient 1 - y of the divisor does not divide that of
    # x^2 + 1, so long division walks y-exponents down forever at x-exponent
    # 1, never below the lex bound min(num) - min(den) = (0, 0); the
    # y-range of the quotient's Newton box stops it
    import time
    x = LaurentElement.monomial(1, 0)
    y = LaurentElement.monomial(0, 1)
    one = LaurentElement.one()
    start = time.perf_counter()
    for num, den in ((x * x + one, x - x * y + one), (one, one - y), (x * y, x + y)):
        with pytest.raises(ValueError):
            laurent_divide(num, den)
    assert time.perf_counter() - start < 0.5


# --- resolutions ---------------------------------------------------------------


uxy_words = st.lists(st.tuples(st.sampled_from("uxy"), st.sampled_from((1, -1))),
                     max_size=16).map(Word)


def laurent_of_ring_element(e, images):
    """Push a group-ring element to the Laurent ring via exponent images."""
    out = LaurentElement.zero()
    for w, c in e.terms.items():
        a = sum(s * images[g][0] for g, s in w.letters)
        b = sum(s * images[g][1] for g, s in w.letters)
        out = out + LaurentElement.monomial(a, b, c)
    return out


@settings(max_examples=200, derandomize=True)
@given(uxy_words)
def test_laurent_fox_pass_matches_the_formal_route(w):
    row = _fox_row(w, ("u", "x", "y"))
    assert row == tuple(laurent_of_ring_element(fox_derivative(w, g), _IMAGES)
                        for g in ("u", "x", "y"))


def test_fl_complex_shape():
    # the base resolution: d1 over (c1^x, c1^y) and the row of [x,y]
    one = LaurentElement.one()
    x = LaurentElement.monomial(1, 0)
    y = LaurentElement.monomial(0, 1)
    assert _D1 == {"u": LaurentElement.zero(), "x": x - one, "y": y - one}
    row = _fox_row(_BASE_RELATOR, ("x", "y"))
    assert row == (one - y, x - one)
    assert check_composition(row, ("x", "y")) == row


@pytest.mark.parametrize("k", [-4, -1, 0, 1, 2, 7])
def test_partial_resolution_composes_to_zero(k):
    for rho in CentralExtensionSpec(k).relators():
        row = _fox_row(rho, ("u", "x", "y"))
        assert check_composition(row, ("u", "x", "y")) == row


@pytest.mark.parametrize("k", [-2, 0, 1, 3])
def test_cycle_component_vanishes(k):
    # the (1,0) component of the boundary of the canonical element:
    # d'(c2) (x) 1 + (y - 1) c1^x - (x - 1) c1^y
    c_x, c_y = check_composition(_fox_row(_BASE_RELATOR, ("x", "y")), ("x", "y"))
    assert (c_x + _D1["y"]).is_zero() and (c_y - _D1["x"]).is_zero()
    # the relator row of the extension has the same (x, y) part
    _, r_x, r_y = _fox_row(CentralExtensionSpec(k).relators()[0], ("u", "x", "y"))
    assert (r_x, r_y) == (c_x, c_y)


@pytest.mark.parametrize("row, gens", [
    # the row of a word that is not a relator: (1, x) for x y
    (_fox_row(Word.gen("x") * Word.gen("y"), ("x", "y")), ("x", "y")),
    # the base row placed over the wrong generators
    (_fox_row(_BASE_RELATOR, ("x", "y")), ("y", "x")),
    # the relator row with a unit added on p1^x
    (tuple(e + LaurentElement.one() if i == 1 else e
           for i, e in enumerate(_fox_row(CentralExtensionSpec(2).relators()[0],
                                          ("u", "x", "y")))), ("u", "x", "y")),
])
def test_composition_check_raises_off_a_relator_row(row, gens):
    with pytest.raises(AssertionError):
        check_composition(row, gens)


@pytest.mark.parametrize("k", [-3, 0, 1, 5])
def test_transgress_makes_one_fox_pass(k, monkeypatch):
    calls = []
    walk = transgression.fox_jacobian

    def counted(w, *args):
        calls.append(w)
        return walk(w, *args)

    monkeypatch.setattr(transgression, "fox_jacobian", counted)
    spec = CentralExtensionSpec(k)
    assert transgress(spec) == k
    # only u^-k [x,y] depends on k: the rows of [x,y], [u,x] and [u,y] are
    # walked once, on import, and are the rows a walk gives
    assert calls == [spec.relators()[0]]
    assert transgression._BASE_ROW == _fox_row(_BASE_RELATOR, ("x", "y"))
    assert transgression._COMMUTING_ROWS == tuple(
        _fox_row(w, ("u", "x", "y")) for w in spec.relators()[1:])


# --- the identity ----------------------------------------------------------------


@pytest.mark.parametrize("k", range(-8, 9))
def test_transgression_equals_class_evaluation(k):
    spec = CentralExtensionSpec(k)
    assert transgress(spec) == k
    assert xi_star(spec) == k


def test_verify_range_helper():
    for k in range(-5, 6):
        spec = CentralExtensionSpec(k)
        assert transgress(spec) == xi_star(spec)


def test_xi_star_normal_form_is_consistent():
    # the k = 1 group is the discrete Heisenberg group; the commutator of the
    # section lifts must be exactly one unit of the fibre
    assert xi_star(CentralExtensionSpec(1)) == 1
