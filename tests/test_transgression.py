"""The transgression identity over the torus base."""

import pytest
from hypothesis import given, settings, strategies as st

from bundlesec.transgression import (
    _IMAGES,
    CentralExtensionSpec,
    LaurentElement,
    build_fl_complex,
    build_partial_resolution,
    laurent_divide,
    transgress,
    transgression_cycle_components,
    verify_transgression_identity,
    _fox_row,
    xi_star,
)
from bundlesec.words import Word, parse_presentation
from fox_reference import fox_derivative, laurent_of_ring_element


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
                     max_size=16).map(Word.make)


@settings(max_examples=200, derandomize=True)
@given(uxy_words)
def test_laurent_fox_pass_matches_the_formal_route(w):
    row = _fox_row(w, ("u", "x", "y"))
    assert row == tuple(laurent_of_ring_element(fox_derivative(w, g), _IMAGES)
                        for g in ("u", "x", "y"))



def test_fl_complex_shape():
    fl = build_fl_complex()
    one = LaurentElement.one()
    x = LaurentElement.monomial(1, 0)
    y = LaurentElement.monomial(0, 1)
    assert fl.d1 == (x - one, y - one)
    assert fl.d2 == (one - y, x - one)
    assert fl.composition_is_zero()


def test_fl_complex_accepts_the_torus_presentation():
    build_fl_complex(parse_presentation("< x, y | [x,y] >"))


def test_fl_complex_rejects_other_bases():
    with pytest.raises(ValueError):
        build_fl_complex(parse_presentation("< x, y | x y x^-1 y >"))
    with pytest.raises(ValueError):
        build_fl_complex(parse_presentation("< a, b | [a,b] >"))


@pytest.mark.parametrize("k", [-4, -1, 0, 1, 2, 7])
def test_partial_resolution_composes_to_zero(k):
    res = build_partial_resolution(CentralExtensionSpec(k))
    assert res.composition_is_zero()


@pytest.mark.parametrize("k", [-2, 0, 1, 3])
def test_cycle_component_vanishes(k):
    (k10_x, k10_y), _ = transgression_cycle_components(CentralExtensionSpec(k))
    assert k10_x.is_zero() and k10_y.is_zero()


# --- the identity ----------------------------------------------------------------


@pytest.mark.parametrize("k", range(-8, 9))
def test_transgression_equals_class_evaluation(k):
    spec = CentralExtensionSpec(k)
    assert transgress(spec) == k
    assert xi_star(spec) == k


def test_verify_range_helper():
    assert verify_transgression_identity(range(-5, 6))


def test_xi_star_scales_with_the_cycle():
    spec = CentralExtensionSpec(3)
    assert [xi_star(spec, n) for n in (-1, 0, 2)] == [-3, 0, 6]


def test_xi_star_normal_form_is_consistent():
    # the k = 1 group is the discrete Heisenberg group; the commutator of the
    # section lifts must be exactly one unit of the fibre
    assert xi_star(CentralExtensionSpec(1)) == 1
