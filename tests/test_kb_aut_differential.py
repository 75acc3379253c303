"""Differential check of the Klein-bottle automorphisms: the program's
three-integer ``KbAut`` (eps, q, eta), with apply, compose, inverse and power
in closed form, against the image model kept in ``kb_reference``.

The automorphisms are seeded: every sign pair (eps, eta) with |q| <= 50.
Exponents run over -9..9 and +-(2^1024 - 1), the largest a bundle file
spells.  The reference's own pieces, ``kb_power`` and ``kb_conjugation``, are
checked against repeated products in the group.
"""

import random

from hypothesis import given, settings, strategies as st

from bundlesec.groupring import KB_AUT_NAMES, KB_CONJ_X, KB_CONJ_Y, KbAut, KbElement
from bundlesec.groupring import kb_inverse, kb_multiply
from bundlesec.specfile import kb_aut_from_word
from kb_reference import X, Y, ImageAut, kb_conjugation, kb_power

HUGE = (1 << 1024) - 1
EXPONENTS = (*range(-9, 10), HUGE, -HUGE)


def _automorphisms(seed=23, count=40):
    rng = random.Random(seed)
    auts = [KbAut(eps, q, eta) for eps in (1, -1) for eta in (1, -1) for q in (0, 1, -1, 50, -50)]
    auts += [KbAut(rng.choice((1, -1)), rng.randint(-50, 50), rng.choice((1, -1)))
             for _ in range(count)]
    return auts


AUTS = _automorphisms()


def _elements(rng, count=8):
    small = [KbElement(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(count)]
    return small + [KbElement(HUGE, -HUGE), KbElement(-HUGE + 1, HUGE)]


def test_the_automorphisms_cover_every_sign_pair():
    assert {(a.eps, a.eta) for a in AUTS} == {(1, 1), (1, -1), (-1, 1), (-1, -1)}
    assert max(abs(a.q) for a in AUTS) == 50


def test_apply_is_a_homomorphism_and_matches_the_images():
    rng = random.Random(1)
    for aut in AUTS:
        ref = ImageAut.of(aut)
        elements = _elements(rng)
        for p in elements:
            assert aut.apply(p) == ref.apply(p)
            for q in elements[:4]:
                assert aut.apply(kb_multiply(p, q)) == kb_multiply(aut.apply(p), aut.apply(q))


def test_compose_and_inverse_match_the_images():
    rng = random.Random(2)
    for aut in AUTS:
        ref = ImageAut.of(aut)
        assert aut.inverse() == ref.inverse().triple()
        assert aut.compose(aut.inverse()) == KbAut.identity() == aut.inverse().compose(aut)
        for other in rng.sample(AUTS, 8):
            assert aut.compose(other) == ref.compose(ImageAut.of(other)).triple()


def test_power_matches_square_and_multiply():
    for aut in AUTS:
        ref = ImageAut.of(aut)
        for n in EXPONENTS:
            assert aut.power(n) == ref.power(n).triple(), (aut, n)


def test_power_matches_repeated_composition():
    for aut in AUTS[:20]:
        out = KbAut.identity()
        for n in range(10):
            assert aut.power(n) == out
            assert aut.power(-n) == out.inverse()
            out = out.compose(aut)


def test_named_powers_in_a_word_match_square_and_multiply():
    for name, aut in KB_AUT_NAMES.items():
        for n in EXPONENTS:
            expected = ImageAut.of(KB_CONJ_Y).compose(ImageAut.of(aut).power(n))
            assert kb_aut_from_word(f"cy {name}^{n}") == expected.triple()


def test_the_centre_action_is_eps():
    for aut in AUTS:
        assert aut.eps == ImageAut.of(aut).center_action()


def test_cx_and_cy_are_conjugation_by_x_and_by_y():
    assert KB_CONJ_X == kb_conjugation(X).triple()
    assert KB_CONJ_Y == kb_conjugation(Y).triple()


# --- the reference's own pieces -------------------------------------------------

kb_elements = st.builds(KbElement,
                        st.integers(min_value=-6, max_value=6),
                        st.integers(min_value=-6, max_value=6))


@settings(max_examples=100, derandomize=True)
@given(kb_elements, st.integers(min_value=-5, max_value=5))
def test_kb_power(p, n):
    out = KbElement.identity()
    base = p if n >= 0 else kb_inverse(p)
    for _ in range(abs(n)):
        out = kb_multiply(out, base)
    assert kb_power(p, n) == out


def test_kb_power_closed_form_matches_repeated_products():
    for a in range(-5, 6):
        for b in range(-5, 6):
            p = KbElement(a, b)
            for n in range(-7, 8):
                out = KbElement.identity()
                for _ in range(abs(n)):
                    out = kb_multiply(out, p if n >= 0 else kb_inverse(p))
                assert kb_power(p, n) == out


def test_conjugation_is_an_antihomomorphism():
    # c_g(h) = g^-1 h g, so c_{gh} = c_h o c_g
    g, h = KbElement(1, 2), KbElement(-2, 1)
    assert kb_conjugation(kb_multiply(g, h)) == kb_conjugation(h).compose(kb_conjugation(g))
    assert kb_conjugation(g).triple() == KB_CONJ_Y.power(2).compose(KB_CONJ_X)
