"""Free-group words, the presentation DSL, and abelianization."""

import pytest
from hypothesis import given, settings, strategies as st

from bundlesec.words import (
    MAX_RELATOR_LETTERS,
    ParseError,
    Presentation,
    Word,
    abelianization,
    commutator,
    parse_presentation,
    reduce_letters,
)
from words_reference import exponent_sum

letters = st.lists(
    st.tuples(st.sampled_from("abc"), st.sampled_from((1, -1))), max_size=20)


@settings(max_examples=200, derandomize=True)
@given(letters)
def test_reduction_is_idempotent_and_reduced(ls):
    reduced = reduce_letters(ls)
    assert reduce_letters(reduced) == reduced
    for (g1, s1), (g2, s2) in zip(reduced, reduced[1:]):
        assert not (g1 == g2 and s1 == -s2)


@settings(max_examples=200, derandomize=True)
@given(letters, letters)
def test_group_laws(ls1, ls2):
    u, v = Word(ls1), Word(ls2)
    assert (u * v) * v.inverse() == u
    assert not (u * u.inverse()).letters
    assert (u * v).inverse() == v.inverse() * u.inverse()


def test_word_str_groups_exponents():
    w = Word.gen("a", 2) * Word.gen("b", -3)
    assert str(w) == "a^2 b^-3"
    assert str(Word.identity()) == "1"


def test_commutator_shape():
    c = commutator(Word.gen("x"), Word.gen("y"))
    assert c.letters == (("x", 1), ("y", 1), ("x", -1), ("y", -1))


def test_parse_basic_forms():
    p = parse_presentation("< x, y | x y x^-1 y >")
    assert p.generators == ("x", "y")
    assert str(p.relators[0]) == "x y x^-1 y"

    p = parse_presentation("< x, y | [x,y] >")
    assert p.relators == (commutator(Word.gen("x"), Word.gen("y")),)

    p = parse_presentation("< a, b, c, d | comm(a b ; c d) >")
    assert len(p.relators) == 4
    assert p.relators[0] == commutator(Word.gen("a"), Word.gen("c"))
    assert p.relators[3] == commutator(Word.gen("b"), Word.gen("d"))


def test_parse_comments_and_whitespace():
    p = parse_presentation("# leading note\n< x , y |\n  [x,y] # trailing\n>")
    assert p.generators == ("x", "y")


def test_parse_round_trip():
    texts = [
        "< x, y | x y x^-1 y >",
        "< u, v, x, y | comm(u v ; x y), [u,v] x^-2, x y x^-1 y >",
    ]
    for text in texts:
        p = parse_presentation(text)
        text = f"< {', '.join(p.generators)} | {', '.join(map(str, p.relators))} >"
        again = parse_presentation(text)
        assert again.generators == p.generators
        assert again.relators == p.relators


def test_parse_errors_carry_location():
    with pytest.raises(ParseError) as err:
        parse_presentation("< x |\n x q >")
    assert err.value.line == 2
    assert err.value.col == 4

    with pytest.raises(ParseError):
        parse_presentation("x, y | >")
    with pytest.raises(ParseError):
        parse_presentation("< x | x ^ y >")
    with pytest.raises(ParseError):
        parse_presentation("< x | x > junk")


def test_a_duplicate_generator_is_named_at_its_repetition():
    with pytest.raises(ParseError) as err:
        parse_presentation("< x, y,\n  x | [x,y] >")
    assert str(err.value) == "duplicate generator 'x' (line 2, column 3)"


def test_comm_is_a_reserved_word():
    with pytest.raises(ParseError) as err:
        parse_presentation("< comm, a | a >")
    assert str(err.value) == "expected a generator name (line 1, column 3)"


def test_integer_tokens_are_decimal_digits():
    # '²' is a digit that int() refuses: it is no integer token
    with pytest.raises(ParseError) as err:
        parse_presentation("< x | x^² >")
    assert str(err.value) == "unexpected character '²' (line 1, column 9)"
    # other decimal digits, such as Arabic-Indic ones, read as integers
    assert parse_presentation("< x | x^\u0663, x^-\u0661\u0662 >").relators \
        == (Word.gen("x", 3), Word.gen("x", -12))


def test_relator_letter_cap():
    # letters are counted before free reduction, so u^n u^-n counts 2n
    assert parse_presentation(f"< u | u^{MAX_RELATOR_LETTERS} >").relators[0] \
        == Word.gen("u", MAX_RELATOR_LETTERS)
    parse_presentation("< u, v | " + " ".join(["[u,v]"] * (MAX_RELATOR_LETTERS // 4)) + " >")
    cases = [
        # (text, line and column of the power or commutator that breaks the cap)
        ("< u, v | [u,v] u^3000000 u^-3000000 >", (1, 18)),
        ("< u, v |\n u^6000 v\n u^-6000 >", (3, 4)),
        (f"< u | u^-{MAX_RELATOR_LETTERS} u >", (1, 16)),
        ("< u, v | u^9999 [u,v] >", (1, 17)),
        ("< u | u^" + "9" * 5000 + " >", (1, 9)),
    ]
    for text, where in cases:
        with pytest.raises(ParseError) as err:
            parse_presentation(text)
        assert (err.value.line, err.value.col) == where, text
    # the cap is per relator
    parse_presentation(f"< u | u^{MAX_RELATOR_LETTERS}, u^-{MAX_RELATOR_LETTERS} >")


def test_a_commutator_counts_four_letters_against_the_cap():
    n = MAX_RELATOR_LETTERS - 4
    (relator,) = parse_presentation(f"< u, v | u^{n} [u,v] >").relators
    assert len(relator.letters) == MAX_RELATOR_LETTERS
    with pytest.raises(ParseError) as err:
        parse_presentation(f"< u, v | u^{n + 1} [u,v] >")
    assert str(err.value) == \
        f"relator longer than {MAX_RELATOR_LETTERS} letters (line 1, column 17)"


def test_a_bad_exponent_is_reported_before_an_unknown_generator():
    for text, message in (
            ("< x | q^y >", "expected an integer exponent (line 1, column 9)"),
            ("< x | q^" + "9" * 5000 + " >", "exponent too large (line 1, column 9)"),
            ("< x | q^2 >", "unknown generator 'q' in relator (line 1, column 7)")):
        with pytest.raises(ParseError) as err:
            parse_presentation(text)
        assert str(err.value) == message


def test_comm_pairs_each_left_name_with_each_right_name_in_turn():
    p = parse_presentation("< a, b, c, d | comm(a b ; c d) >")
    assert p.relators == tuple(commutator(Word.gen(x), Word.gen(y))
                               for x, y in ("ac", "ad", "bc", "bd"))


def test_an_empty_relator_is_a_parse_error():
    for text, col in (("< a | , >", 7), ("< a | a, >", 10), ("< a | a,, a >", 9)):
        with pytest.raises(ParseError) as err:
            parse_presentation(text)
        assert str(err.value) == f"expected a relator (line 1, column {col})", text


def test_presentation_rejects_unknown_generators():
    with pytest.raises(ValueError):
        Presentation(("x",), (Word.gen("y"),))
    with pytest.raises(ValueError):
        Presentation(("x", "x"), ())


def test_abelianization_examples():
    assert str(abelianization(parse_presentation("< x, y | x y x^-1 y >"))) == "Z + Z/2"
    assert str(abelianization(parse_presentation("< x, y | >"))) == "Z^2"
    assert str(abelianization(parse_presentation("< a, b | a^2 b^-3 >"))) == "Z"
    surface = parse_presentation("< a1, b1, a2, b2 | [a1,b1] [a2,b2] >")
    # the relator reduces the identity only after abelianizing; rank stays 4
    assert abelianization(surface).rank == 4


def test_exponent_matrix_shape():
    p = parse_presentation("< x, y | x^2, [x,y] >")
    m = p.exponent_matrix()
    assert m.rows == 2 and m.cols == 2
    assert m.column(0) == (2, 0)
    assert m.column(1) == (0, 0)


@settings(max_examples=200, derandomize=True)
@given(st.lists(letters.map(Word), max_size=4))
def test_exponent_matrix_matches_one_exponent_sum_per_generator(relators):
    p = Presentation(("a", "b", "c"), tuple(relators))
    m = p.exponent_matrix()
    assert (m.rows, m.cols) == (3, len(relators))
    assert m.data == tuple(tuple(exponent_sum(r, g) for r in relators) for g in p.generators)
