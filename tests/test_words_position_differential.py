"""Differential check of parse-error positions: the program's tokens hold a
character offset, and ``words.position`` turns it into a line and column only
when an error is raised.  ``words_reference`` keeps the tokenizer that counted
lines and columns as it walked; both must give the same presentation, or the
same error message, on every input.

The inputs are seeded strings over fragments of the grammar, names with
letters and digits that ``str.isalnum`` and ``str.isdecimal`` read
differently ('²', '½', 'Ⅻ', '٣', 'é'), whitespace that is not a newline
('\\x0b', '\\r'), comments and ``comm``.  Each string is parsed as a
presentation, and as the ``[base]`` of a bundle file a few lines down, which
``parse_bundle_file`` parses with the lines around it blank, so that an error
is placed in the file.
"""

import random

import pytest

from bundlesec import specfile
from bundlesec.words import ParseError, parse_presentation
from words_reference import parse_reference

NAMES = ("a", "b", "é", "a²", "b½", "éⅫ", "x_٣")
SPACES = (" ", " ", "\n", "\x0b", "\r", "\t", "# note\n", "")
FRAGMENTS = (
    "<", ">", "|", ",", ";", "^", "[", "]", "(", ")", "-", "comm", "0", "-1", "12",
    "²", "½", "Ⅻ", "٣", "é", "\x0b", "\r", "#", "\n", "?", "c",
)
COUNT = 20_000


def _factor(rng):
    a, b = rng.sample(NAMES, 2)
    return rng.choice((a, f"{a}^{rng.choice(('2', '-3', '٣', '0'))}", f"[{a},{b}]",
                       f"comm({a} {b};{b})"))


def _join(rng, sep, parts):
    """parts joined by sep, with random spacing on each side of each sep."""
    return "".join(part if i == 0 else rng.choice(SPACES) + sep + rng.choice(SPACES) + part
                   for i, part in enumerate(parts))


def _texts(seed=25, count=COUNT):
    """Presentations over NAMES with random spacing, some ending in a comment,
    some with a random fragment put in or written over."""
    rng = random.Random(seed)
    for _ in range(count):
        relators = [_join(rng, "", [_factor(rng) for _ in range(rng.randint(1, 3))])
                    for _ in range(rng.randint(0, 3))]
        text = _join(rng, "", ["<", _join(rng, ",", NAMES), "|", _join(rng, ",", relators),
                               ">", rng.choice(("", "# end"))])
        for _ in range(rng.choice((0, 0, 1, 2))):
            i = rng.randrange(len(text) + 1)
            text = text[:i] + rng.choice(FRAGMENTS) + text[i + rng.randint(0, 1):]
        yield text


TEXTS = list(_texts())


def _fields(parsed):
    """A presentation, or a bundle file with its base, as values that compare by value."""
    if isinstance(parsed, specfile.BundleFile):
        return parsed._replace(base=_fields(parsed.base))
    return parsed.generators, parsed.relators


def _outcome(parse, text):
    try:
        return _fields(parse(text))
    except ParseError as exc:
        return f"ParseError: {exc}"
    except (ValueError, specfile.MalformedSpec) as exc:
        return f"{type(exc).__name__}: {exc}"


def _bundle(text):
    return f"# the base starts on line 4\n\n[base]\n{text}\n[fibre]\ntorus 1\n"


def test_the_inputs_reach_both_outcomes():
    outcomes = [isinstance(_outcome(parse_presentation, t), str) for t in TEXTS]
    assert 0.05 < sum(outcomes) / len(outcomes) < 0.95


def test_presentations_and_errors_match_the_reference_walk():
    for text in TEXTS:
        assert _outcome(parse_presentation, text) \
            == _outcome(parse_reference, text), repr(text)


def test_a_base_in_a_bundle_file_matches_the_reference_walk(monkeypatch):
    texts = TEXTS[:COUNT // 4]
    with monkeypatch.context() as patch:
        patch.setattr(specfile, "parse_presentation", parse_reference)
        expected = [_outcome(specfile.parse_bundle_file, _bundle(t)) for t in texts]
    for text, want in zip(texts, expected, strict=True):
        assert _outcome(specfile.parse_bundle_file, _bundle(text)) == want, repr(text)


def test_a_comment_that_ends_the_text_holds_the_end_of_input():
    with pytest.raises(ParseError) as err:
        parse_presentation("< a | a # note")
    assert str(err.value) == "expected ',' or '>' after relator (line 1, column 9)"
    # after a newline the end of input is where the text ends
    with pytest.raises(ParseError) as err:
        parse_presentation("< a | a # note\n")
    assert (err.value.line, err.value.col) == (2, 1)
