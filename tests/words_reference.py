"""Reference routes for the words module: the tokenizer for the differential
test of the presentation parser, and exponent sums one generator at a time.

This is the tokenizer the program used before its tokens held a character
offset: ``_tokenize`` below is that code as it stood, counting the line and
column of every token as it walks the text.  ``parse_reference`` runs the
program's own grammar (``words._parse``) over these tokens and places each
error at the token's counted line and column, so that the program's
``position`` can be checked against the walk, quirks included: when a comment
ends the text, the end of input sits at its '#'.  The grammar reads a token
as a (kind, text, place) tuple; here the place is the counted (line, column)
where the program's tokens hold a character offset.
"""

from __future__ import annotations

from typing import List, Tuple

from bundlesec.words import ParseError, Presentation, Word, _parse

_Token = Tuple[str, str, Tuple[int, int]]  # kind (NAME INT PUNCT), text, (line, col)


_PUNCT = {"<", ">", "|", ",", ";", "^", "[", "]", "(", ")"}


def _tokenize(text: str) -> List[_Token]:
    tokens: List[_Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_col = col
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = "NAME"
            if word == "comm":
                kind = "COMM"
            tokens.append((kind, word, (line, start_col)))
            col += j - i
            i = j
            continue
        # isdecimal, not isdigit: int() refuses a digit such as '²'
        if ch.isdecimal() or (ch == "-" and i + 1 < n and text[i + 1].isdecimal()):
            j = i + 1
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(("INT", text[i:j], (line, start_col)))
            col += j - i
            i = j
            continue
        if ch in _PUNCT:
            tokens.append(("PUNCT", ch, (line, start_col)))
            col += 1
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(("EOF", "", (line, col)))
    return tokens


def parse_reference(text: str) -> Presentation:
    """words._parse over the reference tokens, each error at the token's
    counted line and column."""
    return _parse(_tokenize(text), lambda tok: tok[2])


def exponent_sum(w: Word, gen: str) -> int:
    """The exponent sum of gen in w, by its own pass over w."""
    return sum(s for g, s in w.letters if g == gen)
