"""Reference tokenizer for the differential test of the presentation parser.

This is the tokenizer the program used before its tokens held a character
offset: ``_tokenize`` below is that code as it stood, counting the line and
column of every token as it walks the text.  ``ReferenceParser`` runs the
program's own grammar (``words._Parser``) over these tokens and places each
error at the token's counted line and column, so that the program's
``position`` can be checked against the walk, quirks included: when a comment
ends the text, the end of input sits at its '#'.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from bundlesec.words import ParseError, _Parser


@dataclass
class _Token:
    kind: str  # NAME INT PUNCT
    text: str
    line: int
    col: int


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
            tokens.append(_Token(kind, word, line, start_col))
            col += j - i
            i = j
            continue
        # isdecimal, not isdigit: int() refuses a digit such as '²'
        if ch.isdecimal() or (ch == "-" and i + 1 < n and text[i + 1].isdecimal()):
            j = i + 1
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(_Token("INT", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch in _PUNCT:
            tokens.append(_Token("PUNCT", ch, line, start_col))
            col += 1
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("EOF", "", line, col))
    return tokens


class ReferenceParser(_Parser):
    """words._Parser over the reference tokens, each error at the token's
    counted line and column."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def error(self, message: str, tok: _Token) -> ParseError:
        return ParseError(message, tok.line, tok.col)
