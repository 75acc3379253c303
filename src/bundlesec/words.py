"""Free-group words, the presentation DSL, and abelianization.

Words are stored as freely reduced tuples of (generator name, sign) letters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Tuple

from .zlinalg import AbelianGroup, IntMatrix, cokernel

Letter = Tuple[str, int]

# The most letters a parsed relator may hold before free reduction.  The
# parser checks it before it expands each power, so a huge exponent is a
# ParseError instead of a tuple of millions of letters.
MAX_RELATOR_LETTERS = 10_000


class ParseError(ValueError):
    """Raised on malformed DSL input, with 1-based line/column of the offender."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


def reduce_letters(letters: Iterable[Letter]) -> Tuple[Letter, ...]:
    """Freely reduce a letter sequence with a single stack pass."""
    stack: List[Letter] = []
    for g, s in letters:
        if s not in (1, -1):
            raise ValueError(f"letter sign must be +-1, got {s}")
        if stack and stack[-1][0] == g and stack[-1][1] == -s:
            stack.pop()
        else:
            stack.append((g, s))
    return tuple(stack)


@dataclass(frozen=True)
class Word:
    """A freely reduced word in a free group on named generators."""

    letters: Tuple[Letter, ...]

    def __post_init__(self) -> None:
        if self.letters != reduce_letters(self.letters):
            raise ValueError("word is not freely reduced; use Word.make")

    @staticmethod
    def make(letters: Iterable[Letter]) -> "Word":
        return Word(reduce_letters(letters))

    @staticmethod
    def identity() -> "Word":
        return Word(())

    @staticmethod
    def gen(name: str, exponent: int = 1) -> "Word":
        return Word(((name, 1 if exponent > 0 else -1),) * abs(exponent))

    def __mul__(self, other: "Word") -> "Word":
        return Word.make(self.letters + other.letters)

    def inverse(self) -> "Word":
        return Word(tuple((g, -s) for g, s in reversed(self.letters)))

    def __str__(self) -> str:
        if not self.letters:
            return "1"
        parts = []
        i = 0
        n = len(self.letters)
        while i < n:
            g, s = self.letters[i]
            j = i
            while j < n and self.letters[j] == (g, s):
                j += 1
            e = s * (j - i)
            parts.append(g if e == 1 else f"{g}^{e}")
            i = j
        return " ".join(parts)


def commutator(a: Word, b: Word) -> Word:
    return a * b * a.inverse() * b.inverse()


def exponent_sum(w: Word, gen: str) -> int:
    return sum(s for g, s in w.letters if g == gen)


@dataclass(frozen=True)
class Presentation:
    """A finite presentation: generator names and relator words."""

    generators: Tuple[str, ...]
    relators: Tuple[Word, ...]

    def __post_init__(self) -> None:
        if len(set(self.generators)) != len(self.generators):
            raise ValueError("duplicate generator names")
        for g in self.generators:
            if not g:
                raise ValueError("empty generator name")
        for r in self.relators:
            for g, _ in r.letters:
                if g not in self.generators:
                    raise ValueError(f"relator uses unknown generator {g!r}")

    def exponent_matrix(self) -> IntMatrix:
        """Rows indexed by generators, columns by relators."""
        return IntMatrix.from_rows([
            [exponent_sum(r, g) for r in self.relators] for g in self.generators
        ])


def abelianization(p: Presentation) -> AbelianGroup:
    """Invariant factors of the presented group made abelian."""
    return cokernel(p.exponent_matrix())


# --- DSL parser ------------------------------------------------------------
#
#   presentation := "<" genlist "|" relatorlist ">"
#   genlist      := name ("," name)*
#   relatorlist  := (relator ("," relator)*)?
#   relator      := factor+ | "comm(" namelist ";" namelist ")"
#   factor       := name ("^" integer)? | "[" name "," name "]"
#
# comm(a b ; c d) expands to the four commutators [a,c],[a,d],[b,c],[b,d].


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
        if ch.isdigit() or (ch == "-" and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1
            while j < n and text[j].isdigit():
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


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.next()
        if tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text or 'end of input'!r}",
                             tok.line, tok.col)
        return tok

    def fail(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok.line, tok.col)

    def parse(self) -> Presentation:
        self.expect("<")
        generators: List[str] = []
        while True:
            tok = self.next()
            if tok.kind != "NAME":
                raise ParseError("expected a generator name", tok.line, tok.col)
            generators.append(tok.text)
            sep = self.next()
            if sep.text == ",":
                continue
            if sep.text == "|":
                break
            raise ParseError("expected ',' or '|' after generator", sep.line, sep.col)
        known = set(generators)
        relators: List[Word] = []
        if self.peek().text == ">":
            self.next()
        else:
            while True:
                relators.extend(self.parse_relator(known))
                sep = self.next()
                if sep.text == ",":
                    continue
                if sep.text == ">":
                    break
                raise ParseError("expected ',' or '>' after relator", sep.line, sep.col)
        tok = self.next()
        if tok.kind != "EOF":
            raise ParseError("trailing input after presentation", tok.line, tok.col)
        try:
            return Presentation(tuple(generators), tuple(relators))
        except ValueError as exc:
            raise ParseError(str(exc), 1, 1) from exc

    def parse_relator(self, known: set) -> List[Word]:
        if self.peek().kind == "COMM":
            return self.parse_comm(known)
        letters: List[Letter] = []
        parsed_any = False
        while True:
            tok = self.peek()
            if tok.text == "[":
                self.next()
                a = self.parse_name(known)
                self.expect(",")
                b = self.parse_name(known)
                self.expect("]")
                self.check_length(len(letters) + 4, tok)
                letters += ((a, 1), (b, 1), (a, -1), (b, -1))
                parsed_any = True
            elif tok.kind == "NAME":
                self.next()
                exponent = 1
                etok = tok
                if self.peek().text == "^":
                    self.next()
                    etok = self.next()
                    if etok.kind != "INT":
                        raise ParseError("expected an integer exponent", etok.line, etok.col)
                    try:
                        exponent = int(etok.text)
                    except ValueError:  # more digits than int() converts
                        raise ParseError("exponent too large", etok.line, etok.col) from None
                if tok.text not in known:
                    raise ParseError(f"unknown generator {tok.text!r} in relator",
                                     tok.line, tok.col)
                self.check_length(len(letters) + abs(exponent), etok)
                letters += [(tok.text, 1 if exponent > 0 else -1)] * abs(exponent)
                parsed_any = True
            else:
                break
        if not parsed_any:
            raise self.fail("expected a relator")
        return [Word.make(letters)]

    def check_length(self, count: int, tok: _Token) -> None:
        if count > MAX_RELATOR_LETTERS:
            raise ParseError(f"relator longer than {MAX_RELATOR_LETTERS} letters",
                             tok.line, tok.col)

    def parse_comm(self, known: set) -> List[Word]:
        self.next()  # comm
        self.expect("(")
        left = self.parse_namelist(known, stop=";")
        self.expect(";")
        right = self.parse_namelist(known, stop=")")
        self.expect(")")
        return [Word.make(((a, 1), (b, 1), (a, -1), (b, -1))) for a in left for b in right]

    def parse_namelist(self, known: set, stop: str) -> List[str]:
        names = []
        while self.peek().text != stop:
            names.append(self.parse_name(known))
            if self.peek().text == ",":
                self.next()
        if not names:
            raise self.fail("expected at least one generator name")
        return names

    def parse_name(self, known: set) -> str:
        tok = self.next()
        if tok.kind != "NAME":
            raise ParseError("expected a generator name", tok.line, tok.col)
        if tok.text not in known:
            raise ParseError(f"unknown generator {tok.text!r} in relator", tok.line, tok.col)
        return tok.text


def parse_presentation(text: str) -> Presentation:
    return _Parser(text).parse()
