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
    """A word in a free group on named generators, freely reduced on construction."""

    letters: Tuple[Letter, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "letters", reduce_letters(self.letters))

    @staticmethod
    def identity() -> "Word":
        return Word(())

    @staticmethod
    def gen(name: str, exponent: int = 1) -> "Word":
        return Word(((name, 1 if exponent > 0 else -1),) * abs(exponent))

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

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
        known = set(self.generators)
        if len(known) != len(self.generators):
            raise ValueError("duplicate generator names")
        for g in self.generators:
            if not g:
                raise ValueError("empty generator name")
        for r in self.relators:
            for g, _ in r.letters:
                if g not in known:
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
    offset: int  # of the token's first character in the text


_PUNCT = {"<", ">", "|", ",", ";", "^", "[", "]", "(", ")"}


def position(text: str, offset: int) -> Tuple[int, int]:
    """1-based (line, column) of text[offset]; only a newline ends a line."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _tokenize(text: str) -> List[_Token]:
    tokens: List[_Token] = []
    i = 0
    n = len(text)
    end = n  # where the end of input sits: at the '#' of a comment that ends the text
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "#":
            newline = text.find("\n", i)
            if newline < 0:
                end = i
                break
            i = newline
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            tokens.append(_Token("COMM" if word == "comm" else "NAME", word, i))
            i = j
            continue
        # isdecimal, not isdigit: int() refuses a digit such as '²'
        if ch.isdecimal() or (ch == "-" and i + 1 < n and text[i + 1].isdecimal()):
            j = i + 1
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(_Token("INT", text[i:j], i))
            i = j
            continue
        if ch in _PUNCT:
            tokens.append(_Token("PUNCT", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", *position(text, i))
    tokens.append(_Token("EOF", "", end))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def error(self, message: str, tok: _Token) -> ParseError:
        return ParseError(message, *position(self.text, tok.offset))

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.next()
        if tok.text != text:
            raise self.error(f"expected {text!r}, found {tok.text or 'end of input'!r}", tok)
        return tok

    def parse(self) -> Presentation:
        self.expect("<")
        generators: List[str] = []
        known = set()
        while True:
            tok = self.next()
            if tok.kind != "NAME":
                raise self.error("expected a generator name", tok)
            if tok.text in known:
                raise self.error(f"duplicate generator {tok.text!r}", tok)
            known.add(tok.text)
            generators.append(tok.text)
            sep = self.next()
            if sep.text == ",":
                continue
            if sep.text == "|":
                break
            raise self.error("expected ',' or '|' after generator", sep)
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
                raise self.error("expected ',' or '>' after relator", sep)
        tok = self.next()
        if tok.kind != "EOF":
            raise self.error("trailing input after presentation", tok)
        return Presentation(tuple(generators), tuple(relators))

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
                        raise self.error("expected an integer exponent", etok)
                    try:
                        exponent = int(etok.text)
                    except ValueError:  # more digits than int() converts
                        raise self.error("exponent too large", etok) from None
                if tok.text not in known:
                    raise self.error(f"unknown generator {tok.text!r} in relator", tok)
                self.check_length(len(letters) + abs(exponent), etok)
                letters += [(tok.text, 1 if exponent > 0 else -1)] * abs(exponent)
                parsed_any = True
            else:
                break
        if not parsed_any:
            raise self.error("expected a relator", self.peek())
        return [Word(letters)]

    def check_length(self, count: int, tok: _Token) -> None:
        if count > MAX_RELATOR_LETTERS:
            raise self.error(f"relator longer than {MAX_RELATOR_LETTERS} letters", tok)

    def parse_comm(self, known: set) -> List[Word]:
        self.next()  # comm
        self.expect("(")
        left = self.parse_namelist(known, stop=";")
        self.expect(";")
        right = self.parse_namelist(known, stop=")")
        self.expect(")")
        return [Word(((a, 1), (b, 1), (a, -1), (b, -1))) for a in left for b in right]

    def parse_namelist(self, known: set, stop: str) -> List[str]:
        names = []
        while self.peek().text != stop:
            names.append(self.parse_name(known))
            if self.peek().text == ",":
                self.next()
        if not names:
            raise self.error("expected at least one generator name", self.peek())
        return names

    def parse_name(self, known: set) -> str:
        tok = self.next()
        if tok.kind != "NAME":
            raise self.error("expected a generator name", tok)
        if tok.text not in known:
            raise self.error(f"unknown generator {tok.text!r} in relator", tok)
        return tok.text


def parse_presentation(text: str) -> Presentation:
    return _Parser(text).parse()
