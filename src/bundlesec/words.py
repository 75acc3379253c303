"""Free-group words, the presentation DSL, and abelianization.

Words are stored as freely reduced tuples of (generator name, sign) letters.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Tuple

from .zlinalg import AbelianGroup, IntMatrix, cokernel

Letter = Tuple[str, int]

# The most letters a parsed relator may hold before free reduction.  The
# parser checks it before it expands each power, so a huge exponent is a
# ParseError instead of a tuple of millions of letters.
MAX_RELATOR_LETTERS = 10_000
_TOO_LONG = f"relator longer than {MAX_RELATOR_LETTERS} letters"

# the most characters of input text, or of a word, that an error message quotes
QUOTE_CHARS = 60


def _quote(text: str, show: Callable[[str], str] = repr) -> str:
    """show(text), clipped to its first QUOTE_CHARS characters and its length,
    so that an error about a long line or word is still one short line."""
    if len(text) <= QUOTE_CHARS:
        return show(text)
    return f"{show(text[:QUOTE_CHARS])}... ({len(text)} characters)"


# the top of reduce_letters' empty stack: its generator equals no name
_NO_LETTER = (object(), 0)


class ParseError(ValueError):
    """Raised on malformed DSL input, with 1-based line/column of the offender."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


def reduce_letters(letters: Iterable[Letter]) -> Tuple[Letter, ...]:
    """Freely reduce a letter sequence with a single stack pass.  The top
    letter is kept in locals; a letter that cancels it has the sign of an
    earlier letter, so only a pushed letter needs the check of its sign."""
    stack: List[Letter] = []
    push = stack.append
    pop = stack.pop
    top_g, top_s = _NO_LETTER
    for g, s in letters:
        if g == top_g and s == -top_s:
            pop()
            top_g, top_s = stack[-1] if stack else _NO_LETTER
        elif s == 1 or s == -1:
            push((g, s))
            top_g = g
            top_s = s
        else:
            raise ValueError(f"letter sign must be +-1, got {s}")
    return tuple(stack)


class Word:
    """A word in a free group on named generators, freely reduced on construction."""

    def __init__(self, letters: Iterable[Letter]):
        self.letters = reduce_letters(letters)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Word):
            return NotImplemented
        return self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

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


class Presentation:
    """A finite presentation: generator names and relator words."""

    def __init__(self, generators: Tuple[str, ...], relators: Tuple[Word, ...]):
        self.generators = generators
        self.relators = relators
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
        """Rows indexed by generators, columns by relators: the exponent sum of
        each generator in each relator, from one pass over the relator."""
        row_of = {g: [0] * len(self.relators) for g in self.generators}
        for j, r in enumerate(self.relators):
            for g, s in r.letters:
                row_of[g][j] += s
        return IntMatrix.from_rows(list(row_of.values()))


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
# "comm" is a reserved word: it cannot name a generator.


# A token is a (kind, text, offset) tuple: kind is NAME, COMM, INT, PUNCT or
# EOF, and offset is that of its first character in the text.
Token = Tuple[str, str, int]

_PUNCT = {"<", ">", "|", ",", ";", "^", "[", "]", "(", ")"}


def position(text: str, offset: int) -> Tuple[int, int]:
    """1-based (line, column) of text[offset]; only a newline ends a line."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _tokenize(text: str) -> List[Token]:
    """The tokens of text, ending in one EOF token, as plain tuples: a tuple
    is built in C, where a token object would cost a Python call per token.
    A comment that ends the text puts the EOF token at its '#'."""
    tokens: List[Token] = []
    append = tokens.append
    i = 0
    n = len(text)
    end = n
    while i < n:
        ch = text[i]
        # the classes below are disjoint, so their order changes no token;
        # punctuation, the commonest token, is tested first
        if ch in _PUNCT:
            append(("PUNCT", ch, i))
            i += 1
            continue
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
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            append(("COMM" if word == "comm" else "NAME", word, i))
            i = j
            continue
        # isdecimal, not isdigit: int() refuses a digit such as '²'
        if ch.isdecimal() or (ch == "-" and i + 1 < n and text[i + 1].isdecimal()):
            j = i + 1
            while j < n and text[j].isdecimal():
                j += 1
            append(("INT", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", *position(text, i))
    append(("EOF", "", end))
    return tokens


def _parse(tokens: List[Token], place: Callable[[Token], Tuple[int, int]]) -> Presentation:
    """The presentation that tokens spell, read at one local index; a
    ParseError names its token at place(tok), a (line, column)."""
    known: dict = {}  # the generators, in order

    def fail(message: str, tok: Token) -> ParseError:
        return ParseError(message, *place(tok))

    def expect(i: int, text: str) -> int:
        tok = tokens[i]
        if tok[1] != text:
            raise fail(f"expected {text!r}, found {tok[1] or 'end of input'!r}", tok)
        return i + 1

    def known_name(i: int) -> str:
        kind, name, _ = tok = tokens[i]
        if kind != "NAME":
            raise fail("expected a generator name", tok)
        if name not in known:
            raise fail(f"unknown generator {name!r} in relator", tok)
        return name

    def comm_names(i: int, stop: str) -> Tuple[List[str], int]:
        names = []
        while tokens[i][1] != stop:
            names.append(known_name(i))
            i += 1
            if tokens[i][1] == ",":
                i += 1
        if not names:
            raise fail("expected at least one generator name", tokens[i])
        return names, i + 1

    i = expect(0, "<")
    while True:
        kind, name, _ = tok = tokens[i]
        if kind != "NAME":
            raise fail("expected a generator name", tok)
        if name in known:
            raise fail(f"duplicate generator {name!r}", tok)
        known[name] = None
        sep = tokens[i + 1]
        i += 2
        if sep[1] == "|":
            break
        if sep[1] != ",":
            raise fail("expected ',' or '|' after generator", sep)
    relators: List[Word] = []
    more = tokens[i][1] != ">"
    while more:
        if tokens[i][0] == "COMM":
            i = expect(i + 1, "(")
            left, i = comm_names(i, ";")
            right, i = comm_names(i, ")")
            relators += [Word(((a, 1), (b, 1), (a, -1), (b, -1))) for a in left for b in right]
        else:
            start = i
            letters: List[Letter] = []
            # a factor per turn
            while True:
                kind, name, _ = tok = tokens[i]
                if kind == "NAME":
                    i += 1
                    exponent = 1
                    etok = tok
                    if tokens[i][1] == "^":
                        etok = tokens[i + 1]
                        i += 2
                        if etok[0] != "INT":
                            raise fail("expected an integer exponent", etok)
                        try:
                            exponent = int(etok[1])
                        except ValueError:  # more digits than int() converts
                            raise fail("exponent too large", etok) from None
                    if name not in known:
                        raise fail(f"unknown generator {name!r} in relator", tok)
                    count = abs(exponent)
                    if len(letters) + count > MAX_RELATOR_LETTERS:
                        raise fail(_TOO_LONG, etok)
                    letters += [(name, 1 if exponent > 0 else -1)] * count
                elif name == "[":
                    a = known_name(i + 1)
                    i = expect(i + 2, ",")
                    b = known_name(i)
                    i = expect(i + 1, "]")
                    if len(letters) + 4 > MAX_RELATOR_LETTERS:
                        raise fail(_TOO_LONG, tok)
                    letters += ((a, 1), (b, 1), (a, -1), (b, -1))
                else:
                    break
            if i == start:
                raise fail("expected a relator", tok)
            relators.append(Word(letters))
        more = tokens[i][1] == ","
        if more:
            i += 1
    if tokens[i][1] != ">":
        raise fail("expected ',' or '>' after relator", tokens[i])
    i += 1
    if tokens[i][0] != "EOF":
        raise fail("trailing input after presentation", tokens[i])
    return Presentation(tuple(known), tuple(relators))


def parse_presentation(text: str) -> Presentation:
    return _parse(_tokenize(text), lambda tok: position(text, tok[2]))
