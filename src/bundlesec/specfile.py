"""Sectioned text format for bundle data.

A bundle file has four sections::

    [base]
    < u, v | [u,v] >
    [fibre]
    torus 2            # or: kb
    [action]
    u = 1 0 ; 0 1      # matrix rows for a torus fibre
    v = alpha          # automorphism word for a Klein-bottle fibre
    [cocycle]
    u = 0 0            # translation vector / fibre element per generator
    offset 1 = 1 0     # fibre offset of the 1st base relator (optional)

A torus datum is theta plus a translation per generator and an offset per
relator (zero by default).  A [cocycle] key that names a base generator is
that generator's translation, even one named 'offset'; any other key
'offset' or 'offset N' is the offset of relator 1 or N.  No integer may
exceed MAX_ENTRY_BITS bits.

A header is one bracketed word naming one of the four sections, in any case;
any other word is an error, and other bracketed text is section content.
Lines starting with '#' are comments; blank lines are ignored.
Cohomology inputs reuse the same layout without the [cocycle] section.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from .extensions import (_ENTRY_CAP, MAX_ENTRY_BITS, KbBundleSpec, MalformedSpec,
                         TorusBundleSpec, _over_cap)
from .groupring import KB_AUT_NAMES, KbAut, KbElement, LinearRep, kb_multiply
from .words import Presentation, parse_presentation
from .zlinalg import IntMatrix


@dataclass(frozen=True)
class BundleFile:
    base: Presentation
    fibre_kind: str  # "torus" | "kb"
    fibre_rank: int
    action_lines: Dict[str, str]
    # values by base generator name, and relator offsets by relator index
    cocycle_lines: Dict[Union[str, int], str]

    def torus_action(self) -> LinearRep:
        """theta, from the [action] section: the one place it is parsed."""
        rank = self.fibre_rank
        mats = {g: _parse_matrix(self._action_line(g), rank) for g in self.base.generators}
        try:
            return LinearRep(mats, rank)
        except ValueError as exc:
            raise MalformedSpec(str(exc)) from exc

    def to_spec(self):
        if self.fibre_kind == "torus":
            return self._torus_spec()
        return self._kb_spec()

    def _action_line(self, g: str) -> str:
        if g not in self.action_lines:
            raise MalformedSpec(f"[action] is missing generator {_quote(g)}")
        return self.action_lines[g]

    def _torus_spec(self) -> TorusBundleSpec:
        # the action first: its row count refuses a huge rank before a zero
        # vector of that length is built
        action = self.torus_action()
        rank = self.fibre_rank
        translations = {g: _parse_vector(self.cocycle_lines.get(g, ""), rank)
                        for g in self.base.generators}
        offsets = tuple(_parse_vector(self.cocycle_lines.get(i, ""), rank)
                        for i in range(1, len(self.base.relators) + 1))
        return TorusBundleSpec(self.base, action, translations, offsets)

    def _kb_spec(self) -> KbBundleSpec:
        pairs: Dict[str, Tuple[KbAut, KbElement]] = {
            g: (kb_aut_from_word(self._action_line(g)),
                kb_element_from_word(self.cocycle_lines.get(g, "1")))
            for g in self.base.generators}
        offsets = tuple(kb_element_from_word(self.cocycle_lines.get(i, "1"))
                        for i in range(1, len(self.base.relators) + 1))
        return KbBundleSpec(self.base, pairs, offsets)


# the most characters of a file's text that an error message quotes
QUOTE_CHARS = 60


def _quote(text: str, show: Callable[[str], str] = repr) -> str:
    """show(text), clipped to its first QUOTE_CHARS characters and its length,
    so that an error about a long line is still one short line."""
    if len(text) <= QUOTE_CHARS:
        return show(text)
    return f"{show(text[:QUOTE_CHARS])}... ({len(text)} characters)"


def _parse_ints(tokens: Sequence[str], bad: str) -> Tuple[int, ...]:
    """The integers the tokens spell, or MalformedSpec(bad) if one is no
    integer (int()'s own limit of 4,300 digits included).  No integer of a
    file may outgrow the Fox pass's entry cap or the digits a report prints:
    the first token over MAX_ENTRY_BITS bits is named."""
    try:
        ints = tuple(map(int, tokens))
    except ValueError as exc:
        raise MalformedSpec(bad) from exc
    if ints and _over_cap(ints):
        token = next(t for t, n in zip(tokens, ints) if abs(n) > _ENTRY_CAP)
        raise MalformedSpec(f"integer {_quote(token)} has more than {MAX_ENTRY_BITS} bits")
    return ints


def _parse_vector(text: str, rank: int) -> Tuple[int, ...]:
    text = text.strip()
    if not text:
        return tuple(0 for _ in range(rank))
    vec = _parse_ints(text.split(), f"bad integer vector {_quote(text)}")
    if len(vec) != rank:
        raise MalformedSpec(f"vector {_quote(text)} does not have length {rank}")
    return vec


def _kb_powers(tokens: List[str], names: Dict[str, Any], kind: str) -> Iterator[Tuple[Any, int]]:
    """(names[name], n) for each token 'name^n' (n = 1 for a bare 'name', and
    'name^' has no exponent); each name is checked before its exponent."""
    for token in tokens:
        name, caret, exp = token.partition("^")
        if name not in names:
            raise MalformedSpec(f"unknown Klein-bottle {kind} {_quote(name)}")
        (n,) = _parse_ints([exp if caret else "1"],
                           f"bad exponent in Klein-bottle token {_quote(token)}")
        yield names[name], n


def kb_aut_from_word(text: str) -> KbAut:
    """Compose named automorphisms, e.g. 'alpha gamma' or 'alpha^-1'."""
    out = KbAut.identity()
    for aut, n in _kb_powers(text.split(), KB_AUT_NAMES, "automorphism"):
        out = out.compose(aut.power(n))
    return out


def kb_element_from_word(text: str) -> KbElement:
    """Parse a product of x/y powers, e.g. 'x^2 y^-1' or '1'."""
    out = KbElement.identity()
    tokens = [token for token in text.split() if token != "1"]
    for (a, b), n in _kb_powers(tokens, {"x": (1, 0), "y": (0, 1)}, "generator"):
        out = kb_multiply(out, KbElement(a * n, b * n))
    return out


def _parse_matrix(text: str, rank: int) -> IntMatrix:
    # an empty row would read as `rank` zeros: refuse it before any row is
    # built, so that a matrix costs no more than the entries its text spells
    # out (a zero row is never unimodular, so no valid spec is refused)
    parts = text.split(";")
    if not all(part.strip() for part in parts):
        raise MalformedSpec(f"matrix {_quote(text)} has an empty row")
    if len(parts) != rank:
        raise MalformedSpec(f"matrix {_quote(text)} does not have {_quote(str(rank), str)} rows")
    return IntMatrix(rank, rank, tuple(_parse_vector(part, rank) for part in parts))


_SECTIONS = ("base", "fibre", "action", "cocycle")
# a header is one bracketed word; other bracketed text, such as a relator
# line "[a1,b1] [a2,b2]", is content of the current section
_SECTION_HEADER = re.compile(r"\[\s*(\w+)\s*\]")


def parse_bundle_file(text: str) -> BundleFile:
    sections: Dict[str, List[str]] = {}
    base_lines: List[str] = []  # the [base] lines in place, every other line blank
    current: Optional[str] = None
    for raw in text.splitlines():
        base_lines.append("")
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        header = _SECTION_HEADER.fullmatch(line)
        if header:
            current = header.group(1).lower()
            if current not in _SECTIONS:
                raise MalformedSpec(f"unknown section {_quote(line, str)}")
            if current in sections:
                raise MalformedSpec(f"duplicate section [{current}]")
            sections[current] = []
            continue
        if current is None:
            raise MalformedSpec(f"content before any section: {_quote(line)}")
        sections[current].append(line)
        if current == "base":
            base_lines[-1] = raw

    for required in ("base", "fibre"):
        if required not in sections:
            raise MalformedSpec(f"missing [{required}] section")

    # a ParseError's line and column are the file's own
    base = parse_presentation("\n".join(base_lines).rstrip())

    fibre_words = " ".join(sections["fibre"]).split()
    if not fibre_words:
        raise MalformedSpec("[fibre] section is empty")
    kind = fibre_words[0].lower()
    if kind == "torus":
        if len(fibre_words) != 2:
            raise MalformedSpec("expected: torus <rank>")
        (rank,) = _parse_ints(fibre_words[1:], "torus rank must be an integer")
        if rank < 1:
            raise MalformedSpec("torus rank must be positive")
    elif kind == "kb":
        rank = 1  # rank of the centre
    else:
        raise MalformedSpec(f"unknown fibre kind {_quote(kind)}")

    action_lines = _assignments("action", sections.get("action", []), base)
    cocycle_lines = _assignments("cocycle", sections.get("cocycle", []), base)
    return BundleFile(base, kind, rank, action_lines, cocycle_lines)


def _assignments(section: str, lines: List[str], base: Presentation) -> Dict[Union[str, int], str]:
    """The values of a section's 'key = value' lines, each key once: by base
    generator name, and in [cocycle] also by the relator index of a key
    'offset' (relator 1) or 'offset N' that names no base generator."""
    generators = set(base.generators)
    out: Dict[Union[str, int], str] = {}
    for line in lines:
        key, eq, value = line.partition("=")
        if not eq:
            raise MalformedSpec(f"expected 'name = value', found {_quote(line)}")
        key = key.strip()
        if key in generators:
            duplicate = f"duplicate [{section}] line for {_quote(key)}"
        elif section == "cocycle" and key.startswith("offset"):
            index = key[len("offset"):].strip() or "1"
            (key,) = _parse_ints([index], f"bad relator index in {_quote(key)}")
            if not 1 <= key <= len(base.relators):
                raise MalformedSpec(f"offset index {key} out of range")
            duplicate = f"duplicate offset for relator {key}"
        else:
            raise MalformedSpec(f"line for {_quote(key)} does not name a base generator")
        if key in out:
            raise MalformedSpec(duplicate)
        out[key] = value.strip()
    return out
