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
relator (zero by default).  No integer may exceed MAX_ENTRY_BITS bits.

A header is one bracketed word naming one of the four sections, in any case;
any other word is an error, and other bracketed text is section content.
Lines starting with '#' are comments; blank lines are ignored.
Cohomology inputs reuse the same layout without the [cocycle] section.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from .extensions import _ENTRY_CAP, MAX_ENTRY_BITS, KbBundleSpec, MalformedSpec, TorusBundleSpec
from .groupring import KB_AUT_NAMES, KbAut, KbElement, LinearRep, kb_multiply
from .words import ParseError, Presentation, parse_presentation
from .zlinalg import IntMatrix


@dataclass(frozen=True)
class BundleFile:
    base: Presentation
    fibre_kind: str  # "torus" | "kb"
    fibre_rank: int
    action_lines: Dict[str, str]
    cocycle_lines: Dict[str, str]
    offset_lines: Dict[int, str]

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
        offsets = tuple(_parse_vector(self.offset_lines.get(i, ""), rank)
                        for i in range(1, len(self.base.relators) + 1))
        return TorusBundleSpec(self.base, action, translations, offsets)

    def _kb_spec(self) -> KbBundleSpec:
        pairs: Dict[str, Tuple[KbAut, KbElement]] = {
            g: (kb_aut_from_word(self._action_line(g)),
                kb_element_from_word(self.cocycle_lines.get(g, "1")))
            for g in self.base.generators}
        offsets = tuple(kb_element_from_word(self.offset_lines.get(i, "1"))
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


# no integer of a file outgrows the Fox pass's entry cap or the digits a
# report prints; a text shorter than the cap's 309 digits holds none larger
_SHORT_TEXT = len(str(_ENTRY_CAP)) - 1


def _parse_int(token: str, bad: str) -> int:
    """int(token) of at most MAX_ENTRY_BITS bits, or MalformedSpec(bad) if
    the token is no integer (int()'s own limit of 4,300 digits included)."""
    try:
        n = int(token)
    except ValueError as exc:
        raise MalformedSpec(bad) from exc
    if abs(n) > _ENTRY_CAP:
        raise MalformedSpec(f"integer {_quote(token)} has more than {MAX_ENTRY_BITS} bits")
    return n


def _parse_vector(text: str, rank: int) -> Tuple[int, ...]:
    text = text.strip()
    if not text:
        return tuple(0 for _ in range(rank))
    try:
        vec = tuple(map(int, text.split()))
    except ValueError as exc:
        raise MalformedSpec(f"bad integer vector {_quote(text)}") from exc
    if len(text) > _SHORT_TEXT:
        for tok in text.split():
            _parse_int(tok, "")  # every token is an integer: refuses one over the cap
    if len(vec) != rank:
        raise MalformedSpec(f"vector {_quote(text)} does not have length {rank}")
    return vec


def _kb_exponent(token: str, exp: str) -> int:
    """The n of a token 'name^n' (1 for a bare 'name')."""
    if not exp:
        return 1
    return _parse_int(exp, f"bad exponent in Klein-bottle token {_quote(token)}")


def kb_aut_from_word(text: str) -> KbAut:
    """Compose named automorphisms, e.g. 'alpha gamma' or 'alpha^-1'."""
    out = KbAut.identity()
    for token in text.split():
        name, _, exp = token.partition("^")
        if name not in KB_AUT_NAMES:
            raise MalformedSpec(f"unknown Klein-bottle automorphism {_quote(name)}")
        out = out.compose(KB_AUT_NAMES[name].power(_kb_exponent(token, exp)))
    return out


def kb_element_from_word(text: str) -> KbElement:
    """Parse a product of x/y powers, e.g. 'x^2 y^-1' or '1'."""
    out = KbElement.identity()
    for token in text.split():
        if token == "1":
            continue
        name, _, exp = token.partition("^")
        n = _kb_exponent(token, exp)
        if name == "x":
            out = kb_multiply(out, KbElement(n, 0))
        elif name == "y":
            out = kb_multiply(out, KbElement(0, n))
        else:
            raise MalformedSpec(f"unknown Klein-bottle generator {_quote(name)}")
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
    return IntMatrix.from_rows([_parse_vector(part, rank) for part in parts])


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
        rank = _parse_int(fibre_words[1], "torus rank must be an integer")
        if rank < 1:
            raise MalformedSpec("torus rank must be positive")
    elif kind == "kb":
        rank = 1  # rank of the centre
    else:
        raise MalformedSpec(f"unknown fibre kind {_quote(kind)}")

    action_lines: Dict[str, str] = {}
    for line in sections.get("action", []):
        key, value = _split_assignment(line)
        if key in action_lines:
            raise MalformedSpec(f"duplicate [action] line for {_quote(key)}")
        action_lines[key] = value

    cocycle_lines: Dict[str, str] = {}
    offset_lines: Dict[int, str] = {}
    for line in sections.get("cocycle", []):
        key, value = _split_assignment(line)
        if key.startswith("offset"):
            idx_text = key[len("offset"):].strip()
            idx = _parse_int(idx_text, f"bad relator index in {_quote(key)}") if idx_text else 1
            if not 1 <= idx <= len(base.relators):
                raise MalformedSpec(f"offset index {idx} out of range")
            if idx in offset_lines:
                raise MalformedSpec(f"duplicate offset for relator {idx}")
            offset_lines[idx] = value
        else:
            if key in cocycle_lines:
                raise MalformedSpec(f"duplicate [cocycle] line for {_quote(key)}")
            cocycle_lines[key] = value

    for key in list(action_lines) + list(cocycle_lines):
        if key not in base.generators:
            raise MalformedSpec(f"line for {_quote(key)} does not name a base generator")

    return BundleFile(base, kind, rank, action_lines, cocycle_lines, offset_lines)


def _split_assignment(line: str) -> Tuple[str, str]:
    if "=" not in line:
        raise MalformedSpec(f"expected 'name = value', found {_quote(line)}")
    key, value = line.split("=", 1)
    return key.strip(), value.strip()
