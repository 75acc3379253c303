"""Sectioned text format for bundle data.

A bundle file has four sections::

    [base]
    < u, v | [u,v] >
    [fibre]
    torus 2            # or: surface 1, kb
    [action]
    u = 1 0 ; 0 1      # matrix rows for a torus fibre
    v = alpha          # automorphism word for a Klein-bottle fibre
    [cocycle]
    u = 0 0            # translation vector / fibre element per generator
    offset 1 = 1 0     # fibre offset of the 1st base relator (optional)

A torus datum is theta plus a translation per generator and an offset per
relator (zero by default).  A 'surface h' datum is the torus datum of H_1 of
the genus-h fibre, Z^2h in the basis (b_1..b_h, a_1..a_h) with <a_i, b_i> = 1:
each distinct [action] matrix must scale J = [[0, -I], [I, 0]] by +-1, and J
is built only once the matrices have been read at their size.  A [cocycle]
key that names a base generator is that generator's translation, even one
named 'offset'; any other key 'offset' or 'offset N' is the offset of
relator 1 or N.  No integer may exceed MAX_ENTRY_BITS bits.

A header is one bracketed word naming one of the four sections, in any case;
any other word is an error, and other bracketed text is section content.
Lines starting with '#' are comments; blank lines are ignored.  Only a
newline ends a line.
Cohomology inputs reuse the same layout without the [cocycle] section.
"""

from __future__ import annotations

import re
from typing import (Any, Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple,
                    Union)

from .extensions import (_ENTRY_CAP, MAX_ENTRY_BITS, KbBundleSpec, MalformedSpec,
                         SurfaceBundleSpec, TorusBundleSpec, _over_cap)
from .groupring import KB_AUT_NAMES, KbAut, KbElement, LinearRep, kb_multiply
from .words import Presentation, _quote, parse_presentation
from .zlinalg import IntMatrix


class BundleFile(NamedTuple):
    base: Presentation
    fibre_kind: str  # "torus" | "surface" | "kb"
    fibre_rank: int
    action_lines: Dict[str, str]
    # values by base generator name, and relator offsets by relator index
    cocycle_lines: Dict[Union[str, int], str]

    def torus_action(self) -> LinearRep:
        """theta, from the [action] section: the one place it is parsed."""
        rank = self.fibre_rank
        mats = {g: _parse_matrix(self._action_line(g), rank) for g in self.base.generators}
        try:
            action = LinearRep(mats, rank)
        except ValueError as exc:
            raise MalformedSpec(str(exc)) from exc
        if self.fibre_kind == "surface":
            _check_form(mats, rank)
        return action

    def to_spec(self):
        if self.fibre_kind == "kb":
            return self._kb_spec()
        return self._torus_spec()

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
        # H_1 of a torus is the torus group: 'surface 1' is 'torus 2'
        spec_class = TorusBundleSpec if self.fibre_kind == "torus" or rank == 2 else SurfaceBundleSpec
        return spec_class(self.base, action, translations, offsets)

    def _kb_spec(self) -> KbBundleSpec:
        pairs: Dict[str, Tuple[KbAut, KbElement]] = {
            g: (kb_aut_from_word(self._action_line(g)),
                kb_element_from_word(self.cocycle_lines.get(g, "1")))
            for g in self.base.generators}
        offsets = tuple(kb_element_from_word(self.cocycle_lines.get(i, "1"))
                        for i in range(1, len(self.base.relators) + 1))
        return KbBundleSpec(self.base, pairs, offsets)


def _parse_ints(tokens: Sequence[str], bad: Callable[[], str]) -> Tuple[int, ...]:
    """The integers the tokens spell, or MalformedSpec(bad()) if one is no
    integer (int()'s own limit of 4,300 digits included), so that the message
    is built only when it is raised.  No integer of a file may outgrow the Fox
    pass's entry cap or the digits a report prints: the first token over
    MAX_ENTRY_BITS bits is named."""
    try:
        ints = tuple(map(int, tokens))
    except ValueError as exc:
        raise MalformedSpec(bad()) from exc
    if ints and _over_cap(ints):
        token = next(t for t, n in zip(tokens, ints) if abs(n) > _ENTRY_CAP)
        raise MalformedSpec(f"integer {_quote(token)} has more than {MAX_ENTRY_BITS} bits")
    return ints


def _parse_vector(text: str, rank: int) -> Tuple[int, ...]:
    text = text.strip()
    if not text:
        return tuple(0 for _ in range(rank))
    vec = _parse_ints(text.split(), lambda: f"bad integer vector {_quote(text)}")
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
                           lambda: f"bad exponent in Klein-bottle token {_quote(token)}")
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


def _check_form(mats: Dict[str, IntMatrix], rank: int) -> None:
    """Each distinct matrix m must scale the intersection form J by +-1:
    m^T J m = J (orientation kept) or -J (reversed), by one product each."""
    h = rank // 2
    form = IntMatrix(rank, rank, tuple(
        tuple(-1 if j == i + h else 1 if j == i - h else 0 for j in range(rank))
        for i in range(rank)))
    signs = (form, -form)
    checked = set()
    for g, m in mats.items():
        if m.data in checked:
            continue
        # J m: the row blocks of m swapped, the new top block negated
        jm = IntMatrix(rank, rank, tuple(tuple(-x for x in row) for row in m.data[h:]) + m.data[:h])
        if m.transpose() @ jm not in signs:
            raise MalformedSpec(f"matrix for {g!r} does not scale the intersection form by +-1")
        checked.add(m.data)


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
# the fibre kinds read on Z^m, each with what its number gives (m = 2 * genus)
_FIBRE_SIZES = {"torus": "rank", "surface": "genus"}
# a header is one bracketed word; other bracketed text, such as a relator
# line "[a1,b1] [a2,b2]", is content of the current section
_SECTION_HEADER = re.compile(r"\[\s*(\w+)\s*\]")


def parse_bundle_file(text: str) -> BundleFile:
    sections: Dict[str, List[str]] = {}
    base_lines: List[str] = []  # the [base] lines in place, every other line blank
    current: Optional[str] = None
    # only a newline ends a line, as in the presentation parser, which reads
    # a vertical tab or a form feed as a space
    for raw in text.split("\n"):
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
    if kind in _FIBRE_SIZES:
        size = _FIBRE_SIZES[kind]
        if len(fibre_words) != 2:
            raise MalformedSpec(f"expected: {kind} <{size}>")
        (n,) = _parse_ints(fibre_words[1:], lambda: f"{kind} {size} must be an integer")
        if n < 1:
            raise MalformedSpec(f"{kind} {size} must be positive")
        rank = n if kind == "torus" else 2 * n  # H_1 of a genus-n surface is Z^2n
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
            (key,) = _parse_ints([index], lambda: f"bad relator index in {_quote(key)}")
            if not 1 <= key <= len(base.relators):
                raise MalformedSpec(f"offset index {key} out of range")
            duplicate = f"duplicate offset for relator {key}"
        else:
            raise MalformedSpec(f"line for {_quote(key)} does not name a base generator")
        if key in out:
            raise MalformedSpec(duplicate)
        out[key] = value.strip()
    return out
