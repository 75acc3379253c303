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

Lines starting with '#' are comments; blank lines are ignored.
Cohomology inputs reuse the same layout without the [cocycle] section.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .extensions import KbBundleSpec, MalformedSpec, TorusBundleSpec
from .groupring import (
    AffineRep,
    KbAut,
    KbElement,
    LinearRep,
    kb_aut_from_word,
    kb_element_from_word,
)
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
            raise MalformedSpec(f"[action] is missing generator {g!r}")
        return self.action_lines[g]

    def _torus_spec(self) -> TorusBundleSpec:
        rank = self.fibre_rank
        assignment = {}
        for g in self.base.generators:
            mat = _parse_matrix(self._action_line(g), rank)
            tvec = _parse_vector(self.cocycle_lines.get(g, ""), rank)
            assignment[g] = (mat, tvec)
        offsets = []
        for i in range(1, len(self.base.relators) + 1):
            offsets.append(_parse_vector(self.offset_lines.get(i, ""), rank))
        try:
            cocycle = AffineRep(assignment, rank)
        except ValueError as exc:
            raise MalformedSpec(str(exc)) from exc
        return TorusBundleSpec(self.base, rank, cocycle, tuple(offsets))

    def _kb_spec(self) -> KbBundleSpec:
        pairs: Dict[str, Tuple[KbAut, KbElement]] = {}
        for g in self.base.generators:
            try:
                aut = kb_aut_from_word(self._action_line(g))
                elem = kb_element_from_word(self.cocycle_lines.get(g, "1"))
            except ValueError as exc:
                raise MalformedSpec(str(exc)) from exc
            pairs[g] = (aut, elem)
        offsets = []
        for i in range(1, len(self.base.relators) + 1):
            try:
                offsets.append(kb_element_from_word(self.offset_lines.get(i, "1")))
            except ValueError as exc:
                raise MalformedSpec(str(exc)) from exc
        return KbBundleSpec(self.base, pairs, tuple(offsets))


def _parse_vector(text: str, rank: int) -> Tuple[int, ...]:
    text = text.strip()
    if not text:
        return tuple(0 for _ in range(rank))
    try:
        vec = tuple(int(tok) for tok in text.split())
    except ValueError as exc:
        raise MalformedSpec(f"bad integer vector {text!r}") from exc
    if len(vec) != rank:
        raise MalformedSpec(f"vector {text!r} does not have length {rank}")
    return vec


def _parse_matrix(text: str, rank: int) -> IntMatrix:
    rows = []
    for part in text.split(";"):
        rows.append(_parse_vector(part, rank))
    if len(rows) != rank:
        raise MalformedSpec(f"matrix {text!r} does not have {rank} rows")
    return IntMatrix.from_rows(rows)


def parse_bundle_file(text: str) -> BundleFile:
    sections: Dict[str, List[str]] = {}
    base_lines: List[str] = []  # the [base] lines in place, every other line blank
    current: Optional[str] = None
    for raw in text.splitlines():
        base_lines.append("")
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            if current in sections:
                raise MalformedSpec(f"duplicate section [{current}]")
            sections[current] = []
            continue
        if current is None:
            raise MalformedSpec(f"content before any section: {line!r}")
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
        try:
            rank = int(fibre_words[1])
        except ValueError as exc:
            raise MalformedSpec("torus rank must be an integer") from exc
        if rank < 1:
            raise MalformedSpec("torus rank must be positive")
    elif kind == "kb":
        rank = 1  # rank of the centre
    else:
        raise MalformedSpec(f"unknown fibre kind {kind!r}")

    action_lines: Dict[str, str] = {}
    for line in sections.get("action", []):
        key, value = _split_assignment(line)
        if key in action_lines:
            raise MalformedSpec(f"duplicate [action] line for {key!r}")
        action_lines[key] = value

    cocycle_lines: Dict[str, str] = {}
    offset_lines: Dict[int, str] = {}
    for line in sections.get("cocycle", []):
        key, value = _split_assignment(line)
        if key.startswith("offset"):
            idx_text = key[len("offset"):].strip()
            try:
                idx = int(idx_text) if idx_text else 1
            except ValueError as exc:
                raise MalformedSpec(f"bad relator index in {key!r}") from exc
            if not 1 <= idx <= len(base.relators):
                raise MalformedSpec(f"offset index {idx} out of range")
            if idx in offset_lines:
                raise MalformedSpec(f"duplicate offset for relator {idx}")
            offset_lines[idx] = value
        else:
            if key in cocycle_lines:
                raise MalformedSpec(f"duplicate [cocycle] line for {key!r}")
            cocycle_lines[key] = value

    for key in list(action_lines) + list(cocycle_lines):
        if key not in base.generators:
            raise MalformedSpec(f"line for {key!r} does not name a base generator")

    return BundleFile(base, kind, rank, action_lines, cocycle_lines, offset_lines)


def _split_assignment(line: str) -> Tuple[str, str]:
    if "=" not in line:
        raise MalformedSpec(f"expected 'name = value', found {line!r}")
    key, value = line.split("=", 1)
    return key.strip(), value.strip()
