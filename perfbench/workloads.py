"""Seeded input generator for the bundlesec benchmark.

``build(workload, seed, outdir, specs_dir)`` writes one pass worth of input
files into ``outdir`` and returns the ops of that pass.  An op is one CLI
invocation ``bundlesec --json <command> <args...>`` together with what the
checker expects of it.

The size axes (relator length, genus, fibre rank, number of relators, action
kind) follow a fixed grid per workload, so every seed costs about the same.
The generator does not import bundlesec: its matrix and word helpers are its
own, so the verdicts it predicts by construction are an independent route.
"""

from __future__ import annotations

import random
import shutil
from dataclasses import dataclass, field
from math import gcd
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

WORKLOADS = ("cli_mix", "long_relators", "wide")

SPLITS = "SPLITS"
NO_SECTION = "NO_SECTION"
NO_SPLITTING = "NO_SPLITTING"
NOT_LIFT = "ACTION_DOES_NOT_LIFT"

# Shipped specs and the verdicts or groups their comments document.
SPEC_SPLIT_VERDICTS = {
    "flat_kb.bundle": NO_SECTION,
    "heisenberg_torus.bundle": NO_SECTION,
    "nil3e1_kb.bundle": NO_SECTION,
    "product_torus.bundle": SPLITS,
}
SPEC_COHOMOLOGY = {
    "torus_trivial_coeffs.bundle": {"h1": "Z^2", "h2": "Z"},
    "flat_center_coeffs.bundle": {"h2": "Z/2"},
}
SPEC_ABELIANIZE = {
    "kb.pres": {"group": "Z + Z/2"},
    "nil3e1.pres": {"rank": 2},
}

Matrix = List[List[int]]
Letters = List[Tuple[str, int]]


@dataclass
class Op:
    """One CLI invocation and what its output must satisfy."""

    command: str
    args: List[str] = field(default_factory=list)
    exit_code: int = 0
    verdict: Optional[str] = None      # known by construction, else None
    cross: bool = False                # compare split-check quotient with cohomology H^2
    expect: Dict[str, object] = field(default_factory=dict)  # fields of "result"

    @property
    def argv(self) -> List[str]:
        return ["--json", self.command, *self.args]


# --- integer matrices ---------------------------------------------------------


def identity(n: int) -> Matrix:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def matmul(a: Matrix, b: Matrix) -> Matrix:
    return [[sum(x * b[k][j] for k, x in enumerate(row)) for j in range(len(b[0]))]
            for row in a]


def elementary(n: int, i: int, j: int, c: int) -> Matrix:
    m = identity(n)
    m[i][j] = c
    return m


def transpose(m: Matrix) -> Matrix:
    return [list(row) for row in zip(*m)]


def signed_permutation(rng: random.Random, n: int) -> Matrix:
    """An orthogonal matrix: its inverse is its transpose."""
    perm = rng.sample(range(n), n)
    return [[rng.choice((1, -1)) if perm[i] == j else 0 for j in range(n)] for i in range(n)]


def conjugate(action: Dict[str, Matrix], p: Matrix) -> Dict[str, Matrix]:
    """P A P^-1 for a signed permutation P: same entries up to place and sign."""
    pt = transpose(p)
    return {g: matmul(matmul(p, a), pt) for g, a in action.items()}


def mat_power(m: Matrix, minv: Matrix, k: int) -> Matrix:
    out = identity(len(m))
    for _ in range(abs(k)):
        out = matmul(out, m if k > 0 else minv)
    return out


def matrix_and_inverse(rng: random.Random, n: int, kind: str) -> Tuple[Matrix, Matrix]:
    """A matrix in GL(n, Z) of the given kind, with its inverse.

    finite: a signed permutation; unipotent: a product of upper elementary
    matrices; hyperbolic: a product of elementary matrices on both sides of
    the diagonal.
    """
    if kind == "finite" or n == 1:
        m = identity(n)
        while m == identity(n):
            m = signed_permutation(rng, n)
        return m, transpose(m)
    steps = []
    for _ in range(n + 1):
        i, j = rng.sample(range(n), 2)
        if kind == "unipotent" and i > j:
            i, j = j, i
        steps.append((i, j, rng.choice((1, -1))))
    if kind == "hyperbolic":
        i = rng.randrange(n - 1)
        steps += [(i, i + 1, 1), (i + 1, i, 1)]
    m, minv = identity(n), identity(n)
    for i, j, c in steps:
        m = matmul(m, elementary(n, i, j, c))
        minv = matmul(elementary(n, i, j, -c), minv)
    return m, minv


def commuting_action(rng: random.Random, gens: Sequence[str], n: int, kind: str,
                     powers: Sequence[int] = (1, -1, 2)) -> Dict[str, Matrix]:
    """Powers of one matrix: the images commute, so every commutator dies."""
    m, minv = matrix_and_inverse(rng, n, kind)
    return {g: mat_power(m, minv, rng.choice(powers)) for g in gens}


def coboundary(action: Dict[str, Matrix], c: Sequence[int]) -> Dict[str, List[int]]:
    """t_g = (A_g - I) c: the lifts are conjugate to the untwisted ones."""
    out = {}
    for g, a in action.items():
        ac = [sum(x * y for x, y in zip(row, c)) for row in a]
        out[g] = [x - y for x, y in zip(ac, c)]
    return out


def small_vector(rng: random.Random, n: int, lo: int = -2, hi: int = 2) -> List[int]:
    return [rng.randint(lo, hi) for _ in range(n)]


# --- words ------------------------------------------------------------------


def reduce_letters(letters: Letters) -> Letters:
    stack: Letters = []
    for g, s in letters:
        if stack and stack[-1] == (g, -s):
            stack.pop()
        else:
            stack.append((g, s))
    return stack


def power(g: str, k: int) -> Letters:
    return [(g, 1 if k > 0 else -1)] * abs(k)


def inverse(w: Letters) -> Letters:
    return [(g, -s) for g, s in reversed(w)]


def commutator(a: Letters, b: Letters) -> Letters:
    return a + b + inverse(a) + inverse(b)


def render(w: Letters) -> str:
    """Syllable form, e.g. 'u^3 v^-2 u'."""
    parts = []
    i = 0
    while i < len(w):
        j = i
        while j < len(w) and w[j] == w[i]:
            j += 1
        e = w[i][1] * (j - i)
        parts.append(w[i][0] if e == 1 else f"{w[i][0]}^{e}")
        i = j
    return " ".join(parts)


def conjugated_commutators(rng: random.Random, gens: Sequence[str], length: int) -> Letters:
    """A product of p [x^a, y^b] p^-1 factors, freely reduced, of about `length` letters."""
    w: Letters = []
    while len(w) < length:
        room = length - len(w)
        x, y = rng.sample(list(gens), 2)
        a = rng.choice((1, -1, 2, -2)) if room >= 12 else rng.choice((1, -1))
        b = rng.choice((1, -1, 2, -2)) if room >= 12 else rng.choice((1, -1))
        plen = min(rng.randint(0, 3), max(0, (room - 2 * abs(a) - 2 * abs(b)) // 2))
        p = [(rng.choice(gens), rng.choice((1, -1))) for _ in range(plen)]
        p = reduce_letters(p)
        piece = p + commutator(power(x, a), power(y, b)) + inverse(p)
        w = reduce_letters(w + piece)
    return w


def power_heavy(rng: random.Random, gens: Sequence[str], length: int) -> Letters:
    """[x,y] x^P z^-P x^-P z^P: long in letters, short in syllables."""
    x, y = rng.sample(list(gens), 2)
    z = rng.choice([g for g in gens if g != x])
    p = (length - 4) // 4
    w = commutator(power(x, 1), power(y, 1)) + commutator(power(x, p), power(z, -p))
    return reduce_letters(w)


def surface_relator(g: int) -> Letters:
    w: Letters = []
    for i in range(1, g + 1):
        w += commutator(power(f"a{i}", 1), power(f"b{i}", 1))
    return w


# --- bundle files -------------------------------------------------------------


def torus_bundle(gens: Sequence[str], relators: Sequence[Letters], action: Dict[str, Matrix],
                 cocycle: Optional[Dict[str, List[int]]] = None,
                 offsets: Optional[Sequence[Sequence[int]]] = None) -> str:
    n = len(next(iter(action.values())))
    lines = ["[base]", f"< {', '.join(gens)} | {', '.join(render(r) for r in relators)} >",
             "[fibre]", f"torus {n}", "[action]"]
    for g in gens:
        lines.append(f"{g} = " + " ; ".join(" ".join(str(x) for x in row) for row in action[g]))
    if cocycle or offsets:
        lines.append("[cocycle]")
        for g in gens:
            if cocycle and g in cocycle:
                lines.append(f"{g} = " + " ".join(str(x) for x in cocycle[g]))
        for i, off in enumerate(offsets or (), 1):
            lines.append(f"offset {i} = " + " ".join(str(x) for x in off))
    return "\n".join(lines) + "\n"


def kb_bundle(auts: Dict[str, str], cocycle: Dict[str, str], offset: str) -> str:
    lines = ["[base]", "< u, v | [u,v] >", "[fibre]", "kb", "[action]"]
    lines += [f"{g} = {a}" for g, a in auts.items()]
    lines += ["[cocycle]"] + [f"{g} = {w}" for g, w in cocycle.items()]
    lines.append(f"offset 1 = {offset}")
    return "\n".join(lines) + "\n"


def kb_word(a: int, b: int) -> str:
    parts = [f"x^{a}"] if a else []
    parts += [f"y^{b}"] if b else []
    return " ".join(parts) or "1"


class _Writer:
    def __init__(self, outdir: Path):
        self.outdir = outdir
        self.count = 0

    def write(self, text: str, suffix: str = ".bundle") -> str:
        name = f"in{self.count:03d}{suffix}"
        self.count += 1
        (self.outdir / name).write_text(text, encoding="utf-8")
        return name


# --- workloads ----------------------------------------------------------------

_TORUS_GENS = ("u", "v")
_TORUS_REL = [commutator(power("u", 1), power("v", 1))]
_KINDS = ("finite", "unipotent", "hyperbolic")


def _cli_mix_torus(rng: random.Random, w: _Writer, i: int, category: str) -> Op:
    n = 1 + i % 3
    if category == "nolift":
        n = max(n, 2)
        m, minv = matrix_and_inverse(rng, n, "finite")
        a = matmul(matmul(m, elementary(n, 0, 1, rng.choice((1, -1)))), minv)
        b = matmul(matmul(m, elementary(n, 1, 0, rng.choice((1, -1)))), minv)
        text = torus_bundle(_TORUS_GENS, _TORUS_REL, {"u": a, "v": b},
                            {"u": small_vector(rng, n), "v": small_vector(rng, n)})
        return Op("split-check", [w.write(text)], verdict=NOT_LIFT)
    action = commuting_action(rng, _TORUS_GENS, n, _KINDS[i % 3])
    if category == "coboundary":
        text = torus_bundle(_TORUS_GENS, _TORUS_REL, action,
                            coboundary(action, small_vector(rng, n, -3, 3)))
        return Op("split-check", [w.write(text)], verdict=SPLITS, cross=True)
    if category == "central":
        # trivial action and cocycle: J_w = 0, so a nonzero offset is a nonzero class
        off = small_vector(rng, n)
        off[rng.randrange(n)] = rng.choice((1, 2, -1))
        text = torus_bundle(_TORUS_GENS, _TORUS_REL, {"u": identity(n), "v": identity(n)},
                            offsets=[off])
        verdict = NO_SECTION if n == 2 else NO_SPLITTING
        return Op("split-check", [w.write(text)], verdict=verdict, cross=True)
    text = torus_bundle(_TORUS_GENS, _TORUS_REL, action,
                        {g: small_vector(rng, n) for g in _TORUS_GENS}, [small_vector(rng, n)])
    return Op("split-check", [w.write(text)], cross=True)


def _cli_mix_kb(rng: random.Random, w: _Writer, category: str) -> Op:
    if category == "generic":
        auts = {g: rng.choice(("id", "alpha", "gamma", "cx", "cy", "alpha gamma"))
                for g in _TORUS_GENS}
        cocycle = {g: kb_word(rng.randint(-2, 2), rng.randint(-2, 2)) for g in _TORUS_GENS}
        text = kb_bundle(auts, cocycle, kb_word(2 * rng.randint(-1, 1), 0))
        return Op("split-check", [w.write(text)])
    auts = {g: rng.choice(("id", "alpha")) for g in _TORUS_GENS}
    if category == "nolift":
        # trivial cocycle: the relator lifts to the offset, which is not central
        a, b = rng.choice(((1, 0), (3, 0), (0, 1), (2, -1), (-1, 2)))
        text = kb_bundle(auts, {"u": "1", "v": "1"}, kb_word(a, b))
        return Op("split-check", [w.write(text)], verdict=NOT_LIFT)
    # category "central": trivial cocycle and offset x^2k, so the class is k in
    # Z, or k mod 2 when alpha (which negates the centre) acts
    k = rng.randint(-2, 2)
    text = kb_bundle(auts, {"u": "1", "v": "1"}, kb_word(2 * k, 0))
    twisted = "alpha" in auts.values()
    zero = k % 2 == 0 if twisted else k == 0
    return Op("split-check", [w.write(text)], verdict=SPLITS if zero else NO_SECTION)


# Per pass of cli_mix: 80 generated split-checks (16 of them non-lifting),
# the 4 shipped split-check specs, 5 cohomology, 3 abelianize, 2 transgress,
# 2 endo and 4 inputs that must be rejected: 100 ops.
_TORUS_CATEGORIES = ("coboundary", "central", "generic", "generic", "nolift")
_KB_CATEGORIES = ("central", "central", "generic", "nolift", "central")


def _cli_mix(rng: random.Random, w: _Writer, specs_dir: Path) -> List[Op]:
    ops: List[Op] = []
    for i in range(60):
        ops.append(_cli_mix_torus(rng, w, i, _TORUS_CATEGORIES[i % 5]))
    for i in range(20):
        ops.append(_cli_mix_kb(rng, w, _KB_CATEGORIES[i % 5]))

    for name, verdict in SPEC_SPLIT_VERDICTS.items():
        shutil.copyfile(specs_dir / name, w.outdir / name)
        ops.append(Op("split-check", [name], verdict=verdict))
    for name, expect in SPEC_COHOMOLOGY.items():
        shutil.copyfile(specs_dir / name, w.outdir / name)
        ops.append(Op("cohomology", [name], expect=dict(expect)))
    for name, expect in SPEC_ABELIANIZE.items():
        shutil.copyfile(specs_dir / name, w.outdir / name)
        ops.append(Op("abelianize", [name], expect=dict(expect)))

    for i in range(2):
        n = 2 + i
        action = commuting_action(rng, _TORUS_GENS, n, _KINDS[i])
        text = torus_bundle(_TORUS_GENS, _TORUS_REL, action)
        ops.append(Op("cohomology", [w.write(text)], cross=True))
    # A module that does not kill the base relator: the documented answer is
    # exit 4 (malformed bundle data).
    a = elementary(2, 0, 1, 1)
    b = elementary(2, 1, 0, 1)
    text = torus_bundle(_TORUS_GENS, _TORUS_REL, {"u": a, "v": b})
    ops.append(Op("cohomology", [w.write(text)], exit_code=4))

    p, q = rng.choice((2, 3, 4, 6)), rng.choice((2, 3, 5, 9))
    text = f"< a, b | [a,b], a^{p}, b^{q} >\n"
    factors = [f for f in (gcd(p, q), p * q // gcd(p, q)) if f > 1]
    ops.append(Op("abelianize", [w.write(text, ".pres")],
                  expect={"invariant_factors": factors}))

    lo = rng.randint(-6, 0)
    ops.append(Op("transgress", ["--range", f"{lo}..{lo + 6}"], verdict="AGREE"))
    ops.append(Op("transgress", ["--k", str(rng.choice((-3, -2, -1, 1, 2, 3)))],
                  verdict="AGREE"))
    ops += [Op("endo", verdict=NO_SECTION), Op("endo", verdict=NO_SECTION)]

    ops.append(Op("split-check", ["missing.bundle"], exit_code=2))
    bad_pres = rng.choice(("< a, b | a b ^ >\n", "< a, b | a c >\n", "< a b | a >\n"))
    ops.append(Op("abelianize", [w.write(bad_pres, ".pres")], exit_code=3))
    bad_matrix = torus_bundle(_TORUS_GENS, _TORUS_REL, {"u": identity(2), "v": identity(2)})
    bad_matrix = bad_matrix.replace("v = 1 0 ; 0 1", "v = 1 0 0 ; 0 1 0")
    ops.append(Op("split-check", [w.write(bad_matrix)], exit_code=4))
    bad_fibre = torus_bundle(_TORUS_GENS, _TORUS_REL, {"u": identity(2), "v": identity(2)})
    ops.append(Op("split-check", [w.write(bad_fibre.replace("torus 2", "sphere 2"))],
                  exit_code=4))
    return ops


# long_relators and wide fix the shape of each input (relator
# words up to renaming, matrices up to signed-permutation conjugation, matrix
# powers) from its slot number alone, because that shape sets the cost; the
# seed renames generators, conjugates the action and picks the cocycle.  Runs
# with different seeds then measure the same amount of work.


def _long_relators(rng: random.Random, w: _Writer) -> List[Op]:
    """13 inputs, relator letters 48..240 in steps of 16."""
    ops = []
    for i, length in enumerate(range(48, 241, 16)):
        shape = random.Random(f"long_relators-shape:{i}")
        gens = ("u", "v") if i % 2 == 0 else ("u", "v", "w")
        names = rng.sample(gens, len(gens))
        n = 3 if i % 3 == 2 else 2
        kind = "finite" if i % 2 == 0 else "unipotent"
        build = power_heavy if i % 3 == 0 else conjugated_commutators
        count = 2 if i % 4 == 3 else 1
        relators = [build(shape, names, length // count) for _ in range(count)]
        action = commuting_action(shape, names, n, kind, powers=(1, -1))
        action = conjugate(action, signed_permutation(rng, n))
        if (i // 2) % 2 == 0:
            text = torus_bundle(gens, relators, action,
                                coboundary(action, small_vector(rng, n, -3, 3)))
            verdict = SPLITS
        else:
            text = torus_bundle(gens, relators, action,
                                {g: small_vector(rng, n) for g in gens},
                                [small_vector(rng, n) for _ in relators])
            verdict = None
        ops.append(Op("split-check", [w.write(text)], verdict=verdict, cross=count == 1))
    return ops


def _wide(rng: random.Random, w: _Writer) -> List[Op]:
    """16 genus-g bases (g = 2..5) with fibre rank 4..8, each run through
    split-check and cohomology."""
    ops = []
    for i, (g, n) in enumerate((g, n) for g in (2, 3, 4, 5) for n in (4, 5, 6, 8)):
        shape = random.Random(f"wide-shape:{i}")
        gens = [f"{c}{k}" for k in range(1, g + 1) for c in "ab"]
        relators = [surface_relator(g)]
        if i in (6, 13):
            relators.append(commutator(power("a1", 1), power("a2", 1)))
        action = commuting_action(shape, gens, n, _KINDS[i % 3], powers=(1, -1, 2, 0))
        action = conjugate(action, signed_permutation(rng, n))
        is_cob = i % 2 == 0
        if is_cob:
            cocycle = coboundary(action, small_vector(rng, n, -3, 3))
            offsets = None
        else:
            cocycle = {x: small_vector(rng, n) for x in gens}
            offsets = [small_vector(rng, n) for _ in relators]
        name = w.write(torus_bundle(gens, relators, action, cocycle, offsets))
        one = len(relators) == 1
        ops.append(Op("split-check", [name], verdict=SPLITS if is_cob else None, cross=one))
        ops.append(Op("cohomology", [name], cross=one))
    return ops


def build(workload: str, seed: int, outdir: Path, specs_dir: Path) -> List[Op]:
    """Write one pass of `workload` into `outdir` and return its ops in run order."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    w = _Writer(outdir)
    if workload == "cli_mix":
        ops = _cli_mix(rng, w, specs_dir)
    elif workload == "long_relators":
        ops = _long_relators(rng, w)
    else:
        ops = _wide(rng, w)
    rng.shuffle(ops)
    return ops
