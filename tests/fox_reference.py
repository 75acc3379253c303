"""Reference Fox calculus for the differential tests.

The program evaluates Fox derivatives only through the one prefix pass
``groupring.fox_jacobian``.  This module takes the long way round, with no
code shared with that pass: it forms d w / d x as a formal element of the
integral group ring of the free group, then maps it to a ring term by term,
evaluating each word letter by letter.  It also holds the letter-by-letter
affine fold, whose translation part the pass computes as
sum_x theta(d w / d x) t_x, and the same fold with matrix translations,
which gives all the blocks theta(d w / d x) of a long word in time linear in
its length.
"""

from __future__ import annotations

from typing import Dict, Mapping, Sequence, Tuple

from bundlesec.groupring import LinearRep
from bundlesec.words import Word
from bundlesec.zlinalg import IntMatrix, Vector


class FreeRingElement:
    """A finite integer combination of freely reduced words."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Word, int] = ()):
        self.terms: Dict[Word, int] = {w: c for w, c in dict(terms).items() if c != 0}

    @staticmethod
    def zero() -> "FreeRingElement":
        return FreeRingElement()

    @staticmethod
    def one() -> "FreeRingElement":
        return FreeRingElement({Word.identity(): 1})

    @staticmethod
    def of(w: Word, coeff: int = 1) -> "FreeRingElement":
        return FreeRingElement({w: coeff})

    def __add__(self, other: "FreeRingElement") -> "FreeRingElement":
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0) + c
        return FreeRingElement(out)

    def __sub__(self, other: "FreeRingElement") -> "FreeRingElement":
        return self + (-other)

    def __neg__(self) -> "FreeRingElement":
        return FreeRingElement({w: -c for w, c in self.terms.items()})

    def __mul__(self, other: "FreeRingElement") -> "FreeRingElement":
        out: Dict[Word, int] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 * w2
                out[w] = out.get(w, 0) + c1 * c2
        return FreeRingElement(out)

    def augmentation(self) -> int:
        return sum(self.terms.values())

    def __eq__(self, other) -> bool:
        return isinstance(other, FreeRingElement) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"{c}*({w})" for w, c in sorted(self.terms.items(),
                                                          key=lambda t: str(t[0])))


def fox_derivative(r: Word, gen: str) -> FreeRingElement:
    """The free derivative d/d(gen) of r.

    For r = prod x_i^{eta(i)} this is the sum over occurrences of gen of
    eta(i) * (prefix before position i) * gen^{delta(i)}, where delta = 0
    for a positive letter and -1 for a negative one.
    """
    out = FreeRingElement.zero()
    for i, (g, s) in enumerate(r.letters):
        if g != gen:
            continue
        prefix = Word(r.letters[:i])
        if s == 1:
            out = out + FreeRingElement.of(prefix, 1)
        else:
            out = out + FreeRingElement.of(prefix * Word.gen(gen, -1), -1)
    return out


def fox_identity_residual(r: Word, gens: Sequence[str]) -> FreeRingElement:
    """sum_g (d r / d g) * (g - 1) - (r - 1); zero for every word r."""
    total = FreeRingElement.zero()
    for g in gens:
        d = fox_derivative(r, g)
        total = total + d * (FreeRingElement.of(Word.gen(g)) - FreeRingElement.one())
    return total - (FreeRingElement.of(r) - FreeRingElement.one())


def linear_value(w: Word, rep: LinearRep) -> IntMatrix:
    """theta(w), letter by letter, inverting each negative letter afresh."""
    out = IntMatrix.identity(rep.dim)
    for g, s in w.letters:
        m = rep.assignment[g]
        out = out @ (m if s == 1 else m.inverse_unimodular())
    return out


def fox_block_row(w: Word, rep: LinearRep, gens: Sequence[str]) -> Tuple[IntMatrix, IntMatrix]:
    """theta(w) and the m x m|gens| block row [theta(d w / d x)]_x, by the
    affine fold with matrix translations: the lift of x carries the matrix
    E_x with I in block x and zeros elsewhere, and (A, T)(B, S) =
    (AB, T + A S), so the translation part of the value of w is
    sum_x theta(d w / d x) E_x.  The lift of x^-1 is (A^-1, -A^-1 E_x)."""
    m = rep.dim
    width = m * len(gens)
    units = {g: IntMatrix(m, width, tuple(tuple(int(c == k * m + i) for c in range(width))
                                          for i in range(m)))
             for k, g in enumerate(gens)}
    inverses = {g: rep.assignment[g].inverse_unimodular() for g in gens}
    value, row = IntMatrix.identity(m), IntMatrix.zeros(m, width)
    for g, s in w.letters:
        if s == 1:
            value, row = value @ rep.assignment[g], row + value @ units[g]
        else:
            value = value @ inverses[g]
            row = row - value @ units[g]
    return value, row


def evaluate_linear(e: FreeRingElement, rep: LinearRep) -> IntMatrix:
    """Linear extension of the representation to the group ring."""
    out = IntMatrix.zeros(rep.dim, rep.dim)
    for w, c in e.terms.items():
        m = linear_value(w, rep)
        out = out + IntMatrix(m.rows, m.cols, tuple(tuple(c * x for x in row) for row in m.data))
    return out


Affine = Tuple[IntMatrix, Vector]


def affine_pair(rep: LinearRep, translations: Mapping[str, Vector], gen: str,
                sign: int = 1) -> Affine:
    """The lift of gen^sign: (A, t), or (A^-1, -A^-1 t)."""
    m, t = rep.assignment[gen], translations[gen]
    if sign == 1:
        return m, t
    minv = m.inverse_unimodular()
    return minv, tuple(-x for x in minv.apply(t))


def affine_multiply(p: Affine, q: Affine) -> Affine:
    """(A, t)(B, s) = (AB, t + A s)."""
    (a, t), (b, s) = p, q
    return a @ b, tuple(x + y for x, y in zip(t, a.apply(s)))


def evaluate_affine(w: Word, rep: LinearRep, translations: Mapping[str, Vector]) -> Affine:
    """The affine value of w under the lifts, letter by letter."""
    out: Affine = (IntMatrix.identity(rep.dim), (0,) * rep.dim)
    for g, s in w.letters:
        out = affine_multiply(out, affine_pair(rep, translations, g, s))
    return out
