"""Formal group-ring elements on free-group words, Fox derivatives, and
their evaluation under linear and affine integer representations.

Words are evaluated by one fold, ``evaluate_word``; the Fox Jacobian of a
relator under a linear representation comes from one pass, ``fox_jacobian``.
``fox_derivative`` and ``evaluate_linear`` stay as the formal reference.

Group-ring words are never reduced modulo relations of the target group;
every consumer evaluates them under a representation instead, so no word
problem ever arises.

Also hosts the Klein-bottle group model: normal forms x^a y^b for the group
< x, y | x y x^-1 y >, its automorphisms, and its centre (generated by x^2).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, Mapping, Sequence, Tuple, TypeVar

from .words import Word
from .zlinalg import IntMatrix, Vector

T = TypeVar("T")


class FreeRingElement:
    """A finite integer combination of freely reduced words."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Word, int] = ()):
        clean = {w: c for w, c in dict(terms).items() if c != 0}
        self.terms: Dict[Word, int] = clean

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
        bits = []
        for w, c in sorted(self.terms.items(), key=lambda t: str(t[0])):
            bits.append(f"{c}*({w})")
        return " + ".join(bits)


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


def evaluate_word(w: Word, image: Callable[[str, int], T], mul: Callable[[T, T], T], one: T) -> T:
    """Value of w in a group: the product, left to right from one, of the
    images image(gen, sign) of its letters.  Every word evaluation under a
    representation goes through this fold."""
    out = one
    for g, s in w.letters:
        out = mul(out, image(g, s))
    return out


@dataclass(frozen=True)
class LinearRep:
    """Assignment of a GL(m, Z) matrix to each generator."""

    assignment: Mapping[str, IntMatrix]
    dim: int

    def __post_init__(self) -> None:
        for g, m in self.assignment.items():
            if m.rows != self.dim or m.cols != self.dim:
                raise ValueError(f"matrix for {g!r} has wrong size")
            if not m.is_unimodular():
                raise ValueError(f"matrix for {g!r} is not invertible over Z")

    @cached_property
    def _inverses(self) -> Dict[str, IntMatrix]:
        return {g: m.inverse_unimodular() for g, m in self.assignment.items()}

    def matrix(self, gen: str, sign: int = 1) -> IntMatrix:
        if gen not in self.assignment:
            raise KeyError(f"generator {gen!r} has no assigned matrix")
        return self.assignment[gen] if sign == 1 else self._inverses[gen]

    def evaluate_word(self, w: Word) -> IntMatrix:
        return evaluate_word(w, self.matrix, IntMatrix.__matmul__, IntMatrix.identity(self.dim))


def evaluate_linear(e: FreeRingElement, rep: LinearRep) -> IntMatrix:
    """Linear extension of the representation to the group ring."""
    out = IntMatrix.zeros(rep.dim, rep.dim)
    for w, c in e.terms.items():
        m = rep.evaluate_word(w)
        out = out + IntMatrix(m.rows, m.cols, tuple(tuple(c * x for x in row) for row in m.data))
    return out


def fox_jacobian(r: Word, rep: LinearRep) -> Dict[str, IntMatrix]:
    """theta(d r / d gen) for every generator of the representation.

    One left-to-right pass over r with the running prefix value P: a letter
    gen^+1 adds P to the entry of gen and then moves P to P theta(gen); a
    letter gen^-1 first moves P to P theta(gen)^-1 and then subtracts it.
    Generators absent from r get the zero matrix.
    """
    zero = IntMatrix.zeros(rep.dim, rep.dim)
    jac = {g: zero for g in rep.assignment}
    prefix = IntMatrix.identity(rep.dim)
    for g, s in r.letters:
        m = rep.matrix(g, s)
        if s == 1:
            jac[g] = jac[g] + prefix
            prefix = prefix @ m
        else:
            prefix = prefix @ m
            jac[g] = jac[g] - prefix
    return jac


@dataclass(frozen=True)
class AffineRep:
    """Assignment of an affine pair (matrix, translation) to each generator.

    Pairs multiply by (A, t)(B, s) = (AB, t + A s), so evaluation of a word is
    left to right; the inverse of (A, t) is (A^-1, -A^-1 t).
    """

    assignment: Mapping[str, Tuple[IntMatrix, Vector]]
    dim: int

    def __post_init__(self) -> None:
        for g, (_, t) in self.assignment.items():
            if len(t) != self.dim:
                raise ValueError(f"affine pair for {g!r} has wrong size")
        # the matrix part: checked, and its inverses computed, once
        linear = LinearRep({g: m for g, (m, _) in self.assignment.items()}, self.dim)
        object.__setattr__(self, "linear", linear)

    def pair(self, gen: str, sign: int = 1) -> Tuple[IntMatrix, Vector]:
        if gen not in self.assignment:
            raise KeyError(f"generator {gen!r} has no assigned affine pair")
        m, t = self.assignment[gen]
        if sign == 1:
            return m, t
        minv = self.linear.matrix(gen, -1)
        return minv, tuple(-x for x in minv.apply(t))


def affine_multiply(p: Tuple[IntMatrix, Vector], q: Tuple[IntMatrix, Vector]):
    (a, t), (b, s) = p, q
    return a @ b, tuple(x + y for x, y in zip(t, a.apply(s)))


def evaluate_affine(w: Word, rep: AffineRep) -> Tuple[IntMatrix, Vector]:
    return evaluate_word(w, rep.pair, affine_multiply,
                         (IntMatrix.identity(rep.dim), tuple(0 for _ in range(rep.dim))))


# --- Klein-bottle group model -----------------------------------------------


@dataclass(frozen=True)
class KbElement:
    """x^a y^b in the Klein-bottle group < x, y | x y x^-1 y >."""

    a: int
    b: int

    @staticmethod
    def identity() -> "KbElement":
        return KbElement(0, 0)

    @staticmethod
    def x(n: int = 1) -> "KbElement":
        return KbElement(n, 0)

    @staticmethod
    def y(n: int = 1) -> "KbElement":
        return KbElement(0, n)

    def is_identity(self) -> bool:
        return self.a == 0 and self.b == 0

    def is_central(self) -> bool:
        return self.b == 0 and self.a % 2 == 0

    def __str__(self) -> str:
        if self.is_identity():
            return "1"
        parts = []
        if self.a:
            parts.append("x" if self.a == 1 else f"x^{self.a}")
        if self.b:
            parts.append("y" if self.b == 1 else f"y^{self.b}")
        return " ".join(parts)


def kb_multiply(p: KbElement, q: KbElement) -> KbElement:
    # x^a y^b . x^c y^d = x^(a+c) y^((-1)^c b + d)
    sign = 1 if q.a % 2 == 0 else -1
    return KbElement(p.a + q.a, sign * p.b + q.b)


def kb_inverse(p: KbElement) -> KbElement:
    sign = 1 if p.a % 2 == 0 else -1
    return KbElement(-p.a, -sign * p.b)


def kb_power(p: KbElement, n: int) -> KbElement:
    # y^b x^a = x^a y^((-1)^a b): for even a the factors of p^n commute,
    # for odd a the y-parts cancel in pairs
    if p.a % 2 == 0:
        return KbElement(n * p.a, n * p.b)
    return KbElement(n * p.a, p.b * (n % 2))


def kb_center_component(p: KbElement) -> int:
    """Coordinate of a central element under centre =~ Z generated by x^2."""
    if not p.is_central():
        raise ValueError(f"{p} is not central in the Klein-bottle group")
    return p.a // 2


@dataclass(frozen=True)
class KbAut:
    """An automorphism of the Klein-bottle group, by images of x and y.

    Validity requires image_y = y^{+-1} and the x-exponent of image_x to be
    +-1; the defining relation is then automatic (checked anyway).
    """

    image_x: KbElement
    image_y: KbElement

    def __post_init__(self) -> None:
        if self.image_y.a != 0 or self.image_y.b not in (1, -1):
            raise ValueError("image of y must be y or y^-1")
        if self.image_x.a not in (1, -1):
            raise ValueError("image of x must have x-exponent +-1")
        lhs = kb_multiply(kb_multiply(self.image_x, self.image_y), kb_inverse(self.image_x))
        if lhs != kb_inverse(self.image_y):
            raise ValueError("images do not satisfy the defining relation")

    @staticmethod
    def identity() -> "KbAut":
        return KbAut(KbElement.x(), KbElement.y())

    def apply(self, p: KbElement) -> KbElement:
        return kb_multiply(kb_power(self.image_x, p.a), kb_power(self.image_y, p.b))

    def compose(self, other: "KbAut") -> "KbAut":
        """self after other."""
        return KbAut(self.apply(other.image_x), self.apply(other.image_y))

    def inverse(self) -> "KbAut":
        p, q = self.image_x.a, self.image_x.b
        eps = self.image_y.b
        return KbAut(KbElement(p, -q * eps), KbElement(0, eps))

    def center_action(self) -> int:
        """The +-1 by which the automorphism scales the centre."""
        return kb_center_component(self.apply(KbElement.x(2)))


def kb_pair_multiply(p: Tuple[KbElement, KbAut], q: Tuple[KbElement, KbAut]):
    """Product in fibre x| Aut(fibre): (e, a)(e', a') = (e a(e'), a o a')."""
    (e, a), (f, b) = p, q
    return kb_multiply(e, a.apply(f)), a.compose(b)


def kb_conjugation(g: KbElement) -> KbAut:
    """The automorphism h |-> g^-1 h g."""
    ginv = kb_inverse(g)
    return KbAut(
        kb_multiply(kb_multiply(ginv, KbElement.x()), g),
        kb_multiply(kb_multiply(ginv, KbElement.y()), g),
    )


KB_ALPHA = KbAut(KbElement.x(-1), KbElement.y())
KB_GAMMA = KbAut(KbElement(1, 1), KbElement.y())
KB_CONJ_X = kb_conjugation(KbElement.x())
KB_CONJ_Y = kb_conjugation(KbElement.y())

KB_AUT_NAMES: Dict[str, KbAut] = {
    "1": KbAut.identity(),
    "id": KbAut.identity(),
    "alpha": KB_ALPHA,
    "gamma": KB_GAMMA,
    "cx": KB_CONJ_X,
    "cy": KB_CONJ_Y,
}


def kb_aut_from_word(text: str) -> KbAut:
    """Compose named automorphisms, e.g. 'alpha gamma' or 'alpha^-1'."""
    out = KbAut.identity()
    for token in text.split():
        name, _, exp = token.partition("^")
        if name not in KB_AUT_NAMES:
            raise ValueError(f"unknown Klein-bottle automorphism {name!r}")
        a = KB_AUT_NAMES[name]
        n = int(exp) if exp else 1
        if n < 0:
            a = a.inverse()
            n = -n
        # square and multiply: out o a^n in O(log n) compositions
        while n:
            if n & 1:
                out = out.compose(a)
            a = a.compose(a)
            n >>= 1
    return out


def kb_element_from_word(text: str) -> KbElement:
    """Parse a product of x/y powers, e.g. 'x^2 y^-1' or '1'."""
    out = KbElement.identity()
    for token in text.split():
        if token == "1":
            continue
        name, _, exp = token.partition("^")
        n = int(exp) if exp else 1
        if name == "x":
            out = kb_multiply(out, KbElement.x(n))
        elif name == "y":
            out = kb_multiply(out, KbElement.y(n))
        else:
            raise ValueError(f"unknown Klein-bottle generator {name!r}")
    return out
