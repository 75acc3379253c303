"""Free-group words evaluated in groups and rings: integer representations
and Fox calculus.

A word is evaluated in a group by one fold, ``evaluate_word``.  Its Fox
derivatives are evaluated in a ring by one prefix pass, ``fox_jacobian``,
which also returns the value of the word.  The ring is given by the pass's
arguments: image, mul, one and total.  A letter costs the pass one product
and one append of the prefix to its generator's "+" or "-" terms; each
derivative is total(plus, minus), formed once, and every FOLD_LETTERS
letters the terms are folded into one, so a long word holds few terms at
once.  ``ring_total(zero)`` is the total of a ring with + and -.  The matrix
ring of ``extensions`` (on flat integer tuples, summed in C), the lifts of a
torus bundle (its action theta and one translation per generator) and the
Laurent ring of ``transgression`` all read the one pass.  The program never
forms Fox derivatives as formal group-ring elements, so no word problem in
the target group ever arises.

No command calls ``LinearRep.evaluate_word``, ``evaluate_affine``,
``fox_derivative`` (over the formal ring ``FreeRingElement``) or
``evaluate_linear``: they stay only as targets of the benchmark's span tracer,
until the benchmark revision in ROADMAP.md drops them.

Also hosts the Klein-bottle group model: normal forms x^a y^b for the group
< x, y | x y x^-1 y >, its centre (generated by x^2), and its automorphisms
as three integers (eps, q, eta) for x |-> x^eps y^q, y |-> y^eta, which apply,
compose, invert and take powers in closed form.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, NamedTuple, Sequence, Tuple, TypeVar

from .words import Letter, Word
from .zlinalg import IntMatrix, Vector

T = TypeVar("T")
U = TypeVar("U")


def evaluate_word(w: Word, image: Callable[[Letter], T], mul: Callable[[T, T], T], one: T) -> T:
    """Value of w in a group: the product, left to right from one, of the
    images image(letter) of its (gen, sign) letters.  For a value in a ring
    together with the Fox derivatives, use ``fox_jacobian``."""
    out = one
    for letter in w.letters:
        out = mul(out, image(letter))
    return out


class LinearRep:
    """Assignment of a GL(m, Z) matrix to each generator."""

    def __init__(self, assignment: Mapping[str, IntMatrix], dim: int):
        self.assignment = assignment
        self.dim = dim
        # one elimination per distinct matrix both checks it and inverts it;
        # it also gives the inverse's own inverse, so an inverse pair costs one
        known: Dict[Tuple[Vector, ...], IntMatrix] = {}
        inverses: Dict[str, IntMatrix] = {}
        for g, m in self.assignment.items():
            if m.rows != self.dim or m.cols != self.dim:
                raise ValueError(f"matrix for {g!r} has wrong size")
            if m.data not in known:
                try:
                    known[m.data] = m.inverse_unimodular()
                except ValueError:
                    raise ValueError(f"matrix for {g!r} is not invertible over Z") from None
                known.setdefault(known[m.data].data, m)
            inverses[g] = known[m.data]
        self._inverses = inverses

    def matrix(self, gen: str, sign: int = 1) -> IntMatrix:
        if gen not in self.assignment:
            raise KeyError(f"generator {gen!r} has no assigned matrix")
        return self.assignment[gen] if sign == 1 else self._inverses[gen]

    def evaluate_word(self, w: Word) -> IntMatrix:
        """theta(w), by the fold ``evaluate_word``."""
        return evaluate_word(w, lambda letter: self.matrix(*letter), IntMatrix.__matmul__,
                             IntMatrix.identity(self.dim))


# letters the Fox pass walks between folds of its term lists: each
# generator then holds at most FOLD_LETTERS + 1 terms, however long the word
FOLD_LETTERS = 256


def fox_jacobian(w: Word, gens: Sequence[str], image: Callable[[Letter], U],
                 mul: Callable[[T, U], T], one: T,
                 total: Callable[[List[T], List[T]], T]) -> Tuple[T, Dict[str, T]]:
    """The value of w in a ring together with its Fox derivatives
    d w / d gen for every gen in gens, from one left-to-right pass.

    The ring is given by image, mul, one and total.  A letter (gen, sign)
    maps to a unit by image(letter), which mul(P, image(letter)) multiplies
    on the right of a ring element P; the image may be any form of the unit
    that mul reads.  A table's ``__getitem__`` is the usual image: it is
    called in C and costs the pass no Python frame per letter.  With P the
    running prefix value, a letter gen^+1 appends P to the "+" terms of gen
    and then moves P to P image(gen); a letter gen^-1 first moves P to
    P image(gen)^-1 and then appends it to the "-" terms of gen.  The final
    P is the value of w, and d w / d gen is total(plus, minus), the sum of
    the "+" terms less the sum of the "-" terms, formed once per generator;
    a generator absent from w gets total([], []).  Every FOLD_LETTERS
    letters each generator's lists are folded into the one term
    [total(plus, minus)], so the pass holds a bounded number of terms.  An
    exception that mul or total raises ends the pass.
    """
    plus: Dict[str, List[T]] = {g: [] for g in gens}
    minus: Dict[str, List[T]] = {g: [] for g in gens}
    prefix = one
    letters = w.letters
    for start in range(0, len(letters), FOLD_LETTERS):
        if start:
            for g, terms in plus.items():
                plus[g] = [total(terms, minus[g])]
                minus[g] = []
        for letter in letters[start:start + FOLD_LETTERS]:
            g, s = letter
            if s == 1:
                plus[g].append(prefix)
                prefix = mul(prefix, image(letter))
            else:
                prefix = mul(prefix, image(letter))
                minus[g].append(prefix)
    return prefix, {g: total(terms, minus[g]) for g, terms in plus.items()}


def ring_total(zero: T) -> Callable[[List[T], List[T]], T]:
    """The total of ``fox_jacobian`` for a ring whose elements add and
    subtract with + and -: sum(plus) - sum(minus), each sum from zero."""
    return lambda plus, minus: sum(plus, zero) - sum(minus, zero)


def evaluate_affine(w: Word, rep: LinearRep, translations: Mapping[str, Vector]
                    ) -> Tuple[IntMatrix, Vector]:
    """The value of w under the lifts (theta(x), t_x) of a torus bundle.

    Lifts multiply by (A, t)(B, s) = (AB, t + A s), so the value is
    (theta(w), sum_x theta(d w / d x) t_x): one Fox pass over theta gives both.
    """
    images = {letter: rep.matrix(*letter) for letter in w.letters}
    value, jac = fox_jacobian(w, translations, images.__getitem__, IntMatrix.__matmul__,
                              IntMatrix.identity(rep.dim),
                              ring_total(IntMatrix.zeros(rep.dim, rep.dim)))
    parts = [(0,) * rep.dim] + [jac[g].apply(t) for g, t in translations.items()]
    return value, tuple(map(sum, zip(*parts)))


class FreeRingElement(Dict[Word, int]):
    """An element of the integral group ring of a free group, as
    {freely reduced word: nonzero coefficient}."""

    def __add__(self, other: "FreeRingElement") -> "FreeRingElement":
        out = dict(self)
        for w, c in other.items():
            out[w] = out.get(w, 0) + c
        return FreeRingElement({w: c for w, c in out.items() if c})

    def __sub__(self, other: "FreeRingElement") -> "FreeRingElement":
        return self + FreeRingElement({w: -c for w, c in other.items()})

    def __mul__(self, other: "FreeRingElement") -> "FreeRingElement":
        out = FreeRingElement()
        for w1, c1 in self.items():
            for w2, c2 in other.items():
                out = out + FreeRingElement({w1 * w2: c1 * c2})
        return out


def fox_derivative(w: Word, gen: str) -> FreeRingElement:
    """d w / d gen in the group ring: the Fox pass with each letter sent to itself."""
    gens = {g for g, _ in w.letters} | {gen}
    images = {letter: FreeRingElement({Word.gen(*letter): 1}) for letter in w.letters}
    _, jac = fox_jacobian(w, gens, images.__getitem__, FreeRingElement.__mul__,
                          FreeRingElement({Word.identity(): 1}), ring_total(FreeRingElement()))
    return jac[gen]


def evaluate_linear(e: FreeRingElement, rep: LinearRep) -> IntMatrix:
    """theta extended linearly to the group ring."""
    out = IntMatrix.zeros(rep.dim, rep.dim)
    for w, c in e.items():
        m = rep.evaluate_word(w)
        out = out + IntMatrix(m.rows, m.cols, tuple(tuple(c * x for x in r) for r in m.data))
    return out


# --- Klein-bottle group model -----------------------------------------------


class KbElement(NamedTuple):
    """x^a y^b in the Klein-bottle group < x, y | x y x^-1 y >."""

    a: int
    b: int

    @staticmethod
    def identity() -> "KbElement":
        return KbElement(0, 0)

    def is_central(self) -> bool:
        return self.b == 0 and self.a % 2 == 0


def kb_multiply(p: KbElement, q: KbElement) -> KbElement:
    # x^a y^b . x^c y^d = x^(a+c) y^((-1)^c b + d)
    sign = 1 if q.a % 2 == 0 else -1
    return KbElement(p.a + q.a, sign * p.b + q.b)


def kb_inverse(p: KbElement) -> KbElement:
    sign = 1 if p.a % 2 == 0 else -1
    return KbElement(-p.a, -sign * p.b)


def kb_center_component(p: KbElement) -> int:
    """Coordinate of a central element under centre =~ Z generated by x^2."""
    if not p.is_central():
        raise ValueError(f"{p} is not central in the Klein-bottle group")
    return p.a // 2


class KbAut:
    """The automorphism x |-> x^eps y^q, y |-> y^eta of the Klein-bottle
    group, eps and eta each +-1: every automorphism has this form.

    eps is the +-1 by which it scales the centre, generated by x^2.
    """

    def __init__(self, eps: int, q: int, eta: int):
        self.eps = eps
        self.q = q
        self.eta = eta
        if self.eps not in (1, -1) or self.eta not in (1, -1):
            raise ValueError("eps and eta must be +-1")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KbAut):
            return NotImplemented
        return (self.eps, self.q, self.eta) == (other.eps, other.q, other.eta)

    @staticmethod
    def identity() -> "KbAut":
        return KbAut(1, 0, 1)

    def apply(self, p: KbElement) -> KbElement:
        # (x^eps y^q)^a = x^(eps a) y^(q (a mod 2)): the y-parts cancel in pairs
        return KbElement(self.eps * p.a, self.q * (p.a % 2) + self.eta * p.b)

    def compose(self, other: "KbAut") -> "KbAut":
        """self after other."""
        return KbAut(self.eps * other.eps, self.q + self.eta * other.q, self.eta * other.eta)

    def inverse(self) -> "KbAut":
        return KbAut(self.eps, -self.eta * self.q, self.eta)

    def power(self, n: int) -> "KbAut":
        """self composed with itself n times, the inverse's -n times for n < 0:
        q adds up when eta = 1, and the automorphism is an involution when eta = -1."""
        odd = n % 2
        q = self.q * n if self.eta == 1 else self.q * odd
        return KbAut(self.eps if odd else 1, q, self.eta if odd else 1)


def kb_pair_multiply(p: Tuple[KbElement, KbAut], q: Tuple[KbElement, KbAut]):
    """Product in fibre x| Aut(fibre): (e, a)(e', a') = (e a(e'), a o a')."""
    (e, a), (f, b) = p, q
    return kb_multiply(e, a.apply(f)), a.compose(b)


KB_ALPHA = KbAut(-1, 0, 1)
KB_GAMMA = KbAut(1, 1, 1)
KB_CONJ_X = KbAut(1, 0, -1)  # h |-> x^-1 h x
KB_CONJ_Y = KbAut(1, 2, 1)  # h |-> y^-1 h y

KB_AUT_NAMES: Dict[str, KbAut] = {
    "1": KbAut.identity(),
    "id": KbAut.identity(),
    "alpha": KB_ALPHA,
    "gamma": KB_GAMMA,
    "cx": KB_CONJ_X,
    "cy": KB_CONJ_Y,
}
