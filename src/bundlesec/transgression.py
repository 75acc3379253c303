"""Chain-level verification that the degree-2 transgression of a central
extension over Z^2 is evaluation of the extension class.

Two independent computations are compared for the family of central
extensions pi_k = < u, x, y | u^-k [x,y], [u,x], [u,y] > of Z^2 by Z:

* ``transgress`` runs the bicomplex zig-zag on the presentation resolution
  tensored down to the Laurent ring Z[x^+-, y^+-], whose boundary blocks are
  the Fox derivatives of the relators from the ring-generic Fox pass
  ``groupring.fox_jacobian``;
* ``xi_star`` evaluates the base relator word through the section lifts in
  the group itself (via the nilpotent normal form u^m x^a y^b), with a loop
  of its own so that the two routes share no code.

The global sign of the zig-zag is a convention; it is pinned here so that
the k = 1 extension yields +1 on both routes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Sequence, Tuple

from .groupring import fox_jacobian
from .words import Word, commutator

Monomial = Tuple[int, int]


class LaurentElement:
    """Sparse integer Laurent polynomial in two commuting variables."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, int] = ()):
        self.terms: Dict[Monomial, int] = {m: c for m, c in dict(terms).items() if c != 0}

    @staticmethod
    def zero() -> "LaurentElement":
        return LaurentElement()

    @staticmethod
    def one() -> "LaurentElement":
        return LaurentElement({(0, 0): 1})

    @staticmethod
    def monomial(a: int, b: int, coeff: int = 1) -> "LaurentElement":
        return LaurentElement({(a, b): coeff})

    def __add__(self, other: "LaurentElement") -> "LaurentElement":
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return LaurentElement(out)

    def __sub__(self, other: "LaurentElement") -> "LaurentElement":
        return self + (-other)

    def __neg__(self) -> "LaurentElement":
        return LaurentElement({m: -c for m, c in self.terms.items()})

    def __mul__(self, other: "LaurentElement") -> "LaurentElement":
        out: Dict[Monomial, int] = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                key = (a1 + a2, b1 + b2)
                out[key] = out.get(key, 0) + c1 * c2
        return LaurentElement(out)

    def is_zero(self) -> bool:
        return not self.terms

    def augmentation(self) -> int:
        return sum(self.terms.values())

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentElement) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for (a, b), c in sorted(self.terms.items()):
            mono = "".join(
                (f"x^{a}" if a not in (0, 1) else ("x" if a == 1 else "")),
            ) + ("" if b == 0 else (f"y^{b}" if b != 1 else "y"))
            bits.append(f"{c}{('*' + mono) if mono else ''}")
        return " + ".join(bits)


def laurent_divide(num: LaurentElement, den: LaurentElement) -> LaurentElement:
    """Exact division; raises ValueError when den does not divide num.

    Newton polytopes add under multiplication, so an exact quotient has every
    exponent inside the box between min(num) - min(den) and max(num) - max(den),
    taken coordinate by coordinate.  Long division takes lex-decreasing
    shifts, which are terms of the quotient when the division is exact; a
    shift outside the box proves it inexact, and the box is finite, so the
    loop ends.
    """
    if den.is_zero():
        raise ValueError("division by zero")
    if num.is_zero():
        return LaurentElement.zero()
    box = [(min(m[i] for m in num.terms) - min(m[i] for m in den.terms),
            max(m[i] for m in num.terms) - max(m[i] for m in den.terms)) for i in (0, 1)]
    lead = max(den.terms)  # lex order on exponent pairs
    lead_c = den.terms[lead]
    quotient = LaurentElement.zero()
    rem = num
    while not rem.is_zero():
        m = max(rem.terms)
        c = rem.terms[m]
        shift = (m[0] - lead[0], m[1] - lead[1])
        if c % lead_c != 0 or not all(lo <= e <= hi for e, (lo, hi) in zip(shift, box)):
            raise ValueError("inexact Laurent division")
        piece = LaurentElement.monomial(shift[0], shift[1], c // lead_c)
        quotient = quotient + piece
        rem = rem - piece * den
    return quotient


_X = Word.gen("x")
_Y = Word.gen("y")
_U = Word.gen("u")
_BASE_RELATOR = commutator(_X, _Y)
_IMAGES: Dict[str, Monomial] = {"x": (1, 0), "y": (0, 1), "u": (0, 0)}


def _laurent_image(gen: str, sign: int) -> LaurentElement:
    a, b = _IMAGES[gen]
    return LaurentElement.monomial(sign * a, sign * b)


def _fox_row(w: Word, gens: Sequence[str]) -> Tuple[LaurentElement, ...]:
    """The images of d w / d gen in the Laurent ring (x -> x, y -> y, u -> 1),
    one entry per generator, from one Fox pass."""
    _, jac = fox_jacobian(w, gens, _laurent_image, LaurentElement.__mul__,
                          LaurentElement.one(), LaurentElement.zero())
    return tuple(jac[g] for g in gens)


@dataclass(frozen=True)
class FLComplex:
    """The presentation partial resolution of Z over Z[Z^2]:
    rank 1 in degree 2 (relator [x,y]), rank 2 in degree 1, rank 1 in degree 0.
    """

    d1: Tuple[LaurentElement, LaurentElement]      # images of c1^x, c1^y
    d2: Tuple[LaurentElement, LaurentElement]      # row of d(c2) over (c1^x, c1^y)

    def composition_is_zero(self) -> bool:
        total = self.d2[0] * self.d1[0] + self.d2[1] * self.d1[1]
        return total.is_zero()


def build_fl_complex(base=None) -> FLComplex:
    """Only the base < x, y | [x,y] > is supported."""
    if base is not None:
        gens = tuple(base.generators)
        rels = tuple(base.relators)
        if gens != ("x", "y") or rels != (_BASE_RELATOR,):
            raise ValueError("unsupported base; expected < x, y | [x,y] >")
    x = LaurentElement.monomial(1, 0)
    y = LaurentElement.monomial(0, 1)
    one = LaurentElement.one()
    d1 = (x - one, y - one)
    complex_ = FLComplex(d1, _fox_row(_BASE_RELATOR, ("x", "y")))
    if not complex_.composition_is_zero():
        raise AssertionError("d2 . d1 != 0 in the presentation resolution")
    return complex_


@dataclass(frozen=True)
class CentralExtensionSpec:
    """The central extension with relators u^-k [x,y], [u,x], [u,y]."""

    k: int

    def relators(self) -> Tuple[Word, Word, Word]:
        r = Word.gen("u", -self.k) * _BASE_RELATOR
        s = commutator(_U, _X)
        t = commutator(_U, _Y)
        return r, s, t


@dataclass(frozen=True)
class PartialResolution:
    """Lambda (x) presentation resolution of the extension group: ranks 1, 3, 3
    with basis p1^u, p1^x, p1^y in degree 1 and p2^r, p2^s, p2^t in degree 2.
    """

    d1: Tuple[LaurentElement, LaurentElement, LaurentElement]
    d2: Tuple[Tuple[LaurentElement, ...], ...]  # rows p2^rho over (p1^u, p1^x, p1^y)

    def composition_is_zero(self) -> bool:
        for row in self.d2:
            total = LaurentElement.zero()
            for entry, d in zip(row, self.d1):
                total = total + entry * d
            if not total.is_zero():
                return False
        return True


def build_partial_resolution(spec: CentralExtensionSpec) -> PartialResolution:
    one = LaurentElement.one()
    d1 = (
        LaurentElement.zero(),                       # q(u) - 1 = 0
        LaurentElement.monomial(1, 0) - one,
        LaurentElement.monomial(0, 1) - one,
    )
    rows = tuple(_fox_row(rho, ("u", "x", "y")) for rho in spec.relators())
    res = PartialResolution(d1, rows)
    if not res.composition_is_zero():
        raise AssertionError("d2 . d1 != 0 in the tensored-down resolution")
    return res


def transgression_cycle_components(spec: CentralExtensionSpec):
    """Total-differential components of the canonical 2-cycle
    z = c2 (x) 1 - c1^x (x) p1^y + c1^y (x) p1^x.

    Returns (k10, k01): the bidegree (1,0) component over (c1^x, c1^y), which
    must vanish, and the bidegree (0,1) component over (p1^u, p1^x, p1^y).
    """
    fl = build_fl_complex()
    # K_{1,0}: boundary of c2 (x) 1 plus the (-1)^1 (x) d'' terms of the mixed part
    k10_x = fl.d2[0]  # from d'(c2) (x) 1
    k10_y = fl.d2[1]
    # -c1^x (x) p1^y contributes +c1^x (x) d''(p1^y), i.e. +(y-1) on c1^x
    res = build_partial_resolution(spec)
    k10_x = k10_x + res.d1[2]           # (y - 1)
    k10_y = k10_y - res.d1[1]           # -(x - 1)
    # K_{0,1}: d'(c1) (x) p1 terms
    k01_u = LaurentElement.zero()
    k01_x = fl.d1[1]                    # from +c1^y (x) p1^x: (y - 1) p1^x
    k01_y = -fl.d1[0]                   # from -c1^x (x) p1^y: -(x - 1) p1^y
    return (k10_x, k10_y), (k01_u, k01_x, k01_y)


def transgress(spec: CentralExtensionSpec) -> int:
    """Transgression of the fundamental class, as an integer in the fibre.

    The (0,1) component of the total differential of z is reduced modulo the
    boundary of p2^r to a multiple of p1^u, then augmented; the boundaries of
    p2^s, p2^t only shift the coefficient by the augmentation ideal, so the
    integer is well defined.
    """
    (k10_x, k10_y), (v_u, v_x, v_y) = transgression_cycle_components(spec)
    if not (k10_x.is_zero() and k10_y.is_zero()):
        raise AssertionError("the canonical element is not a cycle modulo filtration")
    res = build_partial_resolution(spec)
    r_u, r_x, r_y = res.d2[0]
    lam = laurent_divide(v_x, r_x)
    if v_y != lam * r_y:
        raise AssertionError("relator boundary cannot absorb the fibre-free part")
    w_u = v_u - lam * r_u
    # sign convention pinned by the k = 1 extension
    return -w_u.augmentation()


def xi_star(spec: CentralExtensionSpec, cycle_multiplicity: int = 1) -> int:
    """Evaluate the extension class on the fundamental cycle by computing the
    relator word through the section lifts inside the group itself.

    Elements are normal forms u^m x^a y^b with
    (m,a,b)(m',a',b') = (m + m' - k a' b, a + a', b + b').
    """
    k = spec.k

    def mul(p, q):
        return (p[0] + q[0] - k * q[1] * p[2], p[1] + q[1], p[2] + q[2])

    def inv(p):
        m, a, b = p
        # solve p * q = identity
        return (-m - k * a * b, -a, -b)

    lifts = {"x": (0, 1, 0), "y": (0, 0, 1)}
    word = _BASE_RELATOR ** cycle_multiplicity
    value = (0, 0, 0)
    for g, s in word.letters:
        p = lifts[g]
        value = mul(value, p if s == 1 else inv(p))
    if value[1] != 0 or value[2] != 0:
        raise AssertionError("relator word did not die in the base")
    return value[0]


def verify_transgression_identity(k_values: Iterable[int]) -> bool:
    """transgress == xi_star on the fundamental cycle, for every k given."""
    return all(
        transgress(CentralExtensionSpec(k)) == xi_star(CentralExtensionSpec(k), 1)
        for k in k_values
    )
