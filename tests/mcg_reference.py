"""Homology-level mapping classes of the genus-3 double, the reference for
the genus-3 example that ``bundlesec.mcg`` holds as bundle text.

The surface is the boundary of (4-holed sphere) x [0,1]: two copies of the
holed sphere glued along the four boundary circles, a closed orientable
surface of genus 3.  H_1 carries the intersection pairing; Dehn twists act
by transvections.  This module keeps the curve model, the twists, the
lantern check and the six monodromy matrices of the example, so that the
tests can rebuild the matrices of ``mcg.ENDO_SPEC`` from the curves.

A mapping class is its action on H_1: a plain ``IntMatrix``.  ``form_sign``
checks that a matrix preserves or reverses the intersection form.

Coordinate conventions.  Basis (b1, b2, b3, a1, a2, a3): b_i is the class of
the i-th glued boundary circle, a_i the class of a loop crossing that circle
once (through one hole and back around the double), and <a_i, b_i> = 1.  The
curve constants below are derived from an explicit triangulated model of the
double; ``cellular_oracle`` rebuilds that model from scratch and
``test_mcg`` recomputes every vector and the pairing matrix from it, so none
of the constants is taken on trust.
"""

from __future__ import annotations

from functools import reduce
from operator import matmul
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

from bundlesec.zlinalg import IntMatrix

RANK = 6


def symplectic_form(rank: int) -> IntMatrix:
    """J = [[0, -I], [I, 0]] on Z^rank, rank = 2h: the intersection form in
    a basis (b_1..b_h, a_1..a_h) with <a_i, b_i> = 1."""
    h = rank // 2
    return IntMatrix(rank, rank, tuple(
        tuple(-1 if j == i + h else 1 if j == i - h else 0 for j in range(rank))
        for i in range(rank)))


#: Intersection form on H_1 in the (b1,b2,b3,a1,a2,a3) basis: <a_i, b_i> = 1.
PAIRING = symplectic_form(RANK)


def form_sign(m: IntMatrix, form: IntMatrix = PAIRING) -> int:
    """+1 if m preserves the form, -1 if it reverses it.

    Orientation-preserving classes are symplectic (+1); the reflection across
    the gluing circles reverses the form (-1).  Any other matrix raises.
    """
    got = m.transpose() @ form @ m
    if got == form:
        return 1
    if got == -form:
        return -1
    raise ValueError("matrix does not scale the intersection form by +-1")


# --- the curve dictionary ----------------------------------------------------

_B1 = (1, 0, 0, 0, 0, 0)
_B2 = (0, 1, 0, 0, 0, 0)
_B3 = (0, 0, 1, 0, 0, 0)
_B4 = (-1, -1, -1, 0, 0, 0)

#: Homology classes of the named curves.  x0, y0, z0 are the lantern curves
#: on the 0-side copy of the holed sphere: x0 encircles holes 1 and 2, y0
#: holes 2 and 3, z0 holes 1 and 3.  d_i0 and d_i1 are parallel to the i-th
#: boundary circle on either side.  The mirror classes x1, y1, z1 are the
#: images under the side swap, which acts as -1 on homology.
CURVE_VECTORS: Dict[str, Tuple[int, ...]] = {
    "b1": _B1,
    "b2": _B2,
    "b3": _B3,
    "b4": _B4,
    "d10": _B1, "d20": _B2, "d30": _B3, "d40": _B4,
    "d11": _B1, "d21": _B2, "d31": _B3, "d41": _B4,
    "x0": (1, 1, 0, 0, 0, 0),
    "y0": (0, 1, 1, 0, 0, 0),
    "z0": (1, 0, 1, 0, 0, 0),
    "x1": (-1, -1, 0, 0, 0, 0),
    "y1": (0, -1, -1, 0, 0, 0),
    "z1": (-1, 0, -1, 0, 0, 0),
}


def transvection(c: Sequence[int]) -> IntMatrix:
    """Homology action of the left Dehn twist about a curve of class c in
    Z^2h, h = len(c) / 2: v -> v + <v,c> c, the matrix I + c (Jc)^T."""
    form = symplectic_form(len(c))
    jc = form.apply(tuple(c))
    t = IntMatrix(len(c), len(c), tuple(
        tuple((1 if i == j else 0) + ci * jcj for j, jcj in enumerate(jc))
        for i, ci in enumerate(c)))
    form_sign(t, form)
    return t


def reflection(rank: int) -> IntMatrix:
    """Reflection across the b-curves: fixes the b_i, negates the a_i, and
    reverses the form."""
    return IntMatrix(rank, rank, tuple(
        tuple((1 if i < rank // 2 else -1) if i == j else 0 for j in range(rank))
        for i in range(rank)))


#: The hyperelliptic involution swapping the two sides: -1 on H_1.
HYPERELLIPTIC = -IntMatrix.identity(RANK)
#: Reflection across the gluing circles: fixes the b_i, negates the a_i.
REFLECTION = reflection(RANK)

def _product(mats: Iterable[IntMatrix]) -> IntMatrix:
    return reduce(matmul, mats)


#: t_x0, t_y0, t_z0: the twists about the lantern curves on the 0-side, which
#: enter every monodromy below.
LANTERN_TWISTS = tuple(transvection(CURVE_VECTORS[name]) for name in ("x0", "y0", "z0"))
#: P = t_x0 t_y0 t_z0, the monodromy of y in the Klein-bottle-base variant.
LANTERN_PRODUCT = _product(LANTERN_TWISTS)


def lantern_check(curves: Mapping[str, Sequence[int]] = CURVE_VECTORS) -> bool:
    """The lantern relation on homology:
    t_x0 t_y0 t_z0 = t_d10 t_d20 t_d30 t_d40 as automorphisms of H_1."""
    def twist_product(names: Sequence[str]) -> IntMatrix:
        return _product(transvection(curves[name]) for name in names)

    return twist_product(("x0", "y0", "z0")) == twist_product(("d10", "d20", "d30", "d40"))


def endo_monodromy() -> Tuple[IntMatrix, ...]:
    """The six generator images: t_x0, t_y0 t_z0 f, t_y0, t_z0 f, t_z0, f t_y0."""
    tx, ty, tz = LANTERN_TWISTS
    f = HYPERELLIPTIC
    return (tx, ty @ tz @ f, ty, tz @ f, tz, f @ ty)


def bundle_text(base: str, genus: int, action: Mapping[str, IntMatrix], offset: Sequence[int],
                translations: Optional[Mapping[str, Sequence[int]]] = None) -> str:
    """A ``surface genus`` bundle file: the base presentation, one [action]
    matrix per generator, the translations given (zero by default) and the
    offset of relator 1."""
    lines = ["[base]", base, "[fibre]", f"surface {genus}", "[action]"]
    lines += [f"{g} = " + " ; ".join(" ".join(map(str, row)) for row in m.data)
              for g, m in action.items()]
    lines += ["[cocycle]"]
    lines += [f"{g} = " + " ".join(map(str, t)) for g, t in (translations or {}).items()]
    lines += ["offset 1 = " + " ".join(map(str, offset))]
    return "\n".join(lines) + "\n"
