"""Homology-level mapping-class computations on the genus-3 double.

The surface is the boundary of (4-holed sphere) x [0,1]: two copies of the
holed sphere glued along the four boundary circles, a closed orientable
surface of genus 3.  H_1 carries the intersection pairing; Dehn twists act
by transvections.  This module keeps the curve model, the twists, the
lantern check and the data of the genus-3 example: ``endo_spec`` writes the
example as a bundle datum over the genus-3 base, and ``obstruction_class``
decides it like any other torus datum, on the module H_1 = Z^6.

A mapping class is its action on H_1: a plain 6x6 ``IntMatrix``.
``form_sign`` checks that a matrix preserves or reverses the intersection
form; it runs once on each generator (every transvection, the hyperelliptic
involution and the reflection) and never on products or inverses, which
scale the form by the product of their factors' signs.

Coordinate conventions.  Basis (b1, b2, b3, a1, a2, a3): b_i is the class of
the i-th glued boundary circle, a_i the class of a loop crossing that circle
once (through one hole and back around the double).  The curve constants
below are derived from an explicit triangulated model of the double; the
test suite rebuilds that model from scratch and recomputes every vector and
the pairing matrix, so none of the constants is taken on trust.
"""

from __future__ import annotations

from functools import reduce
from operator import matmul
from typing import Dict, Iterable, Mapping, Sequence, Tuple

from .extensions import TorusBundleSpec
from .groupring import LinearRep
from .words import parse_presentation
from .zlinalg import IntMatrix

RANK = 6

_I3 = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
_Z3 = [[0, 0, 0] for _ in range(3)]

#: Intersection form on H_1 in the (b1,b2,b3,a1,a2,a3) basis: <a_i, b_i> = 1.
PAIRING = IntMatrix.from_rows(
    [row_z + [-v for v in row_i] for row_z, row_i in zip(_Z3, _I3)]
    + [row_i + row_z for row_i, row_z in zip(_I3, _Z3)]
)
_MINUS_PAIRING = -PAIRING


def form_sign(m: IntMatrix) -> int:
    """+1 if m preserves the intersection form, -1 if it reverses it.

    Orientation-preserving classes are symplectic (+1); the reflection across
    the gluing circles reverses the form (-1).  Any other matrix raises.
    """
    got = m.transpose() @ PAIRING @ m
    if got == PAIRING:
        return 1
    if got == _MINUS_PAIRING:
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
    """Homology action of the left Dehn twist about a curve of class c:
    v -> v + <v,c> c, the matrix I + c (Jc)^T."""
    jc = PAIRING.apply(tuple(c))
    t = IntMatrix(RANK, RANK, tuple(
        tuple((1 if i == j else 0) + ci * jcj for j, jcj in enumerate(jc))
        for i, ci in enumerate(c)))
    form_sign(t)
    return t


#: The hyperelliptic involution swapping the two sides: -1 on H_1.
HYPERELLIPTIC = -IntMatrix.identity(RANK)
#: Reflection across the gluing circles: fixes the b_i, negates the a_i.
REFLECTION = IntMatrix.from_rows(
    [[(1 if i < 3 else -1) if i == j else 0 for j in range(RANK)] for i in range(RANK)])
if (form_sign(HYPERELLIPTIC), form_sign(REFLECTION)) != (1, -1):
    raise ValueError("the involutions must preserve and reverse the form")


#: t_x0, t_y0, t_z0: the twists about the lantern curves on the 0-side, which
#: enter every monodromy below.
LANTERN_TWISTS = tuple(transvection(CURVE_VECTORS[name]) for name in ("x0", "y0", "z0"))


def _product(mats: Iterable[IntMatrix]) -> IntMatrix:
    return reduce(matmul, mats)


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


def endo_spec() -> TorusBundleSpec:
    """The example as bundle data over < x1, y1, x2, y2, x3, y3 |
    [x1,y1] [x2,y2] [x3,y3] >: theta is the six monodromy matrices in
    generator order, the translations are zero and the offset is b1.  The
    relator lifts exactly when [m1,m2][m3,m4][m5,m6] is the identity on H_1."""
    base = parse_presentation("< x1, y1, x2, y2, x3, y3 | [x1,y1] [x2,y2] [x3,y3] >")
    theta = LinearRep(dict(zip(base.generators, endo_monodromy())), RANK)
    return TorusBundleSpec(base, theta, {g: (0,) * RANK for g in base.generators},
                           (CURVE_VECTORS["b1"],))


_LANTERN_PRODUCT = _product(LANTERN_TWISTS)

#: The monodromy generators of the variant over the Klein bottle:
#: t_x0 t_y0 t_z0 and the reflection across the gluing circles.
KB_VARIANT_GENERATORS = (_LANTERN_PRODUCT, REFLECTION)

#: The one monodromy generator left by pulling the Klein-bottle variant back
#: to the orientation torus cover, P R P R^-1 with P = t_x0 t_y0 t_z0 and R
#: the reflection.  It acts trivially on H_1, so its coinvariants are all of
#: H_1; ``endo`` prints them for information, with no verdict.
TORUS_PULLBACK_GENERATORS = (
    _LANTERN_PRODUCT @ REFLECTION @ _LANTERN_PRODUCT @ REFLECTION.inverse_unimodular(),)
