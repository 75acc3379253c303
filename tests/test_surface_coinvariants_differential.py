"""Differential check on surface words: the quotient ``obstruction_class``
takes, coker delta2, against the fibre coinvariants of the action.

On an orientable surface word [x1,y1]...[xg,yg] each generator occurs once
with each sign, and the Fox derivatives span the augmentation ideal times the
module: J_w A = sum_x (theta(x) - I) A.  So H^2 = A / delta2 A^X is the
coinvariants, whether or not the action kills the relator, and once it does,
the class of S = (s(r)) vanishes exactly when the offset's coinvariants class
does (the translations move S inside delta2 A^X).  ``endo`` relies on this for
its genus-3 bundle.

A seeded generator writes the cases: genus 1 to 4, rank-6 actions that are
products of 0-3 homology transvections of random vectors (or their inverses),
half of them with theta(y_i) = I so that the action lifts, offsets that are
random or taken from the image of some theta(x) - I (a zero class), and zero
or random translations.  Coordinates are not compared: they depend on the
Smith logs of two different matrices.
"""

import random
from functools import reduce
from operator import matmul

from bundlesec.extensions import TorusBundleSpec, coinvariants, obstruction_class
from bundlesec.groupring import LinearRep
from bundlesec.mcg import RANK, transvection
from bundlesec.words import parse_presentation
from bundlesec.zlinalg import IntMatrix

SEED = 20
CASES = 200
EYE = IntMatrix.identity(RANK)


def _vector(rng, bound):
    return tuple(rng.randint(-bound, bound) for _ in range(RANK))


def _twist_product(rng):
    """A product of 0-3 transvections of random vectors, each possibly inverted."""
    out = EYE
    for _ in range(rng.randint(0, 3)):
        t = transvection(_vector(rng, 2))
        out = out @ (t.inverse_unimodular() if rng.random() < 0.5 else t)
    return out


def _surface_base(genus):
    gens = ", ".join(f"x{i}, y{i}" for i in range(1, genus + 1))
    relator = " ".join(f"[x{i},y{i}]" for i in range(1, genus + 1))
    return parse_presentation(f"< {gens} | {relator} >")


def _cases():
    rng = random.Random(SEED)
    for _ in range(CASES):
        base = _surface_base(rng.randint(1, 4))
        lifts = rng.random() < 0.5
        theta = {g: EYE if lifts and g.startswith("y") else _twist_product(rng)
                 for g in base.generators}
        if rng.random() < 0.5:
            offset = _vector(rng, 3)
        else:
            # (theta(x) - I) v lies in the augmentation ideal times A
            v = _vector(rng, 3)
            offset = tuple(a - b for a, b in zip(theta[rng.choice(base.generators)].apply(v), v))
        translations = {g: _vector(rng, 2 if rng.random() < 0.5 else 0)
                        for g in base.generators}
        yield TorusBundleSpec(base, LinearRep(theta, RANK), translations, (offset,))


def _action(spec):
    return [spec.coefficients.matrix(g) for g in spec.base.generators]


def _kills_the_relator(spec):
    # the commutator product of the matrices, multiplied out here
    mats = _action(spec)
    return reduce(matmul, (a @ b @ a.inverse_unimodular() @ b.inverse_unimodular()
                           for a, b in zip(mats[::2], mats[1::2]))).is_identity()


CASE_LIST = list(_cases())


def test_the_generator_reaches_every_kind_of_case():
    kinds = set()
    for spec in CASE_LIST:
        lifted = _kills_the_relator(spec)
        zero = not any(coinvariants(RANK, _action(spec)).project(spec.relator_offsets[0]))
        genus = len(spec.base.generators) // 2
        kinds |= {(genus, lifted, zero if lifted else None)}
    for genus in range(1, 5):
        assert {(genus, True, True), (genus, True, False), (genus, False, None)} <= kinds


def test_the_quotient_is_the_coinvariants_on_surface_words():
    for spec in CASE_LIST:
        report = obstruction_class(spec)
        group = coinvariants(RANK, _action(spec))
        assert report.lifted == _kills_the_relator(spec)
        assert report.quotient.invariant_factors == group.invariant_factors
        if report.lifted:
            offset_class = group.project(spec.relator_offsets[0])
            assert any(report.class_coordinates[0]) == any(offset_class)
