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

The same cases check that the verdict and the quotient do not depend on how
the data are written: conjugating theta by a unimodular P (with the
translations and the offset mapped by P), inverting the relator (offset to
-offset) and moving its first letter g^s to the end (offset to
theta(g)^-s offset).  Each check is run on a mutant as well, which must fail
on some case.  Conjugation's mutant leaves the offset unmapped.  On a surface
word the class is that of the offset in the coinvariants, where o, -o and
theta(g)^-s o vanish together, so an untransformed offset is no fault for
the other two: inversion's mutant drops the offset, and the rotation's drops
the letter it moves.

Klein-bottle fibres get the same check on their centre Z: seeded
``KbBundleSpec`` data over surface words of genus 1 to 4, each generator
lifted by a product of 0-3 named automorphisms (``KB_AUT_NAMES``, each
possibly inverted; the identity for every y_i in half the cases, so that the
relator can lift) and a random x^a y^b, with a central offset x^2k.  The
quotient is the coinvariants of the +-1 centre actions: Z/2 if some
generator acts by -1, Z otherwise; a lifted class vanishes exactly when s(r)
does in them.  The mutant drops the last block of delta2.
"""

import random
from functools import reduce
from operator import matmul

from bundlesec.extensions import KbBundleSpec, TorusBundleSpec, coinvariants, obstruction_class
from bundlesec.extensions import VERDICT_ACTION_DOES_NOT_LIFT, VERDICT_NO_SECTION, VERDICT_SPLITS
from bundlesec.groupring import KB_AUT_NAMES, KbElement, LinearRep
from bundlesec.mcg import RANK, transvection
from bundlesec.words import Presentation, Word, parse_presentation
from bundlesec.zlinalg import IntMatrix, cokernel
from test_h1_h2_differential import _elementary_product

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


def _respec(spec, relator=None, theta=None, translations=None, offset=None):
    """spec with the parts given replaced."""
    base = spec.base if relator is None else Presentation(spec.base.generators, (relator,))
    theta = theta or {g: spec.coefficients.matrix(g) for g in spec.base.generators}
    return TorusBundleSpec(base, LinearRep(theta, RANK), translations or spec.translations,
                           (offset or spec.relator_offsets[0],))


def _conjugated(spec, p, map_offset=True):
    pinv = p.inverse_unimodular()
    (offset,) = spec.relator_offsets
    return _respec(spec, theta={g: p @ spec.coefficients.matrix(g) @ pinv
                                for g in spec.base.generators},
                   translations={g: p.apply(t) for g, t in spec.translations.items()},
                   offset=p.apply(offset) if map_offset else offset)


def _inverted(spec, drop_offset=False):
    (relator,), (offset,) = spec.base.relators, spec.relator_offsets
    return _respec(spec, relator=relator.inverse(),
                   offset=(0,) * RANK if drop_offset else tuple(-c for c in offset))


def _rotated(spec, drop_letter=False):
    # r = g^s w and w g^s = g^-s r g^s, whose value is theta(g)^-s offset
    (relator,), (offset,) = spec.base.relators, spec.relator_offsets
    (g, s), rest = relator.letters[0], relator.letters[1:]
    return _respec(spec, relator=Word(rest if drop_letter else rest + ((g, s),)),
                   offset=spec.coefficients.matrix(g, -s).apply(offset))


def _unchanged(report, spec):
    other = obstruction_class(spec)
    return (report.verdict, report.quotient.invariant_factors) == (
        other.verdict, other.quotient.invariant_factors)


def _assert_invariant(transform, mutant):
    """transform keeps the verdict and the quotient on every case; mutant not."""
    rng = random.Random(SEED)
    caught = 0
    for spec in CASE_LIST:
        p = _elementary_product(rng, RANK, 12)
        report = obstruction_class(spec)
        assert _unchanged(report, transform(spec, p))
        caught += not _unchanged(report, mutant(spec, p))
    assert caught > 0


def test_conjugating_the_action_by_a_unimodular_matrix():
    _assert_invariant(_conjugated, lambda spec, p: _conjugated(spec, p, map_offset=False))


def test_inverting_the_relator():
    _assert_invariant(lambda spec, _: _inverted(spec),
                      lambda spec, _: _inverted(spec, drop_offset=True))


def test_cyclically_permuting_the_relator():
    _assert_invariant(lambda spec, _: _rotated(spec),
                      lambda spec, _: _rotated(spec, drop_letter=True))


def _kb_aut(rng):
    """A product of 0-3 named Klein-bottle automorphisms, each possibly inverted."""
    out = KB_AUT_NAMES["id"]
    for _ in range(rng.randint(0, 3)):
        aut = KB_AUT_NAMES[rng.choice(sorted(KB_AUT_NAMES))]
        out = out.compose(aut.inverse() if rng.random() < 0.5 else aut)
    return out


def _kb_cases():
    rng = random.Random(SEED)
    for _ in range(CASES):
        base = _surface_base(rng.randint(1, 4))
        lifts = rng.random() < 0.5
        cocycle = {g: (KB_AUT_NAMES["id"] if lifts and g.startswith("y") else _kb_aut(rng),
                       KbElement(rng.randint(-3, 3), rng.randint(-3, 3)))
                   for g in base.generators}
        # a central offset x^2k, k in -2..2
        yield KbBundleSpec(base, cocycle, (KbElement(2 * rng.randint(-2, 2), 0),))


KB_CASE_LIST = list(_kb_cases())


def _kb_expected(spec):
    # Z/2 once some generator acts by -1 on the centre, else Z
    flips = any(aut.eps == -1 for aut, _ in spec.action_cocycle.values())
    return (2,) if flips else (0,)


def test_the_kb_generator_reaches_every_kind_of_case():
    kinds = {(len(spec.base.generators) // 2, _kb_expected(spec)) for spec in KB_CASE_LIST}
    assert kinds == {(genus, q) for genus in range(1, 5) for q in ((0,), (2,))}
    verdicts = {(_kb_expected(spec), obstruction_class(spec).verdict) for spec in KB_CASE_LIST}
    assert verdicts == {(q, v) for q in ((0,), (2,))
                        for v in (VERDICT_ACTION_DOES_NOT_LIFT, VERDICT_NO_SECTION, VERDICT_SPLITS)}


def test_the_kb_quotient_is_the_centre_coinvariants_on_surface_words():
    caught = 0
    for spec in KB_CASE_LIST:
        report = obstruction_class(spec)
        group = coinvariants(1, _action(spec))
        assert report.quotient.invariant_factors == group.invariant_factors == _kb_expected(spec)
        if report.lifted:
            (s,) = report.s_of_r
            assert any(report.class_coordinates[0]) == any(group.project(s))
        # the mutant: delta2 without the last generator's block
        ((_, block_row),) = spec.fox_rows
        (row,) = block_row.data
        mutant = cokernel(IntMatrix(1, len(row) - 1, (row[:-1],)))
        caught += mutant.invariant_factors != group.invariant_factors
    assert caught > 0
