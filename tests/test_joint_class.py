"""The obstruction class of all the relators together: S = (s(r))_r taken in
H^2 = A^R / delta2 A^X, the cokernel that ``cohomology`` reports.

A Tietze move that splits a surface relator in two with a fresh generator c
(theta(c) = I) presents the same group, and the offset may be spread over the
two relators in any way, so the verdict and the quotient must not move.
Projecting each s(r) on its own into A / J_w fails this: over the split
genus-2 relator with an Euler-number-1 offset it said SPLITS."""

import io
import json
import pathlib
import random
from contextlib import redirect_stdout

import pytest

from bundlesec import cli
from bundlesec.extensions import (
    VERDICT_NO_SPLITTING,
    VERDICT_SPLITS,
    TorusBundleSpec,
    h1_h2_base,
    lemma2_check,
    obstruction_class,
)
from bundlesec.groupring import LinearRep
from bundlesec.specfile import parse_bundle_file
from bundlesec.words import Presentation, Word, commutator, parse_presentation
from bundlesec.zlinalg import IntMatrix
from test_h1_h2_differential import _random_module, _surface

ROOT = pathlib.Path(__file__).resolve().parent.parent
EULER = ROOT / "tests" / "specs" / "euler_one_split_relator.bundle"
KINDS = ("finite", "unipotent", "hyperbolic")


def _split_surface(genus, k):
    """The genus-g surface relator split after handle k by a fresh generator c:
    < a1, b1, ..., c | [a1,b1]...[ak,bk] c^-1, c [ak+1,bk+1]...[ag,bg] >."""
    gens = _surface(genus).generators + ("c",)
    handles = [commutator(Word.gen(gens[2 * i]), Word.gen(gens[2 * i + 1]))
               for i in range(genus)]
    head, tail = Word.identity(), Word.identity()
    for h in handles[:k]:
        head = head * h
    for h in handles[k:]:
        tail = tail * h
    c = Word.gen("c")
    return Presentation(gens, (head * c.inverse(), c * tail))


def _spec(base, module, translations, offsets):
    return TorusBundleSpec(base, module, {x: translations[x] for x in base.generators},
                           tuple(offsets))


def _vector(rng, m):
    return tuple(rng.randint(-3, 3) for _ in range(m))


def _tietze_pairs(seed, cases):
    """(one-relator spec, split spec) pairs over genus-2 to 4 surfaces, with
    actions that lift and the split form's offsets summing to the one-relator
    offset.  A third of the offsets are zero, so SPLITS occurs."""
    rng = random.Random(seed)
    for _ in range(cases):
        genus = rng.randint(2, 4)
        rank = rng.randint(1, 4)
        one = _surface(genus)
        split = _split_surface(genus, rng.randint(1, genus - 1))
        module = _random_module(rng, one, genus, rank, rng.choice(KINDS))
        split_module = LinearRep(
            {**{x: module.matrix(x) for x in one.generators}, "c": IntMatrix.identity(rank)},
            rank)
        offset = (0,) * rank if rng.random() < 1 / 3 else _vector(rng, rank)
        first = _vector(rng, rank)
        second = tuple(o - f for o, f in zip(offset, first))
        t = {x: _vector(rng, rank) for x in split.generators}
        yield (_spec(one, module, t, [offset]),
               _spec(split, split_module, t, [first, second]))


def _cli_json(*argv):
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(["--json", *argv]) == cli.EXIT_OK
    return json.loads(out.getvalue())


def test_euler_number_one_over_a_split_relator_does_not_split():
    report = _cli_json("split-check", str(EULER))
    ob = report["result"]["obstruction"]
    assert report["verdict"] == VERDICT_NO_SPLITTING
    assert (ob["quotient"], ob["class"]) == ("Z", [[1]])
    assert not report["result"]["lemma2"]["is_isomorphic"]
    # the one-relator form of the same circle bundle
    base = parse_presentation("< a1, b1, a2, b2 | [a1,b1] [a2,b2] >")
    module = LinearRep({x: IntMatrix.identity(1) for x in base.generators}, 1)
    one = obstruction_class(_spec(base, module, {x: (0,) for x in base.generators}, [(1,)]))
    assert one.verdict == VERDICT_NO_SPLITTING
    assert (str(one.quotient), one.class_coordinates) == ("Z", ((1,),))


def test_a_tietze_split_keeps_the_verdict_and_the_quotient():
    verdicts = []
    for one, split in _tietze_pairs(1604, 120):
        a, b = obstruction_class(one), obstruction_class(split)
        assert a.lifted and b.lifted
        assert (b.verdict, str(b.quotient)) == (a.verdict, str(a.quotient))
        verdicts.append(a.verdict)
    # both answers occur, so neither side can pass by being constant
    assert 0 < verdicts.count(VERDICT_SPLITS) < len(verdicts)


def test_the_quotient_is_the_cohomology_h2_and_splits_passes_lemma_2():
    for _, split in _tietze_pairs(2604, 60):
        report = obstruction_class(split)
        _, h2 = h1_h2_base(split.base, split.coefficients)
        assert report.quotient.invariant_factors == h2.invariant_factors
        if report.verdict == VERDICT_SPLITS:
            assert lemma2_check(split.base, split.coefficients, report.s_of_r).is_isomorphic


def test_the_translations_never_change_a_lifted_class():
    # S = offsets + delta2 t once every theta(r) = I, so t moves S inside
    # the image of delta2
    rng = random.Random(3604)
    moved_s = 0
    for _, split in _tietze_pairs(3604, 60):
        report = obstruction_class(split)
        m = split.fibre_rank
        moved = obstruction_class(_spec(
            split.base, split.coefficients,
            {x: _vector(rng, m) for x in split.base.generators}, split.relator_offsets))
        assert (moved.class_coordinates, moved.verdict) == \
            (report.class_coordinates, report.verdict)
        moved_s += moved.s_of_r != report.s_of_r
    assert moved_s > 30


def _torus_bundles():
    paths = sorted(ROOT.glob("specs/*.bundle")) + sorted(ROOT.glob("tests/specs/*.bundle"))
    return [p for p in paths if parse_bundle_file(p.read_text()).fibre_kind == "torus"]


@pytest.mark.parametrize("path", _torus_bundles(), ids=lambda p: p.name)
def test_split_check_quotient_is_the_cohomology_h2_on_every_torus_bundle(path):
    ob = _cli_json("split-check", str(path))["result"]["obstruction"]
    assert ob["lifted"]
    assert ob["quotient"] == _cli_json("cohomology", str(path))["result"]["h2"]
