"""Differential checks of lemma 2.

``lemma2_check`` reads pi^ab and its split twin through one Smith form of the
action block.  It is checked against two references:
- the word-level one writes pi out as words (``semidirect_presentation``),
  abelianizes them, and takes the expected group as (fibre coinvariants) +
  (base abelianization);
- the one-matrix one (``lemma2_reference``) takes the cokernels of the whole
  (n + m) x (m|X| + R) matrix with and without the offsets.

Both groups are compared by their invariant factors, which is what lemma 2
decides on and what the CLI prints."""

import io
import json
import random
from contextlib import redirect_stdout

from bundlesec import cli, extensions, words
from bundlesec.extensions import lemma2_check, semidirect_presentation
from bundlesec.groupring import LinearRep
from bundlesec.words import abelianization, parse_presentation
from bundlesec.zlinalg import IntMatrix, cokernel
from lemma2_reference import coinvariants, cyclic_sum, lemma2_check as reference_lemma2_check
from test_h1_h2_differential import _random_module, _surface

KINDS = ("finite", "unipotent", "hyperbolic")


def _random_offsets(rng, base, rank):
    return [tuple(rng.choice((0, rng.randint(-6, 6))) for _ in range(rank))
            for _ in base.relators]


def _assert_matches_reference(base, action, offsets):
    report = lemma2_check(base, action, offsets)
    pi = semidirect_presentation(base, action, offsets=offsets)
    group_ab = abelianization(pi)
    assert report.group_ab.invariant_factors == group_ab.invariant_factors
    fibre = coinvariants(action.dim, [action.matrix(x) for x in base.generators])
    expected = cyclic_sum(fibre.invariant_factors + abelianization(base).invariant_factors)
    assert report.expected.invariant_factors == expected.invariant_factors
    assert report.is_isomorphic == (group_ab.invariant_factors == expected.invariant_factors)
    return report.is_isomorphic


def test_lemma2_matches_the_word_level_reference_on_surface_bases():
    rng = random.Random(2013)
    outcomes = []
    for genus in range(1, 6):
        base = _surface(genus)
        for rank in range(1, 7):
            for kind in KINDS:
                module = _random_module(rng, base, genus, rank, kind)
                outcomes.append(_assert_matches_reference(
                    base, module, _random_offsets(rng, base, rank)))
    assert len(outcomes) == 90
    # both answers occur, so neither side can pass by being constant
    assert 0 < sum(outcomes) < len(outcomes)


# B^ab = Z^2 + Z/2; x^2 y^-2 has nonzero exponent sums, so the sign of
# its offset shows in pi^ab (on a surface word it never does)
MULTI_RELATOR = parse_presentation("< x, y, z | [x,y], [y,z] [x,z], x^2 y^-2 >")


def _multi_relator_actions(rng, rank):
    # x and y share theta, which commutes with theta(z), so every relator is
    # killed
    for kind in KINDS:
        handle = _random_module(rng, _surface(1), 1, rank, kind)
        yield LinearRep({"x": handle.matrix("a1"), "y": handle.matrix("a1"),
                         "z": handle.matrix("b1")}, rank)


def test_lemma2_matches_the_word_level_reference_on_a_multi_relator_base():
    rng = random.Random(1309)
    outcomes = []
    for rank in range(1, 7):
        for action in _multi_relator_actions(rng, rank):
            outcomes.append(_assert_matches_reference(
                MULTI_RELATOR, action, _random_offsets(rng, MULTI_RELATOR, rank)))
    assert 0 < sum(outcomes) < len(outcomes)


def test_cyclic_sum_merges_factors():
    a = cokernel(IntMatrix.from_rows([[2]]))
    b = cokernel(IntMatrix.from_rows([[3]]))
    assert cyclic_sum(a.invariant_factors + b.invariant_factors).invariant_factors == (6,)
    free = cokernel(IntMatrix.zeros(1, 1))
    assert str(cyclic_sum(a.invariant_factors + free.invariant_factors)) == "Z + Z/2"


def _assert_matches_one_matrix_reference(base, action, offsets):
    report = lemma2_check(base, action, offsets)
    ref = reference_lemma2_check(base, action, offsets)
    assert str(report.group_ab) == str(ref.group_ab)
    assert str(report.expected) == str(ref.expected)
    assert report.is_isomorphic == ref.is_isomorphic
    return report.is_isomorphic


def test_lemma2_matches_the_one_matrix_reference_at_pivots_1_2_and_0():
    # identity: every pivot of [theta(x) - I]_x is 0; -I: every pivot is 2;
    # shear: pivot 1, then 0; shear against -I: pivots 1 and 2
    base = parse_presentation("< u, v | [u,v] >")
    eye = IntMatrix.identity(2)
    minus = IntMatrix.from_rows([[-1, 0], [0, -1]])
    shear = IntMatrix.from_rows([[1, 1], [0, 1]])
    pivots = set()
    for u, v in ((eye, eye), (minus, eye), (minus, minus), (shear, eye), (shear, minus)):
        action = LinearRep({"u": u, "v": v}, 2)
        pivots.update(extensions.smith_normal_form(
            extensions._action_block(2, [u, v])).diagonal)
        for offset in ((0, 0), (1, 0), (0, 1), (2, -3), (4, 6)):
            _assert_matches_one_matrix_reference(base, action, [offset])
    assert pivots == {0, 1, 2}


def test_lemma2_matches_the_one_matrix_reference_on_a_multi_relator_base():
    rng = random.Random(1811)
    outcomes = []
    for rank in range(1, 7):
        for action in _multi_relator_actions(rng, rank):
            for _ in range(2):
                outcomes.append(_assert_matches_one_matrix_reference(
                    MULTI_RELATOR, action, _random_offsets(rng, MULTI_RELATOR, rank)))
    assert 0 < sum(outcomes) < len(outcomes)


def test_lemma2_matches_the_one_matrix_reference_on_generated_modules():
    rng = random.Random(18)
    outcomes = []
    for genus in range(1, 7):
        base = _surface(genus)
        for rank in range(1, 7):
            for kind in KINDS:
                module = _random_module(rng, base, genus, rank, kind)
                outcomes.append(_assert_matches_one_matrix_reference(
                    base, module, _random_offsets(rng, base, rank)))
    assert len(outcomes) == 108
    assert 0 < sum(outcomes) < len(outcomes)


def _bundle_text(base, module, rng):
    rank = module.dim
    presentation = f"< {', '.join(base.generators)} | {', '.join(map(str, base.relators))} >"
    lines = ["[base]", presentation, "[fibre]", f"torus {rank}", "[action]"]
    lines += [f"{x} = " + " ; ".join(" ".join(map(str, row)) for row in module.matrix(x).data)
              for x in base.generators]
    lines.append("[cocycle]")
    lines += [f"{x} = " + " ".join(str(rng.randint(-3, 3)) for _ in range(rank))
              for x in base.generators]
    lines.append("offset 1 = " + " ".join(str(rng.randint(-3, 3)) for _ in range(rank)))
    return "\n".join(lines) + "\n"


def test_split_check_writes_no_word_for_lemma_2(tmp_path, monkeypatch):
    rng = random.Random(5)
    base = _surface(5)
    path = tmp_path / "g5_m8.bundle"
    path.write_text(_bundle_text(base, _random_module(rng, base, 5, 8, "unipotent"), rng))

    def refuse(*_args, **_kwargs):
        raise AssertionError("lemma 2 must not write pi out as words")

    for module in (cli, extensions, words):
        for name in ("semidirect_presentation", "abelianization"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert cli.main(["--json", "split-check", str(path)]) == 0
    assert json.loads(buf.getvalue())["result"]["lemma2"]["applies"] is True
