"""Differential check of lemma 2: ``lemma2_check`` reads pi^ab as the cokernel
of one matrix; the reference writes pi out as words
(``semidirect_presentation``), abelianizes them, and takes the expected group
as (fibre coinvariants) + (base abelianization).

Both matrices have the same rows (the base generators, then the fibre
coordinates), so the check compares the quotients of that lattice, not only
their invariant factors: a global sign or a permutation of the rows keeps
the invariant factors and is still caught."""

import io
import json
import random
from contextlib import redirect_stdout

from bundlesec import cli, extensions, words
from bundlesec.extensions import coinvariants, lemma2_check, semidirect_presentation
from bundlesec.groupring import LinearRep
from bundlesec.words import abelianization, parse_presentation
from bundlesec.zlinalg import cyclic_sum
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
    # the same invariant factors and every word-level relator killed: by the
    # Hopf property the two relation lattices are equal
    for col in pi.exponent_matrix().columns():
        assert not any(report.group_ab.project(col)), col
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


def test_lemma2_matches_the_word_level_reference_on_a_multi_relator_base():
    # B^ab = Z^2 + Z/2; x^2 y^-2 has nonzero exponent sums, so the sign of
    # its offset shows in pi^ab (on a surface word it never does)
    base = parse_presentation("< x, y, z | [x,y], [y,z] [x,z], x^2 y^-2 >")
    rng = random.Random(1309)
    outcomes = []
    for rank in range(1, 7):
        for kind in KINDS:
            # x and y share theta, which commutes with theta(z), so every
            # relator is killed
            handle = _random_module(rng, _surface(1), 1, rank, kind)
            mats = {"x": handle.matrix("a1"), "y": handle.matrix("a1"),
                    "z": handle.matrix("b1")}
            outcomes.append(_assert_matches_reference(
                base, LinearRep(mats, rank), _random_offsets(rng, base, rank)))
    assert 0 < sum(outcomes) < len(outcomes)


def _bundle_text(base, module, rng):
    rank = module.dim
    lines = ["[base]", str(base), "[fibre]", f"torus {rank}", "[action]"]
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
