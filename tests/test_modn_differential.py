"""Differential check of the obstruction class against splitting mod n by
enumeration (``modn_reference``), which shares no code with the Fox pass,
the Smith form or ``relator_values``.

For a torus datum whose action lifts, the reported class lies in n times the
quotient exactly when some correction of the translations mod n kills every
relator mod n.  It is checked at n = 2, 3, 4 and 5, wherever the corrections
number at most MAX_LIFTS, on three families: seeded balanced multi-relator
bases (``balanced_bases``), surface bases of genus 1 and 2 with rank-1 and
rank-2 actions through powers of one matrix, and
``tests/specs/two_relator_torus.bundle``.  Over each generated family both
answers occur; the two-relator class lies in n times its quotient for no n
checked.

The benchmark's inputs are a fourth source: one pass of the ``cli_mix`` and
``long_relators`` workloads at seeds 1, 2 and 3, written into a temporary
directory by ``perfbench/workloads.py``, whose generator imports no
bundlesec.  Every torus split-check op whose action lifts by construction is
checked: 150 ops with 552 checks for ``cli_mix`` and 39 ops with 120 checks
for ``long_relators``, both answers occurring in each.  Every op of the
``wide`` workload, a genus-2 to 5 base with fibre rank 4 to 8, has more
than MAX_LIFTS corrections at each n, so it is left out.

Klein-bottle fibres are left out: their lifts live in the non-abelian fibre,
whose sections may move a lift by a non-central element, so enumerating
central corrections mod n would not decide the reduced datum.
"""

import importlib
import pathlib
import random

import pytest

from balanced_bases import (balanced_bundle_texts, powers_of_one_matrix, small_vector,
                            torus_bundle_text)
from bundlesec.extensions import obstruction_class
from bundlesec.specfile import parse_bundle_file
from modn_reference import ModNDatum, in_n_times_quotient, moduli

SEED = 4
MODULI = (2, 3, 4, 5)
MAX_LIFTS = 5000
SPECS = pathlib.Path(__file__).resolve().parent / "specs"
ROOT = SPECS.parent.parent
WORKLOAD_SEEDS = (1, 2, 3)


def _surface_texts(rng, count):
    for _ in range(count):
        genus, m = rng.randint(1, 2), rng.choice((1, 2))
        gens = [f"{c}{i}" for i in range(1, genus + 1) for c in "xy"]
        relator = " ".join(f"[x{i},y{i}]" for i in range(1, genus + 1))
        yield torus_bundle_text(gens, [relator], powers_of_one_matrix(rng, gens, m),
                                {g: small_vector(rng, m) for g in gens}, [small_vector(rng, m)])


FAMILIES = {
    "balanced": list(balanced_bundle_texts(SEED, 250)),
    "surface": list(_surface_texts(random.Random(SEED), 60)),
}


def _answers(text):
    """Whether the datum splits mod n, for each n checked; asserts that the
    reported class lies in n times the quotient exactly then."""
    report = obstruction_class(parse_bundle_file(text).to_spec())
    assert report.lifted
    factors = report.quotient.invariant_factors
    (coordinates,) = report.class_coordinates
    datum = ModNDatum(text)
    answers = set()
    for n in moduli(datum, MODULI, MAX_LIFTS):
        split = datum.splits_mod(n)
        assert in_n_times_quotient(factors, coordinates, n) == split, (n, text)
        answers.add(split)
    return answers


@pytest.mark.parametrize("family", ["balanced", "surface"])
def test_the_class_lies_in_n_times_the_quotient_exactly_when_the_datum_splits_mod_n(family):
    assert set().union(*map(_answers, FAMILIES[family])) == {True, False}


@pytest.mark.parametrize("workload", ["cli_mix", "long_relators"])
def test_the_class_agrees_with_splitting_mod_n_on_the_benchmark_inputs(
        workload, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    answers = set()
    for seed in WORKLOAD_SEEDS:
        outdir = tmp_path / str(seed)
        outdir.mkdir()
        for op in workloads.build(workload, seed, outdir, ROOT / "specs"):
            if op.command != "split-check" or op.exit_code or op.verdict == workloads.NOT_LIFT:
                continue
            text = (outdir / op.args[0]).read_text(encoding="utf-8")
            if parse_bundle_file(text).fibre_kind != "kb":
                answers |= _answers(text)
    assert answers == {True, False}


def test_the_two_relator_torus_class_is_not_in_n_times_its_quotient():
    assert _answers((SPECS / "two_relator_torus.bundle").read_text()) == {False}
