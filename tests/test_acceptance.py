"""Acceptance gate: one test per criterion, each printing a PASS line.

Everything is exact integer arithmetic; the only tolerances are wall-clock
budgets.  Criteria 1-6 and 8 drive the command-line entry point end to end;
criterion 7 runs four seeded property suites of at least 200 cases each.
"""

import io
import json
import pathlib
import random
import time
from contextlib import redirect_stdout

from bundlesec import cli
from bundlesec.extensions import (
    TorusBundleSpec,
    lemma2_check,
    obstruction_class,
)
from bundlesec.groupring import LinearRep
from bundlesec.words import Word, parse_presentation
from bundlesec.zlinalg import IntMatrix, smith_normal_form
from fox_reference import FreeRingElement, fox_derivative
from lemma2_reference import coinvariants_smith
from mcg_reference import CURVE_VECTORS, LANTERN_PRODUCT, RANK, REFLECTION
from smith_reference import is_unimodular

SPECS = pathlib.Path(__file__).resolve().parent.parent / "specs"
TEST_SPECS = pathlib.Path(__file__).resolve().parent / "specs"


def run_cli_json(*args):
    buf = io.StringIO()
    start = time.monotonic()
    with redirect_stdout(buf):
        code = cli.main(["--json", *args])
    elapsed = time.monotonic() - start
    assert code == 0, f"CLI exited with {code}"
    return json.loads(buf.getvalue()), elapsed


def _passline(n, text):
    print(f"PASS criterion {n}: {text}")


def test_criterion_1_flat_kb_example():
    report, elapsed = run_cli_json("split-check", str(SPECS / "flat_kb.bundle"))
    ob = report["result"]["obstruction"]
    assert ob["quotient"] == "Z/2"
    assert ob["class"] == [[1]]
    assert report["verdict"] == "NO_SECTION"
    assert elapsed < 1.0
    _passline(1, "flat Klein-bottle example: quotient Z/2, class nonzero, "
                 f"NO_SECTION ({elapsed:.3f}s)")


def test_criterion_2_nil_times_circle_example():
    ab_report, t1 = run_cli_json("abelianize", str(SPECS / "nil3e1.pres"))
    assert ab_report["result"]["rank"] == 2
    sc_report, t2 = run_cli_json("split-check", str(SPECS / "nil3e1_kb.bundle"))
    assert sc_report["verdict"] == "NO_SECTION"
    assert t1 + t2 < 1.0
    _passline(2, "nilmanifold-times-circle: abelianization rank 2, "
                 f"NO_SECTION ({t1 + t2:.3f}s)")


def test_criterion_3_torus_examples():
    product, t1 = run_cli_json("split-check", str(SPECS / "product_torus.bundle"))
    assert product["verdict"] == "SPLITS"
    heis, t2 = run_cli_json("split-check", str(SPECS / "heisenberg_torus.bundle"))
    assert heis["verdict"] == "NO_SECTION"
    ob = heis["result"]["obstruction"]
    assert ob["class"] == [[1, 0]]
    assert ob["quotient"] == "Z^2"
    assert t1 + t2 < 1.0
    _passline(3, "torus fibres: product SPLITS, Heisenberg obstruction (1,0) "
                 f"in Z^2 ({t1 + t2:.3f}s)")


def test_criterion_4_transgression_identity():
    single, t1 = run_cli_json("transgress", "--k", "1")
    case = single["result"]["cases"][0]
    assert case["transgression"] == 1 == case["xi_star"]
    sweep, t2 = run_cli_json("transgress", "--range", "-5..5")
    assert sweep["verdict"] == "AGREE"
    assert all(c["agree"] for c in sweep["result"]["cases"])
    assert t1 + t2 < 5.0
    _passline(4, "transgression d2 equals class evaluation, k = 1 and "
                 f"k in -5..5 ({t1 + t2:.3f}s)")


def test_criterion_5_endo_example():
    report, elapsed = run_cli_json("endo")
    ob = report["result"]["obstruction"]
    assert ob["lifted"] is True
    assert ob["quotient"] == "Z/2 + Z/2 + Z/2 + Z/2"
    assert ob["class"] == [[1, 0, 0, 0]]
    assert report["result"]["lemma2"]["is_isomorphic"] is False
    assert report["verdict"] == "NO_SECTION"
    assert elapsed < 5.0
    _passline(5, "genus-3 example: relation holds, quotient (Z/2)^4, class nonzero, "
                 f"NO_SECTION ({elapsed:.3f}s)")


def test_criterion_6_kb_base_variant():
    report, elapsed = run_cli_json("split-check", str(TEST_SPECS / "genus3_klein_base.bundle"))
    ob = report["result"]["obstruction"]
    # x -> R, the reflection, and y -> P = t_x0 t_y0 t_z0; H^2 over the
    # Klein bottle is the coinvariants of -R and P (the orientation twist)
    dec = coinvariants_smith(RANK, [-REFLECTION, LANTERN_PRODUCT])
    group = dec.cokernel()
    coords = dec.project(CURVE_VECTORS["b1"])
    assert ob["quotient"] == str(group) == "Z^3 + Z/2"
    assert ob["class"] == [list(coords)] == [[1, 0, 0, 0]]
    assert report["verdict"] == "NO_SECTION"
    assert elapsed < 1.0
    _passline(6, f"Klein-bottle base variant: class of g nonzero in {group}, "
                 f"NO_SECTION ({elapsed:.3f}s)")


def _random_word(rng, max_len=10):
    letters = []
    for _ in range(rng.randint(0, max_len)):
        letters.append((rng.choice("xy"), rng.choice((1, -1))))
    return Word(letters)


def _random_matrix(rng, r, c, bound=9):
    return IntMatrix.from_rows(
        [[rng.randint(-bound, bound) for _ in range(c)] for _ in range(r)])


def _random_gl2(rng):
    while True:
        m = _random_matrix(rng, 2, 2, bound=3)
        if m.determinant() in (1, -1):
            return m


def _commuting_pair(rng):
    a = _random_gl2(rng)
    b = rng.choice([IntMatrix.identity(2), -IntMatrix.identity(2),
                    a, a.inverse_unimodular(), -a])
    return a, b


TORUS = parse_presentation("< u, v | [u,v] >")


def test_criterion_7_property_suites():
    start = time.monotonic()
    rng = random.Random(20260823)

    # (a) Fox product rule and fundamental identity
    for _ in range(200):
        u, v = _random_word(rng), _random_word(rng)
        for g in ("x", "y"):
            lhs = fox_derivative(u * v, g)
            rhs = fox_derivative(u, g) + FreeRingElement.of(u) * fox_derivative(v, g)
            assert lhs == rhs
        w = u * v
        residual = FreeRingElement.zero()
        for g in ("x", "y"):
            residual = residual + fox_derivative(w, g) * (
                FreeRingElement.of(Word.gen(g)) - FreeRingElement.one())
        assert residual == FreeRingElement.of(w) - FreeRingElement.one()

    # (b) Smith decomposition invariants
    for _ in range(200):
        m = _random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        dec = smith_normal_form(m)
        assert dec.U @ m @ dec.V == dec.D
        assert is_unimodular(dec.U) and is_unimodular(dec.V)
        diag = [d for d in dec.diagonal if d != 0]
        assert all(b % a == 0 for a, b in zip(diag, diag[1:]))

    # (c) the obstruction class is independent of the chosen lifts
    for _ in range(200):
        a, b = _commuting_pair(rng)
        vec = lambda: (rng.randint(-4, 4), rng.randint(-4, 4))
        c_u, c_v, offset = vec(), vec(), vec()
        d_u, d_v = vec(), vec()
        theta = LinearRep({"u": a, "v": b}, 2)
        base = TorusBundleSpec(TORUS, theta, {"u": c_u, "v": c_v}, (offset,))
        perturbed = TorusBundleSpec(TORUS, theta, {
            "u": tuple(x + y for x, y in zip(c_u, d_u)),
            "v": tuple(x + y for x, y in zip(c_v, d_v))}, (offset,))
        r1, r2 = obstruction_class(base), obstruction_class(perturbed)
        assert r1.class_coordinates == r2.class_coordinates
        assert r1.verdict == r2.verdict

    # (d) semidirect products split and pass the abelianization test
    for _ in range(200):
        a, b = _commuting_pair(rng)
        vec = (rng.randint(-4, 4), rng.randint(-4, 4))
        spec = TorusBundleSpec(TORUS, LinearRep({"u": a, "v": b}, 2),
                               {"u": vec, "v": (0, 0)}, ((0, 0),))
        report = obstruction_class(spec)
        assert report.verdict == "SPLITS"
        assert lemma2_check(TORUS, spec.coefficients, report.s_of_r).is_isomorphic

    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _passline(7, "4 x 200 seeded property cases: Fox identities, Smith form, "
                 f"lift independence, split semidirects ({elapsed:.1f}s)")


def test_criterion_8_cohomology_sanity():
    trivial, t1 = run_cli_json("cohomology", str(SPECS / "torus_trivial_coeffs.bundle"))
    assert trivial["result"]["h1"] == "Z^2"
    assert trivial["result"]["h2"] == "Z"
    flat, t2 = run_cli_json("cohomology", str(SPECS / "flat_center_coeffs.bundle"))
    assert flat["result"]["h2"] == "Z/2"
    assert t1 + t2 < 1.0
    _passline(8, "torus cohomology: H1 = Z^2, H2 = Z trivially; H2 = Z/2 for "
                 f"the flat action ({t1 + t2:.3f}s)")
