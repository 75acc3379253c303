"""The genus-3 example: the curve model of ``mcg_reference`` validated
against the cellular oracle, and ``endo``, the split-check of the bundle text
``bundlesec.mcg.ENDO_SPEC``, checked against the matrices that model
rebuilds and against the fibre coinvariants."""

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from bundlesec import cli
from bundlesec.extensions import SurfaceBundleSpec, h1_h2_base, obstruction_class
from bundlesec.mcg import ENDO_SPEC
from bundlesec.specfile import parse_bundle_file
from bundlesec.words import parse_presentation
from bundlesec.zlinalg import IntMatrix

from cellular_oracle import build_model, curve_classes
from lemma2_reference import coinvariants_smith
from mcg_reference import (
    CURVE_VECTORS,
    HYPERELLIPTIC,
    LANTERN_PRODUCT,
    LANTERN_TWISTS,
    PAIRING,
    RANK,
    REFLECTION,
    bundle_text,
    endo_monodromy,
    form_sign,
    lantern_check,
    transvection,
)
from smith_reference import from_columns, is_unimodular

SPECS = Path(__file__).resolve().parent / "specs"
ENDO_BASE = "< x1, y1, x2, y2, x3, y3 | [x1,y1] [x2,y2] [x3,y3] >"
KLEIN_BASE = "< x, y | x y x^-1 y >"


@pytest.fixture(scope="module")
def oracle():
    model = build_model()
    return model, curve_classes(model)


def pairing(v, w):
    """Algebraic intersection number <v, w> = v^T J w."""
    return sum(vi * ji for vi, ji in zip(v, PAIRING.apply(tuple(w))))


# --- the oracle itself --------------------------------------------------------


def test_oracle_h1_is_z6(oracle):
    model, _ = oracle
    assert model.smith.cokernel().invariant_factors == (0,) * 6


def test_oracle_pairing_is_unimodular_and_skew(oracle):
    model, _ = oracle
    p = model.pairing
    assert p.determinant() in (1, -1)
    assert p.transpose() == -p


def test_oracle_boundary_curves_sum_to_zero(oracle):
    _, curves = oracle
    total = tuple(sum(col) for col in zip(
        curves["b1"], curves["b2"], curves["b3"], curves["b4"]))
    assert total == (0,) * 6


def test_oracle_lantern_curve_relations(oracle):
    _, curves = oracle

    def add(u, v):
        return tuple(a + b for a, b in zip(u, v))

    assert curves["x0"] == add(curves["b1"], curves["b2"])
    assert curves["y0"] == add(curves["b2"], curves["b3"])
    assert curves["z0"] == add(curves["b1"], curves["b3"])


def test_oracle_parallel_and_mirror_classes(oracle):
    _, curves = oracle
    for i in range(1, 5):
        assert curves[f"d{i}0"] == curves[f"d{i}1"]
    assert curves["d10"] == curves["b1"]
    assert curves["d40"] == curves["b4"]
    for name in ("x", "y", "z"):
        assert curves[f"{name}1"] == tuple(-c for c in curves[f"{name}0"])


# --- shipped constants against the oracle --------------------------------------


def _change_of_basis(curves):
    cols = [curves[n] for n in ("b1", "b2", "b3", "a1", "a2", "a3")]
    return from_columns(cols, rows=6)


def test_shipped_curve_vectors_match_oracle(oracle):
    _, curves = oracle
    basis = _change_of_basis(curves)
    assert is_unimodular(basis)
    for name, shipped in CURVE_VECTORS.items():
        assert curves[name] == basis.apply(shipped), name


def test_shipped_pairing_matches_oracle(oracle):
    model, curves = oracle
    basis = _change_of_basis(curves)
    pulled = basis.transpose() @ model.pairing @ basis
    assert pulled in (PAIRING, -PAIRING)


# --- the reference model ---------------------------------------------------------


def test_model_invariants():
    assert PAIRING.determinant() in (1, -1)
    assert PAIRING.transpose() == -PAIRING
    for v in CURVE_VECTORS.values():
        assert len(v) == RANK
        assert pairing(v, v) == 0
    total = tuple(sum(col) for col in zip(*(CURVE_VECTORS[f"b{i}"] for i in range(1, 5))))
    assert total == (0,) * 6
    assert pairing(CURVE_VECTORS["x0"], CURVE_VECTORS["b1"]) == 0


def test_transvection_properties():
    x0, b1 = CURVE_VECTORS["x0"], CURVE_VECTORS["b1"]
    t = transvection(x0)
    assert form_sign(t) == 1
    # vectors orthogonal to the curve are fixed
    assert t.apply(b1) == b1
    # a dual vector moves by the curve class
    dual = (0, 0, 0, 1, 0, 0)
    assert pairing(dual, x0) == 1
    assert t.apply(dual) == tuple(d + c for d, c in zip(dual, x0))
    assert (t @ t.inverse_unimodular()).is_identity()


@pytest.mark.parametrize("name", sorted(CURVE_VECTORS))
def test_transvection_is_v_plus_pairing_times_c(name):
    c = CURVE_VECTORS[name]
    eye = IntMatrix.identity(RANK)
    cols = [tuple(e + pairing(eye.column(j), c) * ci for e, ci in zip(eye.column(j), c))
            for j in range(RANK)]
    assert transvection(c) == from_columns(cols, rows=RANK)


def test_disjoint_twists_commute():
    for n1, n2 in (("x0", "b1"), ("d10", "d30"), ("x0", "y0")):
        a, b = transvection(CURVE_VECTORS[n1]), transvection(CURVE_VECTORS[n2])
        if pairing(CURVE_VECTORS[n1], CURVE_VECTORS[n2]) == 0:
            assert a @ b == b @ a


def test_twist_along_negated_curve_is_the_same():
    # x1 = -x0
    assert transvection(CURVE_VECTORS["x0"]) == transvection(CURVE_VECTORS["x1"])


def test_involutions():
    f, rho = HYPERELLIPTIC, REFLECTION
    assert (f @ f).is_identity()
    assert (rho @ rho).is_identity()
    assert form_sign(f) == 1
    assert form_sign(rho) == -1
    assert f.apply(CURVE_VECTORS["x0"]) == CURVE_VECTORS["x1"]
    assert f.apply(CURVE_VECTORS["y0"]) == CURVE_VECTORS["y1"]


@pytest.mark.parametrize("rows", [
    # an elementary shear a1 -> a1 + a2 that is no transvection
    [[1 if i == j or (i, j) == (4, 3) else 0 for j in range(6)] for i in range(6)],
    # scales the form by 4
    [[2 if i == j else 0 for j in range(6)] for i in range(6)],
    # swaps b1 and a1 without a sign
    [[1 if {i, j} == {0, 3} or (i == j and i not in (0, 3)) else 0 for j in range(6)]
     for i in range(6)],
    [[0] * 6 for _ in range(6)],
])
def test_form_sign_raises_off_the_form(rows):
    with pytest.raises(ValueError, match="intersection form"):
        form_sign(IntMatrix.from_rows(rows))


def test_form_sign_rejects_the_wrong_size():
    with pytest.raises(ValueError):
        form_sign(IntMatrix.identity(4))


_GENERATORS = endo_monodromy() + (REFLECTION,)
_LETTERS = [(m, form_sign(m)) for m in _GENERATORS] + [
    (m.inverse_unimodular(), form_sign(m)) for m in _GENERATORS]


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=len(_LETTERS) - 1), max_size=12))
def test_words_in_the_generators_scale_the_form_by_their_sign(word):
    # form_sign runs on the generators only; products and inverses are
    # checked here, never by the program
    product, sign = IntMatrix.identity(RANK), 1
    for i in word:
        m, s = _LETTERS[i]
        product, sign = product @ m, sign * s
    assert form_sign(product) == sign


def test_lantern_relation_holds():
    assert lantern_check()


def test_lantern_negative_control():
    wrong = dict(CURVE_VECTORS)
    wrong["z0"] = (0, 0, 0, 1, 1, 0)  # a valid class, wrong curve
    assert not lantern_check(wrong)


def _endo_report(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert cli.main(["--json", *(argv or ["endo"])]) == 0
    return json.loads(buf.getvalue())


def _endo_spec(mats=None):
    if mats is None:
        return parse_bundle_file(ENDO_SPEC).to_spec()
    action = dict(zip(parse_presentation(ENDO_BASE).generators, mats))
    return parse_bundle_file(bundle_text(ENDO_BASE, 3, action, CURVE_VECTORS["b1"])).to_spec()


def test_the_endo_spec_file_holds_the_text_in_mcg():
    assert (SPECS / "genus3_endo.bundle").read_bytes() == ENDO_SPEC.encode()


def test_the_endo_spec_is_rebuilt_from_the_curves():
    # the six matrices are those the curve model gives, the translations
    # are zero and the offset is b1, on a genus-3 surface fibre
    spec = _endo_spec()
    assert isinstance(spec, SurfaceBundleSpec)
    mats = [spec.coefficients.matrix(g) for g in spec.base.generators]
    assert tuple(mats) == endo_monodromy()
    base = parse_presentation(ENDO_BASE)
    assert (spec.base.generators, spec.base.relators) == (base.generators, base.relators)
    assert all(t == (0,) * RANK for t in spec.translations.values())
    assert spec.relator_offsets == (CURVE_VECTORS["b1"],)
    for m in mats:
        assert form_sign(m) == 1


def test_endo_relation():
    # theta of the surface relator, from the Fox pass, is the commutator
    # product [m1,m2][m3,m4][m5,m6]
    assert obstruction_class(_endo_spec()).lifted


def test_endo_relation_negative_control():
    mats = list(endo_monodromy())
    # a twist along a curve meeting x0 does not commute with t_x0
    mats[1] = transvection((0, 0, 0, 1, 0, 0))
    report = obstruction_class(_endo_spec(mats))
    assert not report.lifted
    assert report.verdict == "ACTION_DOES_NOT_LIFT"


def test_endo_verdict():
    report = _endo_report()
    ob = report["result"]["obstruction"]
    assert ob["quotient"] == "Z/2 + Z/2 + Z/2 + Z/2"
    assert ob["class"] == [[1, 0, 0, 0]]
    assert report["verdict"] == "NO_SECTION"
    # lemma 2 agrees: a split extension would have the twin's abelianization
    assert report["result"]["lemma2"]["is_isomorphic"] is False


def test_endo_is_split_check_of_the_spec_file():
    endo = _endo_report()
    split = _endo_report("split-check", str(SPECS / "genus3_endo.bundle"))
    assert endo["result"] == split["result"]
    assert endo["verdict"] == split["verdict"]
    assert endo["inputs"] == {"sha256": split["inputs"]["sha256"]}


def test_endo_verdict_from_the_relator_obstruction():
    # the pipeline decides the genus-3 base with theta the six monodromy
    # matrices and the offset b1; the second route is the coinvariants of H_1
    # under the monodromy and the class of [b1] there
    spec = _endo_spec()
    report = obstruction_class(spec)
    assert report.lifted
    assert report.quotient.invariant_factors == (2, 2, 2, 2)
    assert report.class_coordinates == ((1, 0, 0, 0),)
    assert h1_h2_base(spec.base, spec.coefficients)[1].invariant_factors == (2, 2, 2, 2)
    # a surface fibre: a nonzero class rules out a section
    assert report.verdict == "NO_SECTION"
    dec = coinvariants_smith(RANK, list(LANTERN_TWISTS + (HYPERELLIPTIC,)))
    assert str(report.quotient) == str(dec.cokernel()) == "Z/2 + Z/2 + Z/2 + Z/2"
    assert dec.project(CURVE_VECTORS["b1"]) == (1, 0, 0, 0)


def test_jacobian_obstruction_generating_set_independence():
    b1 = CURVE_VECTORS["b1"]
    four = [transvection(CURVE_VECTORS[n]) for n in ("x0", "y0", "z0")] + [HYPERELLIPTIC]
    d1 = coinvariants_smith(RANK, four)
    d2 = coinvariants_smith(RANK, endo_monodromy())
    assert d1.cokernel().invariant_factors == d2.cokernel().invariant_factors
    assert d1.project(b1) == d2.project(b1)


def test_jacobian_obstruction_trivial_monodromy():
    dec = coinvariants_smith(RANK, [IntMatrix.identity(RANK)])
    coords = dec.project((1, 0, 0, 0, 0, 0))
    assert dec.cokernel().invariant_factors == (0,) * RANK
    assert any(c != 0 for c in coords)


def test_jacobian_obstruction_minus_identity():
    dec = coinvariants_smith(RANK, [HYPERELLIPTIC])
    coords = dec.project((2, 0, 0, 0, 0, 0))
    assert dec.cokernel().invariant_factors == (2,) * RANK
    assert all(c == 0 for c in coords)


def _klein(x, y):
    return parse_bundle_file(bundle_text(KLEIN_BASE, 3, {"x": x, "y": y},
                                         CURVE_VECTORS["b1"])).to_spec()


def test_the_klein_base_variant_is_the_twisted_coinvariants():
    # x -> R (the reflection, which reverses the form) and y -> P, the
    # lantern product; over the Klein bottle, w(x) = -1 and w(y) = 1, and
    # H^2 is A / <(w(x) R - I) A, (P - I) A>: the coinvariants of -R and P
    spec = parse_bundle_file((SPECS / "genus3_klein_base.bundle").read_text()).to_spec()
    assert [spec.coefficients.matrix(g) for g in ("x", "y")] == [REFLECTION, LANTERN_PRODUCT]
    assert spec.relator_offsets == (CURVE_VECTORS["b1"],)
    assert (form_sign(REFLECTION), form_sign(LANTERN_PRODUCT)) == (-1, 1)
    report = obstruction_class(spec)
    twisted = coinvariants_smith(RANK, [-REFLECTION, LANTERN_PRODUCT])
    assert str(report.quotient) == str(twisted.cokernel()) == "Z^3 + Z/2"
    assert report.class_coordinates == (twisted.project(CURVE_VECTORS["b1"]),) == ((1, 0, 0, 0),)
    assert report.verdict == "NO_SECTION"
    assert obstruction_class(_klein(REFLECTION, LANTERN_PRODUCT)).verdict == "NO_SECTION"


def test_the_swapped_klein_base_assignment_does_not_lift():
    # P R P^-1 R is not the identity on H_1
    report = obstruction_class(_klein(LANTERN_PRODUCT, REFLECTION))
    assert not report.lifted
    assert report.verdict == "ACTION_DOES_NOT_LIFT"


def test_coinvariant_order_hand_count():
    # mod 2 the twists contribute span{x0, y0, z0} with x0+y0+z0 = 0, so the
    # quotient of (Z/2)^6 has order 2^4
    group = obstruction_class(_endo_spec()).quotient
    order = 1
    for f in group.invariant_factors:
        order *= f
    assert order == 2 ** 4
