"""Mapping-class computations, validated against the cellular oracle."""

import pytest
from hypothesis import given, settings, strategies as st

from bundlesec.mcg import (
    CURVE_VECTORS,
    HYPERELLIPTIC,
    PAIRING,
    RANK,
    REFLECTION,
    endo_monodromy,
    endo_relation_check,
    endo_verdict,
    form_sign,
    jacobian_obstruction,
    kb_base_variant,
    lantern_check,
    torus_pullback_info,
    transvection,
)
from bundlesec.zlinalg import IntMatrix

from cellular_oracle import build_model, curve_classes


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
    assert model.group.invariant_factors == (0,) * 6


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
    return IntMatrix.from_columns(cols, rows=6)


def test_shipped_curve_vectors_match_oracle(oracle):
    _, curves = oracle
    basis = _change_of_basis(curves)
    assert basis.is_unimodular()
    for name, shipped in CURVE_VECTORS.items():
        assert curves[name] == basis.apply(shipped), name


def test_shipped_pairing_matches_oracle(oracle):
    model, curves = oracle
    basis = _change_of_basis(curves)
    pulled = basis.transpose() @ model.pairing @ basis
    assert pulled in (PAIRING, -PAIRING)


# --- module under test ----------------------------------------------------------


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
    assert transvection(c) == IntMatrix.from_columns(cols, rows=RANK)


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


def test_endo_relation():
    mats = endo_monodromy()
    assert len(mats) == 6
    assert endo_relation_check(mats)
    for m in mats:
        assert form_sign(m) == 1


def test_endo_relation_negative_control():
    mats = list(endo_monodromy())
    # a twist along a curve meeting x0 does not commute with t_x0
    mats[1] = transvection((0, 0, 0, 1, 0, 0))
    assert not endo_relation_check(mats)


def test_endo_verdict():
    group, coords, verdict = endo_verdict()
    assert group.invariant_factors == (2, 2, 2, 2)
    assert any(c != 0 for c in coords)
    assert verdict == "NO_SECTION"


def test_endo_verdict_from_the_relator_obstruction():
    # the second route: the genus-3 base with theta the six monodromy
    # matrices and the offset b1, through obstruction_class and H^2
    from bundlesec.extensions import TorusBundleSpec, h1_h2_base, obstruction_class
    from bundlesec.groupring import LinearRep
    from bundlesec.words import parse_presentation

    base = parse_presentation("< x1, y1, x2, y2, x3, y3 | [x1,y1] [x2,y2] [x3,y3] >")
    theta = LinearRep(dict(zip(base.generators, endo_monodromy())), RANK)
    spec = TorusBundleSpec(base, theta, {g: (0,) * RANK for g in base.generators},
                           (CURVE_VECTORS["b1"],))
    report = obstruction_class(spec)
    assert report.lifted
    assert report.quotient.invariant_factors == (2, 2, 2, 2)
    assert report.class_coordinates == ((1, 0, 0, 0),)
    assert h1_h2_base(base, theta)[1].invariant_factors == (2, 2, 2, 2)
    # the coinvariants and the class of [b1] that `endo` prints
    group, coords, _ = endo_verdict()
    assert str(report.quotient) == str(group) == "Z/2 + Z/2 + Z/2 + Z/2"
    assert report.class_coordinates == (coords,)
    # a rank-6 torus is no surface group, so the verdict is the group-level one
    assert report.verdict == "NO_SPLITTING"


def test_jacobian_obstruction_generating_set_independence():
    b1 = CURVE_VECTORS["b1"]
    four = [transvection(CURVE_VECTORS[n]) for n in ("x0", "y0", "z0")] + [HYPERELLIPTIC]
    g1, c1 = jacobian_obstruction(four, b1)
    g2, c2 = jacobian_obstruction(endo_monodromy(), b1)
    assert g1.invariant_factors == g2.invariant_factors
    assert c1 == c2


def test_jacobian_obstruction_trivial_monodromy():
    group, coords = jacobian_obstruction([IntMatrix.identity(RANK)], (1, 0, 0, 0, 0, 0))
    assert group.invariant_factors == (0,) * RANK
    assert any(c != 0 for c in coords)


def test_jacobian_obstruction_minus_identity():
    group, coords = jacobian_obstruction([HYPERELLIPTIC], (2, 0, 0, 0, 0, 0))
    assert group.invariant_factors == (2,) * RANK
    assert all(c == 0 for c in coords)


def test_kb_base_variant():
    group, coords, verdict = kb_base_variant()
    assert any(c != 0 for c in coords)
    assert verdict == "NO_SECTION"
    # mod-2 count: the quotient has order 32 here
    order = 1
    for f in group.invariant_factors:
        order *= f
    assert order == 32


def test_torus_pullback_is_informational():
    group, coords = torus_pullback_info()
    # the single pulled-back generator acts trivially on H_1
    assert group.invariant_factors == (0,) * RANK
    assert any(c != 0 for c in coords)


def test_coinvariant_order_hand_count():
    # mod 2 the twists contribute span{x0, y0, z0} with x0+y0+z0 = 0, so the
    # quotient of (Z/2)^6 has order 2^4
    group, _, _ = endo_verdict()
    order = 1
    for f in group.invariant_factors:
        order *= f
    assert order == 2 ** 4
