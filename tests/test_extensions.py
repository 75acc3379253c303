"""Obstruction classes, the abelianization test, and base cohomology."""

import pytest
from hypothesis import given, settings, strategies as st

from bundlesec.extensions import (
    KbBundleSpec,
    MalformedSpec,
    TorusBundleSpec,
    VERDICT_ACTION_DOES_NOT_LIFT,
    VERDICT_NO_SECTION,
    VERDICT_NO_SPLITTING,
    VERDICT_SPLITS,
    h1_h2_base,
    jw_submodule,
    lemma2_check,
    obstruction_class,
    s_of_r,
)
from bundlesec.groupring import (
    KB_ALPHA,
    KB_CONJ_X,
    KB_CONJ_Y,
    KB_GAMMA,
    KbAut,
    KbElement,
    LinearRep,
    kb_inverse,
    kb_multiply,
)
from bundlesec.words import Word, parse_presentation
from bundlesec.zlinalg import IntMatrix
from lemma2_reference import coinvariants

TORUS = parse_presentation("< u, v | [u,v] >")
I2 = IntMatrix.identity(2)


def _torus_spec(mat_u, mat_v, c_u=(0, 0), c_v=(0, 0), offset=(0, 0)):
    return TorusBundleSpec(TORUS, LinearRep({"u": mat_u, "v": mat_v}, 2),
                           {"u": tuple(c_u), "v": tuple(c_v)}, (tuple(offset),))


def _kb_spec(aut_u, aut_v, k_u=KbElement.identity(), k_v=KbElement.identity(),
             offset=KbElement.identity()):
    return KbBundleSpec(TORUS, {"u": (aut_u, k_u), "v": (aut_v, k_v)}, (offset,))


# --- worked torus examples -------------------------------------------------------


def test_product_bundle_splits():
    report = obstruction_class(_torus_spec(I2, I2))
    assert report.verdict == VERDICT_SPLITS
    assert report.lifted
    assert report.s_of_r == ((0, 0),)


def test_heisenberg_has_no_section():
    report = obstruction_class(_torus_spec(I2, I2, offset=(1, 0)))
    assert report.verdict == VERDICT_NO_SECTION
    assert report.s_of_r == ((1, 0),)
    # trivial action: J_w is zero and the quotient is all of Z^2
    assert report.quotient.invariant_factors == (0, 0)
    assert report.class_coordinates == ((1, 0),)


def test_action_that_does_not_lift():
    shear = IntMatrix.from_rows([[1, 1], [0, 1]])
    flip = IntMatrix.from_rows([[0, 1], [1, 0]])
    report = obstruction_class(_torus_spec(shear, flip))
    assert not report.lifted
    assert report.verdict == VERDICT_ACTION_DOES_NOT_LIFT


def test_rank_one_fibre_reports_no_splitting():
    rep = LinearRep({"u": IntMatrix.identity(1), "v": IntMatrix.identity(1)}, 1)
    spec = TorusBundleSpec(TORUS, rep, {"u": (0,), "v": (0,)}, ((1,),))
    report = obstruction_class(spec)
    # a rank-1 fibre is no surface, so only the group-level verdict is made
    assert report.verdict == VERDICT_NO_SPLITTING


def test_jw_submodule_for_shear_action():
    shear = IntMatrix.from_rows([[1, 1], [0, 1]])
    spec = _torus_spec(shear, I2)
    gens = set(jw_submodule(spec))
    # d[u,v]/du = 1 - uvu^-1 -> I - theta(v) = 0; d[u,v]/dv -> theta(u) - I,
    # which sends e2 to e1
    assert gens == {(0, 0), (1, 0)}


def test_s_of_r_includes_the_offset():
    spec = _torus_spec(I2, I2, c_u=(2, 3), c_v=(-1, 4), offset=(1, 0))
    m, t = s_of_r(spec, 0)
    assert m.is_identity()
    # translations commute under a trivial action, so only the offset remains
    assert t == (1, 0)


def _count_calls(monkeypatch, module, *names):
    """Count calls of the module's named functions, wherever they are bound."""
    import sys
    calls = dict.fromkeys(names, 0)
    for name in calls:
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("bundlesec") and getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)
    return calls


@pytest.mark.parametrize("command", ["split-check", "cohomology"])
def test_split_check_walks_each_relator_once(monkeypatch, tmp_path, command):
    import io
    from contextlib import redirect_stdout
    from bundlesec import cli
    path = tmp_path / "two_relators.bundle"
    path.write_text("[base]\n< u, v | [u,v], [u,v] u v u^-1 v^-1 >\n[fibre]\ntorus 2\n"
                    "[action]\nu = 1 1 ; 0 1\nv = 1 0 ; 0 1\n"
                    "[cocycle]\nu = 1 2\noffset 1 = 1 0\n")
    from bundlesec import groupring
    calls = _count_calls(monkeypatch, groupring, "evaluate_word", "fox_jacobian")
    with redirect_stdout(io.StringIO()):
        assert cli.main(["--json", command, str(path)]) == 0
    # s(r), J_w, theta(r) and delta2 all come from one Fox pass per relator
    assert calls == {"evaluate_word": 0, "fox_jacobian": 2}


def test_fox_pass_builds_no_int_matrix_per_letter(monkeypatch):
    from bundlesec import extensions

    shear = IntMatrix.from_rows([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    swap = IntMatrix.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, -1]])
    extra = [f"e{i}" for i in range(5)]
    module = LinearRep({"u": shear, "v": swap, "w": shear @ swap,
                        **{e: shear for e in extra}}, 3)
    init = IntMatrix.__init__

    def made(*copies, unused=0):
        # 8 letters per copy, which stay reduced when repeated; the unused
        # generators widen the block row
        gens = ", ".join(["u", "v", "w", *extra[:unused]])
        base = parse_presentation(f"< {gens} | " + ", ".join(
            " ".join(["u^2 v w u^-2 v^-1 w^-1"] * c) for c in copies) + " >")
        assert [len(r.letters) for r in base.relators] == [8 * c for c in copies]
        built = []

        def counted(self, *fields):
            built.append(self)
            init(self, *fields)

        with monkeypatch.context() as patch:
            patch.setattr(IntMatrix, "__init__", counted)
            extensions.BaseComplex(base, module)
        return len(built)

    # theta(r) and the block row, for each relator: nothing per letter or
    # per generator, and nothing for the images
    assert made(6) == made(30) == made(6, unused=5) == 2
    assert made(6, 30) == made(6, 30, unused=2) == 4


# --- worked Klein-bottle examples ---------------------------------------------


def test_flat_example_quotient_and_class():
    report = obstruction_class(_kb_spec(KbAut.identity(), KB_ALPHA,
                                        offset=KbElement(2, 0)))
    assert report.verdict == VERDICT_NO_SECTION
    assert str(report.quotient) == "Z/2"
    assert report.class_coordinates == ((1,),)


def test_flat_example_with_trivial_offset_splits():
    report = obstruction_class(_kb_spec(KbAut.identity(), KB_ALPHA))
    assert report.verdict == VERDICT_SPLITS


def test_nil_times_circle_example():
    report = obstruction_class(_kb_spec(KbAut.identity(), KbAut.identity(),
                                        offset=KbElement(2, 0)))
    assert report.verdict == VERDICT_NO_SECTION
    assert str(report.quotient) == "Z"
    assert report.class_coordinates == ((1,),)


def test_kb_action_that_does_not_lift():
    report = obstruction_class(_kb_spec(KB_CONJ_X, KB_GAMMA))
    assert not report.lifted
    assert report.verdict == VERDICT_ACTION_DOES_NOT_LIFT


def test_kb_noncentral_relator_value_does_not_lift():
    report = obstruction_class(_kb_spec(KbAut.identity(), KbAut.identity(),
                                        offset=KbElement(0, 1)))
    assert not report.lifted


kb_small = st.builds(KbElement, st.integers(min_value=-3, max_value=3),
                     st.integers(min_value=-3, max_value=3))
# KbAut(1, 4, -1) is conjugation by x y^2
kb_auts = st.sampled_from([KbAut.identity(), KB_ALPHA, KB_GAMMA, KB_CONJ_X, KB_CONJ_Y,
                           KbAut(1, 4, -1), KB_ALPHA.compose(KB_GAMMA)])
uv_words = st.lists(st.tuples(st.sampled_from("uv"), st.sampled_from((1, -1))),
                    max_size=16).map(Word)


@settings(max_examples=200, derandomize=True)
@given(uv_words, kb_auts, kb_auts, kb_small, kb_small)
def test_kb_evaluation_matches_a_letter_by_letter_product(w, aut_u, aut_v, k_u, k_v):
    spec = _kb_spec(aut_u, aut_v, k_u, k_v)
    elem, aut = KbElement.identity(), KbAut.identity()
    for g, s in w.letters:
        a, k = spec.action_cocycle[g]
        if s == -1:
            a = a.inverse()
            k = kb_inverse(a.apply(k))
        elem = kb_multiply(elem, aut.apply(k))
        aut = aut.compose(a)
    assert spec.evaluate(w) == (elem, aut)


def test_kb_split_check_inverts_each_automorphism_at_most_once(monkeypatch, tmp_path):
    import io
    from contextlib import redirect_stdout
    from bundlesec import cli

    # the two relators hold u^-1 four times and v^-1 three times
    path = tmp_path / "kb_inverse_letters.bundle"
    path.write_text("[base]\n< u, v | [u,v] [u,v], u^-2 v u^2 v^-1 >\n[fibre]\nkb\n"
                    "[action]\nu = gamma\nv = alpha\n[cocycle]\nu = x y\nv = y\n")
    inverse = KbAut.inverse
    calls = []

    def counted(self):
        calls.append(self)
        return inverse(self)

    monkeypatch.setattr(KbAut, "inverse", counted)
    with redirect_stdout(io.StringIO()):
        assert cli.main(["--json", "split-check", str(path)]) == 0
    assert 0 < len(calls) <= 2


# --- coinvariants and the abelianization test ------------------------------------


def test_coinvariants_examples():
    assert coinvariants(2, [I2]).invariant_factors == (0, 0)
    minus = IntMatrix.from_rows([[-1, 0], [0, -1]])
    assert coinvariants(2, [minus]).invariant_factors == (2, 2)
    flip = IntMatrix.from_rows([[0, 1], [1, 0]])
    assert str(coinvariants(2, [flip])) == "Z"


def test_lemma2_passes_on_the_product():
    report = lemma2_check(TORUS, LinearRep({"u": I2, "v": I2}, 2), [(0, 0)])
    assert report.is_isomorphic
    assert str(report.group_ab) == "Z^4"


def test_lemma2_detects_heisenberg():
    report = lemma2_check(TORUS, LinearRep({"u": I2, "v": I2}, 2), [(1, 0)])
    assert not report.is_isomorphic
    assert str(report.group_ab) == "Z^3"
    assert str(report.expected) == "Z^4"


def test_lemma2_makes_three_smith_forms_and_split_check_four(monkeypatch):
    import io
    import pathlib
    import sys
    from contextlib import redirect_stdout
    from bundlesec import cli, zlinalg
    original = zlinalg.smith_normal_form
    shapes = []

    def recording(m):
        shapes.append((m.rows, m.cols))
        return original(m)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("bundlesec") and getattr(mod, "smith_normal_form", None) is original:
            monkeypatch.setattr(mod, "smith_normal_form", recording)
    shear = IntMatrix.from_rows([[1, 1], [0, 1]])
    lemma2_check(TORUS, LinearRep({"u": shear, "v": I2}, 2), [(1, 0)])
    # the action block (m x m|X|), then pi^ab and its split twin on the base
    # rows and the one fibre row whose pivot is not 1: one pivot column is
    # not kept, and the relator keeps its column
    assert shapes == [(2, 4), (3, 1), (3, 1)]
    root = pathlib.Path(__file__).resolve().parent.parent
    # delta2 (m|R| x m|X|), the action block (m x m|X|), then the two small
    # matrices: heisenberg_torus has pivots (0, 0), so 2 + 2 rows and the one
    # relator column; two_relator_torus has pivots (1, 2), so 3 + 1 rows, the
    # column 2 e and the two relator columns
    for path, expected in ((root / "specs" / "heisenberg_torus.bundle",
                            [(2, 4), (2, 4), (4, 1), (4, 1)]),
                           (root / "tests" / "specs" / "two_relator_torus.bundle",
                            [(4, 6), (2, 6), (4, 3), (4, 3)])):
        shapes.clear()
        with redirect_stdout(io.StringIO()) as out:
            assert cli.main(["--json", "split-check", str(path)]) == 0
        assert '"lifted": true' in out.getvalue()
        # the cokernel of delta2, one for any number of relators, then lemma 2
        assert shapes == expected, path.name


def test_lemma2_keeps_a_trivial_relators_offset_out_of_the_coinvariants():
    # u u^-1 reduces to the empty word, so its offset relator f^-2 involves
    # only the fibre: it changes pi^ab, while the fibre coinvariants are
    # Z^m / (theta(x) - I) alone
    base = parse_presentation("< u, v | [u,v], u u^-1 >")
    one = IntMatrix.identity(1)
    report = lemma2_check(base, LinearRep({"u": one, "v": one}, 1), [(0,), (2,)])
    assert str(report.group_ab) == "Z^2 + Z/2"
    assert str(report.expected) == "Z^3"
    assert not report.is_isomorphic


# --- base cohomology --------------------------------------------------------------


def test_cohomology_trivial_coefficients():
    module = LinearRep({"u": IntMatrix.identity(1), "v": IntMatrix.identity(1)}, 1)
    h1, h2 = h1_h2_base(TORUS, module)
    assert str(h1) == "Z^2"
    assert str(h2) == "Z"


def test_cohomology_flat_coefficients():
    module = LinearRep({"u": IntMatrix.identity(1),
                        "v": IntMatrix.from_rows([[-1]])}, 1)
    h1, h2 = h1_h2_base(TORUS, module)
    assert str(h2) == "Z/2"


def test_cohomology_rejects_modules_that_miss_the_relator():
    shear = IntMatrix.from_rows([[1, 1], [0, 1]])
    flip = IntMatrix.from_rows([[0, 1], [1, 0]])
    module = LinearRep({"u": shear, "v": flip}, 2)
    with pytest.raises(ValueError):
        h1_h2_base(TORUS, module)


# --- randomized properties ---------------------------------------------------------

entries = st.integers(min_value=-3, max_value=3)


@st.composite
def commuting_pairs(draw):
    """Two commuting GL(2, Z) matrices with entries bounded by 3."""
    rows = draw(st.lists(st.lists(entries, min_size=2, max_size=2),
                         min_size=2, max_size=2))
    a = IntMatrix.from_rows(rows)
    if a.determinant() not in (1, -1):
        a = I2
    pool = [I2, -a @ I2, a, a.inverse_unimodular()]
    b = draw(st.sampled_from(pool))
    return a, b


vectors = st.tuples(st.integers(min_value=-4, max_value=4),
                    st.integers(min_value=-4, max_value=4))


@settings(max_examples=200, derandomize=True)
@given(commuting_pairs(), vectors, vectors, vectors, vectors)
def test_class_is_invariant_under_lift_perturbation(pair, c_u, c_v, d_u, d_v):
    a, b = pair
    base = _torus_spec(a, b, c_u, c_v, offset=(1, -2))
    perturbed = _torus_spec(
        a, b,
        tuple(x + y for x, y in zip(c_u, d_u)),
        tuple(x + y for x, y in zip(c_v, d_v)),
        offset=(1, -2))
    r1 = obstruction_class(base)
    r2 = obstruction_class(perturbed)
    assert r1.lifted and r2.lifted
    assert r1.class_coordinates == r2.class_coordinates
    assert r1.verdict == r2.verdict


@settings(max_examples=200, derandomize=True, deadline=None)
@given(commuting_pairs(), vectors, vectors)
def test_semidirect_products_split(pair, c_u, c_v):
    a, b = pair
    spec = _torus_spec(a, b, c_u, c_v)
    report = obstruction_class(spec)
    assert report.verdict == VERDICT_SPLITS

    check = lemma2_check(TORUS, spec.coefficients, report.s_of_r)
    assert check.is_isomorphic


# --- spec validation ----------------------------------------------------------------


def test_spec_validation():
    # a free base is a datum: it has no relator and so no offset
    free = TorusBundleSpec(parse_presentation("< u, v | >"), LinearRep({"u": I2, "v": I2}, 2),
                           {"u": (0, 0), "v": (0, 0)})
    assert free.relator_offsets == ()
    with pytest.raises(MalformedSpec):
        _torus_spec(I2, I2, offset=(1,))
    with pytest.raises(MalformedSpec):
        TorusBundleSpec(TORUS, LinearRep({"u": I2}, 2), {"u": (0, 0)})
    with pytest.raises(MalformedSpec, match="no lift for base generator 'v'"):
        TorusBundleSpec(TORUS, LinearRep({"u": I2, "v": I2}, 2), {"u": (0, 0)})
    with pytest.raises(MalformedSpec, match="wrong fibre dimension"):
        _torus_spec(I2, I2, c_v=(0, 0, 0))
    with pytest.raises(MalformedSpec):
        KbBundleSpec(TORUS, {"u": (KbAut.identity(), KbElement.identity())})
