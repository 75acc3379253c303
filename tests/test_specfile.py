"""The sectioned bundle-file format."""

import pytest

from bundlesec.extensions import KbBundleSpec, MalformedSpec, TorusBundleSpec
from bundlesec.specfile import parse_bundle_file
from bundlesec.words import ParseError

TORUS_TEXT = """
[base]
< u, v | [u,v] >
[fibre]
torus 2
[action]
u = 1 0 ; 0 1
v = 1 1 ; 0 1
[cocycle]
u = 0 0
v = 1 -2
offset 1 = 3 4
"""

KB_TEXT = """
[base]
< u, v | [u,v] >
[fibre]
kb
[action]
u = id
v = alpha
[cocycle]
u = x
v = 1
offset 1 = x^2 y^-1
"""


def test_parse_torus_bundle():
    bundle = parse_bundle_file(TORUS_TEXT)
    spec = bundle.to_spec()
    assert isinstance(spec, TorusBundleSpec)
    assert spec.fibre_rank == 2
    assert spec.action_cocycle.assignment["v"][1] == (1, -2)
    assert spec.relator_offsets == ((3, 4),)


def test_parse_kb_bundle():
    bundle = parse_bundle_file(KB_TEXT)
    spec = bundle.to_spec()
    assert isinstance(spec, KbBundleSpec)
    aut, elem = spec.action_cocycle["u"]
    assert aut.center_action() == 1
    assert (elem.a, elem.b) == (1, 0)
    off = spec.relator_offsets[0]
    assert (off.a, off.b) == (2, -1)


def test_missing_cocycle_defaults_to_zero():
    text = TORUS_TEXT.replace("[cocycle]\nu = 0 0\nv = 1 -2\noffset 1 = 3 4\n", "")
    spec = parse_bundle_file(text).to_spec()
    assert spec.action_cocycle.assignment["v"][1] == (0, 0)
    assert spec.relator_offsets == ((0, 0),)


def test_comments_are_stripped():
    bundle = parse_bundle_file("# header\n" + TORUS_TEXT + "# trailer\n")
    assert bundle.fibre_rank == 2


@pytest.mark.parametrize("mutation, needle", [
    (lambda t: t.replace("[fibre]\ntorus 2\n", ""), "missing"),
    (lambda t: t.replace("torus 2", "torus"), "rank"),
    (lambda t: t.replace("torus 2", "sphere 2"), "unknown fibre"),
    (lambda t: t.replace("v = 1 1 ; 0 1\n", ""), "missing generator"),
    (lambda t: t.replace("u = 0 0", "u = 0"), "length"),
    (lambda t: t.replace("offset 1", "offset 7"), "out of range"),
    (lambda t: t.replace("u = 1 0 ; 0 1", "u = 1 0 ; 0 1\nu = 1 0 ; 0 1"), "duplicate"),
    (lambda t: "stray line\n" + t, "before any section"),
])
def test_malformed_files(mutation, needle):
    with pytest.raises(MalformedSpec) as err:
        parse_bundle_file(mutation(TORUS_TEXT)).to_spec()
    assert needle in str(err.value)


def test_bad_presentation_raises_parse_error():
    with pytest.raises(ParseError):
        parse_bundle_file(TORUS_TEXT.replace("[u,v]", "[u,w]"))


def test_parse_error_names_the_line_and_column_in_the_file():
    # the [base] section spans two lines after a comment line
    text = TORUS_TEXT.replace("< u, v | [u,v] >", "# the base\n< u, v |\n   [u,w] >")
    with pytest.raises(ParseError) as err:
        parse_bundle_file(text)
    assert (err.value.line, err.value.col) == (5, 7)
    assert str(err.value) == "unknown generator 'w' in relator (line 5, column 7)"


def test_non_invertible_matrix_is_rejected():
    with pytest.raises(ValueError):
        parse_bundle_file(TORUS_TEXT.replace("u = 1 0 ; 0 1", "u = 2 0 ; 0 1")).to_spec()


def test_building_a_torus_spec_runs_one_elimination_per_matrix(monkeypatch):
    import pathlib

    from bundlesec.zlinalg import IntMatrix

    calls = {"determinant": 0, "inverse_unimodular": 0}
    for name in calls:
        method = getattr(IntMatrix, name)

        def counted(self, _name=name, _method=method):
            calls[_name] += 1
            return _method(self)

        monkeypatch.setattr(IntMatrix, name, counted)
    path = pathlib.Path(__file__).resolve().parent.parent / "specs" / "heisenberg_torus.bundle"
    spec = parse_bundle_file(path.read_text()).to_spec()
    # the inverse of each action matrix is its unimodularity check
    assert calls == {"determinant": 0, "inverse_unimodular": 2}
    assert spec.coefficients.matrix("u", -1).is_identity()
    assert calls["inverse_unimodular"] == 2
