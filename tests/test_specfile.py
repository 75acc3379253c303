"""The sectioned bundle-file format."""

import json
import pathlib
import random
import re

import pytest

from bundlesec.extensions import KbBundleSpec, MalformedSpec, TorusBundleSpec
from bundlesec.groupring import KB_ALPHA, KB_AUT_NAMES, KB_CONJ_Y, KB_GAMMA, KbAut, KbElement
from bundlesec.specfile import kb_aut_from_word, kb_element_from_word, parse_bundle_file
from bundlesec.words import ParseError, Word

ROOT = pathlib.Path(__file__).resolve().parent.parent

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


def _spec_fields(spec):
    """A torus datum as the values that make it up, which compare by value."""
    return (spec.base.generators, spec.base.relators, spec.coefficients.assignment,
            spec.coefficients.dim, spec.translations, spec.relator_offsets)


def test_parse_torus_bundle():
    bundle = parse_bundle_file(TORUS_TEXT)
    spec = bundle.to_spec()
    assert isinstance(spec, TorusBundleSpec)
    assert spec.fibre_rank == 2
    assert spec.translations["v"] == (1, -2)
    assert spec.relator_offsets == ((3, 4),)


def test_parse_kb_bundle():
    bundle = parse_bundle_file(KB_TEXT)
    spec = bundle.to_spec()
    assert isinstance(spec, KbBundleSpec)
    aut, elem = spec.action_cocycle["u"]
    assert aut.eps == 1
    assert (elem.a, elem.b) == (1, 0)
    off = spec.relator_offsets[0]
    assert (off.a, off.b) == (2, -1)


def test_missing_cocycle_defaults_to_zero():
    text = TORUS_TEXT.replace("[cocycle]\nu = 0 0\nv = 1 -2\noffset 1 = 3 4\n", "")
    spec = parse_bundle_file(text).to_spec()
    assert spec.translations["v"] == (0, 0)
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


def test_a_misspelled_section_header_is_refused():
    # [cocyle] would drop the cocycle: the file's NO_SECTION would read SPLITS
    text = (ROOT / "specs" / "flat_kb.bundle").read_text().replace("[cocycle]", "[cocyle]")
    with pytest.raises(MalformedSpec) as err:
        parse_bundle_file(text)
    assert str(err.value) == "unknown section [cocyle]"


def test_a_long_unknown_section_header_is_clipped():
    with pytest.raises(MalformedSpec) as err:
        parse_bundle_file(f"[{'s' * 5000}]\n" + TORUS_TEXT)
    assert str(err.value) == f"unknown section [{'s' * 59}... (5002 characters)"


def test_section_headers_are_case_insensitive():
    text = TORUS_TEXT.replace("[base]", "[BASE]").replace("[fibre]", "[ Fibre ]")
    assert parse_bundle_file(text).fibre_rank == 2


def test_a_bracketed_relator_line_is_base_content():
    # "[a1,b1] [a2,b2]" on a line of its own is bracketed text, but not one word
    one_line = (ROOT / "tests" / "specs" / "genus2_rank3.bundle").read_text()
    text = one_line.replace("< a1, b1, a2, b2 | [a1,b1] [a2,b2] >",
                            "< a1, b1, a2, b2 |\n  [a1,b1] [a2,b2]\n>")
    assert text != one_line
    assert _spec_fields(parse_bundle_file(text).to_spec()) \
        == _spec_fields(parse_bundle_file(one_line).to_spec())


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


def test_a_duplicate_generator_is_named_at_its_line_in_the_file():
    text = TORUS_TEXT.replace("< u, v | [u,v] >", "# the base\n< u, v,\n  v | [u,v] >")
    with pytest.raises(ParseError) as err:
        parse_bundle_file(text)
    assert str(err.value) == "duplicate generator 'v' (line 5, column 3)"


@pytest.mark.parametrize("separator", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                                       "\u2028", "\u2029"])
def test_only_a_newline_ends_a_line(separator):
    # str.splitlines() would end a line at each of these
    assert parse_bundle_file(f"# note{separator}more\n" + TORUS_TEXT).fibre_rank == 2
    # the presentation parser reads it as a space, so a parse error stays on
    # the file's own line
    text = f"[base]\n< u, v |{separator}\n [u,v] q >\n[fibre]\ntorus 2\n"
    with pytest.raises(ParseError) as err:
        parse_bundle_file(text)
    assert str(err.value) == "unknown generator 'q' in relator (line 3, column 8)"


def test_reading_a_base_of_many_generators_is_linear_in_their_number():
    # each relator letter and each [action] key is looked up in a set: with
    # a scan of the generator tuple, 20,000 generators took seconds
    import time

    gens = [f"g{i}" for i in range(20_000)]
    relators = ", ".join(" ".join(gens[i:i + 1000]) for i in range(0, len(gens), 1000))
    text = (f"[base]\n< {', '.join(gens)} | {relators} >\n[fibre]\ntorus 1\n[action]\n"
            + "".join(f"{g} = 1\n" for g in gens))
    start = time.perf_counter()
    bundle = parse_bundle_file(text)
    assert time.perf_counter() - start < 2
    assert len(bundle.action_lines) == 20_000


def test_non_invertible_matrix_is_rejected():
    with pytest.raises(ValueError):
        parse_bundle_file(TORUS_TEXT.replace("u = 1 0 ; 0 1", "u = 2 0 ; 0 1")).to_spec()


def _count_eliminations(monkeypatch):
    from bundlesec.zlinalg import IntMatrix

    calls = {"determinant": 0, "inverse_unimodular": 0}
    for name in calls:
        method = getattr(IntMatrix, name)

        def counted(self, _name=name, _method=method):
            calls[_name] += 1
            return _method(self)

        monkeypatch.setattr(IntMatrix, name, counted)
    return calls


def test_building_a_torus_spec_runs_one_elimination_per_distinct_matrix(monkeypatch):
    import pathlib

    calls = _count_eliminations(monkeypatch)
    path = pathlib.Path(__file__).resolve().parent.parent / "specs" / "heisenberg_torus.bundle"
    spec = parse_bundle_file(path.read_text()).to_spec()
    # the inverse of each distinct action matrix is its unimodularity check:
    # u = v = I is one matrix
    assert calls == {"determinant": 0, "inverse_unimodular": 1}
    assert spec.coefficients.matrix("u", -1).is_identity()
    assert spec.coefficients.matrix("v", -1).is_identity()
    assert calls["inverse_unimodular"] == 1


def test_an_inverse_pair_of_action_matrices_runs_one_elimination(monkeypatch):
    calls = _count_eliminations(monkeypatch)
    text = ("[base]\n< u, v | [u,v] >\n[fibre]\ntorus 2\n"
            "[action]\nu = 1 3 ; 0 1\nv = 1 -3 ; 0 1\n")
    rep = parse_bundle_file(text).to_spec().coefficients
    # theta(v) = theta(u)^-1: u's elimination gives both inverses
    assert calls == {"determinant": 0, "inverse_unimodular": 1}
    assert rep.matrix("u", -1) == rep.matrix("v")
    assert rep.matrix("v", -1) == rep.matrix("u")


def test_short_text_is_quoted_whole():
    from bundlesec.words import QUOTE_CHARS, _quote

    text = "x" * QUOTE_CHARS
    assert _quote(text) == repr(text)
    assert _quote(text + "y") == f"{text!r}... ({QUOTE_CHARS + 1} characters)"
    assert _quote(text, str) == text
    assert _quote(text + "y", str) == f"{text}... ({QUOTE_CHARS + 1} characters)"


@pytest.mark.parametrize("fibre, lines, needle", [
    # 1,999 semicolons: the m = 2,000 matrix that reads as a zero matrix
    ("torus 2000", "[action]\nu = " + ";" * 1999 + "\nv = " + ";" * 1999 + "\n",
     "has an empty row"),
    # a 5,000-entry vector for a rank-2 fibre
    ("torus 2", "[action]\nu = 1 0 ; 0 1\nv = 1 0 ; 0 1\n[cocycle]\nu = "
     + " ".join(["1"] * 5000) + "\n", "does not have length 2"),
    ("torus 2", "[action]\n" + "u 1 " * 2000 + "\n", "expected 'name = value'"),
    # 5,000-letter Klein-bottle tokens
    ("kb", "[action]\nu = " + "a" * 5000 + "\nv = id\n", "unknown Klein-bottle automorphism"),
    ("kb", "[action]\nu = id\nv = id\n[cocycle]\nu = " + "a" * 5000 + "\n",
     "unknown Klein-bottle generator"),
    ("kb", "[action]\nu = id\nv = id\n[cocycle]\noffset 1 = x^" + "9" * 5000 + "\n",
     "bad exponent in Klein-bottle token"),
], ids=["empty_rows", "long_vector", "no_assignment", "kb_action", "kb_cocycle", "kb_exponent"])
def test_long_offending_text_is_clipped_to_one_short_line(tmp_path, capsys, fibre, lines, needle):
    from bundlesec import cli

    path = tmp_path / "long_line.bundle"
    path.write_text(f"[base]\n< u, v | [u,v] >\n[fibre]\n{fibre}\n{lines}")
    assert cli.main(["split-check", str(path)]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1
    assert len(err.encode()) < 200
    assert needle in err
    assert "characters)" in err


@pytest.mark.parametrize("command", ["split-check", "cohomology"])
def test_huge_torus_rank_is_clipped_in_the_row_count_message(tmp_path, capsys, command):
    from bundlesec import cli

    path = tmp_path / "huge_rank.bundle"
    for rank, shown in ((2 ** 1000, str(2 ** 1000)[:60] + "... (302 characters)"),
                        (10 ** 59, str(10 ** 59)), (3, "3")):
        path.write_text(f"[base]\n< u, v | [u,v] >\n[fibre]\ntorus {rank}\n"
                        "[action]\nu = 1\nv = 1\n")
        assert cli.main([command, str(path)]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: matrix '1' does not have {shown} rows\n"
        assert len(err.encode()) < 200


NINES = "9" * 4300  # as many digits as int() converts
K = "9" * 4299 + "8"  # 2K has 4,301 digits, more than the report could print


@pytest.mark.parametrize("text", [
    "[base]\n< u, v | u^2 v^-2 >\n[fibre]\ntorus 1\n[action]\nu = 1\nv = 1\n"
    f"[cocycle]\nu = {NINES}\n",
    f"[base]\n< u | u^2 >\n[fibre]\nkb\n[action]\nu = id\n[cocycle]\nu = x^{K}\n"
    f"offset 1 = x^{K}\n",
    f"[base]\n< u, v | [u,v] >\n[fibre]\ntorus 2\n[action]\nu = 1 {NINES} ; 0 1\n"
    "v = 1 0 ; 0 1\n",
    f"[base]\n< u, v | [u,v] >\n[fibre]\ntorus {NINES}\n[action]\nu = 1\nv = 1\n",
    f"[base]\n< u, v | [u,v] >\n[fibre]\ntorus 1\n[action]\nu = 1\nv = 1\n"
    f"[cocycle]\noffset {NINES} = 1\n",
], ids=["torus_translation", "kb_exponents", "matrix_entry", "rank", "relator_index"])
@pytest.mark.parametrize("as_json", [False, True])
def test_integers_over_the_bit_cap_exit_4_in_one_short_line(tmp_path, capsys, text, as_json):
    from bundlesec import cli

    path = tmp_path / "huge_integer.bundle"
    path.write_text(text)
    assert cli.main(["--json"] * as_json + ["split-check", str(path)]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1
    assert len(err.encode()) < 200
    assert "has more than 1024 bits" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("line", ["u = 1 {n} ; 0 1", "u = 1 0 ; 0 1\n[cocycle]\nu = {n} 0",
                                  "u = 1 0 ; 0 1\n[cocycle]\noffset 1 = 0 -{n}"],
                         ids=["matrix_entry", "translation", "offset"])
def test_the_integer_bit_cap_boundary(line):
    def spec(n):
        return parse_bundle_file(TORUS_TEXT.split("[action]")[0] + "[action]\nv = 1 0 ; 0 1\n"
                                 + line.format(n=n) + "\n").to_spec()

    spec(2 ** 1024 - 1)  # 1,024 bits
    with pytest.raises(MalformedSpec, match="has more than 1024 bits"):
        spec(2 ** 1024)


@pytest.mark.parametrize("parse, word", [(kb_element_from_word, "x^{n}"),
                                         (kb_aut_from_word, "alpha^-{n}")])
def test_kb_exponent_bit_cap_boundary(parse, word):
    parse(word.format(n=2 ** 1024 - 1))
    with pytest.raises(MalformedSpec, match="has more than 1024 bits"):
        parse(word.format(n=2 ** 1024))


def test_a_huge_rank_is_refused_by_the_action_before_any_vector_is_built(monkeypatch):
    from bundlesec import specfile

    parse_vector = specfile._parse_vector

    def no_zero_vector(text, rank):
        # a default translation or offset would be `rank` zeros
        assert text.strip(), "a zero vector was built before the action was checked"
        return parse_vector(text, rank)

    monkeypatch.setattr(specfile, "_parse_vector", no_zero_vector)
    text = TORUS_TEXT.replace("torus 2", "torus 1000000000").replace("u = 0 0\n", "")
    with pytest.raises(MalformedSpec, match="does not have 1000000000 rows"):
        parse_bundle_file(text).to_spec()


def test_long_content_before_any_section_is_clipped():
    with pytest.raises(MalformedSpec) as err:
        parse_bundle_file("stray " * 2000 + "\n" + TORUS_TEXT)
    assert str(err.value).startswith("content before any section: 'stray stray")
    assert str(err.value).endswith("... (11999 characters)")


def test_long_generator_name_is_clipped():
    name = "g" * 5000
    text = f"[base]\n< u, {name} | [u,{name}] >\n[fibre]\ntorus 1\n[action]\nu = 1\n"
    with pytest.raises(MalformedSpec) as err:
        parse_bundle_file(text).to_spec()
    assert str(err.value) == f"[action] is missing generator {'g' * 60!r}... (5000 characters)"


# --- [cocycle] keys ------------------------------------------------------------

OFFSET_LIKE_NAMES = ["offset", "offset1", "offsets", "offset_2", "offset2", "offset10", "offsetx"]


def _renamed(text, names):
    """text with each base generator renamed by names: in the [base] section
    wherever it stands as a word, in [action] and [cocycle] as a line's key."""
    pattern = re.compile(r"(?<!\w)(" + "|".join(map(re.escape, names)) + r")(?!\w)")
    section, out = None, []
    for line in text.splitlines():
        header = re.fullmatch(r"\[\s*(\w+)\s*\]", line.strip())
        if header:
            section = header.group(1).lower()
        elif section == "base":
            line = pattern.sub(lambda m: names[m.group(1)], line)
        elif section in ("action", "cocycle") and "=" in line:
            key, value = line.split("=", 1)
            line = f"{names.get(key.strip(), key.strip())} ={value}"
        out.append(line)
    return "\n".join(out) + "\n"


def _split_check_result(path, capsys):
    from bundlesec import cli

    code = cli.main(["--json", "split-check", str(path)])
    out, err = capsys.readouterr()
    return code, json.loads(out)["result"] if code == 0 else err


def test_generators_named_like_offsets_keep_their_translations(tmp_path, capsys):
    rng = random.Random(24)
    paths = [path for folder in (ROOT / "specs", ROOT / "tests" / "specs")
             for path in sorted(folder.glob("*.bundle"))]
    mismatches = []
    for path in paths:
        text = path.read_text()
        generators = parse_bundle_file(text).base.generators
        names = dict(zip(generators, rng.sample(OFFSET_LIKE_NAMES, len(generators))))
        renamed = tmp_path / path.name
        renamed.write_text(_renamed(text, names))
        assert parse_bundle_file(renamed.read_text()).base.generators == tuple(names.values())
        expected = _split_check_result(path, capsys)
        assert expected[0] == 0
        if _split_check_result(renamed, capsys) != expected:
            mismatches.append(path.name)
    assert mismatches == []


def test_a_generator_named_offset_is_no_relator_offset():
    text = ("[base]\n< {g}, v | [{g},v] >\n[fibre]\ntorus 1\n[action]\n{g} = 1\nv = 1\n"
            "[cocycle]\n{g} = 1\n")
    for name in ("offset", "offset1"):
        spec = parse_bundle_file(text.format(g=name)).to_spec()
        assert spec.translations == {name: (1,), "v": (0,)}
        assert spec.relator_offsets == ((0,),)
    with pytest.raises(MalformedSpec, match="^duplicate offset for relator 1$"):
        parse_bundle_file(TORUS_TEXT + "offset 1 = 0 0\n")
    with pytest.raises(MalformedSpec, match="^bad relator index in 'offsetx'$"):
        parse_bundle_file(TORUS_TEXT + "offsetx = 0 0\n")


# --- Klein-bottle values ------------------------------------------------------


def test_kb_word_parsers():
    assert kb_element_from_word("x^2 y^-1") == KbElement(2, -1)
    assert kb_element_from_word("1") == KbElement.identity()
    assert kb_aut_from_word("alpha") == KB_ALPHA
    assert kb_aut_from_word("gamma gamma") == KB_CONJ_Y
    assert kb_aut_from_word("alpha^-1") == KB_ALPHA
    with pytest.raises(MalformedSpec, match="unknown Klein-bottle generator 'z'"):
        kb_element_from_word("z")
    with pytest.raises(MalformedSpec, match="unknown Klein-bottle automorphism 'beta'"):
        kb_aut_from_word("beta")
    with pytest.raises(MalformedSpec, match="bad exponent in Klein-bottle token 'x\\^a'"):
        kb_element_from_word("x^a")
    # the name is checked before the exponent, in both kinds of word
    with pytest.raises(MalformedSpec, match="unknown Klein-bottle generator 'z'"):
        kb_element_from_word("z^a")
    with pytest.raises(MalformedSpec, match="unknown Klein-bottle automorphism 'beta'"):
        kb_aut_from_word("beta^a")


@pytest.mark.parametrize("section, line, token", [
    ("cocycle", "u = x^", "x^"),
    ("action", "u = alpha^", "alpha^"),
])
def test_an_empty_kb_exponent_exits_4(tmp_path, capsys, section, line, token):
    from bundlesec import cli

    lines = {"action": ["u = id", "v = id"], "cocycle": []}
    lines[section][:1] = [line]
    path = tmp_path / "empty_exponent.bundle"
    path.write_text("[base]\n< u, v | [u,v] >\n[fibre]\nkb\n"
                    + "".join(f"[{name}]\n" + "".join(f"{x}\n" for x in body)
                              for name, body in lines.items()))
    assert cli.main(["split-check", str(path)]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: bad exponent in Klein-bottle token {token!r}\n"
    # a bare name still means the first power
    assert kb_element_from_word("x") == kb_element_from_word("x^1")
    assert kb_aut_from_word("alpha") == kb_aut_from_word("alpha^1")


def _kb_aut_power_by_repeated_composition(name, n):
    out = KbAut.identity()
    a = KB_AUT_NAMES[name] if n >= 0 else KB_AUT_NAMES[name].inverse()
    for _ in range(abs(n)):
        out = out.compose(a)
    return out


def test_kb_aut_powers_match_repeated_composition():
    for name in KB_AUT_NAMES:
        for n in range(-7, 8):
            expected = _kb_aut_power_by_repeated_composition(name, n)
            assert kb_aut_from_word(f"{name}^{n}") == expected
            # after a prefix, the power composes on the right
            assert kb_aut_from_word(f"gamma {name}^{n}") == KB_GAMMA.compose(expected)


def test_kb_aut_huge_exponent_is_fast():
    import time
    start = time.perf_counter()
    aut = kb_aut_from_word("gamma^200000")
    assert time.perf_counter() - start < 0.5
    assert aut == KbAut(1, 200000, 1)
