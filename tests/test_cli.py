"""End-to-end command-line behaviour: outputs, determinism, exit codes."""

import json
import pathlib
import subprocess
import sys

import pytest

SPECS = pathlib.Path(__file__).resolve().parent.parent / "specs"


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "bundlesec.cli", *args],
        capture_output=True, text=True)


def test_abelianize_kb():
    out = run_cli("abelianize", str(SPECS / "kb.pres"))
    assert out.returncode == 0
    assert "Z + Z/2" in out.stdout


def test_abelianize_reports_rank_two():
    out = run_cli("--json", "abelianize", str(SPECS / "nil3e1.pres"))
    assert out.returncode == 0
    report = json.loads(out.stdout)
    assert report["result"]["rank"] == 2
    assert report["schema_version"] == 2


def test_split_check_verdicts():
    cases = {
        "product_torus.bundle": "SPLITS",
        "heisenberg_torus.bundle": "NO_SECTION",
        "flat_kb.bundle": "NO_SECTION",
        "nil3e1_kb.bundle": "NO_SECTION",
    }
    for name, verdict in cases.items():
        out = run_cli("--json", "split-check", str(SPECS / name))
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout)["verdict"] == verdict


def test_split_check_quotients():
    out = run_cli("--json", "split-check", str(SPECS / "flat_kb.bundle"))
    ob = json.loads(out.stdout)["result"]["obstruction"]
    assert ob["quotient"] == "Z/2"
    assert ob["class"] == [[1]]

    out = run_cli("--json", "split-check", str(SPECS / "heisenberg_torus.bundle"))
    ob = json.loads(out.stdout)["result"]["obstruction"]
    assert ob["class"] == [[1, 0]]


def test_cohomology_command():
    out = run_cli("cohomology", str(SPECS / "torus_trivial_coeffs.bundle"))
    assert out.returncode == 0
    assert "H^1 = Z^2" in out.stdout and "H^2 = Z" in out.stdout
    out = run_cli("cohomology", str(SPECS / "flat_center_coeffs.bundle"))
    assert "H^2 = Z/2" in out.stdout


def test_transgress_single_and_range():
    out = run_cli("transgress", "--k", "1")
    assert out.returncode == 0
    assert "d2 = 1, xi* = 1 AGREE" in out.stdout

    out = run_cli("--json", "transgress", "--range", "-5..5")
    report = json.loads(out.stdout)
    assert report["verdict"] == "AGREE"
    assert len(report["result"]["cases"]) == 11


def test_endo_command():
    out = run_cli("--json", "endo")
    assert out.returncode == 0
    report = json.loads(out.stdout)
    assert report["verdict"] == "NO_SECTION"
    assert report["command"] == "endo"
    assert sorted(report["result"]) == ["lemma2", "obstruction"]
    ob = report["result"]["obstruction"]
    assert ob["lifted"] is True
    assert ob["quotient"] == "Z/2 + Z/2 + Z/2 + Z/2"
    assert ob["class"] == [[1, 0, 0, 0]]
    assert "jw" not in ob
    text = run_cli("endo").stdout
    assert text.splitlines()[0] == "endo: NO_SECTION"


def test_reports_are_byte_identical():
    for args in (("--json", "split-check", str(SPECS / "flat_kb.bundle")),
                 ("--json", "transgress", "--range", "0..3"),
                 ("--json", "endo")):
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode == 0


def test_exit_code_file_not_found():
    out = run_cli("abelianize", "/no/such/file.pres")
    assert out.returncode == 2
    assert "not found" in out.stderr


def test_exit_code_parse_error(tmp_path):
    bad = tmp_path / "bad.pres"
    # a generator name takes no suffix
    for text in ("< x, | >", "< x, y- | x y x^-1 y >"):
        bad.write_text(text)
        out = run_cli("abelianize", str(bad))
        assert out.returncode == 3
        assert "line" in out.stderr


def test_exit_code_malformed_spec(tmp_path):
    bad = tmp_path / "bad.bundle"
    bad.write_text("[base]\n< u, v | [u,v] >\n")
    out = run_cli("split-check", str(bad))
    assert out.returncode == 4

    out = run_cli("transgress", "--range", "5..1")
    assert out.returncode == 4


def test_a_failing_run_prints_no_report(tmp_path, capsys):
    # every hostile input, a split-check whose second file fails among them,
    # prints no report; each one of a bad input prints one error line (a
    # usage error, exit 5, has argparse's usage line above it)
    import error_cases
    from bundlesec import cli

    argvs = error_cases.write_inputs(tmp_path)
    for (code, *_), argv in zip(error_cases.CASES, argvs, strict=True):
        for flags in ([], ["--json"]):
            assert cli.main([*flags, *argv]) == code, argv
            out, err = capsys.readouterr()
            assert (out == "") == (code != 0), argv
            assert len(err.splitlines()) == (code != 0) or code == 5, argv


def test_a_misspelled_section_header_exits_4(tmp_path, capsys):
    from bundlesec import cli

    bad = tmp_path / "cocyle.bundle"
    bad.write_text((SPECS / "flat_kb.bundle").read_text().replace("[cocycle]", "[cocyle]"))
    assert cli.main(["split-check", str(bad)]) == 4
    assert capsys.readouterr() == ("", "error: unknown section [cocyle]\n")


def test_a_relator_line_in_brackets_reads_as_on_one_line(tmp_path, capsys):
    from bundlesec import cli

    spec = SPECS.parent / "tests" / "specs" / "genus2_rank3.bundle"
    split = tmp_path / "genus2_rank3.bundle"
    split.write_text(spec.read_text().replace("| [a1,b1] [a2,b2] >", "|\n  [a1,b1] [a2,b2]\n>"))
    reports = []
    for path in (spec, split):
        assert cli.main(["--json", "split-check", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        del report["inputs"]
        reports.append(report)
    assert reports[0] == reports[1]


def test_range_errors_quote_at_most_60_characters(capsys):
    from bundlesec import cli

    out = run_cli("transgress", "--range=1.." + "9" * 5000 + "x")
    assert out.returncode == 4
    assert out.stdout == ""
    assert out.stderr.count("\n") == 1
    assert len(out.stderr.encode()) < 200
    assert "(5004 characters)" in out.stderr
    assert "Traceback" not in out.stderr
    # a value of at most 60 characters is quoted whole, as before
    for value, message in (("a..b", "bad range 'a..b'; expected a..b"),
                           ("5..1", "empty range '5..1'")):
        assert cli.main(["transgress", "--range", value]) == 4
        assert capsys.readouterr() == ("", f"error: {message}\n")


def test_a_range_bound_past_int_digits_is_over_the_letter_cap(capsys):
    from bundlesec import cli

    # int() refuses 4,301 digits; the value still has the shape a..b
    for bound in ("9" * 4300, "9" * 4301, "-" + "9" * 4301):
        assert cli.main(["transgress", f"--range=1..{bound}"]) == 4
        assert capsys.readouterr() == (
            "", "error: request holds more than 10000 relator letters (|k| + 4 per k)\n")
    for value in ("1..2..3", "1.. 2x", "..5", "1_.._2"):
        assert cli.main(["transgress", f"--range={value}"]) == 4
        assert capsys.readouterr() == ("", f"error: bad range {value!r}; expected a..b\n")


def test_k_errors_quote_at_most_60_characters(capsys):
    from bundlesec import cli

    def last_line(value):
        # after argparse's usage lines
        assert cli.main(["transgress", "--k", value]) == 5
        out, err = capsys.readouterr()
        assert out == "" and err.endswith("\n")
        return err.splitlines()[-1]

    error = "bundlesec transgress: error: argument --k: invalid int value: "
    # at most 60 characters: quoted whole, as argparse's own int message did
    for value in ("abc", "x" * 60):
        assert last_line(value) == f"{error}{value!r}"
    value = "9" * 5000 + "x"
    assert last_line(value) == f"{error}{value[:60]!r}... (5001 characters)"


def test_cohomology_of_a_module_that_misses_the_relator_exits_4(tmp_path):
    bad = tmp_path / "shear_flip.bundle"
    bad.write_text("[base]\n< u, v | [u,v] >\n[fibre]\ntorus 2\n"
                   "[action]\nu = 1 1 ; 0 1\nv = 0 1 ; 1 0\n")
    out = run_cli("--json", "cohomology", str(bad))
    assert out.returncode == 4
    assert out.stdout == ""
    assert "do not kill the relator" in out.stderr
    assert "Traceback" not in out.stderr


def test_an_unkilled_long_relator_is_quoted_in_60_characters(tmp_path, capsys):
    from bundlesec import cli

    word = "u v " * 600 + "u"
    bad = tmp_path / "long.bundle"
    bad.write_text(f"[base]\n< u, v | {word} >\n[fibre]\ntorus 1\n[action]\nu = -1\nv = 1\n")
    assert cli.main(["cohomology", str(bad)]) == 4
    assert capsys.readouterr() == (
        "", f"error: module matrices do not kill the relator {word[:60]}... (2401 characters)\n")
    # a word of at most 60 characters is named whole, as before
    bad.write_text("[base]\n< u | u >\n[fibre]\ntorus 1\n[action]\nu = -1\n")
    assert cli.main(["cohomology", str(bad)]) == 4
    assert capsys.readouterr() == ("", "error: module matrices do not kill the relator u\n")


TORUS_HEAD = "[base]\n< u, v | [u,v] >\n[fibre]\ntorus 2\n"


@pytest.mark.parametrize("command", ["split-check", "cohomology"])
@pytest.mark.parametrize("action, needle", [
    ("u = 2 0 ; 0 1\nv = 1 0 ; 0 1\n", "not invertible over Z"),
    ("v = 1 0 ; 0 1\n", "missing generator 'u'"),
])
def test_hostile_torus_actions_exit_4(tmp_path, command, action, needle):
    bad = tmp_path / "hostile.bundle"
    bad.write_text(TORUS_HEAD + "[action]\n" + action)
    out = run_cli("--json", command, str(bad))
    assert out.returncode == 4
    assert out.stdout == ""
    assert needle in out.stderr
    assert "Traceback" not in out.stderr


def test_no_section_is_still_success():
    out = run_cli("split-check", str(SPECS / "flat_kb.bundle"))
    assert out.returncode == 0
    assert "NO_SECTION" in out.stdout


def test_a_free_base_splits(tmp_path, capsys):
    # every extension of a free group splits: no relator, no obstruction
    from bundlesec import cli

    torus = tmp_path / "free_torus.bundle"
    torus.write_text("[base]\n< u, v | >\n[fibre]\ntorus 1\n[action]\nu = 1\nv = -1\n")
    kb = tmp_path / "free_kb.bundle"
    kb.write_text("[base]\n< a, b | >\n[fibre]\nkb\n[action]\na = id\nb = alpha\n")
    # a genus-2 fibre: the class is zero, and over a free base that is SPLITS,
    # not only JACOBIAN_SPLITS
    surface = tmp_path / "free_surface.bundle"
    surface.write_text("[base]\n< u, v | >\n[fibre]\nsurface 2\n[action]\n"
                       "u = 1 0 0 0 ; 0 1 0 0 ; 0 0 1 0 ; 0 0 0 1\n"
                       "v = 0 0 -1 0 ; 0 0 0 -1 ; 1 0 0 0 ; 0 1 0 0\n")
    results = []
    for path in (torus, kb, surface):
        assert cli.main(["--json", "split-check", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "SPLITS"
        assert report["result"]["obstruction"]["class"] == [[]]
        results.append(report["result"])
    assert results[0]["lemma2"]["is_isomorphic"] is True
    assert cli.main(["--json", "cohomology", str(torus)]) == 0
    h2 = json.loads(capsys.readouterr().out)["result"]["h2"]
    assert results[0]["obstruction"]["quotient"] == h2 == "0"


@pytest.mark.parametrize("offset, verdict", [("3 0", "SPLITS"), ("0 2", "NO_SECTION")])
def test_a_surface_1_fibre_gives_the_torus_2_report(tmp_path, capsys, offset, verdict):
    # H_1 of a torus is the torus group, so the H_1 extension is the extension
    from bundlesec import cli

    reports = []
    for fibre in ("surface 1", "torus 2"):
        path = tmp_path / f"{fibre.replace(' ', '')}.bundle"
        path.write_text(f"[base]\n< x, y | [x,y] >\n[fibre]\n{fibre}\n"
                        "[action]\nx = 1 1 ; 0 1\ny = 1 0 ; 0 1\n"
                        f"[cocycle]\nx = 2 -1\ny = 1 5\noffset 1 = {offset}\n")
        assert cli.main(["--json", "split-check", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        reports.append((report["result"], report["verdict"]))
    assert reports[0] == reports[1]
    assert reports[0][1] == verdict


HUGE_EXPONENT_BASE = "< u, v | [u,v] u^3000000 u^-3000000 >"


@pytest.mark.parametrize("name, text, command, line", [
    ("huge.pres", HUGE_EXPONENT_BASE, "abelianize", 1),
    # the location is the file's: the base sits on line 2
    ("huge.bundle", f"[base]\n{HUGE_EXPONENT_BASE}\n[fibre]\ntorus 1\n"
                    "[action]\nu = 1\nv = 1\n", "split-check", 2),
])
def test_relator_over_the_letter_cap_exits_3_fast(tmp_path, name, text, command, line):
    import io
    import time
    from contextlib import redirect_stderr

    from bundlesec import cli

    path = tmp_path / name
    path.write_text(text)
    out = run_cli(command, str(path))
    assert out.returncode == 3
    assert out.stdout == ""
    assert f"relator longer than 10000 letters (line {line}, column 18)" in out.stderr
    assert "Traceback" not in out.stderr
    # in process, so that interpreter start-up is not timed
    start = time.perf_counter()
    with redirect_stderr(io.StringIO()):
        assert cli.main([command, str(path)]) == 3
    assert time.perf_counter() - start < 0.5


def _exits_4_fast(argv, needle):
    import io
    import time
    from contextlib import redirect_stderr

    from bundlesec import cli

    # a request that slips past a cap would run for minutes: fail it instead
    out = subprocess.run([sys.executable, "-m", "bundlesec.cli", *argv],
                         capture_output=True, text=True, timeout=30)
    assert out.returncode == 4
    assert out.stdout == ""
    assert needle in out.stderr
    assert "Traceback" not in out.stderr
    # in process, so that interpreter start-up is not timed
    start = time.perf_counter()
    with redirect_stderr(io.StringIO()):
        assert cli.main(argv) == 4
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("action, cocycle, group_ab, expected", [
    # s(r) is the offset
    ("u = 1\nv = 1\n", "u = 0\nv = 0\noffset 1 = 300000\n", "Z^2 + Z/300000", "Z^3"),
    # s(r) = -600000, from v's translation
    ("u = -1\nv = 1\n", "u = 0\nv = 300000\n", "Z^2 + Z/2", "Z^2 + Z/2"),
], ids=["offset", "translation"])
def test_large_fibre_offsets_run_fast(tmp_path, action, cocycle, group_ab, expected):
    import io
    import time
    from contextlib import redirect_stdout

    from bundlesec import cli

    path = tmp_path / "huge_offset.bundle"
    path.write_text("[base]\n< u, v | [u,v] >\n[fibre]\ntorus 1\n"
                    f"[action]\n{action}[cocycle]\n{cocycle}")
    # lemma 2 reads s(r) as one matrix entry; no fibre word is written out
    buf = io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(buf):
        assert cli.main(["--json", "split-check", str(path)]) == 0
    assert time.perf_counter() - start < 0.5
    assert json.loads(buf.getvalue())["result"]["lemma2"] == {
        "applies": True, "group_ab": group_ab, "expected": expected,
        "is_isomorphic": group_ab == expected}


@pytest.mark.parametrize("command", ["split-check", "cohomology"])
def test_empty_action_rows_exit_4_fast(tmp_path, command):
    # 2,000 bytes of semicolons would read as a 2000 x 2000 zero matrix
    rows = ";" * 1999
    path = tmp_path / "empty_rows.bundle"
    path.write_text("[base]\n< u, v | [u,v] >\n[fibre]\ntorus 2000\n"
                    f"[action]\nu = {rows}\nv = {rows}\n")
    _exits_4_fast([command, str(path)], "has an empty row")


@pytest.mark.parametrize("command", ["split-check", "cohomology"])
def test_a_surface_genus_of_hundreds_of_digits_exits_4_fast(tmp_path, command):
    # the matrix text shows its size before any vector or form of rank 2h is built
    genus = "9" * 300
    path = tmp_path / "huge_genus.bundle"
    path.write_text(f"[base]\n< u, v | [u,v] >\n[fibre]\nsurface {genus}\n"
                    "[action]\nu = 1 0 ; 0 1\nv = 1 0 ; 0 1\n")
    _exits_4_fast([command, str(path)], "does not have")


@pytest.mark.parametrize("request_args", [
    ["--k", "100000"],
    ["--k", "-9997"],
    ["--range=-1000..1000"],
    ["--range=-10000000000000000000000..10000000000000000000000"],
])
def test_transgress_over_the_letter_cap_exits_4_fast(request_args):
    _exits_4_fast(["transgress", *request_args], "more than 10000 relator letters")


def test_transgress_at_the_letter_cap_runs(capsys):
    import time

    from bundlesec import cli

    out = run_cli("--json", "transgress", "--k", "9996")
    assert out.returncode == 0
    assert json.loads(out.stdout)["verdict"] == "AGREE"
    # in process: each relator is walked once, in time linear in its length
    start = time.perf_counter()
    assert cli.main(["--json", "transgress", "--k", "9996"]) == 0
    assert time.perf_counter() - start < 0.5
    assert json.loads(capsys.readouterr().out)["verdict"] == "AGREE"


def _hyperbolic_power(n):
    # theta(u)^n has entries of about 3.45 n bits, and theta(d r / d v)
    # holds theta(u)^n; n = 4500 is a 9,003-letter relator, under the
    # letter cap
    return (f"[base]\n< u, v | u^{n} v u^-{n} v^-2 >\n[fibre]\ntorus 2\n"
            "[action]\nu = 10 1 ; 9 1\nv = 1 0 ; 0 1\n[cocycle]\nv = 1 0\n")


@pytest.mark.parametrize("command", ["split-check", "cohomology"])
@pytest.mark.parametrize("n, seconds", [(1000, 0.5), (4500, 2.0)])
def test_fox_entries_over_the_bit_cap_exit_4_fast(tmp_path, command, n, seconds):
    import io
    import time
    from contextlib import redirect_stderr

    from bundlesec import cli

    path = tmp_path / "hyperbolic.bundle"
    path.write_text(_hyperbolic_power(n))
    out = subprocess.run([sys.executable, "-m", "bundlesec.cli", command, str(path)],
                         capture_output=True, text=True, timeout=30)
    assert out.returncode == 4
    assert out.stdout == ""
    assert "an entry of more than 1024 bits" in out.stderr
    assert "Traceback" not in out.stderr
    start = time.perf_counter()
    with redirect_stderr(io.StringIO()):
        assert cli.main([command, str(path)]) == 4
    assert time.perf_counter() - start < seconds


def test_fox_entries_under_the_bit_cap_still_run(tmp_path):
    # n = 100: entries of 345 bits
    path = tmp_path / "hyperbolic.bundle"
    path.write_text(_hyperbolic_power(100))
    out = run_cli("cohomology", str(path))
    assert out.returncode == 0, out.stderr
    assert "H^1 = Z/9" in out.stdout


def _huge_entry_power(n):
    # theta(u) has entries of 1,001 bits, under the cap, and theta(u)^2
    # already passes it
    big = 2 ** 1000
    return (f"[base]\n< u, v | u^{n} v u^-{n} v^-2 >\n[fibre]\ntorus 2\n"
            f"[action]\nu = {big + 1} {big} ; 1 1\nv = 1 0 ; 0 1\n[cocycle]\nv = 1 0\n")


@pytest.mark.parametrize("command", ["split-check", "cohomology"])
def test_huge_action_entries_stop_the_fox_pass_early(tmp_path, command):
    import io
    import time
    from contextlib import redirect_stderr

    from bundlesec import cli

    path = tmp_path / "huge.bundle"
    path.write_text(_huge_entry_power(2000))
    out = subprocess.run([sys.executable, "-m", "bundlesec.cli", command, str(path)],
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 4
    assert out.stdout == ""
    assert "an entry of more than 1024 bits" in out.stderr
    assert "Traceback" not in out.stderr
    start = time.perf_counter()
    with redirect_stderr(io.StringIO()):
        assert cli.main([command, str(path)]) == 4
    assert time.perf_counter() - start < 0.5


# theta(u) = 1 N ; 0 1 and theta(v) = 1, so a prefix u^k has the entry kN.
# At N = 2^1023, kN passes 1,024 bits exactly when k >= 2.
_CAP_N = 2 ** 1023
_CAP_RELATORS = {
    # the prefixes are 1 and u, but d r / d v = 2(u - 1) holds 2N: only the
    # check on the pass's output can fire
    "output": "u v^2 u^-1 v^-2",
    # the prefix u^2 holds 2N, and every block is zero: only the check on
    # the running prefix can fire
    "prefix": "u^2 v u^-2 v^-1 u^2 v^-1 u^-2 v",
}


def _assert_cap_boundary(tmp_path, capsys, command, where, n, code, rank):
    # theta(u) and theta(v) padded with an identity block to the given rank
    from bundlesec import cli

    def padded(corner):
        rows = [[int(i == j) for j in range(rank)] for i in range(rank)]
        rows[0][1] = corner
        return " ; ".join(" ".join(map(str, row)) for row in rows)

    path = tmp_path / "cap.bundle"
    path.write_text(f"[base]\n< u, v | {_CAP_RELATORS[where]} >\n[fibre]\ntorus {rank}\n"
                    f"[action]\nu = {padded(n)}\nv = {padded(0)}\n")
    assert cli.main(["--json", command, str(path)]) == code
    out, err = capsys.readouterr()
    if code:
        assert out == ""
        assert err == "error: relator 1 evaluates to an entry of more than 1024 bits\n"
    else:
        assert err == ""
        assert json.loads(out)["command"] == command


@pytest.mark.parametrize("command", ["split-check", "cohomology"])
@pytest.mark.parametrize("where", sorted(_CAP_RELATORS))
@pytest.mark.parametrize("n, code", [(_CAP_N, 4), (_CAP_N - 1, 0)], ids=["over", "at"])
def test_fox_bit_cap_boundary(tmp_path, capsys, command, where, n, code):
    _assert_cap_boundary(tmp_path, capsys, command, where, n, code, 2)


# rank 8 runs the largest generated product, rank 10 the generic one
@pytest.mark.parametrize("rank", [8, 10])
@pytest.mark.parametrize("command", ["split-check", "cohomology"])
@pytest.mark.parametrize("where", sorted(_CAP_RELATORS))
@pytest.mark.parametrize("n, code", [(_CAP_N, 4), (_CAP_N - 1, 0)], ids=["over", "at"])
def test_fox_bit_cap_boundary_at_the_largest_kernel_rank_and_above(
        tmp_path, capsys, command, where, n, code, rank):
    from bundlesec.extensions import KERNEL_MAX_RANK

    assert KERNEL_MAX_RANK == 8
    _assert_cap_boundary(tmp_path, capsys, command, where, n, code, rank)


def _wide_spec(genus, rank):
    """A genus-g surface base with a fibre of rank m >= 6: every generator
    acts by a power of one matrix (an Anosov block, a unipotent block and an
    order-4 block, padded with the identity), so the relator is killed."""
    from bundlesec.zlinalg import IntMatrix

    rows = [[int(i == j) for j in range(rank)] for i in range(rank)]
    rows[0][:2], rows[1][:2] = [2, 1], [1, 1]
    rows[2][3] = 1
    rows[4][4:6], rows[5][4:6] = [0, -1], [1, 0]
    step = IntMatrix.from_rows(rows)
    powers = [IntMatrix.identity(rank), step, step @ step]
    gens = [f"{c}{k}" for k in range(1, genus + 1) for c in "ab"]
    relator = "".join(f"[a{k},b{k}]" for k in range(1, genus + 1))
    lines = ["[base]", f"< {', '.join(gens)} | {relator} >", "[fibre]", f"torus {rank}",
             "[action]"]
    for i, g in enumerate(gens):
        mat = powers[(i * 7) % 3]
        lines.append(f"{g} = " + " ; ".join(" ".join(map(str, row)) for row in mat.data))
    lines.append("[cocycle]")
    for i, g in enumerate(gens):
        lines.append(f"{g} = " + " ".join(str((i + j) % 3 - 1) for j in range(rank)))
    lines.append("offset 1 = " + " ".join("1" for _ in range(rank)))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("command",
                         ["abelianize", "split-check", "cohomology", "transgress", "endo"])
def test_no_command_builds_u_or_v(monkeypatch, capsys, command):
    # cokernels, their coordinates and ranks are read from the diagonal and
    # the row log; only solve and kernel_basis, which no command calls, read
    # the transforms
    import golden_cases
    from bundlesec import cli
    from bundlesec.zlinalg import SmithDecomposition

    made = []
    init = SmithDecomposition.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(SmithDecomposition, "__init__", recording)
    monkeypatch.chdir(golden_cases.ROOT)
    argv = next(argv for _, argv in golden_cases.CASES if argv[:2] == ["--json", command])
    assert cli.main(argv) == 0
    capsys.readouterr()
    # transgress takes no Smith form
    assert bool(made) == (command != "transgress")
    assert all("U" not in vars(dec) and "V" not in vars(dec) for dec in made)


def _perturbed_fox_rows(monkeypatch):
    from bundlesec import extensions
    from bundlesec.zlinalg import IntMatrix

    init = extensions.BaseComplex.__init__

    def perturbed(self, base, module):
        # I added to every block of each block row of the complex
        init(self, base, module)
        eyes = IntMatrix.from_rows([row * len(base.generators)
                                    for row in IntMatrix.identity(module.dim).data])
        self.fox_rows = [(value, block_row + eyes) for value, block_row in self.fox_rows]

    monkeypatch.setattr(extensions.BaseComplex, "__init__", perturbed)


def _perturbed_laurent_row(monkeypatch):
    from bundlesec import transgression

    fox_row = transgression._fox_row

    def perturbed(w, gens):
        # a unit added to the entry of the last generator, whose d1 is not
        # zero; the rows that do not depend on k were walked on import, so
        # only the row a call walks is perturbed
        row = fox_row(w, gens)
        return row[:-1] + (row[-1] + transgression.LaurentElement.one(),)

    monkeypatch.setattr(transgression, "_fox_row", perturbed)


def _perturbed_xi_star(monkeypatch):
    from bundlesec import transgression

    xi_star = transgression.xi_star
    monkeypatch.setattr(transgression, "xi_star", lambda spec: xi_star(spec) + 1)


@pytest.mark.parametrize("perturb, command", [
    (_perturbed_fox_rows, "cohomology"),
    (_perturbed_laurent_row, "transgress"),
    (_perturbed_xi_star, "transgress"),
])
def test_failed_internal_check_exits_6_in_one_line(tmp_path, monkeypatch, capsys,
                                                   perturb, command):
    from bundlesec import cli

    path = tmp_path / "wide.bundle"
    path.write_text(_wide_spec(2, 6))
    perturb(monkeypatch)
    args = [str(path)] if command == "cohomology" else ["--k", "1"]
    assert cli.main([command, *args]) == 6
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: internal check failed: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


def test_usage_error_exits_5():
    out = run_cli("transgress", "--k", "abc")
    assert out.returncode == 5
    assert out.stdout == ""
    assert "invalid int value" in out.stderr
    assert run_cli("--help").returncode == 0


@pytest.mark.parametrize("flags", [["--k", "3", "--range", "0..1"], []], ids=["both", "neither"])
def test_transgress_takes_exactly_one_of_k_and_range(capsys, flags):
    from bundlesec import cli

    assert cli.main(["transgress", *flags]) == 5
    out, err = capsys.readouterr()
    assert out == ""
    assert ("not allowed with argument" if flags else "one of the arguments --k --range"
            " is required") in err
    assert "Traceback" not in err


def test_endo_makes_at_most_80_matrix_products(monkeypatch, capsys):
    from bundlesec import cli
    from bundlesec.zlinalg import IntMatrix

    calls = []
    product = IntMatrix.__matmul__

    def counted(a, b):
        calls.append(1)
        return product(a, b)

    monkeypatch.setattr(IntMatrix, "__matmul__", counted)
    assert cli.main(["--json", "endo"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "NO_SECTION"
    assert 0 < len(calls) <= 80
