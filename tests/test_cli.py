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
    assert report["schema_version"] == 1


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
    assert report["result"]["lantern"] is True
    assert report["result"]["relation"] is True
    assert report["result"]["coinvariants"] == "Z/2 + Z/2 + Z/2 + Z/2"
    assert any(c != 0 for c in report["result"]["class_of_g"])
    assert len(report["result"]["monodromy"]) == 6


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
    bad.write_text("< x, | >")
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


def test_cohomology_of_a_module_that_misses_the_relator_exits_4(tmp_path):
    bad = tmp_path / "shear_flip.bundle"
    bad.write_text("[base]\n< u, v | [u,v] >\n[fibre]\ntorus 2\n"
                   "[action]\nu = 1 1 ; 0 1\nv = 0 1 ; 1 0\n")
    out = run_cli("--json", "cohomology", str(bad))
    assert out.returncode == 4
    assert out.stdout == ""
    assert "do not kill the relator" in out.stderr
    assert "Traceback" not in out.stderr


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
