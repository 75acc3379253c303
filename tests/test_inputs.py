"""How the CLI reads an input file: the digest is that of the file's bytes,
computed with no OpenSSL loaded; CR LF and CR-only files read as their LF
twins; a directory, an unreadable file or a path that is not a regular file
(a FIFO, a device) exits 2 and bytes that are not UTF-8 exit 3, each in one
stderr line."""

import errno
import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from bundlesec import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC_FILES = sorted(p for d in ("specs", "tests/specs") for p in (ROOT / d).iterdir())
# one command of each kind, with relative paths from the repository root
COMMANDS = (
    ["abelianize", "specs/kb.pres"],
    ["split-check", "specs/flat_kb.bundle", "specs/heisenberg_torus.bundle"],
    ["cohomology", "specs/torus_trivial_coeffs.bundle"],
    ["transgress", "--k", "1"],
    ["endo"],
)


def test_no_openssl_module_is_loaded_by_the_commands():
    script = (
        "import contextlib, io, json, sys\n"
        "import bundlesec.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [bundlesec.cli.main(argv) for argv in {[['--json', *a] for a in COMMANDS]!r}]\n"
        "print(json.dumps([codes, sorted({'_hashlib', '_ssl'} & set(sys.modules))]))\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-B", "-c", script], cwd=ROOT, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[0] * len(COMMANDS), []]


@pytest.mark.parametrize("data", [b"", b"< x, y | x y x^-1 y >\n", "θ(u) = é\r\n".encode()]
                         + [p.read_bytes() for p in SPEC_FILES],
                         ids=["empty", "ascii", "non-ascii"] + [p.name for p in SPEC_FILES])
def test_the_digest_is_sha256(data):
    assert cli._digest(data) == hashlib.sha256(data).hexdigest()


def _run(capsys, argv):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("command,spec", [("abelianize", "kb.pres"),
                                          ("split-check", "heisenberg_torus.bundle"),
                                          ("split-check", "flat_kb.bundle"),
                                          ("cohomology", "heisenberg_torus.bundle")])
def test_crlf_and_cr_files_report_as_their_lf_twin(command, spec, tmp_path, capsys):
    text = (ROOT / "specs" / spec).read_text(encoding="utf-8")
    assert "\r" not in text
    reports = {}
    for name, newline in (("lf", "\n"), ("crlf", "\r\n"), ("cr", "\r")):
        path = tmp_path / f"{name}{pathlib.Path(spec).suffix}"
        data = text.replace("\n", newline).encode()
        path.write_bytes(data)
        code, out, err = _run(capsys, ["--json", command, str(path)])
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert report["inputs"].pop("sha256") == hashlib.sha256(data).hexdigest()
        assert report["inputs"].pop("path") == str(path)
        reports[name] = report
    assert reports["crlf"] == reports["lf"] and reports["cr"] == reports["lf"]


FILE_COMMANDS = ("abelianize", "split-check", "cohomology")
# a bad byte at line 2, column 6: the CR LF ends line 1 and the é before it
# is one character; no command parses the file before it is decoded
BAD_UTF8 = b"[base]\r\n \xc3\xa9 < \xff u | u >\n"


@pytest.mark.parametrize("command", FILE_COMMANDS)
def test_a_directory_exits_2_in_one_line(command, tmp_path, capsys):
    assert _run(capsys, [command, str(tmp_path)]) == (
        2, "", f"error: cannot read {tmp_path}: {os.strerror(errno.EISDIR)}\n")


@pytest.mark.parametrize("command", FILE_COMMANDS)
def test_an_unreadable_file_exits_2_in_one_line(command, tmp_path, capsys, monkeypatch):
    path = tmp_path / "locked"
    path.write_text("< x | x >\n")
    path.chmod(0)
    if os.access(path, os.R_OK):  # the superuser reads it anyway: refuse as the OS would
        def refuse(file, *args):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), file)

        monkeypatch.setattr(cli, "open", refuse, raising=False)
    assert _run(capsys, [command, str(path)]) == (
        2, "", f"error: cannot read {path}: {os.strerror(errno.EACCES)}\n")


@pytest.mark.parametrize("command", FILE_COMMANDS)
def test_bytes_that_are_not_utf8_exit_3_at_the_first_bad_byte(command, tmp_path, capsys):
    path = tmp_path / "latin1"
    path.write_bytes(BAD_UTF8)
    assert _run(capsys, [command, str(path)]) == (
        3, "", "error: invalid UTF-8 byte 0xff (line 2, column 6)\n")


@pytest.mark.parametrize("command", FILE_COMMANDS)
def test_a_fifo_with_no_writer_exits_2_without_blocking(command, tmp_path):
    # in a subprocess with a timeout: opening the FIFO would block for good
    path = tmp_path / "fifo"
    os.mkfifo(path)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-B", "-m", "bundlesec.cli", command, str(path)],
                          env=env, capture_output=True, text=True, timeout=30)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", f"error: cannot read {path}: not a regular file\n")


@pytest.mark.skipif(not os.path.exists(os.devnull), reason="no null device")
@pytest.mark.parametrize("command", FILE_COMMANDS)
def test_a_character_device_exits_2_unread(command, capsys):
    # /dev/null reads as an empty file, which would exit 3 or 4 if it were read
    assert _run(capsys, [command, os.devnull]) == (
        2, "", f"error: cannot read {os.devnull}: not a regular file\n")
