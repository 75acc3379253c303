"""Golden reports: every shipped input's CLI output, byte for byte.

The files under tests/golden/ hold the exact stdout of ``bundlesec.cli.main``
run from the repository root with relative paths, so the ``path`` field of
each report is stable.  A refactor that keeps reports unchanged keeps these
tests green; a deliberate report change must regenerate the files with

    PYTHONPATH=src python tests/test_golden.py
"""

import pathlib
import sys

import pytest

from bundlesec import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

BUNDLES = sorted(p.name for p in (ROOT / "specs").glob("*.bundle"))
TORUS_BUNDLES = [name for name in BUNDLES if "kb" not in name]
PRESENTATIONS = sorted(p.name for p in (ROOT / "specs").glob("*.pres"))
# inputs beyond the one-relator torus base of the shipped specs: more than two
# base generators, more than one relator, a rank-3 fibre and nonzero offsets
TEST_BUNDLES = sorted(p.name for p in (ROOT / "tests" / "specs").glob("*.bundle"))


def _cases():
    """(golden file name, argv) for every covered invocation."""
    for name in BUNDLES:
        stem = name[:-len(".bundle")]
        yield f"split-check.{stem}.json", ["--json", "split-check", f"specs/{name}"]
        yield f"split-check.{stem}.txt", ["split-check", f"specs/{name}"]
    for name in TORUS_BUNDLES:
        yield f"cohomology.{name[:-len('.bundle')]}.json", ["--json", "cohomology", f"specs/{name}"]
    for name in TEST_BUNDLES:
        stem = name[:-len(".bundle")]
        path = f"tests/specs/{name}"
        yield f"split-check.{stem}.json", ["--json", "split-check", path]
        yield f"split-check.{stem}.txt", ["split-check", path]
        yield f"cohomology.{stem}.json", ["--json", "cohomology", path]
    for name in PRESENTATIONS:
        yield f"abelianize.{name[:-len('.pres')]}.json", ["--json", "abelianize", f"specs/{name}"]
    yield "transgress.json", ["--json", "transgress", "--range", "-5..5"]
    yield "transgress.txt", ["transgress", "--range", "-5..5"]
    yield "endo.json", ["--json", "endo"]
    yield "endo.txt", ["endo"]


CASES = list(_cases())


def test_golden_covers_the_shipped_specs():
    assert len(TORUS_BUNDLES) == 4
    assert len(BUNDLES) == 6 and len(PRESENTATIONS) == 2
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(name for name, _ in CASES)


@pytest.mark.parametrize("golden,argv", CASES, ids=[name for name, _ in CASES])
def test_report_matches_golden(golden, argv, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert cli.main(argv) == cli.EXIT_OK
    assert capsys.readouterr().out == (GOLDEN / golden).read_text(encoding="utf-8")


def _regenerate() -> None:
    import contextlib
    import io
    import os

    os.chdir(ROOT)
    GOLDEN.mkdir(exist_ok=True)
    for golden, argv in CASES:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            if cli.main(argv) != cli.EXIT_OK:
                sys.exit(f"{' '.join(argv)} failed")
        (GOLDEN / golden).write_text(out.getvalue(), encoding="utf-8")


if __name__ == "__main__":
    _regenerate()
