"""Golden reports: every shipped input's CLI output, byte for byte.

The files under tests/golden/ hold the exact stdout of ``bundlesec.cli.main``
run from the repository root with relative paths, so the ``path`` field of
each report is stable.  A refactor that keeps reports unchanged keeps these
tests green; a deliberate report change must regenerate the files with

    PYTHONPATH=src python tests/test_golden.py
"""

import sys

import pytest

from bundlesec import cli
from golden_cases import BUNDLES, CASES, GOLDEN, PRESENTATIONS, ROOT, TORUS_BUNDLES


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
