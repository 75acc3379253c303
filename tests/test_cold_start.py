"""What a fresh bundlesec process loads before it computes.

Each check starts a fresh ``python -B`` interpreter with src/ on PYTHONPATH.
Importing ``bundlesec.cli`` loads neither ``dataclasses`` (which loads
``inspect``) nor ``transgression`` and ``mcg``, which ``transgress`` and
``endo`` import when they run.  The modules loaded are compared with those
of a bare interpreter, so a module that a ``.pth`` file preloads does not
count.  Run as the first command of a fresh process, each of those two
commands prints its golden report byte for byte.
"""

import os
import subprocess
import sys

import pytest

from golden_cases import CASES, GOLDEN, ROOT

NOT_LOADED_BY_IMPORT = ("dataclasses", "bundlesec.mcg", "bundlesec.transgression")
PRINT_MODULES = "import sys; print(' '.join(sorted(sys.modules)))"


def _python(*args: str) -> bytes:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-B", *args], cwd=ROOT, env=env, capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_importing_the_cli_loads_no_dataclasses_and_no_command_module():
    bare = set(_python("-c", PRINT_MODULES).decode().split())
    loaded = set(_python("-c", "import bundlesec.cli; " + PRINT_MODULES).decode().split())
    assert "bundlesec.cli" in loaded
    assert sorted(set(NOT_LOADED_BY_IMPORT) & (loaded - bare)) == []


@pytest.mark.parametrize("golden", ["endo.json", "transgress.json"])
def test_a_lazily_loaded_command_prints_its_golden_report_in_a_fresh_process(golden):
    argv = dict(CASES)[golden]
    assert _python("-m", "bundlesec.cli", *argv) == (GOLDEN / golden).read_bytes()
