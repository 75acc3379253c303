"""What a fresh bundlesec process loads before it computes.

Each check starts a fresh ``python -B`` interpreter with src/ on PYTHONPATH.
Importing ``bundlesec.cli`` loads neither ``dataclasses`` (which loads
``inspect``), nor ``json``, which only a --json report and ``transgress``
import, nor ``transgression`` and ``mcg``, which ``transgress`` and ``endo``
import when they run.  The modules loaded are compared with those of a bare
interpreter, so a module that a ``.pth`` file preloads does not count.  Run
as the first command of a fresh process, each of those two commands prints
its golden report byte for byte.

The Fox pass compiles its generated product of rank m at the first pass of
that rank and keeps it: import compiles none, and a process compiles each
rank up to KERNEL_MAX_RANK at most once, and no rank above it.
"""

import json
import os
import subprocess
import sys

import pytest

from golden_cases import CASES, GOLDEN, ROOT
from test_cli import _wide_spec

NOT_LOADED_BY_IMPORT = ("dataclasses", "json", "bundlesec.mcg", "bundlesec.transgression")
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


# runs each argv of its JSON argument list through cli.main, text reports
# discarded, and prints how many products were compiled after the import
# and after each run, then after asking for those of ranks 2 and 3 again
COMPILES = """
import contextlib, io, json, sys
from bundlesec import cli, extensions
compiled = extensions._product_kernel.cache_info
counts = [compiled().misses]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    counts.append(compiled().misses)
extensions._product_kernel(2), extensions._product_kernel(3)
counts.append(compiled().misses)
print(json.dumps(counts))
"""


def test_the_fox_pass_compiles_each_rank_once_and_none_above_the_bound(tmp_path):
    wide = tmp_path / "wide.bundle"
    wide.write_text(_wide_spec(3, 12))
    runs = [["split-check", "specs/heisenberg_torus.bundle"],
            ["split-check", "tests/specs/genus2_rank3.bundle"]]
    argvs = runs + runs + [["split-check", str(wide)], ["cohomology", str(wide)]]
    counts = json.loads(_python("-c", COMPILES, json.dumps(argvs)))
    # none at import; ranks 2 and 3 once each, and nothing more after the
    # repeats, the rank-12 runs or asking for ranks 2 and 3 again: exactly {2, 3}
    assert counts == [0, 1, 2, 2, 2, 2, 2, 2]
