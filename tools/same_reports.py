"""Check that two checkouts of bundlesec give byte-identical reports.

    python3 tools/same_reports.py PARENT CHANGE

For each benchmark workload and each of the seeds 1, 2 and 3, the inputs are
generated once by ``perfbench/workloads.py`` of CHANGE (read-only; nothing
under ``perfbench/`` is changed), into a temporary directory.  Every op is then run through
``bundlesec.cli.main`` of each checkout, once with ``--json`` and once as
text, and the exit code, standard output and standard error are compared.
The commands of the golden reports (``CASES`` in CHANGE's
``tests/test_golden.py``) are compared the same way, each with ``--json`` and
as text, run from CHANGE's root so that their relative paths resolve.
Each checkout runs in its own interpreter, started with ``-B`` so that no
bytecode cache is written into it.

Exits 0 when every report is identical, 1 otherwise, listing the first
differences.
"""

from __future__ import annotations

import argparse
import io
import json
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import Sequence

SEEDS = (1, 2, 3)
SHOWN_DIFFERENCES = 10


def _run_worker(checkout: Path, workdir: Path, argvs: Sequence[Sequence[str]]) -> list:
    """Run every argv through the checkout's CLI in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-B", str(Path(__file__).resolve()), "--worker", str(checkout / "src")],
        input=json.dumps(argvs), capture_output=True, text=True, cwd=workdir, check=True)
    return json.loads(proc.stdout)


def _worker(src: str) -> None:
    """Read a JSON list of argv from stdin; print [exit code, stdout, stderr] for each."""
    sys.path.insert(0, src)
    from bundlesec import cli

    results = []
    for argv in json.load(sys.stdin):
        out, err = io.StringIO(), io.StringIO()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a defect; both sides must show the same one
            code = f"raised {type(exc).__name__}: {exc}"
        results.append([code, out.getvalue(), err.getvalue()])
    json.dump(results, sys.stdout)


def _golden_argvs(change: Path) -> list:
    """The golden commands of CHANGE, each with --json and as text, once each."""
    sys.path[:0] = [str(change / "src"), str(change / "tests")]
    import test_golden

    bare = [argv[1:] if argv[0] == "--json" else argv for _, argv in test_golden.CASES]
    forms = [tuple(form) for argv in bare for form in (["--json", *argv], argv)]
    return [list(form) for form in dict.fromkeys(forms)]


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()
    sys.dont_write_bytecode = True  # leave no cache under perfbench/
    sys.path.insert(0, str(change / "perfbench"))
    import workloads

    total, differences = 0, []
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            with tempfile.TemporaryDirectory(prefix="same-reports-") as tmp:
                workdir = Path(tmp)
                ops = workloads.build(workload, seed, workdir, change / "specs")
                argvs = [argv for op in ops for argv in (op.argv, op.argv[1:])]
                before = _run_worker(parent, workdir, argvs)
                after = _run_worker(change, workdir, argvs)
            same = sum(x == y for x, y in zip(before, after, strict=True))
            print(f"{workload} seed {seed}: {same}/{len(argvs)} reports identical")
            total += len(argvs)
            differences += [(f"{workload} seed {seed}", " ".join(a), x, y)
                            for a, x, y in zip(argvs, before, after) if x != y]
    workload_same = total - len(differences)

    goldens = _golden_argvs(change)
    before = _run_worker(parent, change, goldens)
    after = _run_worker(change, change, goldens)
    golden_same = sum(x == y for x, y in zip(before, after, strict=True))
    differences += [("golden", " ".join(a), x, y)
                    for a, x, y in zip(goldens, before, after) if x != y]
    print(f"golden commands: {golden_same}/{len(goldens)} reports identical")
    print(f"all: {workload_same}/{total} workload reports and {golden_same}/{len(goldens)} "
          "golden reports identical (exit code, stdout and stderr; each with --json and "
          "as text)")
    for where, command, x, y in differences[:SHOWN_DIFFERENCES]:
        print(f"differs: {where}: bundlesec {command}\n"
              f"  parent: {x!r:.300}\n  change: {y!r:.300}")
    return 1 if differences else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        _worker(sys.argv[2])
    else:
        sys.exit(main())
