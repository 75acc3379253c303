"""Check that two checkouts of bundlesec give byte-identical reports.

    python3 tools/same_reports.py PARENT CHANGE

For each benchmark workload and each of the seeds 1, 2 and 3, the inputs are
generated once by ``perfbench/workloads.py`` of CHANGE (read-only; nothing
under ``perfbench/`` is changed), into a temporary directory.  Every op is then run through
``bundlesec.cli.main`` of each checkout, once with ``--json`` and once as
text, and the exit code, standard output and standard error are compared.
The commands of the golden reports (``CASES`` in CHANGE's
``tests/golden_cases.py``) are compared the same way, each with ``--json`` and
as text, run from CHANGE's root so that their relative paths resolve.  The
hostile inputs of CHANGE's ``tests/error_cases.py`` are written into a
temporary directory and each argv is compared once, as written, so that a
changed error message shows as one listed difference.
Each checkout runs in its own interpreter, started with ``-B`` so that no
bytecode cache is written into it.

Reports are compared exactly as printed; the tool knows nothing of their
format.  Exits 0 when every report is identical, 1 otherwise, listing the
first differences.
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


def _differences(parent: Path, change: Path, workdir: Path, argvs: list, where: str) -> list:
    """(where, command, parent's result, change's result) for each argv whose
    results differ."""
    before = _run_worker(parent, workdir, argvs)
    after = _run_worker(change, workdir, argvs)
    return [(where, " ".join(a), x, y)
            for a, x, y in zip(argvs, before, after, strict=True) if x != y]


def _golden_argvs() -> list:
    """The golden commands of CHANGE, each with --json and as text, once each."""
    import golden_cases

    bare = [argv[1:] if argv[0] == "--json" else argv for _, argv in golden_cases.CASES]
    forms = [tuple(form) for argv in bare for form in (["--json", *argv], argv)]
    return [list(form) for form in dict.fromkeys(forms)]


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()
    sys.dont_write_bytecode = True  # leave no cache under perfbench/
    sys.path[:0] = [str(change / "perfbench"), str(change / "tests")]
    import error_cases
    import workloads

    differences: list = []
    # [reports, identical] per kind of report
    counts = {kind: [0, 0] for kind in ("workload", "golden", "error")}

    def compare(kind: str, workdir: Path, argvs: list, where: str) -> str:
        found = _differences(parent, change, workdir, argvs, where)
        differences.extend(found)
        n, same = len(argvs), len(argvs) - len(found)
        counts[kind][0] += n
        counts[kind][1] += same
        return f"{same}/{n}"

    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            with tempfile.TemporaryDirectory(prefix="same-reports-") as tmp:
                workdir = Path(tmp)
                ops = workloads.build(workload, seed, workdir, change / "specs")
                argvs = [argv for op in ops for argv in (op.argv, op.argv[1:])]
                where = f"{workload} seed {seed}"
                print(f"{where}: {compare('workload', workdir, argvs, where)} reports identical")
    golden = compare("golden", change, _golden_argvs(), "golden")
    print(f"golden commands: {golden} reports identical")
    with tempfile.TemporaryDirectory(prefix="same-reports-") as tmp:
        error = compare("error", Path(tmp), error_cases.write_inputs(Path(tmp)), "error")
    print(f"error inputs: {error} error reports identical")
    summary = "; ".join(f"{kind} reports {same}/{n}" for kind, (n, same) in counts.items())
    print(f"all: {summary} identical (exit code, stdout and stderr; workload and golden "
          "reports each with --json and as text)")
    for where, command, x, y in differences[:SHOWN_DIFFERENCES]:
        print(f"differs: {where}: bundlesec {command}\n"
              f"  parent: {x!r:.300}\n  change: {y!r:.300}")
    return 1 if differences else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        _worker(sys.argv[2])
    else:
        sys.exit(main())
