"""Time what a fresh bundlesec process costs, in two checkouts.

    python3 tools/cold_start.py PARENT CHANGE

For each checkout it times a bare ``import bundlesec.cli`` and one golden
argv per command (the first ``--json`` case of each command in CHANGE's
``tests/golden_cases.py``), each as a fresh ``python -B`` interpreter run from
CHANGE's root with the checkout's ``src/`` on ``PYTHONPATH``: wall time from
start to exit, output discarded.  Each of the RUNS rounds runs every case once
on each side, the side that goes first alternating, so that drift of the
machine's speed falls on both.  It prints each side's median and quartiles in
ms, and the change's median over the parent's.  It measures and does not gate.

``-B`` keeps a run from writing bytecode, but a ``__pycache__`` already in a
checkout is still read, so compare two fresh copies (``git archive``); a
checkout that holds one is named in the output.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence

RUNS = 21
COMMANDS = ("abelianize", "split-check", "cohomology", "transgress", "endo")


def _cases(change: Path) -> Dict[str, List[str]]:
    """Case name -> interpreter arguments: the bare import, then one golden
    argv per command."""
    sys.path.insert(0, str(change / "tests"))
    import golden_cases

    cases = {"import": ["-c", "import bundlesec.cli"]}
    for command in COMMANDS:
        argv = next(argv for _, argv in golden_cases.CASES if argv[:2] == ["--json", command])
        cases[" ".join(argv)] = ["-m", "bundlesec.cli", *argv]
    return cases


def _time(checkout: Path, cwd: Path, args: Sequence[str]) -> float:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-B", *args], env=env, cwd=cwd, check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def _summary(times: Sequence[float]) -> str:
    q1, q2, q3 = statistics.quantiles(times, n=4)
    return f"{q2 * 1e3:7.1f} ms [{q1 * 1e3:.1f}, {q3 * 1e3:.1f}]"


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    sys.dont_write_bytecode = True  # leave no cache under tests/
    cases = _cases(sides["change"])
    for side, checkout in sides.items():
        if (checkout / "src" / "bundlesec" / "__pycache__").is_dir():
            print(f"note: the {side} checkout holds a bytecode cache, which its runs read")

    times: Dict[str, Dict[str, List[float]]] = {case: {side: [] for side in sides}
                                                 for case in cases}
    for i in range(RUNS):
        order = list(sides) if i % 2 == 0 else list(sides)[::-1]
        for case, interpreter_args in cases.items():
            for side in order:
                times[case][side].append(_time(sides[side], sides["change"], interpreter_args))

    print(f"fresh `python -B` runs, {RUNS} per case and side, interleaved; "
          "median [quartiles] of wall time")
    for case, by_side in times.items():
        ratio = statistics.median(by_side["change"]) / statistics.median(by_side["parent"])
        print(f"{case}\n  parent {_summary(by_side['parent'])}\n"
              f"  change {_summary(by_side['change'])}   change/parent {ratio:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
