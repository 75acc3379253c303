"""Output checks for benchmark ops, run outside the timed interval.

An op fails when it raises, when its exit code differs from the expected
one, when its JSON report lacks ``schema_version`` or ``verdict``, or when an
independent route disagrees with it.  A failure is also *wrong* (it makes the
run's ``correct`` false) unless the op raised: an op that raised gave no
answer to be wrong about.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from workloads import SPLITS, Op


@dataclass
class Outcome:
    """What one CLI invocation did: exit code, standard output, exception."""

    code: Optional[int]
    stdout: str
    error: Optional[BaseException] = None


def call_cli(main: Callable[[Sequence[str]], int], argv: Sequence[str]) -> Outcome:
    """Run the CLI entry point in-process, capturing its output."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(list(argv))
    except SystemExit as exc:  # argparse rejects arguments this way
        return Outcome(exc.code if isinstance(exc.code, int) else 2, out.getvalue())
    except Exception as exc:  # a defect of the program under test, counted as failed
        return Outcome(None, out.getvalue(), exc)
    return Outcome(code, out.getvalue())


class Checker:
    """Checks outcomes against their ops; caches the independent CLI routes."""

    def __init__(self, main: Callable[[Sequence[str]], int]):
        self._main = main
        self._routes: Dict[Tuple[str, str], Tuple[Optional[str], str]] = {}

    def check(self, op: Op, outcome: Outcome) -> Tuple[List[str], bool]:
        """Return (problems, wrong); no problems means the op passed."""
        if outcome.error is not None:
            return [f"raised {type(outcome.error).__name__}: {outcome.error}"], False
        if outcome.code != op.exit_code:
            return [f"exit code {outcome.code}, expected {op.exit_code}"], True
        if op.exit_code != 0:
            return [], False
        problems = self._check_report(op, outcome.stdout)
        return problems, bool(problems)

    def _check_report(self, op: Op, stdout: str) -> List[str]:
        try:
            report = json.loads(stdout)
        except ValueError:
            return ["stdout is not one JSON report"]
        if not isinstance(report, dict):
            return ["report is not a JSON object"]
        missing = [k for k in ("schema_version", "verdict") if k not in report]
        if missing:
            return [f"report lacks {', '.join(missing)}"]
        verdict = report["verdict"]
        if op.verdict is not None and verdict != op.verdict:
            return [f"verdict {verdict}, expected {op.verdict}"]
        result = report.get("result")
        if not isinstance(result, dict):
            return ["report lacks a result object"]
        problems = [f"result[{key!r}] = {result.get(key)!r}, expected {want!r}"
                    for key, want in op.expect.items() if result.get(key) != want]
        if op.command == "split-check":
            problems += self._check_split(op, verdict, result)
        elif op.command == "cohomology" and op.cross:
            self._routes.setdefault(("cohomology", op.args[0]), (result.get("h2"), ""))
            quotient, why = self._route("split-check", op.args[0])
            if quotient != result.get("h2"):
                problems.append(f"H^2 {result.get('h2')!r} but split-check quotient "
                                f"{quotient!r}{why}")
        elif op.command == "transgress":
            if not all(case.get("agree") for case in result.get("cases", [])):
                problems.append("a transgression case disagrees with direct evaluation")
        return problems

    def _check_split(self, op: Op, verdict: str, result: dict) -> List[str]:
        problems = []
        ob = result.get("obstruction", {})
        lemma2 = result.get("lemma2", {})
        if verdict == SPLITS and lemma2.get("applies") and not lemma2.get("is_isomorphic"):
            problems.append("SPLITS but the lemma-2 abelianization test is not isomorphic")
        if ob.get("lifted"):
            zero = all(c == 0 for coords in ob.get("class", []) for c in coords)
            if zero != (verdict == SPLITS):
                problems.append(f"class {ob.get('class')} does not match verdict {verdict}")
        if op.cross and ob.get("lifted"):
            # a workload that also runs cohomology on this file fills the route from it
            self._routes.setdefault(("split-check", op.args[0]), (ob.get("quotient"), ""))
            h2, why = self._route("cohomology", op.args[0])
            if h2 != ob.get("quotient"):
                problems.append(f"quotient {ob.get('quotient')!r} but cohomology H^2 "
                                f"{h2!r}{why}")
        return problems

    def _route(self, command: str, path: str) -> Tuple[Optional[str], str]:
        """The other command's answer for `path`: split-check quotient or H^2."""
        key = (command, path)
        if key not in self._routes:
            outcome = call_cli(self._main, ["--json", command, path])
            value, why = None, ""
            if outcome.error is not None:
                why = f" (route raised {type(outcome.error).__name__})"
            elif outcome.code != 0:
                why = f" (route exit code {outcome.code})"
            else:
                try:
                    result = json.loads(outcome.stdout)["result"]
                    value = (result["obstruction"]["quotient"] if command == "split-check"
                             else result["h2"])
                except (ValueError, KeyError, TypeError):
                    why = " (route report unreadable)"
            self._routes[key] = (value, why)
        return self._routes[key]
