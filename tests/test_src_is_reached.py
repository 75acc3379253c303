"""Every function defined in src/bundlesec is run by some command.

A worker interpreter sets ``sys.setprofile`` before it imports bundlesec, then
runs through ``cli.main`` every golden argv (``golden_cases.CASES``) and the
hostile inputs of ``error_cases.CASES``, and records every code object of
src/bundlesec that is entered.  Each ``def`` in src/bundlesec/*.py, nested
ones included (lambdas and comprehensions are not defs), must be entered,
except the names of two allow-lists:

* ``TRACER_PINNED``: functions the benchmark's span tracer targets
  (``TARGETS`` in perfbench/tracer.py, read as text, never imported) or that
  only such a target calls.  The benchmark's self-test fails when a target
  is missing, so these stay until the tracer drops them.  The worker runs
  each target once on a small input, and a helper must be entered there; a
  name whose target leaves ``TARGETS`` fails here, so the list shrinks with
  the tracer's.
* ``OTHER_ALLOWED``: a name with the reason it stays.

An allowed name that a command enters fails too: it is no longer dead.

Run as a script, this file is the worker: it reads a JSON list of extra
argv from its first argument and prints what was entered, as JSON.
"""

from __future__ import annotations

import ast
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import error_cases

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "bundlesec"
TRACER = ROOT / "perfbench" / "tracer.py"

# name -> the tracer target that reaches it (the name itself for a target)
TRACER_PINNED = {
    "groupring.fox_derivative": "groupring.fox_derivative",
    "groupring.FreeRingElement.__add__": "groupring.fox_derivative",
    "groupring.FreeRingElement.__sub__": "groupring.fox_derivative",
    "groupring.FreeRingElement.__mul__": "groupring.fox_derivative",
    "words.Word.identity": "groupring.fox_derivative",
    # words key the formal ring's dicts
    "words.Word.__hash__": "groupring.fox_derivative",
    "groupring.evaluate_linear": "groupring.evaluate_linear",
    "zlinalg.IntMatrix.zeros": "groupring.evaluate_linear",
    "zlinalg.IntMatrix.__add__": "groupring.evaluate_linear",
    "groupring.evaluate_affine": "groupring.evaluate_affine",
    # the affine Fox pass subtracts IntMatrix values at inverse letters
    "zlinalg.IntMatrix.__sub__": "groupring.evaluate_affine",
    "groupring.LinearRep.evaluate_word": "groupring.LinearRep.evaluate_word",
    # no report has listed J_w since schema 2
    "extensions.jw_submodule": "extensions.jw_submodule",
    "extensions.semidirect_presentation": "extensions.semidirect_presentation",
    "extensions.semidirect_presentation.<locals>.fibre_word":
        "extensions.semidirect_presentation",
    # columns() zips the rows; only the word-level reference reads one column
    "zlinalg.IntMatrix.column": "extensions.semidirect_presentation",
    "zlinalg.IntMatrix.determinant": "zlinalg.IntMatrix.determinant",
    "zlinalg.kernel_basis": "zlinalg.kernel_basis",
    "zlinalg.SmithDecomposition.kernel_basis": "zlinalg.kernel_basis",
    # cokernel coordinates come from the row log: only solve reads U, and it
    # and kernel_basis V, each replayed from its log
    "zlinalg.SmithDecomposition.V": "zlinalg.kernel_basis",
    "zlinalg._replay": "zlinalg.kernel_basis",
    "zlinalg.solve": "zlinalg.solve",
    "zlinalg.SmithDecomposition.solve": "zlinalg.solve",
    "zlinalg.SmithDecomposition.U": "zlinalg.solve",
}

OTHER_ALLOWED = {
    "words.Word.__eq__":
        "merges equal words as keys of a FreeRingElement; the Fox terms of a reduced word "
        "are distinct prefixes, so only tests compare words",
}

def _exercises():
    """One call of each pinned tracer target, on inputs built beforehand."""
    from bundlesec import extensions, groupring, zlinalg
    from bundlesec.words import parse_presentation

    base = parse_presentation("< u, v | [u,v] >")
    (r,) = base.relators
    shear = zlinalg.IntMatrix.from_rows([[1, 1], [0, 1]])
    rep = groupring.LinearRep({"u": shear, "v": zlinalg.IntMatrix.identity(2)}, 2)
    element = groupring.FreeRingElement({r: 2})
    m = zlinalg.IntMatrix.from_rows([[2, 4], [-2, 6]])
    singular = zlinalg.IntMatrix.from_rows([[1, 2], [2, 4]])
    return {
        "groupring.fox_derivative": lambda: groupring.fox_derivative(r, "u"),
        "groupring.evaluate_linear": lambda: groupring.evaluate_linear(element, rep),
        "groupring.evaluate_affine":
            lambda: groupring.evaluate_affine(r, rep, {"u": (1, 0), "v": (0, 1)}),
        "groupring.LinearRep.evaluate_word": lambda: rep.evaluate_word(r),
        "extensions.jw_submodule": lambda: extensions.jw_submodule(
            extensions.TorusBundleSpec(base, rep, {"u": (0, 0), "v": (0, 0)})),
        "extensions.semidirect_presentation":
            lambda: extensions.semidirect_presentation(base, rep, offsets=[(1, 0)]),
        "zlinalg.IntMatrix.determinant": m.determinant,
        "zlinalg.kernel_basis": lambda: zlinalg.kernel_basis(singular),
        "zlinalg.solve": lambda: zlinalg.solve(m, (2, -2)),
    }


def _worker(extra_argvs):
    """Profile the commands, then each target alone; print what was entered."""
    prefix = str(SRC) + os.sep
    entered = set()

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename.startswith(prefix):
            entered.add((Path(code.co_filename).name, code.co_firstlineno, code.co_name))

    sys.setprofile(profile)  # before bundlesec is imported: import-time calls count
    import golden_cases
    from bundlesec import cli

    os.chdir(ROOT)
    codes = []
    for argv in [argv for _, argv in golden_cases.CASES] + extra_argvs:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            codes.append(cli.main(argv))
    commands = sorted(entered)
    exercised = {}
    for target, call in _exercises().items():
        entered.clear()
        call()
        exercised[target] = sorted(entered)
    sys.setprofile(None)
    json.dump({"codes": codes, "commands": commands, "exercised": exercised}, sys.stdout)


def _defs():
    """(file name, first line, name) -> dotted name of every def in src/bundlesec;
    a decorated def's code starts at its first decorator."""
    out = {}

    def walk(node, path, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[path.name, first, child.name] = f"{module}.{qualname}"
                walk(child, path, module, qualname + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, module, prefix + child.name + ".")
            else:
                walk(child, path, module, prefix)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), path, path.stem, "")
    return out


def _tracer_targets():
    """perfbench/tracer.py's TARGETS as "module.qualname", read from its text."""
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "TARGETS":
            return {f"{module}.{qualname}" for module, qualname in ast.literal_eval(node.value)}
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


def _pin_errors(targets, exercised):
    """Why each pinned name is not pinned by the given tracer targets."""
    errors = []
    for name, target in TRACER_PINNED.items():
        if target not in targets:
            errors.append(f"{name}: {target} is not a tracer target")
        elif name != target and name not in exercised[target]:
            errors.append(f"{name}: {target} does not call it")
    return errors


@pytest.fixture(scope="module")
def reached(tmp_path_factory):
    argvs = error_cases.write_inputs(tmp_path_factory.mktemp("reached"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(ROOT / "src"), str(ROOT / "tests"))))
    proc = subprocess.run([sys.executable, "-B", __file__, json.dumps(argvs)], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    raw = json.loads(proc.stdout)
    names = _defs()

    def named(entries):
        return {names[tuple(e)] for e in entries if tuple(e) in names}

    return {"codes": raw["codes"], "commands": named(raw["commands"]),
            "exercised": {t: named(e) for t, e in raw["exercised"].items()},
            "defs": set(names.values())}


def test_the_commands_exit_as_documented(reached):
    import golden_cases

    assert reached["codes"] == [0] * len(golden_cases.CASES) + [c for c, *_ in error_cases.CASES]


def test_every_def_in_src_is_entered_by_a_command(reached):
    allowed = set(TRACER_PINNED) | set(OTHER_ALLOWED)
    assert sorted(reached["defs"] - reached["commands"] - allowed) == []


def test_allowed_names_exist_and_no_command_enters_them(reached):
    allowed = set(TRACER_PINNED) | set(OTHER_ALLOWED)
    assert sorted(allowed - reached["defs"]) == []
    assert sorted(allowed & reached["commands"]) == []


def test_tracer_pinned_names_follow_the_tracer_targets(reached):
    assert _pin_errors(_tracer_targets(), reached["exercised"]) == []


def test_dropping_any_pinned_target_unpins_what_it_reaches(reached):
    # the same check on copies of TARGETS, each without one pinned target
    targets = _tracer_targets()
    for target in set(TRACER_PINNED.values()):
        errors = _pin_errors(targets - {target}, reached["exercised"])
        assert f"{target}: {target} is not a tracer target" in errors


if __name__ == "__main__":
    _worker(json.loads(sys.argv[1]))
