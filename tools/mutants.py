"""Check that each listed mutant of bundlesec is killed by the tests named for it.

    python3 tools/mutants.py

A mutant is a name, a file, an old string, a new string and the test files
that must fail on it; none of them is a golden test, so each mutant is
caught by a check that does not compare against a stored report.  The
script extracts ``git archive HEAD`` (uncommitted edits are not in it) into
a temporary directory, runs the listed test files there once unmutated,
which must pass, and then, one mutant at a time, replaces the old string,
which must occur exactly once in its file, runs the mutant's test files and
puts the file back.  A mutant is killed when pytest reports a
failed test (exit code 1).  Python runs with ``-B``, so that no bytecode
cache outlives a mutant.  The kill table is printed in markdown; the script
exits 0 when every mutant is killed.
"""

from __future__ import annotations

import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import NamedTuple, Sequence

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple


MUTANTS = (
    Mutant("relator order", "src/bundlesec/extensions.py",
           "return all(m.is_identity() for m, _ in values), svecs, sum(svecs, ())",
           "return all(m.is_identity() for m, _ in values), svecs, sum(svecs[::-1], ())",
           ("tests/test_modn_differential.py",)),
    Mutant("duplicate generator allowed", "src/bundlesec/words.py",
           "if name in known:",
           "if name in ():",
           ("tests/test_words.py",)),
    Mutant("unknown generator before the exponent", "src/bundlesec/words.py",
           "                    i += 1\n"
           "                    exponent = 1\n",
           "                    i += 1\n"
           "                    if name not in known:\n"
           "                        raise fail(f\"unknown generator {name!r} in relator\", tok)\n"
           "                    exponent = 1\n",
           ("tests/test_words.py",)),
    Mutant("[a,b] with one sign flipped", "src/bundlesec/words.py",
           "letters += ((a, 1), (b, 1), (a, -1), (b, -1))",
           "letters += ((a, 1), (b, 1), (a, -1), (b, 1))",
           ("tests/test_words.py",)),
    Mutant("[a,b] counts 3 letters against the cap", "src/bundlesec/words.py",
           "if len(letters) + 4 > MAX_RELATOR_LETTERS:",
           "if len(letters) + 3 > MAX_RELATOR_LETTERS:",
           ("tests/test_words.py",)),
    Mutant("comm() in row order", "src/bundlesec/words.py",
           "for a in left for b in right]",
           "for b in right for a in left]",
           ("tests/test_words.py",)),
    Mutant("empty relator allowed", "src/bundlesec/words.py",
           "if i == start:",
           "if i < start:",
           ("tests/test_words.py",)),
    Mutant("Klein-bottle inverse letter keeps its element", "src/bundlesec/extensions.py",
           "table[g, -1] = kb_inverse(inv.apply(k)), inv",
           "table[g, -1] = kb_inverse(k), inv",
           ("tests/test_extensions.py",)),
    Mutant("cokernel coordinates with the free rows first", "src/bundlesec/zlinalg.py",
           "return torsion + tuple(w[i] for i in self.free_rows)",
           "return tuple(w[i] for i in self.free_rows) + torsion",
           ("tests/test_zlinalg.py", "tests/test_mcg.py", "tests/test_modn_differential.py")),
    Mutant("cokernel coordinate left unreduced", "src/bundlesec/zlinalg.py",
           "torsion = tuple(w[i] % diag[i] for i in self.torsion_rows)",
           "torsion = tuple(w[i] for i in self.torsion_rows)",
           ("tests/test_zlinalg.py", "tests/test_mcg.py",
            "tests/test_surface_coinvariants_differential.py")),
    # the free rows are read by every cokernel, coordinates in it and lemma 2,
    # which has no kept-rows rule of its own left to mutate
    Mutant("free rows drop the rows past the diagonal", "src/bundlesec/zlinalg.py",
           "+ tuple(range(n, D.rows))",
           "",
           ("tests/test_words.py", "tests/test_zlinalg.py")),
    Mutant("Fox terms swapped", "src/bundlesec/groupring.py",
           "return prefix, {g: total(terms, minus[g]) for g, terms in plus.items()}",
           "return prefix, {g: total(minus[g], terms) for g, terms in plus.items()}",
           ("tests/test_groupring.py",)),
    Mutant("fold drops its chunk", "src/bundlesec/groupring.py",
           "plus[g] = [total(terms, minus[g])]",
           "plus[g] = terms[:1]",
           ("tests/test_fox_rows_differential.py",)),
)


def _pytest(copy: Path, tests: Sequence[str]) -> int:
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-B", "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def main() -> int:
    archive = subprocess.run(["git", "archive", "HEAD"], cwd=ROOT, capture_output=True,
                             check=True).stdout
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(copy, filter="data")
        tests = sorted({t for m in MUTANTS for t in m.tests})
        if _pytest(copy, tests) != 0:
            print(f"the unmutated tests fail at HEAD: {' '.join(tests)}")
            return 1
        print("mutants of HEAD")
        print("| mutant | file | tests | outcome |")
        print("|---|---|---|---|")
        survivors = 0
        for m in MUTANTS:
            path = copy / m.file
            text = path.read_text(encoding="utf-8")
            if text.count(m.old) != 1:
                outcome = f"old string occurs {text.count(m.old)} times"
            else:
                path.write_text(text.replace(m.old, m.new), encoding="utf-8")
                try:
                    code = _pytest(copy, m.tests)
                finally:
                    path.write_text(text, encoding="utf-8")
                outcome = {0: "SURVIVED", 1: "killed"}.get(code, f"pytest exit {code}")
            survivors += outcome != "killed"
            print(f"| {m.name} | `{m.file}` | {', '.join(f'`{t}`' for t in m.tests)} "
                  f"| {outcome} |")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
