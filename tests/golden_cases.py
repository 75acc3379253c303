"""The golden reports' commands: (golden file name, argv) for every shipped
input, run from the repository root with relative paths.

Kept apart from test_golden.py and free of pytest, so that
tools/same_reports.py reads the same commands under any interpreter.
"""

import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

BUNDLES = sorted(p.name for p in (ROOT / "specs").glob("*.bundle"))
TORUS_BUNDLES = [name for name in BUNDLES if "kb" not in name]
PRESENTATIONS = sorted(p.name for p in (ROOT / "specs").glob("*.pres"))
# inputs beyond the one-relator torus base of the shipped specs: more than two
# base generators, more than one relator, a rank-3 fibre, nonzero offsets and
# Klein-bottle automorphism words with exponents
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
        if "kb" not in name:  # cohomology takes torus coefficients only
            yield f"cohomology.{stem}.json", ["--json", "cohomology", path]
    for name in PRESENTATIONS:
        yield f"abelianize.{name[:-len('.pres')]}.json", ["--json", "abelianize", f"specs/{name}"]
    yield "transgress.json", ["--json", "transgress", "--range", "-5..5"]
    yield "transgress.txt", ["transgress", "--range", "-5..5"]
    yield "endo.json", ["--json", "endo"]
    yield "endo.txt", ["endo"]


CASES = list(_cases())
