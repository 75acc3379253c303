"""tools/mutants.py's list stays applicable: each old string occurs exactly
once in its file, and each mutant names test files that exist and are not
the golden comparison.  No mutant is run here; ``python3 tools/mutants.py``
runs them."""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _mutants():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


def test_each_mutant_applies_once_and_names_non_golden_tests():
    mutants = _mutants()
    assert len({m.name for m in mutants}) == len(mutants)
    for m in mutants:
        assert (ROOT / m.file).read_text(encoding="utf-8").count(m.old) == 1, m.name
        assert m.new != m.old, m.name
        assert m.tests, m.name
        for test in m.tests:
            assert (ROOT / test).is_file(), (m.name, test)
            assert pathlib.Path(test).name != "test_golden.py", m.name
