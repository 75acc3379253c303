"""tools/same_reports.py compares reports exactly as printed: a changed endo
offset and a changed schema version each show as a difference, on exactly
the argvs whose reports they change.  The workloads are not run here;
``python3 tools/same_reports.py PARENT CHANGE`` runs them."""

import importlib.util
import pathlib
import shutil

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _same_reports():
    spec = importlib.util.spec_from_file_location("same_reports",
                                                  ROOT / "tools" / "same_reports.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _copy(tmp_path, name, file=None, old=None, new=None):
    """A checkout holding a copy of src/, with old replaced by new in file."""
    checkout = tmp_path / name
    shutil.copytree(ROOT / "src", checkout / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    if file:
        path = checkout / "src" / "bundlesec" / file
        text = path.read_text(encoding="utf-8")
        assert text.count(old) == 1
        path.write_text(text.replace(old, new), encoding="utf-8")
    return checkout


def test_a_changed_report_is_a_difference(tmp_path):
    tool = _same_reports()
    kb = str(ROOT / "specs" / "kb.pres")
    argvs = [["--json", "endo"], ["endo"], ["--json", "abelianize", kb], ["abelianize", kb]]
    copies = {
        "same": _copy(tmp_path, "same"),
        "endo offset": _copy(tmp_path, "endo", "mcg.py",
                             "offset 1 = 1 0 0 0 0 0", "offset 1 = 3 0 0 0 0 0"),
        "schema 3": _copy(tmp_path, "schema", "cli.py",
                          "SCHEMA_VERSION = 2", "SCHEMA_VERSION = 3"),
    }
    differing = {name: [command for _, command, _, _ in
                        tool._differences(ROOT, checkout, tmp_path, argvs, name)]
                 for name, checkout in copies.items()}
    assert differing == {
        "same": [],
        "endo offset": ["--json endo", "endo"],
        "schema 3": ["--json endo", f"--json abelianize {kb}"],
    }
