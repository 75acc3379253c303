"""Self-tests of the benchmark: python3 -m pytest perfbench"""

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import bundlesec.cli  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from checks import Checker, Outcome, call_cli  # noqa: E402

SPECS = ROOT / "specs"


def _files(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(tmp_path, workload):
    runs = {}
    for label, seed in (("a", 7), ("b", 7), ("c", 8)):
        out = tmp_path / label
        out.mkdir()
        ops = workloads.build(workload, seed, out, SPECS)
        runs[label] = (_files(out), [(op.argv, op.exit_code, op.verdict) for op in ops])
    assert runs["a"] == runs["b"]
    assert runs["a"][0] != runs["c"][0]


def _bindings():
    """Identity of every name in every bundlesec module and class namespace."""
    out = {}
    for mod_name, mod in sorted(sys.modules.items()):
        if mod_name == "bundlesec" or mod_name.startswith("bundlesec."):
            for key, value in vars(mod).items():
                out[(mod_name, key)] = id(value)
                if isinstance(value, type) and value.__module__ == mod_name:
                    for attr, member in vars(value).items():
                        out[(mod_name, key, attr)] = id(member)
    return out


def test_tracer_records_spans_and_restores_bindings(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    before = _bindings()
    original_main = bundlesec.cli.main
    t = tracer.Tracer()
    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + (("zlinalg", "no_such_function"),))
    t.install()
    try:
        assert bundlesec.cli.main is not original_main
        outcome = call_cli(lambda argv: bundlesec.cli.main(argv),
                           ["--json", "split-check", str(SPECS / "heisenberg_torus.bundle")])
        t.flush()
    finally:
        t.restore()
    assert _bindings() == before
    assert outcome.code == 0
    assert t.calls["cli.main"] == 1
    assert t.calls["zlinalg.smith_normal_form"] >= 1
    assert t.self_time["cli.main"] < t.inclusive["cli.main"]
    assert t.absent == {"zlinalg.no_such_function"}


def _split_outcome(spec: str) -> Outcome:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = bundlesec.cli.main(["--json", "split-check", str(SPECS / spec)])
    return Outcome(code, buf.getvalue())


def test_checker_accepts_a_good_report():
    op = workloads.Op("split-check", [str(SPECS / "product_torus.bundle")], verdict="SPLITS")
    problems, wrong = Checker(bundlesec.cli.main).check(op, _split_outcome("product_torus.bundle"))
    assert problems == [] and not wrong


def test_checker_flags_a_corrupted_report():
    op = workloads.Op("split-check", [str(SPECS / "heisenberg_torus.bundle")],
                      verdict="NO_SECTION")
    good = _split_outcome("heisenberg_torus.bundle")
    report = json.loads(good.stdout)
    report["verdict"] = "SPLITS"
    checker = Checker(bundlesec.cli.main)
    problems, wrong = checker.check(op, Outcome(0, json.dumps(report)))
    assert problems and wrong
    del report["schema_version"]
    problems, wrong = checker.check(op, Outcome(0, json.dumps(report)))
    assert problems == ["report lacks schema_version"] and wrong


def test_checker_flags_a_wrong_exit_code():
    op = workloads.Op("split-check", ["missing.bundle"], exit_code=2)
    problems, wrong = Checker(bundlesec.cli.main).check(op, Outcome(4, ""))
    assert problems and wrong


def test_checker_counts_a_raised_exception_as_failed_not_wrong():
    op = workloads.Op("cohomology", ["x.bundle"], exit_code=4)
    problems, wrong = Checker(bundlesec.cli.main).check(op, Outcome(None, "", ValueError("x")))
    assert problems and not wrong


def test_checker_cross_route_catches_a_wrong_quotient(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "t.bundle").write_bytes((SPECS / "torus_trivial_coeffs.bundle").read_bytes())
    op = workloads.Op("split-check", ["t.bundle"], cross=True)
    outcome = call_cli(bundlesec.cli.main, op.argv)
    checker = Checker(bundlesec.cli.main)
    assert checker.check(op, outcome) == ([], False)
    report = json.loads(outcome.stdout)
    report["result"]["obstruction"]["quotient"] = "Z/3"
    problems, wrong = checker.check(op, Outcome(0, json.dumps(report)))
    assert wrong and "cohomology H^2" in problems[0]


def test_benchmark_json_lists_the_metrics_the_runner_reports():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == (
        [(m[0], m[1]) for m in run.LAYER_METRICS] + [("trace.overhead_frac", "ratio")])
    stats = run.RunStats(latency_s=[0.001] * 2000, cpu_s=[0.001] * 2000,
                         reference_s=[0.02] * 11, segment=[i // 200 for i in range(2000)],
                         pass_size=100)
    reported = run.end_to_end("cli_mix", stats, (0.1, 0.2))
    assert reported["op_p50_ms"][0] == pytest.approx(0.5)  # half the reference speed
    assert reported["ops_per_s"][0] == pytest.approx(2000)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (name, value[1]) for name, value in reported.items()]
