#!/usr/bin/env python3
"""bundlesec benchmark: drives ``bundlesec.cli.main`` in-process, one op at a time.

    python3 perfbench/run.py --workload cli_mix --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/``.  One closed-loop client, one process, no threads: each op is one
``bundlesec --json <command> <file>`` invocation on a generated input, timed
from call to return.  Inputs are written from ``--seed`` into a temporary
directory inside the checkout, so the program only sees ``.bundle`` and
``.pres`` files.  A run repeats whole passes over the workload's inputs until
about ``--seconds`` of op time is measured; output checks run between ops,
outside the timed interval.

Times are reported at a fixed machine speed.  The speed of the shared host
drifts by tens of percent over minutes, so a run also times a fixed reference
loop after every SEGMENT_S of op time and scales each op's times by
REFERENCE_S over the mean reference time around it; the lines before the
result give the raw values too.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` makes an
untraced and a traced run of about half the time each and reports the
per-layer metrics of the traced one, plus the tracing overhead.  The last
line of standard output is one JSON object; the lines before it print every
metric by name and unit, the tail percentile with its sample count, and
``failed_ops_frac``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import workloads
from checks import Checker, call_cli
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TMP_PARENT = ROOT / ".perfbench_tmp"

# The tail is reported at a fixed percentile per workload, the highest with at
# least ten samples beyond it when the benchmark was written, so that a faster
# program does not move the tail to a higher percentile.  A run continues until it
# has those samples; one cut short by HARD_LIMIT_S falls back down this ladder.
TAIL_PERCENTILE = {"cli_mix": 99.5, "long_relators": 80.0, "wide": 98.0}
LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)
SETUP_REPEATS = 9
HARD_LIMIT_S = 140.0  # stop starting passes after this much wall time
# Reported times are scaled to a machine on which reference_s() takes 10 ms.
# The reference is timed again after each SEGMENT_S of op time.
REFERENCE_S = 0.010
SEGMENT_S = 0.25


class BenchError(Exception):
    """The benchmark cannot run here; reported without a result line."""


class Terminated(BaseException):
    """Raised on SIGTERM, past the CLI's own exception handling, so that the
    run unwinds through its cleanup."""


def _terminate(signum, frame):
    raise Terminated(signum)


def reference_s() -> float:
    """Wall time of a fixed loop of tuple, dict and integer work, with the
    collector paused so that the program's heap cannot change it."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        acc, table = 0, {}
        for i in range(30000):
            t = (i, i * i, i ^ 7)
            acc += t[1] % 97
            table[i & 1023] = t
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


@dataclass
class RunStats:
    latency_s: List[float] = field(default_factory=list)
    cpu_s: List[float] = field(default_factory=list)
    reference_s: List[float] = field(default_factory=list)
    segment: List[int] = field(default_factory=list)  # per op: references before it, minus 1
    pass_size: int = 0
    failed: int = 0
    wrong: bool = False
    problems: Counter = field(default_factory=Counter)

    @property
    def passes(self) -> int:
        return len(self.latency_s) // self.pass_size

    @property
    def measured_s(self) -> float:
        return sum(self.latency_s)

    def _per_pass(self, values: List[float]) -> List[float]:
        k = self.pass_size
        return [sum(values[i:i + k]) for i in range(0, len(values), k)]

    def scales(self) -> List[float]:
        """Per op, the factor from its times to times at the reference speed,
        from the reference loop timed just before and just after its segment."""
        r = self.reference_s
        return [2 * REFERENCE_S / (r[j] + r[j + 1]) for j in self.segment]

    def at_reference(self, values: List[float]) -> List[float]:
        return [v * f for v, f in zip(values, self.scales())]

    # Rates are medians over passes, so a burst of load from elsewhere on the
    # machine moves them less than a mean over the run would.
    def ops_per_s(self, values: List[float]) -> float:
        return statistics.median(self.pass_size / t for t in self._per_pass(values))

    def s_per_op(self, values: List[float]) -> float:
        return statistics.median(t / self.pass_size for t in self._per_pass(values))


def load_program() -> Callable[[Sequence[str]], int]:
    """The CLI entry point, looked up at each call so the tracer's rebinding applies."""
    if not (SRC / "bundlesec" / "cli.py").is_file():
        raise BenchError(f"no bundlesec sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import bundlesec.cli as cli

    if Path(cli.__file__).resolve().parent.parent != SRC.resolve():
        raise BenchError(f"imported bundlesec from {cli.__file__}, not from {SRC}")
    return lambda argv: cli.main(argv)


def measure_setup() -> Tuple[float, float]:
    """Median wall time for a fresh interpreter to import bundlesec.cli:
    (at the reference speed, raw)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, "-c", "import bundlesec.cli"]
    scaled, raw = [], []
    for i in range(SETUP_REPEATS + 1):
        reference = reference_s()
        start = time.perf_counter()
        subprocess.run(argv, env=env, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        if i:  # the first import may still write bytecode caches
            raw.append(time.perf_counter() - start)
            scaled.append(raw[-1] * REFERENCE_S / reference)
    return statistics.median(scaled), statistics.median(raw)


def percentile(sorted_values: Sequence[float], p: float) -> float:
    """Linear interpolation between closest ranks."""
    pos = (len(sorted_values) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail_percentile(workload: str, samples: int) -> float:
    wanted = TAIL_PERCENTILE[workload]
    for p in LADDER:
        if p <= wanted and samples * (100.0 - p) / 100.0 >= 10:
            return p
    return 50.0


def run(ops: List[workloads.Op], main, checker: Checker, seconds: float, started: float,
        tracer: Optional[Tracer] = None, min_ops: int = 0) -> RunStats:
    """Whole passes over `ops` until about `seconds` of op time and `min_ops` ops."""
    stats = RunStats(pass_size=len(ops), reference_s=[reference_s()])
    since_reference = 0.0
    while True:
        before = stats.measured_s
        for op in ops:
            if since_reference >= SEGMENT_S:
                stats.reference_s.append(reference_s())
                since_reference = 0.0
            argv = op.argv
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            outcome = call_cli(main, argv)
            t1 = time.perf_counter()
            cpu1 = time.process_time()
            stats.latency_s.append(t1 - t0)
            stats.cpu_s.append(cpu1 - cpu0)
            stats.segment.append(len(stats.reference_s) - 1)
            since_reference += t1 - t0
            if tracer is not None:
                tracer.flush()
                tracer.active = False
            problems, wrong = checker.check(op, outcome)
            if tracer is not None:
                tracer.active = True
            if problems:
                stats.failed += 1
                stats.wrong = stats.wrong or wrong
                stats.problems[f"{' '.join(argv[1:])}: {problems[0]}"] += 1
        pass_s = stats.measured_s - before
        done = stats.measured_s + pass_s / 2 >= seconds and len(stats.latency_s) >= min_ops
        if done or time.monotonic() - started > HARD_LIMIT_S:
            stats.reference_s.append(reference_s())
            return stats


def end_to_end(workload: str, stats: RunStats, setup: Tuple[float, float]) -> Dict[str, tuple]:
    """(value at the reference speed, unit, note with the raw value) per metric."""
    p = tail_percentile(workload, len(stats.latency_s))

    def latency_ms(values: List[float], q: float) -> float:
        return percentile(sorted(values), q) * 1e3

    lat, cpu = stats.latency_s, stats.cpu_s
    lat_ref, cpu_ref = stats.at_reference(lat), stats.at_reference(cpu)
    beyond = len(lat) - round(len(lat) * p / 100)
    timed = {  # name: (unit, at the reference speed, raw, note)
        "ops_per_s": ("ops/s", stats.ops_per_s(lat_ref), stats.ops_per_s(lat), ""),
        "op_p50_ms": ("ms", latency_ms(lat_ref, 50.0), latency_ms(lat, 50.0), ""),
        "op_tail_ms": ("ms", latency_ms(lat_ref, p), latency_ms(lat, p),
                       f"p{p:g} of {len(lat)} samples, {beyond} beyond; "),
        "cpu_ms_per_op": ("ms", stats.s_per_op(cpu_ref) * 1e3, stats.s_per_op(cpu) * 1e3, ""),
    }
    out = {name: (value, unit, f"{note}raw {raw:.6g}")
           for name, (unit, value, raw, note) in timed.items()}
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out["peak_rss_mb"] = (peak_kb / 1024.0, "MB")
    out["setup_s"] = (setup[0], "s",
                      f"median of {SETUP_REPEATS} fresh imports; raw {setup[1]:.6g}")
    return out


# Per-layer metrics: (name, unit, how, spans read, tracer counter).  how is
# "ms" (inclusive span time per op), "self" (self time per op), "calls" (calls
# per op), "per_op" (counter per op) or "max" (largest counter value).
LAYER_METRICS: Tuple[Tuple[str, str, str, Tuple[str, ...], str], ...] = (
    ("cli.self_ms_per_op", "ms", "self", ("cli.main",), ""),
    ("specfile.parse_ms_per_op", "ms", "ms", (
        "specfile.parse_bundle_file", "specfile.BundleFile.to_spec",
        "specfile.BundleFile.torus_action"), ""),
    ("words.parse_presentation.ms_per_op", "ms", "ms", ("words.parse_presentation",), ""),
    ("words.abelianization.ms_per_op", "ms", "ms", ("words.abelianization",), ""),
    ("words.max_relator_letters", "letters", "max", ("words.abelianization",),
     "max_relator_letters"),
    ("groupring.fox_derivative.calls_per_op", "count", "calls", ("groupring.fox_derivative",), ""),
    ("groupring.evaluate_linear.ms_per_op", "ms", "ms", ("groupring.evaluate_linear",), ""),
    ("groupring.evaluate_affine.ms_per_op", "ms", "ms", ("groupring.evaluate_affine",), ""),
    ("groupring.letters_evaluated_per_op", "letters", "per_op", (
        "groupring.LinearRep.evaluate_word", "groupring.evaluate_affine"), "letters_evaluated"),
    ("extensions.s_of_r.ms_per_op", "ms", "ms", ("extensions.s_of_r",), ""),
    ("extensions.jw_submodule.ms_per_op", "ms", "ms", ("extensions.jw_submodule",), ""),
    ("extensions.obstruction_class.self_ms_per_op", "ms", "self",
     ("extensions.obstruction_class",), ""),
    ("extensions.lemma2_check.ms_per_op", "ms", "ms", ("extensions.lemma2_check",), ""),
    ("extensions.semidirect_presentation.ms_per_op", "ms", "ms",
     ("extensions.semidirect_presentation",), ""),
    ("extensions.h1_h2_base.ms_per_op", "ms", "ms", ("extensions.h1_h2_base",), ""),
    ("zlinalg.smith_normal_form.calls_per_op", "count", "calls",
     ("zlinalg.smith_normal_form",), ""),
    ("zlinalg.smith_normal_form.ms_per_op", "ms", "ms", ("zlinalg.smith_normal_form",), ""),
    ("zlinalg.inverse_unimodular.calls_per_op", "count", "calls",
     ("zlinalg.IntMatrix.inverse_unimodular",), ""),
    ("zlinalg.determinant.calls_per_op", "count", "calls", ("zlinalg.IntMatrix.determinant",), ""),
    ("zlinalg.snf_max_bits", "bits", "max", ("zlinalg.smith_normal_form",), "snf_max_bits"),
    ("zlinalg.snf_max_cells", "cells", "max", ("zlinalg.smith_normal_form",), "snf_max_cells"),
    ("zlinalg.cokernel.ms_per_op", "ms", "ms", ("zlinalg.cokernel",), ""),
    ("zlinalg.kernel_basis.ms_per_op", "ms", "ms", ("zlinalg.kernel_basis",), ""),
    ("zlinalg.solve.ms_per_op", "ms", "ms", ("zlinalg.solve",), ""),
    ("transgression.transgress.ms_per_op", "ms", "ms", ("transgression.transgress",), ""),
    ("transgression.xi_star.ms_per_op", "ms", "ms", ("transgression.xi_star",), ""),
    ("transgression.laurent_divide.calls_per_op", "count", "calls",
     ("transgression.laurent_divide",), ""),
    ("mcg.self_ms_per_op", "ms", "self", ("mcg.*",), ""),
)


def per_layer(tracer: Tracer, ops: int, untraced: RunStats, traced: RunStats) -> Dict[str, tuple]:
    """Per-layer metrics of the traced run; a metric whose functions are all gone is left out."""
    out: Dict[str, tuple] = {}
    scale = statistics.median(traced.scales())

    def total(table: Dict[str, float], spans: Tuple[str, ...]) -> float:
        return sum(v for n, v in table.items() if n in spans
                   or any(s.endswith(".*") and n.startswith(s[:-1]) for s in spans))

    for metric, unit, how, spans, counter in LAYER_METRICS:
        if all(s in tracer.absent for s in spans) or counter in tracer.broken_counters:
            continue
        if how == "ms":
            value = total(tracer.inclusive, spans) * 1e3 / ops * scale
        elif how == "self":
            value = total(tracer.self_time, spans) * 1e3 / ops * scale
        elif how == "calls":
            value = total(tracer.calls, spans) / ops
        elif how == "per_op":
            value = tracer.counters[counter] / ops
        else:
            value = tracer.counters[counter]
        out[metric] = (value, unit)
    out["trace.overhead_frac"] = (
        untraced.ops_per_s(untraced.at_reference(untraced.latency_s))
        / traced.ops_per_s(traced.at_reference(traced.latency_s)) - 1.0, "ratio")
    return out


def print_report(title: str, metrics: Dict[str, tuple]) -> None:
    print(title)
    for name, (value, unit, *note) in metrics.items():
        print(f"  {name:48s} {value:14.6g} {unit}" + (f"  ({note[0]})" if note else ""))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    signal.signal(signal.SIGTERM, _terminate)
    try:
        cli_main = load_program()
        setup = measure_setup() if args.trace == 0 else None
    except (BenchError, ImportError, subprocess.CalledProcessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    TMP_PARENT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP_PARENT))
    cwd = Path.cwd()
    try:
        ops = workloads.build(args.workload, args.seed, workdir, ROOT / "specs")
        os.chdir(workdir)
        checker = Checker(cli_main)
        for op in {op.command: op for op in reversed(ops)}.values():
            call_cli(cli_main, op.argv)  # warm-up: one untimed op per command
        if args.trace == 0:
            # enough samples that ten lie beyond the workload's tail percentile
            min_ops = math.ceil(10 / (1 - TAIL_PERCENTILE[args.workload] / 100))
            runs = [run(ops, cli_main, checker, args.seconds, started, min_ops=min_ops)]
            metrics = end_to_end(args.workload, runs[0], setup)
        else:
            half = args.seconds / 2
            untraced = run(ops, cli_main, checker, half, started)
            tracer = Tracer()
            tracer.install()
            try:
                traced = run(ops, cli_main, checker, half, started, tracer)
            finally:
                tracer.restore()
            runs = [untraced, traced]
            metrics = per_layer(tracer, len(traced.latency_s), untraced, traced)
            if tracer.absent or tracer.broken_counters:
                print("absent (not at this commit): "
                      + ", ".join(sorted(tracer.absent | tracer.broken_counters)))
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            TMP_PARENT.rmdir()
        except OSError:
            pass  # another run still uses it

    attempted = sum(len(r.latency_s) for r in runs)
    failed = sum(r.failed for r in runs)
    print(f"workload {args.workload}, seed {args.seed}: "
          + "; ".join(f"{len(r.latency_s)} ops in {r.passes} passes of {len(ops)}, "
                      f"{r.measured_s:.2f} s measured, times x{statistics.median(r.scales()):.4f}"
                      " to the reference speed" for r in runs))
    print_report("end-to-end (untraced)" if args.trace == 0 else "per-layer (traced run)",
                 metrics)
    print(f"  {'failed_ops_frac':48s} {failed / attempted:14.6g} ratio  "
          f"({failed} of {attempted} ops failed their checks)")
    problems = sum((r.problems for r in runs), Counter())
    for text, count in problems.most_common(5):
        print(f"  failure x{count}: {text}")
    print(json.dumps({
        "correct": not any(r.wrong for r in runs),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, *_) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Terminated:
        sys.exit(128 + signal.SIGTERM)
