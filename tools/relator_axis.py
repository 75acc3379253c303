"""Time the relator-reading layers of bundlesec along the relator-length axis.

    python3 tools/relator_axis.py [CHECKOUT] [--repeat N]

For each (letters, m) in GRID the input is a torus bundle over the base
< u, v, w | r >, where r is a product of conjugated commutators
p [x^a, y^b] p^-1 of about that many letters (under MAX_RELATOR_LETTERS) and
the action is a rank-m commuting one, the powers of one matrix, so that it
lifts.  Both come from the benchmark's generator, ``perfbench/workloads.py``,
seeded by the grid point, so every checkout gets the same files; the
translations and the offset are small seeded vectors.  Each cell is the
best of N in-process calls, in ms:

* ``_tokenize``: the relator text's tokens;
* ``parse_presentation``: the tokens read into a presentation;
* the Fox pass: building ``extensions.BaseComplex``, the base's cochain
  complex, whose constructor makes theta(r) and the block row B_r;
* the Fox pass's peak, in KiB: the most memory that tracemalloc sees
  allocated at once while one ``BaseComplex`` is built (one call, traced,
  so it does not slow the timed calls);
* ``lemma2_check`` with the file's offset;
* a whole ``--json split-check`` of the file through ``cli.main``, its
  report discarded.

bundlesec is imported from CHECKOUT's ``src/`` (by default the checkout that
holds this script), and the generator from this checkout's ``perfbench/``,
so one copy of the script times any checkout.  The table is printed in
markdown.  It measures and does not gate.
"""

from __future__ import annotations

import argparse
import io
import random
import sys
import tempfile
import time
import tracemalloc
from contextlib import redirect_stdout
from pathlib import Path
from typing import Callable, Sequence

ROOT = Path(__file__).resolve().parent.parent
GRID = tuple((letters, m) for letters in (240, 1000, 7000) for m in (2, 3))
GENS = ("u", "v", "w")
COLUMNS = ("letters", "tokens", "_tokenize", "parse_presentation", "Fox pass",
           "Fox peak KiB", "lemma 2", "split-check")


def _best_ms(call: Callable[[], object], repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def _peak_kib(call: Callable[[], object]) -> float:
    """The peak of tracemalloc's traced memory during one call, in KiB."""
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 1024


def _bundle_text(letters: int, m: int) -> str:
    import workloads

    rng = random.Random(f"relator_axis:{letters}:{m}")
    relator = workloads.conjugated_commutators(rng, GENS, letters)
    action = workloads.commuting_action(rng, GENS, m, "unipotent", powers=(1, -1))
    return workloads.torus_bundle(GENS, [relator], action,
                                  {g: workloads.small_vector(rng, m) for g in GENS},
                                  [workloads.small_vector(rng, m)])


def _row(letters: int, m: int, repeat: int, scratch: Path) -> list:
    from bundlesec import cli, extensions, words
    from bundlesec.specfile import parse_bundle_file

    text = _bundle_text(letters, m)
    path = scratch / f"r{letters}m{m}.bundle"
    path.write_text(text, encoding="utf-8")
    bundle = parse_bundle_file(text)
    spec = bundle.to_spec()
    (relator,) = spec.base.relators
    pres = text.splitlines()[1]

    def split_check():
        with redirect_stdout(io.StringIO()):
            if cli.main(["--json", "split-check", str(path)]) != 0:
                raise RuntimeError(f"split-check of {path.name} failed")

    def fox_pass():
        extensions.BaseComplex(spec.base, spec.coefficients)

    tokenize, parse, fox, lemma2, split = (f"{_best_ms(call, repeat):.3f}" for call in (
        lambda: words._tokenize(pres),
        lambda: words.parse_presentation(pres),
        fox_pass,
        lambda: extensions.lemma2_check(spec.base, spec.coefficients, spec.relator_offsets),
        split_check,
    ))
    return [len(relator.letters), len(words._tokenize(pres)) - 1, tokenize, parse, fox,
            f"{_peak_kib(fox_pass):.1f}", lemma2, split]


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", type=Path, nargs="?", default=ROOT,
                        help="the checkout whose src/ is timed (default: this one)")
    parser.add_argument("--repeat", type=int, default=5, help="calls per cell; the best is shown")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    sys.dont_write_bytecode = True  # leave no cache in either checkout
    sys.path[:0] = [str(args.checkout.resolve() / "src"), str(ROOT / "perfbench")]

    print(f"best of {args.repeat}, ms; bundlesec from {args.checkout.resolve() / 'src'}")
    print("| target letters, m | " + " | ".join(COLUMNS) + " |")
    print("|---" * (len(COLUMNS) + 1) + "|")
    with tempfile.TemporaryDirectory() as scratch:
        for letters, m in GRID:
            cells = " | ".join(map(str, _row(letters, m, args.repeat, Path(scratch))))
            print(f"| {letters}, {m} | {cells} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
