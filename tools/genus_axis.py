"""Time the linear-algebra layers of bundlesec along the genus axis.

    python3 tools/genus_axis.py [CHECKOUT] [--repeat N]

For each (g, m) in GRID the input is the genus-g surface base with one
relator and a rank-m hyperbolic module from
``tests/test_h1_h2_differential._random_module`` (``random.Random(7)``, so
every checkout gets the same matrices).  Each cell is the best of N
in-process calls, in ms:

* ``LinearRep``: building the module from its matrices, which inverts them;
* the Fox pass: building ``extensions.BaseComplex``, the base's cochain
  complex, whose constructor makes theta(r) and the block row B_r;
* the Smith forms of delta1 (m|X| x m, the blocks theta(x) - I stacked), of
  its transpose delta1^T (m x m|X|, the blocks (theta(x) - I)^T side by
  side; both have the same pivots) and of delta2 (the B_r stacked,
  m x m|X| for one relator);
* ``h1_h2_base``, which does all of the above and the delta2 . delta1 check;
* ``obstruction_class`` on a torus spec with zero translations, each call on
  a fresh spec, so that its Fox pass is counted;
* ``lemma2_check`` with the offsets -m/2, ..., m/2 - 1 on the relator.

bundlesec is imported from CHECKOUT's ``src/`` (by default the checkout that
holds this script), and the module generator from this checkout's ``tests/``,
so one copy of the script times any checkout.  The table is printed in
markdown.  It measures and does not gate.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from pathlib import Path
from typing import Callable, Sequence

ROOT = Path(__file__).resolve().parent.parent
GRID = ((5, 8), (8, 12), (12, 16))
SEED = 7
COLUMNS = ("LinearRep", "Fox pass", "Smith δ1", "Smith δ1ᵀ", "Smith δ2", "h1_h2_base",
           "obstruction_class", "lemma 2")


def _best_ms(call: Callable[[], object], repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def _row(g: int, m: int, repeat: int) -> list:
    from bundlesec import extensions
    from bundlesec.groupring import LinearRep
    from bundlesec.zlinalg import smith_normal_form
    from test_h1_h2_differential import _random_module, _surface

    base = _surface(g)
    module = _random_module(random.Random(SEED), base, g, m, "hyperbolic")
    gens = base.generators
    mats = [module.matrix(x) for x in gens]
    # (theta(x) - I)^T = theta(x)^T - I, so delta1^T is the action block of the transposes
    d1t = extensions._action_block(m, [mat.transpose() for mat in mats])
    d1 = d1t.transpose()
    d2 = extensions.BaseComplex(base, module).delta2
    zero = {x: (0,) * m for x in gens}
    specs = iter([extensions.TorusBundleSpec(base, module, zero) for _ in range(repeat)])
    offsets = [tuple(range(-(m // 2), m - m // 2))]
    calls = (
        lambda: LinearRep(module.assignment, m),
        lambda: extensions.BaseComplex(base, module),
        lambda: smith_normal_form(d1),
        lambda: smith_normal_form(d1t),
        lambda: smith_normal_form(d2),
        lambda: extensions.h1_h2_base(base, module),
        lambda: extensions.obstruction_class(next(specs)),
        lambda: extensions.lemma2_check(base, module, offsets),
    )
    return [_best_ms(call, repeat) for call in calls]


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", type=Path, nargs="?", default=ROOT,
                        help="the checkout whose src/ is timed (default: this one)")
    parser.add_argument("--repeat", type=int, default=5, help="calls per cell; the best is shown")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    sys.dont_write_bytecode = True  # leave no cache in either checkout
    sys.path[:0] = [str(args.checkout.resolve() / "src"), str(ROOT / "tests")]

    print(f"best of {args.repeat}, ms; bundlesec from {args.checkout.resolve() / 'src'}")
    print("| g, m | " + " | ".join(COLUMNS) + " |")
    print("|---" * (len(COLUMNS) + 1) + "|")
    for g, m in GRID:
        cells = " | ".join(f"{ms:.2f}" for ms in _row(g, m, args.repeat))
        print(f"| {g}, {m} | {cells} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
