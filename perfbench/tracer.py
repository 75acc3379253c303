"""Span tracer for the traced benchmark run.

It wraps public bundlesec functions from outside the program: each target is
rebound, in every loaded ``bundlesec.*`` module namespace that holds it (or
on its class, for methods), to a wrapper that records a span (name, start,
end, parent).  ``restore`` puts every original binding back.  A target that
does not exist at the commit under test is listed in ``absent`` and its
metrics are left out rather than failing the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Set, Tuple

# (module, qualified name) of every function the per-layer metrics read.
TARGETS: Tuple[Tuple[str, str], ...] = (
    ("cli", "main"),
    ("specfile", "parse_bundle_file"),
    ("specfile", "BundleFile.to_spec"),
    ("specfile", "BundleFile.torus_action"),
    ("words", "parse_presentation"),
    ("words", "abelianization"),
    ("groupring", "fox_derivative"),
    ("groupring", "evaluate_linear"),
    ("groupring", "evaluate_affine"),
    ("groupring", "LinearRep.evaluate_word"),
    ("extensions", "s_of_r"),
    ("extensions", "jw_submodule"),
    ("extensions", "obstruction_class"),
    ("extensions", "lemma2_check"),
    ("extensions", "semidirect_presentation"),
    ("extensions", "h1_h2_base"),
    ("zlinalg", "smith_normal_form"),
    ("zlinalg", "IntMatrix.inverse_unimodular"),
    ("zlinalg", "IntMatrix.determinant"),
    ("zlinalg", "cokernel"),
    ("zlinalg", "kernel_basis"),
    ("zlinalg", "solve"),
    ("transgression", "transgress"),
    ("transgression", "xi_star"),
    ("transgression", "laurent_divide"),
)

# mcg is measured as a whole: every public function defined in it is a target.
WHOLE_MODULES = ("mcg",)


def _max_bits(matrices) -> int:
    return max((abs(x).bit_length() for m in matrices for row in m.data for x in row),
               default=0)


# Counters read from the arguments before a call (_PRE) or from its result
# (_POST): span name -> (counter, "sum" | "max", reader).
_PRE: Dict[str, Tuple[str, str, Callable]] = {
    "words.abelianization": ("max_relator_letters", "max", lambda args: max(
        (len(r.letters) for r in args[0].relators), default=0)),
    "groupring.LinearRep.evaluate_word": ("letters_evaluated", "sum",
                                          lambda args: len(args[1].letters)),
    "groupring.evaluate_affine": ("letters_evaluated", "sum", lambda args: len(args[0].letters)),
    "zlinalg.smith_normal_form": ("snf_max_cells", "max", lambda args: args[0].rows * args[0].cols),
}
_POST: Dict[str, Tuple[str, str, Callable]] = {
    "zlinalg.smith_normal_form": ("snf_max_bits", "max",
                                  lambda dec: _max_bits((dec.U, dec.D, dec.V))),
}


class Tracer:
    """Records spans around the target functions while installed."""

    def __init__(self) -> None:
        self.active = True  # False while the benchmark checks outputs
        self.absent: Set[str] = set()
        self.broken_counters: Set[str] = set()
        self.calls: Dict[str, int] = defaultdict(int)
        self.inclusive: Dict[str, float] = defaultdict(float)   # outermost spans only
        self.self_time: Dict[str, float] = defaultdict(float)
        self.counters: Dict[str, int] = defaultdict(int)
        # one span per call: (name, start, end, parent index, child coverage, nested)
        self.spans: List[Optional[tuple]] = []
        self._stack: List[int] = []
        self._cover: List[List[float]] = []
        self._depth: Dict[str, int] = defaultdict(int)
        self._bindings: List[Tuple[object, str, object]] = []

    # --- installing and restoring ------------------------------------------

    def install(self) -> None:
        targets = list(TARGETS)
        for module in WHOLE_MODULES:
            try:
                mod = importlib.import_module(f"bundlesec.{module}")
            except ImportError:
                self.absent.add(f"{module}.*")
                continue
            targets += [(module, name) for name, obj in sorted(vars(mod).items())
                        if inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == mod.__name__]
        for module, qualname in targets:
            self._install_one(module, qualname)

    def _install_one(self, module: str, qualname: str) -> None:
        name = f"{module}.{qualname}"
        try:
            mod = importlib.import_module(f"bundlesec.{module}")
        except ImportError:
            self.absent.add(name)
            return
        owner_name, _, attr = qualname.rpartition(".")
        if owner_name:
            owner = getattr(mod, owner_name, None)
            original = vars(owner).get(attr) if inspect.isclass(owner) else None
            if not inspect.isfunction(original):
                self.absent.add(name)
                return
            self._bind(owner, attr, self._wrap(name, original))
            return
        original = getattr(mod, attr, None)
        if not inspect.isfunction(original):
            self.absent.add(name)
            return
        wrapper = self._wrap(name, original)
        for mod_name, loaded in list(sys.modules.items()):
            if mod_name == "bundlesec" or mod_name.startswith("bundlesec."):
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        self._bind(loaded, key, wrapper)

    def _bind(self, namespace: object, key: str, wrapper: Callable) -> None:
        self._bindings.append((namespace, key, getattr(namespace, key)))
        setattr(namespace, key, wrapper)

    def restore(self) -> None:
        while self._bindings:
            namespace, key, original = self._bindings.pop()
            setattr(namespace, key, original)

    # --- recording -----------------------------------------------------------

    def _wrap(self, name: str, fn: Callable) -> Callable:
        pre, post = _PRE.get(name), _POST.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            return self._call(name, fn, args, kwargs, pre, post)

        return wrapper

    def _count(self, hook: Tuple[str, str, Callable], value) -> None:
        counter, how, read = hook
        try:
            amount = read(value)
        except (AttributeError, TypeError, IndexError, ValueError):
            self.broken_counters.add(counter)  # the traced code changed shape
            return
        if how == "sum":
            self.counters[counter] += amount
        else:
            self.counters[counter] = max(self.counters[counter], amount)

    def _call(self, name, fn, args, kwargs, pre, post):
        entered = time.perf_counter()
        if pre is not None:
            self._count(pre, args)
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        nested = self._depth[name] > 0
        self._depth[name] += 1
        self._stack.append(index)
        cover = [0.0]
        self._cover.append(cover)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._cover.pop()
            self._depth[name] -= 1
            self.spans[index] = (name, start, end, parent, cover[0], nested)
            if self._cover:
                # the hooks and this wrapper are not the parent's own work
                self._cover[-1][0] += time.perf_counter() - entered
        if post is not None:
            post_start = time.perf_counter()
            self._count(post, result)
            if self._cover:
                self._cover[-1][0] += time.perf_counter() - post_start
        return result

    def flush(self) -> None:
        """Fold the spans recorded so far into the per-name totals."""
        for name, start, end, _parent, cover, nested in self.spans:
            self.calls[name] += 1
            self.self_time[name] += (end - start) - cover
            if not nested:
                self.inclusive[name] += end - start
        self.spans.clear()
