"""Span recorder for the traced benchmark run.

Each traced public function of the package is rebound, at every module
attribute of ``gdofic`` that refers to it, to a wrapper that records one span
per call: name, start, end, parent span and op id.  Spans stay in memory and
are written out when the run ends.  Private helpers are not traced, so their
cost shows up as self time of the public function that calls them.
"""

from __future__ import annotations

import csv
import importlib
import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Tuple

# Layer module -> traced public functions.  The names double as the
# per-layer metric prefixes ("core_math.f.calls", "region.contains.self_s").
TRACED: Dict[str, Tuple[str, ...]] = {
    "core_math": ("f", "g", "rat"),
    "region": ("region_bounds", "build_region", "region_of", "contains",
               "symmetric_gdof", "sweep_alpha", "regions_equal"),
    "hk_scheme": ("split_solver", "split_constraints", "sample_instance",
                  "covariances", "stream_decomposition"),
    "finite_snr": ("sample_channel", "tin_rates", "mac_sum_rate",
                   "estimate_slope"),
    "cli": ("main",),
    "svg": ("region_svg", "curve_svg"),
}

# Called so often that a span each would dominate the trace; only counted.
COUNT_ONLY = frozenset({"core_math.rat"})

OP_SPAN = "op"


class Tracer:
    """Records spans while ``enabled``; the benchmark switches it off around
    its own correctness checks so they never show up in the layer counts."""

    def __init__(self) -> None:
        self.names: List[str] = [OP_SPAN]
        self.spans: List[Tuple[int, int, int, int, int]] = []
        self.counts: Counter = Counter()
        self.trues: Counter = Counter()
        self.raised: Counter = Counter()
        self.op_id = -1
        self.enabled = False
        self._stack: List[int] = []
        self._undo: List[Tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn: Callable) -> Callable:
        if name in COUNT_ONLY:
            def counted(*args, **kwargs):
                if self.enabled:
                    self.counts[name] += 1
                return fn(*args, **kwargs)
            return counted

        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            self.counts[name] += 1
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.raised[name] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent, self.op_id)
            if result is True:
                self.trues[name] += 1
            return result

        traced.__wrapped__ = fn
        return traced

    def run_op(self, op_id: int, fn: Callable, *args):
        """Run one benchmark op under a root span carrying its op id."""
        self.op_id = op_id
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[index] = (0, start, end, -1, op_id)

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        """Rebind every traced function wherever a ``gdofic`` module holds it."""
        for layer in TRACED:
            importlib.import_module(f"gdofic.{layer}")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "gdofic" or n.startswith("gdofic."))]
        for layer, funcs in TRACED.items():
            home = importlib.import_module(f"gdofic.{layer}")
            for func in funcs:
                original = getattr(home, func)
                wrapper = self._wrap(f"{layer}.{func}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._undo.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    # -- reading -----------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Seconds per span name: duration minus the time its children cover."""
        child = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total: Counter = Counter()
        for i, (name_id, start, end, _, _) in enumerate(self.spans):
            total[self.names[name_id]] += end - start - child[i]
        return {name: ns / 1e9 for name, ns in total.items()}

    def dump(self, path: str) -> None:
        """Write one CSV row per span: id, name, start_ns, end_ns, parent, op."""
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("id", "name", "start_ns", "end_ns", "parent", "op"))
            for i, (name_id, start, end, parent, op) in enumerate(self.spans):
                out.writerow((i, self.names[name_id], start, end, parent, op))
