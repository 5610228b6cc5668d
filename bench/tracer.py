"""Spans around pushsplit's public functions, installed from outside.

``Tracer.install`` replaces each function in ``LAYERS`` by a wrapper in
every pushsplit module namespace that holds it, so calls made through a
name imported with ``from .exactla import rank_mod as _rank_mod`` are
caught as well as calls through the module attribute.  The program's own
files are not changed.

A span records its layer, duration and parent.  Self time is the duration
minus the durations of the spans it directly encloses.  The wrapper's own
bookkeeping (reading shapes, counting nonzeros) is timed and taken out of
every enclosing span, so the layer self times add up to the time spent
inside ``cli.main``; what is left of the traced wall time is the tracer
and the benchmark loop.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

LAYERS = (
    ("exactla", "rank_mod"),
    ("exactla", "rank_rational"),
    ("polyring", "multiplication_matrix"),
    ("polyring", "parse_form"),
    ("endomorphism", "load_endomorphism"),
    ("endomorphism", "validate_finite"),
    ("splitting", "splitting_from_endo"),
    ("splitting", "splitting_universal"),
    ("varieties", "load_custom_table"),
    ("pullback", "build_pullback_report"),
    ("adjunction", "surface_adjunction"),
    ("cli", "main"),
)
RANK_LAYERS = ("exactla.rank_mod", "exactla.rank_rational")
RANK_OWNERS = ("endomorphism.validate_finite", "splitting.splitting_from_endo")


class _Frame:
    __slots__ = ("layer", "child_s", "overhead_mark", "rank_calls")

    def __init__(self, layer: str, overhead_mark: float):
        self.layer = layer
        self.child_s = 0.0
        self.overhead_mark = overhead_mark
        self.rank_calls = 0


class Tracer:
    def __init__(self):
        self.reset()

    def reset(self) -> None:
        """Forget every span and count recorded so far."""
        self.stack: list[_Frame] = []
        self.overhead_s = 0.0
        self.calls: dict[str, int] = defaultdict(int)
        self.busy_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and
                   (name == "pushsplit" or name.startswith("pushsplit."))]
        for module_name, func_name in LAYERS:
            original = getattr(sys.modules[f"pushsplit.{module_name}"], func_name)
            wrapper = self._wrap(f"{module_name}.{func_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def _wrap(self, layer: str, original):
        def wrapper(*args, **kwargs):
            entered = time.perf_counter()
            frame = _Frame(layer, self.overhead_s)
            self.stack.append(frame)
            start = time.perf_counter()
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self._close(frame, end - start, args, result)
                self.overhead_s += (start - entered) + (time.perf_counter() - end)

        return wrapper

    def _close(self, frame: _Frame, elapsed: float, args, result) -> None:
        layer = frame.layer
        duration = elapsed - (self.overhead_s - frame.overhead_mark)
        self.calls[layer] += 1
        self.self_s[layer] += duration - frame.child_s
        if all(f.layer != layer for f in self.stack):
            self.busy_s[layer] += duration
        if self.stack:
            self.stack[-1].child_s += duration
        if layer in RANK_OWNERS:
            self.counts[f"{layer}.rank_calls"] += frame.rank_calls
        if layer in RANK_LAYERS:
            matrix = args[0]
            self.counts[f"{layer}.cells"] += matrix.rows * matrix.cols
            if layer == "exactla.rank_mod" and \
                    result == min(matrix.rows, matrix.cols):
                self.counts[f"{layer}.full_rank"] += 1
            owner = next((f for f in reversed(self.stack)
                          if f.layer in RANK_OWNERS), None)
            if owner is not None:
                owner.rank_calls += 1
        elif layer == "polyring.multiplication_matrix" and result is not None:
            cells = result.rows * result.cols
            self.counts[f"{layer}.cells"] += cells
            self.counts[f"{layer}.nnz"] += cells - result.entries.count(0)

    def summary(self) -> dict:
        """Counts, busy and self times per layer, as plain JSON data."""
        return {"calls": dict(self.calls), "busy_s": dict(self.busy_s),
                "self_s": dict(self.self_s), "counts": dict(self.counts)}
