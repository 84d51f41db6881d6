"""Spans and counts around the package's public functions, for the traced run.

A wrap point names a function by the module that defines it.  Installing a
tracer replaces that function in every loaded ``craft`` module that holds it,
under whatever name, so a call made through ``from .network import
forward_batch`` is seen as well as one made through ``craft.network``.  Each
wrapper records a span: its inclusive time, and its self time, which is the
inclusive time minus the time of the spans it directly encloses.  Spans are
folded into per-name totals as they close rather than kept one by one.

A wrap point whose function no longer exists (a refactor removed it) is
listed in ``Tracer.absent`` and otherwise ignored.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

_MARK = "__bench_traced__"


def _rows(args, kwargs, result):
    """Rows of the feature matrix, the second argument of forward_batch and backward."""
    x = args[1] if len(args) > 1 else kwargs["X"]
    return "rows", len(x)


def _entries(args, kwargs, result):
    """Rows times candidate bins scored by joint_log_scores."""
    grid = args[1] if len(args) > 1 else kwargs["grid"]
    return "entries", result.shape[0] * grid.count


def _em_iters(args, kwargs, result):
    return "iters", len(result.loglik_path)


class WrapPoint(NamedTuple):
    span: str
    module: str
    attr: str
    count: Callable | None = None


WRAP_POINTS = (
    WrapPoint("network.forward_batch", "craft.network", "forward_batch", _rows),
    WrapPoint("network.backward", "craft.network", "backward", _rows),
    WrapPoint("network.adam_step", "craft.network", "adam_step"),
    WrapPoint("network.save_checkpoint", "craft.network", "save_checkpoint"),
    WrapPoint("network.load_checkpoint", "craft.network", "load_checkpoint"),
    WrapPoint("priors.prior_log_density", "craft.priors", "prior_log_density"),
    WrapPoint("priors.em_fit", "craft.priors", "em_fit", _em_iters),
    WrapPoint("engine.joint_log_scores", "craft.engine", "joint_log_scores", _entries),
    WrapPoint("engine.craft_loss_and_grad", "craft.engine", "craft_loss_and_grad"),
    WrapPoint("engine.fit", "craft.engine", "fit_craft"),
    WrapPoint("engine.fit", "craft.engine", "fit_tl"),
    WrapPoint("data.stratified_label_mask", "craft.data", "stratified_label_mask"),
    WrapPoint("data.apply_scaler", "craft.data", "apply_scaler"),
    WrapPoint("data.load_csv", "craft.data", "load_csv"),
    WrapPoint("data.write_csv", "craft.data", "write_csv"),
    WrapPoint("data.generate_synthetic", "craft.data", "generate_synthetic"),
    WrapPoint("metrics.evaluate", "craft.metrics", "evaluate"),
    WrapPoint("harness.adapt_in_memory", "craft.harness", "adapt_in_memory"),
    WrapPoint("harness.run_sweep", "craft.harness", "run_sweep"),
    WrapPoint("harness.train_source_in_memory", "craft.harness", "train_source_in_memory"),
)


@dataclass
class SpanStats:
    calls: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0
    counts: dict = field(default_factory=dict)


def _craft_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "craft" or name.startswith("craft."))]


def assert_clean() -> None:
    """Raise if any ``craft`` module still holds a tracing wrapper."""
    for module in _craft_modules():
        for name, value in vars(module).items():
            if getattr(value, _MARK, False):
                raise RuntimeError(f"tracing wrapper left on {module.__name__}.{name}")


class Tracer:
    """Per-span totals, collected while :meth:`installed` is active."""

    def __init__(self, points=WRAP_POINTS):
        self.points = points
        self.stats: dict[str, SpanStats] = {}
        self.absent: list[str] = []
        self._stack: list[list[float]] = []

    def stat(self, span: str) -> SpanStats:
        return self.stats.get(span) or SpanStats()

    def _wrap(self, span: str, fn, count):
        stack = self._stack
        stats = self.stats.setdefault(span, SpanStats())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [time.perf_counter(), 0.0]  # start, time covered by child spans
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                elapsed = time.perf_counter() - frame[0]
                if stack:
                    stack[-1][1] += elapsed
                stats.calls += 1
                stats.seconds += elapsed
                stats.self_seconds += elapsed - frame[1]
            if count is not None:
                key, amount = count(args, kwargs, result)
                stats.counts[key] = stats.counts.get(key, 0) + amount
            return result

        setattr(wrapper, _MARK, True)
        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every present wrap point for the duration of the block."""
        patched = []
        absent = []
        try:
            for point in self.points:
                module = importlib.import_module(point.module)
                original = getattr(module, point.attr, None)
                if original is None:
                    absent.append(f"{point.module}.{point.attr}")
                    continue
                wrapper = self._wrap(point.span, original, point.count)
                for holder in _craft_modules():
                    for name, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, name, wrapper)
                            patched.append((holder, name, original))
            self.absent = absent
            yield self
        finally:
            for holder, name, original in reversed(patched):
                setattr(holder, name, original)
