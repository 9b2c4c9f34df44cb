"""Spans around the calls into each layer of the package.

The tracer replaces module attributes with wrappers for the duration of
the traced loop and restores them afterwards.  A name that another module
imported directly (``from .bounds import full_report`` in ``cli``) is
wrapped at every binding, so each call passes exactly one wrapper.

Each wrapped call records a span (name, start, end, parent) in memory.
The spans of one op share that op's root span; at the end of the op they
are folded into per-name totals (calls, wall time, self time = span minus
its children) and dropped, so memory stays flat over a long run.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager
from time import perf_counter

# span name -> the (module, attribute) bindings that reach it
LAYERS = {
    "cli.main": [("cli", "main")],
    "bounds.full_report": [("bounds", "full_report"), ("cli", "full_report")],
    "catalog.validate": [("catalog", "validate"), ("bounds", "validate"),
                         ("extremal", "validate")],
    "catalog.phi_series": [("catalog", "phi_series"), ("extremal", "phi_series")],
    "series.compose": [("series", "compose")],
    "series.mul": [("series", "mul")],
    "extremal.recursion": [("extremal", "k_phi"), ("extremal", "h_phi"),
                           ("cli", "k_phi"), ("cli", "h_phi")],
    "extremal.residual": [("extremal", "residual"), ("cli", "residual")],
    "oracle.maximize": [("oracle", "maximize")],
    "kernels.eval_batch": [("_kernels", "eval_batch")],
    "kernels.polish": [("_kernels", "polish")],
}


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index) of the open op
        self._stack: list[int] = []
        self.calls: dict[str, int] = dict.fromkeys(LAYERS, 0)
        self.wall: dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        self.self_time: dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        self.ops = 0
        self.points = 0  # Schwarz points handed to eval_batch
        self.maximize_calls = 0
        self.polish_wins = 0
        self._sampled_best = self._polished_best = float("-inf")

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            if name == "oracle.maximize":
                self._sampled_best = self._polished_best = float("-inf")
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            self._observe(name, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _observe(self, name: str, result) -> None:
        """Counters measured where the work happens."""
        if name == "kernels.eval_batch":
            self.points += len(result)
            if len(result):
                self._sampled_best = max(self._sampled_best, float(result.max()))
        elif name == "kernels.polish":
            self._polished_best = max(self._polished_best, float(result[0]))
        elif name == "oracle.maximize":
            self.maximize_calls += 1
            self.polish_wins += self._polished_best > self._sampled_best

    @contextmanager
    def op(self):
        """Root span of one op; folds the op's spans into the totals."""
        root = self._open("op")
        try:
            yield
        finally:
            self._close(root)
            child = [0.0] * len(self.spans)
            for name, start, end, parent in self.spans:
                if parent >= 0:
                    child[parent] += end - start
            for (name, start, end, _), inner in zip(self.spans, child):
                if name != "op":
                    self.calls[name] += 1
                    self.wall[name] += end - start
                    self.self_time[name] += end - start - inner
            self.spans.clear()
            self.ops += 1

    # -- patching ----------------------------------------------------------

    @contextmanager
    def installed(self):
        """Wrap every binding in LAYERS; restore the originals on exit."""
        saved = []
        try:
            for name, bindings in LAYERS.items():
                for mod_name, attr in bindings:
                    mod = importlib.import_module(f"toeplitz_bounds.{mod_name}")
                    orig = getattr(mod, attr)
                    saved.append((mod, attr, orig))
                    setattr(mod, attr, self.wrap(name, orig))
            yield self
        finally:
            for mod, attr, orig in reversed(saved):
                setattr(mod, attr, orig)

    # -- results -------------------------------------------------------------

    def per_op(self, name: str, what: str) -> float:
        table = {"calls": self.calls, "ms": self.wall, "self_ms": self.self_time}[what]
        scale = 1 if what == "calls" else 1000.0
        return table[name] * scale / max(1, self.ops)
