"""Spans around calls into circleinterp, recorded from the benchmark's side.

``Tracer.install`` wraps each public layer function listed in ``LAYERS``
wherever a circleinterp module holds a reference to it, so calls the
library makes internally (``convergence_sweep`` calling ``eval_interpolant``
on its worker threads, ``cli.main`` calling the transfers) get their own
spans with the right parent.  Nothing in the library changes; ``remove``
puts the original functions back.

A span records its name, start, end, parent, op id, thread, the error class
it raised, its work in (evaluation point, node) pairs where that applies,
and its tracemalloc peak above the allocation level at entry.  Self time is
the span's duration minus the union of its children's intervals.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
import tracemalloc
from dataclasses import asdict, dataclass

import numpy as np


def _eval_pairs(args, kwargs, out):
    return int(np.size(args[1])) * args[0].n


def _conditions_pairs(args, kwargs, out):
    return out.grid_size * out.n


# (module, function) of every traced layer, and how to count its work
LAYERS = {
    ("opuc", "verblunsky_coefficients"): None,
    ("opuc", "szego_recurrence"): None,
    ("opuc", "paraorthogonal_nodes"): None,
    ("nodal", "make_nodal_system"): None,
    ("nodal", "roots_of_unimodular"): None,
    ("nodal", "estimate_conditions"): _conditions_pairs,
    ("interp", "interpolate"): None,
    ("interp", "eval_interpolant"): _eval_pairs,
    ("interp", "interpolant_coefficients"): None,
    ("laurent", "coefficients_from_samples"): None,
    ("transforms", "interval_nodes_from_measure"): None,
    ("transforms", "interval_interpolate"): None,
    ("transforms", "trig_interpolate_symmetric"): None,
    ("transforms", "trig_interpolate_paraorthogonal"): None,
    ("experiments", "convergence_sweep"): None,
    ("cli", "main"): None,
}


def _detail(name, args):
    """The subcommand of a cli.main call; the n count of a sweep."""
    if name == "cli.main" and args and args[0]:
        return str(args[0][0])
    if name == "experiments.convergence_sweep" and len(args) > 2:
        return str(len(args[2]))
    return None


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    op: str | None = None
    thread: int = 0
    error: str | None = None
    pairs: int = 0
    peak_bytes: int = 0
    detail: str | None = None
    _base: int = 0
    _hi: int = 0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op: str | None = None
        self._lock = threading.Lock()
        self._stacks: dict[int, list[Span]] = {}
        self._open: list[Span] = []
        self._main = threading.get_ident()
        self._patched: list[tuple[object, str, object]] = []

    # -- memory peaks: fold the global tracemalloc peak into every open span
    def _fold(self):
        _, peak = tracemalloc.get_traced_memory()
        for s in self._open:
            s._hi = max(s._hi, peak)
        tracemalloc.reset_peak()

    def _begin(self, name: str, detail: str | None) -> Span:
        tid = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(tid, [])
            parent_stack = stack or self._stacks.get(self._main, [])
            self._fold()
            cur, _ = tracemalloc.get_traced_memory()
            span = Span(id=len(self.spans), name=name, start=0.0,
                        parent=parent_stack[-1].id if parent_stack else None,
                        op=self.op, thread=tid, detail=detail, _base=cur, _hi=cur)
            self.spans.append(span)
            stack.append(span)
            self._open.append(span)
        span.start = time.perf_counter()
        return span

    def _end(self, span: Span):
        span.end = time.perf_counter()
        with self._lock:
            self._fold()
            self._open.remove(span)
            self._stacks[span.thread].remove(span)
            span.peak_bytes = span._hi - span._base

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            detail = _detail(name, args)
            span = self._begin(name, detail)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                self._end(span)
            if count is not None:
                span.pairs = count(args, kwargs, out)
            return out
        return traced

    def install(self):
        """Wrap every layer function in every loaded circleinterp module."""
        modules = [m for k, m in sys.modules.items()
                   if k == "circleinterp" or k.startswith("circleinterp.")]
        for (mod_name, fn_name), count in LAYERS.items():
            orig = getattr(sys.modules[f"circleinterp.{mod_name}"], fn_name)
            wrapper = self.wrap(f"{mod_name}.{fn_name}", orig, count)
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        self._patched.append((m, attr, orig))
                        setattr(m, attr, wrapper)
        tracemalloc.start()

    def remove(self):
        tracemalloc.stop()
        for m, attr, orig in reversed(self._patched):
            setattr(m, attr, orig)
        self._patched.clear()

    # -- analysis
    def children(self):
        kids: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                kids.setdefault(s.parent, []).append(s)
        return kids

    def self_times(self) -> dict[int, float]:
        kids = self.children()
        out = {}
        for s in self.spans:
            covered = 0.0
            lo = hi = None
            for a, b in sorted((c.start, c.end) for c in kids.get(s.id, [])):
                if hi is None or a > hi:
                    if hi is not None:
                        covered += hi - lo
                    lo, hi = a, b
                else:
                    hi = max(hi, b)
            if hi is not None:
                covered += hi - lo
            out[s.id] = (s.end - s.start) - covered
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                rec = {k: v for k, v in asdict(s).items() if not k.startswith("_")}
                fh.write(json.dumps(rec, allow_nan=False) + "\n")
