"""Spans around chowstab's layer boundaries, installed from outside.

A boundary is a function attribute replaced, for the traced pass only, by a
wrapper that records one span per call: name, start, end, parent span and
op id.  Each boundary is patched where its caller looks it up (for example
``chowstab.stability.solve_standard_lp``, the name ``lp_membership_maxmin``
calls), so every call through that lookup is seen.  Spans stay in flat
arrays in memory and are written out after the pass; self times are
derived from them afterwards: a span's duration minus the durations of its
direct children, which nest because everything runs in one thread.

``fields`` gets no boundary: its work is Fraction / PrimeFieldElem operator
calls inside every other layer, and wrapping those would distort what is
measured.
"""

from __future__ import annotations

import functools
import time
from array import array
from dataclasses import dataclass
from typing import Callable, Optional

from chowstab import cli, cycles, discriminants, poly, simplex, stability, \
    thresholds
from chowstab.poly import Poly


@dataclass(frozen=True)
class Boundary:
    layer: str  # metric prefix
    owner: object  # module or class whose attribute is patched
    attr: str
    observe: Optional[Callable] = None  # (counters, args, result) -> None


def _observe_lp(counters, args, result):
    rows, _rhs, cost = args
    counters["simplex.cells"] += len(rows) * len(cost)
    if result[0] == simplex.INFEASIBLE:
        counters["simplex.infeasible"] += 1


def _observe_search(counters, args, cert):
    used = cert.search_budget_used
    counters["stability.candidates_enumerated"] += used.candidates_enumerated
    counters["stability.candidates_tested"] += used.candidates_tested
    counters["stability.lp_calls"] += used.lp_calls


BOUNDARIES = (
    Boundary("cli", cli, "run"),
    Boundary("poly.parse", cli, "parse_poly"),
    Boundary("stability.torus", cli, "torus_certificate"),
    Boundary("stability.verify", stability, "min_inner_product"),
    Boundary("simplex", stability, "solve_standard_lp", _observe_lp),
    Boundary("stability.search", stability, "destab_search", _observe_search),
    Boundary("poly.apply_matrix", stability, "apply_matrix"),
    Boundary("poly.matrix_det", poly, "matrix_det"),
    Boundary("poly.subs", Poly, "subs"),
    Boundary("poly.mul", Poly, "__mul__"),
    Boundary("poly.exact_div", Poly, "exact_div"),
    Boundary("discriminants.discriminant", discriminants,
             "discriminant_binary"),
    Boundary("discriminants.bareiss", discriminants, "bareiss_det"),
    Boundary("discriminants.smoothness", discriminants, "smoothness_binary"),
    Boundary("discriminants.singular_points", discriminants,
             "singular_locus_enumerate"),
    Boundary("thresholds.fpt_nu", thresholds, "fpt_nu"),
    Boundary("thresholds.lct_optimize", thresholds, "lct_bound_optimize"),
    Boundary("cycles.multiple", cycles, "multiple_cycle"),
)

COUNTERS = ("simplex.cells", "simplex.infeasible",
            "stability.candidates_enumerated", "stability.candidates_tested",
            "stability.lp_calls")

OP = "unattributed"  # the op span itself: time outside every boundary


def metric_names() -> list:
    """Every per-layer metric the traced run prints, with its unit."""
    names = []
    for b in BOUNDARIES:
        names += [(f"{b.layer}.calls", "count"), (f"{b.layer}.self_ms", "ms")]
    names += [(f"{OP}.self_ms", "ms"),
              ("simplex.cells_mean", "cells"), ("simplex.infeasible", "count"),
              ("stability.candidates_enumerated", "count"),
              ("stability.candidates_tested", "count"),
              ("stability.lp_calls", "count"),
              ("stability.lp_per_candidate", "ratio"),
              ("trace.spans", "count"),
              ("trace.untraced_ops_per_s", "ops/s"),
              ("trace.traced_ops_per_s", "ops/s"),
              ("trace.overhead_frac", "ratio")]
    return names


class Tracer:
    """Span recorder; ``install`` before the traced pass, ``uninstall``
    after it (in a ``finally``)."""

    def __init__(self):
        self.layers = [OP] + [b.layer for b in BOUNDARIES]
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.stack: list = []
        self.current_op = -1
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._saved: list = []

    def _open(self, name: int) -> int:
        sid = len(self.start)
        self.start.append(0.0)
        self.end.append(0.0)
        self.name.append(name)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.current_op)
        self.stack.append(sid)
        return sid

    def _close(self, sid: int, t0: float, t1: float):
        self.stack.pop()
        self.start[sid] = t0
        self.end[sid] = t1

    def run_op(self, op_id: int, call):
        """Run one op inside its own span and return its output."""
        self.current_op = op_id
        sid = self._open(0)
        t0 = time.perf_counter()
        try:
            return call()
        finally:
            self._close(sid, t0, time.perf_counter())

    def _wrap(self, name: int, fn, observe):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer._open(name)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid, t0, time.perf_counter())
            if observe is not None:
                observe(tracer.counters, args, result)
            return result

        return wrapper

    def install(self):
        for i, b in enumerate(BOUNDARIES, start=1):
            original = vars(b.owner)[b.attr]
            self._saved.append((b.owner, b.attr, original))
            setattr(b.owner, b.attr, self._wrap(i, original, b.observe))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def layer_metrics(self) -> dict:
        """Calls and self milliseconds per layer, plus derived counters."""
        n = len(self.start)
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        calls = dict.fromkeys(self.layers, 0)
        self_s = dict.fromkeys(self.layers, 0.0)
        for i in range(n):
            layer = self.layers[self.name[i]]
            calls[layer] += 1
            self_s[layer] += self.end[i] - self.start[i] - covered[i]
        out = {}
        for layer in self.layers[1:]:
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.self_ms"] = self_s[layer] * 1000
        out[f"{OP}.self_ms"] = self_s[OP] * 1000
        c = self.counters
        lp = calls["simplex"]
        out["simplex.cells_mean"] = c["simplex.cells"] / lp if lp else 0
        out["simplex.infeasible"] = c["simplex.infeasible"]
        for key in ("stability.candidates_enumerated",
                    "stability.candidates_tested", "stability.lp_calls"):
            out[key] = c[key]
        enumerated = c["stability.candidates_enumerated"]
        out["stability.lp_per_candidate"] = (
            c["stability.lp_calls"] / enumerated if enumerated else 0)
        out["trace.spans"] = n
        return out

    def write(self, path):
        """Dump the spans as CSV: id,name,start_s,end_s,parent,op."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start_s,end_s,parent,op\n")
            for i in range(len(self.start)):
                fh.write(f"{i},{self.layers[self.name[i]]},{self.start[i]:.9f},"
                         f"{self.end[i]:.9f},{self.parent[i]},{self.op[i]}\n")
