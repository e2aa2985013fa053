"""Span tracing of patchdenoise's public functions, from outside the package.

The tracer times calls by rebinding module attributes: every layer module
that holds a traced function (whether it defines it or imported it by name)
gets a wrapper in its place, so the call is intercepted wherever the caller
looks the name up. Leaving the `traced` context restores the originals.

A span records (id, name, start, end, parent, call, thread). Stacks are kept
per thread, so spans opened by the pipeline's worker threads nest correctly;
a span opened at the top of a worker thread has parent 0. `call` is the span
id of the root call in progress (`pipeline.denoise_image` or
`database.build_database`) and ties worker-thread spans to the call that
caused them. Spans stay in memory until `write_spans` is called.
"""

from __future__ import annotations

import contextlib
import itertools
import threading
from collections import namedtuple
from time import perf_counter

from patchdenoise import database, filters, imaging, pipeline

# Layer -> public functions timed on the denoise path. Rules and selections
# that no workload uses (spectrum_penalized, spectrum_lpg) are left out, as
# are metrics/synthetic (outside the timed region) and cli/oracles.
LAYERS = {
    "imaging": ("as_image", "plan_grid", "extract_patch", "aggregate"),
    "database": ("build_database", "knn", "k_smallest", "refine_cross_similarity",
                 "refine_first_pass", "cross_similarity_scores",
                 "first_pass_scores", "compute_weights"),
    "filters": ("PatchEnsemble", "group_sparse_basis", "spectrum_bayes",
                "spectrum_oracle", "spectrum_bm3d_pilot", "apply_filter"),
    "pipeline": ("denoise_image", "denoise_patch"),
}
ROOTS = ("pipeline.denoise_image", "database.build_database")
TRACED = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)
MODULES = {"imaging": imaging, "database": database, "filters": filters,
           "pipeline": pipeline}

Span = namedtuple("Span", "id name start end parent call thread")


class Tracer:
    """In-memory span recorder; `wrap` makes a timed stand-in for a callable."""

    def __init__(self):
        self.spans = []  # Span records, in completion order
        self.ranked = []  # (rows ranked, rows kept) per k_smallest call
        self.call = 0
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        tracer = self
        root = name in ROOTS
        ranks = name == "database.k_smallest"

        def traced(*args, **kwargs):
            stack = tracer._stack()
            span = next(tracer._ids)
            parent = stack[-1] if stack else 0
            opens_call = root and not stack
            if opens_call:
                tracer.call = span
            call = tracer.call
            stack.append(span)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if opens_call:
                    tracer.call = 0
                tracer.spans.append(
                    Span(span, name, start, end, parent, call, threading.get_ident()))
                if ranks:
                    values = args[0] if args else kwargs.get("values")
                    k = args[1] if len(args) > 1 else kwargs.get("k")
                    if values is not None and k is not None:
                        tracer.ranked.append((len(values), min(int(k), len(values))))

        return traced


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Rebind every traced function in every layer module that holds it.

    A function missing from its layer (removed by a later change) is skipped
    and reports zero calls.
    """
    saved = []
    try:
        for name in TRACED:
            layer, attr = name.split(".")
            original = getattr(MODULES[layer], attr, None)
            if original is None:
                continue
            wrapper = tracer.wrap(name, original)
            for module in MODULES.values():
                if getattr(module, attr, None) is original:
                    saved.append((module, attr, original))
                    setattr(module, attr, wrapper)
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def self_times(spans) -> dict:
    """Per-span self time: duration minus the durations of direct children."""
    child_time = {}
    for s in spans:
        if s.parent:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.end - s.start)
    return {s.id: (s.end - s.start) - child_time.get(s.id, 0.0) for s in spans}


def summarize(spans) -> dict:
    """name -> {"calls", "self_s"} summed over the given spans."""
    own = self_times(spans)
    out = {name: {"calls": 0, "self_s": 0.0} for name in TRACED}
    for s in spans:
        row = out[s.name]
        row["calls"] += 1
        row["self_s"] += own[s.id]
    return out


def uncovered(spans, root) -> float:
    """Time inside the root span that no other span of its call covers.

    Spans on every thread count, so a worker busy in a traced function covers
    the interval even while the root's own thread waits on the pool.
    """
    lo, hi = root.start, root.end
    intervals = sorted((max(s.start, lo), min(s.end, hi)) for s in spans
                       if s.call == root.id and s.id != root.id)
    covered, reach = 0.0, lo
    for start, end in intervals:
        if end > reach:
            covered += end - max(start, reach)
            reach = end
    return (hi - lo) - covered


def write_spans(spans, path) -> None:
    """Write spans as CSV, one row per span, in completion order."""
    with open(path, "w", encoding="ascii") as out:
        out.write("id,name,start,end,parent,call,thread\n")
        for s in spans:
            out.write(f"{s.id},{s.name},{s.start:.9f},{s.end:.9f},{s.parent},"
                      f"{s.call},{s.thread}\n")
