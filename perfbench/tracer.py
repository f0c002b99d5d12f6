"""Run one ``wmsdspace.cli.main(argv)`` in this process, traced or not.

Usage::

    python tracer.py OUT_PREFIX {traced|plain} -- CLI_ARGS...

The package is wrapped from outside: every public function of each
``wmsdspace`` module, plus ``DecisionMatrix.from_rows``, is replaced by
a wrapper in every module namespace that holds the same function object.
Each call records one span (function, start, end, parent span) in a flat
in-memory array; the array and a small JSON summary are written once,
after ``main`` returns.  A module or function missing from the package
is skipped, so the benchmark reports its metrics as absent instead of
failing.  ``plain`` runs ``main`` with no
wrappers, to measure what the trace itself costs.

Before tracing, :func:`span_cost` times wrapped calls of a no-op, so the
benchmark can take the wrapper's own cost out of the self times.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import time
from array import array

LAYERS = ("cli", "model", "spaces", "wmsd", "aggregate", "geometry", "render")

# Counters read from return values at the span boundary.
COUNTERS = {
    "model.DecisionMatrix.from_rows": {"model.rows": lambda r: r.m},
    "aggregate.compare_rankings":
        {"aggregate.reversals": lambda r: len(r.reversals)},
    "geometry.vertex_images": {"geometry.vertex_rows": len},
    "render.field_cells": {"render.field_cells": len},
    "render.render_wmsd_plot":
        {"render.svg_bytes": lambda r: len(r.encode())},
    "render.render_panel_grid":
        {"render.svg_bytes": lambda r: len(r.encode())},
    "render.render_overlay": {"render.svg_bytes": lambda r: len(r.encode())},
}
# Largest value seen, not a sum.
MAXIMA = {
    "model.DecisionMatrix.from_rows": {"model.criteria": lambda r: r.n},
    "cli.parse_config": {"model.n_p": lambda r: r.weight_vector.n_p},
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans = array("q")  # name, start_ns, end_ns, parent index
        self.stack = [-1]
        self.counts: dict[str, int] = {}

    def wrap(self, name: str, fn):
        idx = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        sums = COUNTERS.get(name, {})
        maxima = MAXIMA.get(name, {})
        counts = self.counts
        for key in (*sums, *maxima):
            counts.setdefault(key, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            me = len(spans) >> 2
            spans.extend((idx, 0, 0, stack[-1]))
            stack.append(me)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[4 * me + 1] = t0
                spans[4 * me + 2] = t1
            try:
                for key, f in sums.items():
                    counts[key] += f(result)
                for key, f in maxima.items():
                    counts[key] = max(counts[key], f(result))
            except (AttributeError, TypeError):
                counts["trace.unreadable_counters"] = 1
            return result

        return wrapper


def span_cost(calls: int = 10_000, reps: int = 5) -> tuple[int, int]:
    """Median cost in ns that one wrapped call adds (outside, inside).

    ``outside`` is the part before ``t0`` and after ``t1``, which lands in
    the caller's self time; ``inside`` is the part within ``[t0, t1]``,
    which lands in the span's own self time.  The probe is a no-op taking
    two positional arguments, as most package functions do.
    """
    def noop(a, b):
        return None

    clock = time.perf_counter_ns
    outside, inside = [], []
    for _ in range(reps):
        tracer = Tracer()
        wrapped = tracer.wrap("noop", noop)
        t0 = clock()
        for _ in range(calls):
            pass
        t1 = clock()
        for _ in range(calls):
            noop(1, 2)
        t2 = clock()
        for _ in range(calls):
            wrapped(1, 2)
        t3 = clock()
        spans = tracer.spans
        dur = sum(spans[2::4]) - sum(spans[1::4])
        loop, plain, traced = t1 - t0, t2 - t1, t3 - t2
        outside.append(max(traced - loop - dur, 0) / calls)
        inside.append(max(dur - (plain - loop), 0) / calls)
    return (round(statistics.median(outside)),
            round(statistics.median(inside)))


def _public_functions(mod):
    for attr, obj in vars(mod).items():
        if (inspect.isfunction(obj) and not attr.startswith("_")
                and obj.__module__ == mod.__name__):
            yield attr, obj


def install(tracer: Tracer, modules: dict) -> None:
    """Wrap every public function wherever the package refers to it."""
    namespaces = [m for k, m in sys.modules.items()
                  if k == "wmsdspace" or k.startswith("wmsdspace.")]
    for layer, mod in modules.items():
        for attr, fn in list(_public_functions(mod)):
            wrapped = tracer.wrap(f"{layer}.{attr}", fn)
            for ns in namespaces:
                for key, val in list(vars(ns).items()):
                    if val is fn:
                        setattr(ns, key, wrapped)
    dm = getattr(modules.get("model"), "DecisionMatrix", None)
    from_rows = vars(dm).get("from_rows") if dm is not None else None
    if isinstance(from_rows, classmethod):
        dm.from_rows = classmethod(tracer.wrap(
            "model.DecisionMatrix.from_rows", from_rows.__func__))


def main(argv: list[str]) -> int:
    prefix, mode = argv[0], argv[1]
    cli_args = argv[argv.index("--") + 1:]
    modules = {}
    for layer in LAYERS:
        try:
            modules[layer] = importlib.import_module(f"wmsdspace.{layer}")
        except ImportError:  # a deleted module; its metrics read absent
            pass
    cli = modules["cli"]
    tracer = Tracer()
    cost = (0, 0)
    if mode == "traced":
        cost = span_cost()
        install(tracer, modules)
    t0 = time.perf_counter_ns()
    code = cli.main(cli_args)
    t1 = time.perf_counter_ns()
    sys.stdout.flush()
    with open(prefix + ".spans", "wb") as f:
        tracer.spans.tofile(f)
    with open(prefix + ".json", "w", encoding="utf-8") as f:
        json.dump({"code": code, "main_ns": t1 - t0, "names": tracer.names,
                   "counts": tracer.counts, "span_cost_ns": cost}, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
