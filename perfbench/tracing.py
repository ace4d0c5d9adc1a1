"""Spans around calls into decnum's public functions, recorded from outside.

`installed` swaps every public module-level function of the layer
modules for a recording wrapper, in its defining module and in every
module that bound it by a `from ... import`, and puts the originals
back on exit.  Spans live in memory as [name, start_ns, end_ns,
parent_index, error]; the self time of a span is its duration minus the
part of its interval that its child spans cover.
"""

from __future__ import annotations

import inspect
import sys
import time
from contextlib import contextmanager

NAME, START, END, PARENT, ERROR = range(5)


class Tracer:
    """Collects spans and the counters that result-inspecting hooks add."""

    def __init__(self, hooks=None) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self.hooks = hooks or {}
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        hook = self.hooks.get(name)
        counters = self.counters

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(index)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as e:
                span[ERROR] = type(e).__name__
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if hook is not None:
                hook(counters, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced


def self_times(spans: list[list]) -> list[int]:
    """Per span: duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[int, int]]] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    out = []
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0
        reach = start
        for lo, hi in sorted(children.get(index, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def public_functions(module) -> dict[str, object]:
    """Public functions defined in (not imported into or aliased in) a module."""
    return {
        name: obj for name, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__
        and obj.__name__ == name and not name.startswith("_")
    }


@contextmanager
def installed(tracer: Tracer, package: str, layers: tuple[str, ...], extra=()):
    """Wrap the layers' public functions everywhere they are bound.

    Yields the set of qualified names wrapped.  Every module of the
    package, and each module in `extra`, has each binding of an original
    replaced by its wrapper; on exit every binding is restored.
    """
    originals = {}
    names = set()
    for layer in layers:
        module = sys.modules[f"{package}.{layer}"]
        for name, fn in public_functions(module).items():
            originals[fn] = tracer.wrap(f"{layer}.{name}", fn)
            names.add(f"{layer}.{name}")
    holders = [m for key, m in sorted(sys.modules.items())
               if key == package or key.startswith(package + ".")]
    holders += list(extra)
    patched = []
    try:
        for module in holders:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in originals:
                    setattr(module, attr, originals[value])
                    patched.append((module, attr, value))
        yield names
    finally:
        for module, attr, value in patched:
            setattr(module, attr, value)


def summarize(spans: list[list]) -> dict[str, dict]:
    """Per function: calls, total self time (ns) and raised-exception count."""
    selfs = self_times(spans)
    out: dict[str, dict] = {}
    for span, own in zip(spans, selfs):
        if own < 0 or own > span[END] - span[START]:
            raise AssertionError(f"self time of {span[NAME]} outside its span")
        row = out.setdefault(span[NAME], {"calls": 0, "self_ns": 0, "raised": 0})
        row["calls"] += 1
        row["self_ns"] += own
        row["raised"] += span[ERROR] is not None
    return out


def escaping_errors(spans: list[list], layer: str, error: str) -> int:
    """Spans of `layer` that raised `error` and were not called from that layer."""
    prefix = layer + "."
    count = 0
    for span in spans:
        if span[NAME].startswith(prefix) and span[ERROR] == error:
            parent = span[PARENT]
            if parent < 0 or not spans[parent][NAME].startswith(prefix):
                count += 1
    return count
