"""In-memory span recorder and the layer wrappers the traced run installs.

A span is ``(trace_id, span_id, parent_id, name, start, end)``; every span
opened while another is open on the same thread becomes its child, and all
spans under one root share the root's trace id (one HTTP request on the
server, one benchmark operation on the client).  Spans stay in memory and
are dumped once, at the end of the run.

Self time is a span's duration minus the time its direct children cover.
Children of one span run on the span's own thread, so they never overlap
and their durations simply add up.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        #: While False, spans are not recorded and counters do not move.
        self.enabled = True

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: float = 1) -> None:
        if not self.enabled:
            return
        with self._lock:
            self.counters[name] += amount

    def high_water(self, name: str, value: float) -> None:
        if not self.enabled:
            return
        with self._lock:
            if value > self.maxima[name]:
                self.maxima[name] = value

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        if not self.enabled:
            return fn(*args, **kwargs)
        stack = self._stack()
        span_id = next(self._ids)
        if stack:
            trace_id, parent_id = stack[-1][0], stack[-1][1]
        else:
            trace_id, parent_id = span_id, None
        stack.append((trace_id, span_id))
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((trace_id, span_id, parent_id, name, start, end))

    def dump(self) -> dict:
        return {
            "spans": list(self.spans),
            "counters": dict(self.counters),
            "maxima": dict(self.maxima),
        }


TRACER = Tracer()


def patch(owner, attr: str, make) -> None:
    """Replace ``owner.attr`` with ``make(original)``.

    ``owner`` is a class, or a module: a module-level function is replaced
    in every ``repro`` module that imported it by name.
    """
    original = getattr(owner, attr)
    replacement = functools.wraps(original)(make(original))
    if isinstance(owner, type):
        setattr(owner, attr, replacement)
        return
    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "")
        if (module is owner or name.startswith("repro")) and getattr(module, attr, None) is original:
            setattr(module, attr, replacement)


def wrap(owner, attr: str, name: str, before=None, after=None) -> None:
    """Run every call of ``owner.attr`` inside a span called ``name``.

    ``before(args, kwargs)`` runs first; ``after(result, args, kwargs)``
    sees the return value.  Both run inside the span.
    """

    def make(original):
        def traced(*args, **kwargs):
            def body():
                if before is not None:
                    before(args, kwargs)
                result = original(*args, **kwargs)
                if after is not None:
                    after(result, args, kwargs)
                return result

            return TRACER.call(name, body)

        return traced

    patch(owner, attr, make)


def on_call(owner, attr: str, hook) -> None:
    """Run ``hook(args, kwargs)`` before every call of ``owner.attr`` (no span)."""

    def make(original):
        def counted(*args, **kwargs):
            if TRACER.enabled:
                hook(args, kwargs)
            return original(*args, **kwargs)

        return counted

    patch(owner, attr, make)


def bundle_stats(data: bytes) -> tuple[int, int]:
    """``(objects, delta records)`` of a serialised bundle, from its headers."""
    marker = data.find(b"\nobjects ")
    if marker < 0:
        return 0, 0
    cursor = marker + 1
    newline = data.index(b"\n", cursor)
    objects = int(data[cursor + len(b"objects "):newline])
    cursor = newline + 1
    deltas = 0
    for _ in range(objects):
        newline = data.index(b"\n", cursor)
        fields = data[cursor:newline].split(b" ")
        if fields[0] == b"delta":
            deltas += 1
        cursor = newline + 1 + int(fields[3])
    return objects, deltas


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def self_times(spans) -> dict[str, list[float]]:
    """Per span name, the self time (seconds) of every span with that name."""
    covered: dict[int, float] = defaultdict(float)
    for _trace, _span, parent, _name, start, end in spans:
        if parent is not None:
            covered[parent] += end - start
    result: dict[str, list[float]] = defaultdict(list)
    for _trace, span_id, _parent, name, start, end in spans:
        result[name].append((end - start) - covered.get(span_id, 0.0))
    return result


def durations(spans) -> dict[str, list[float]]:
    result: dict[str, list[float]] = defaultdict(list)
    for _trace, _span, _parent, name, start, end in spans:
        result[name].append(end - start)
    return result


def write_dump(path: str, tracer: Tracer = TRACER) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(tracer.dump(), handle)
