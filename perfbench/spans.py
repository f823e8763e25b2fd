"""Spans recorded by the benchmark around each call into the program.

A span has a name (``<layer>.<call>``), a start and an end in
nanoseconds, the index of the span that was open when it began (-1 for
none) and the identifier of the request it belongs to (0 outside any
request). Spans stay in memory and are written once, when the run ends.

A layer's self time is the summed duration of its spans minus the parts
covered by their child spans; it is reported per call of the layer.

In a traced run, top-level requests of each kind alternate between traced
and untraced, so the same run measures what tracing costs. A request
nested in another one shares the tracing state of the outer request.
"""

from __future__ import annotations

import json
import time
import tracemalloc
from contextlib import contextmanager


class Tracer:
    """Span recorder; while ``enabled`` is false every call passes straight through.

    With ``memory`` set (and ``tracemalloc`` tracing) each call also
    records the peak allocation it added, kept per layer in ``peaks``;
    such a tracer traces every request.
    """

    def __init__(self, traced: bool, memory: bool = False):
        self.traced = traced
        self.enabled = traced
        self.memory = memory
        self.spans: list[list] = []
        self.peaks: dict[str, int] = {}
        self._open: list[int] = []
        self._requests = 0
        self._op = 0
        self._depth = 0
        self._kind_counts: dict[str, int] = {}

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name):
            if not self.memory:
                return fn(*args, **kwargs)
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            try:
                return fn(*args, **kwargs)
            finally:
                added = tracemalloc.get_traced_memory()[1] - base
                layer = name.split(".", 1)[0]
                self.peaks[layer] = max(self.peaks.get(layer, 0), added)

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        record = [name, time.perf_counter_ns(), 0, self._open[-1] if self._open else -1, self._op]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            record[2] = time.perf_counter_ns()

    @contextmanager
    def request(self, kind: str):
        """Top-level span of one request; its child spans share its id.

        In a traced run without ``memory`` the even-numbered top-level
        requests of each kind are traced and the odd-numbered ones are not;
        a nested request is traced when the request around it is.
        """
        saved = self.enabled, self._op, self._depth
        if self._depth == 0:
            count = self._kind_counts.get(kind, 0)
            self._kind_counts[kind] = count + 1
            self.enabled = self.traced and (self.memory or count % 2 == 0)
        self._requests += 1
        self._op = self._requests
        self._depth += 1
        try:
            with self.span(f"bench.{kind}"):
                yield
        finally:
            self.enabled, self._op, self._depth = saved

    def durations(self, name: str) -> list[float]:
        """Seconds of every finished span with this name."""
        return [(end - start) / 1e9 for n, start, end, _, _ in self.spans if n == name and end]

    def self_seconds_per_call(self) -> dict[str, float]:
        """Mean self time of one span per layer (the span name up to the
        first dot): the layer's summed self seconds over its span count."""
        covered = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        total: dict[str, float] = {}
        calls: dict[str, int] = {}
        for (name, start, end, _, _), child in zip(self.spans, covered):
            layer = name.split(".", 1)[0]
            total[layer] = total.get(layer, 0.0) + (end - start - child) / 1e9
            calls[layer] = calls.get(layer, 0) + 1
        return {layer: total[layer] / calls[layer] for layer in total}

    def absorb(self, spans: list[list], nested: bool = False) -> None:
        """Append spans recorded by another process, keeping parent links.

        With ``nested`` they join the request open now, and their top spans
        become children of the span open now.
        """
        base = len(self.spans)
        top = self._open[-1] if nested and self._open else -1
        for name, start, end, parent, op in spans:
            self.spans.append([name, start, end, parent + base if parent >= 0 else top,
                               self._op if nested else op])

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent, op in self.spans:
                f.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                    "parent": parent, "op": op}) + "\n")
