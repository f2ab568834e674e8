"""Spans recorded by the benchmark around its calls into ramseylift.

A span is (name, start, end, parent, op): ``name`` is ``<module>.<call>``,
``parent`` is the index of the enclosing span (or None) and ``op`` is the
operation the span belongs to.  Spans stay in memory until the run ends.
A layer's self time is the duration of its spans minus the time covered by
their child spans; calls run one at a time, so children never overlap.
"""

from __future__ import annotations

import json
import time
from collections import Counter


class NullTracer:
    """The untraced path: calls go straight through, nothing is recorded."""

    enabled = False

    def call(self, name, fn, *args):
        return fn(*args)

    def count(self, name, n=1):
        pass

    def start_op(self, op_id):
        pass


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op = None

    def start_op(self, op_id):
        self._op = op_id

    def call(self, name, fn, *args):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self._op)

    def count(self, name, n=1):
        self.counts[name] += n

    def durations(self) -> Counter:
        """Total seconds per span name."""
        out = Counter()
        for name, start, end, _, _ in self.spans:
            out[name] += end - start
        return out

    def self_times(self) -> Counter:
        """Self seconds per layer, the first component of the span name."""
        child_time = Counter()
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = Counter()
        for index, (name, start, end, _, _) in enumerate(self.spans):
            out[name.split(".", 1)[0]] += end - start - child_time[index]
        return out

    def write(self, path) -> None:
        """One JSON object per line: name, start, end, parent, op."""
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
