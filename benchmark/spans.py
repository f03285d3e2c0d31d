"""Spans around the benchmark's own calls into namelogic's public functions.

A span is (name, start, end, parent span index, query id).  Spans stay in
memory and are written out once, when the run ends.  Nothing inside
namelogic is patched: a span covers exactly one call the benchmark makes.
"""

from __future__ import annotations

import json
from time import perf_counter


class NoTracer:
    """Untraced runs: the call goes straight through."""

    enabled = False
    qid = None

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name, amount):
        pass


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list = []
        self._open: list[int] = []
        self.counts: dict[str, float] = {}
        self.qid = None

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span; name may be a function of the result (None
        when fn raised), to split one call site by outcome."""
        idx = len(self.spans)
        result = None
        parent = self._open[-1] if self._open else -1
        self.spans.append(None)
        self._open.append(idx)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = perf_counter()
            self._open.pop()
            label = name if isinstance(name, str) else name(result)
            self.spans[idx] = (label, start, end, parent, self.qid)

    def count(self, name, amount):
        self.counts[name] = self.counts.get(name, 0) + amount

    def self_times(self) -> dict[str, float]:
        """Per span name, total duration minus the time covered by child spans."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, float] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - covered[i]
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "query"],
                    "spans": self.spans,
                    "counts": self.counts,
                },
                fh,
            )
