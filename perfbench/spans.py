"""Spans and counts recorded from the benchmark's side of each call.

A `Tracer` wraps every call the benchmark makes into a dgares layer.
When it is off, `call` only calls.  When it is on, each call becomes a
span (name, start, end, parent, job id) kept in memory; `count` adds to
named counters.  Nothing is written until the run ends.
"""

import time


class Tracer:
    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []  # [name, start, end, parent index or None, job id]
        self.counts = {}
        self._open = []  # indices of the spans still open, innermost last
        self.job_id = None

    def call(self, name, fn, *args):
        if not self.enabled:
            return fn(*args)
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        span = [name, time.perf_counter(), None, parent, self.job_id]
        self.spans.append(span)
        self._open.append(index)
        try:
            return fn(*args)
        finally:
            span[2] = time.perf_counter()
            self._open.pop()

    def count(self, name, n):
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + n

    def layer_times(self):
        """{span name: [calls, busy seconds, self seconds]}.

        Self time is the span's duration minus the time its child spans
        cover; the benchmark runs one call at a time, so children never
        overlap and their durations add up."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = {}
        for (name, start, end, _, _), inner in zip(self.spans, child_time):
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - inner
        return out

    def records(self):
        return [
            {"name": name, "start": start, "end": end, "parent": parent, "job": job}
            for name, start, end, parent, job in self.spans
        ]
