"""In-memory span recorder used by the traced benchmark run.

Spans are opened by the benchmark around its own calls into the package, so
the package itself carries no tracing code.  A span records its name, the
job it belongs to, its parent span and its start and end times; spans are
kept in memory and written out once, when the run ends.  A layer's self time
is its spans' duration minus the part covered by their child spans.
"""

import json
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter


class NullTracer:
    """Tracing off: spans yield None and record nothing."""

    enabled = False
    _null = nullcontext()

    def span(self, name):
        return self._null

    def count(self, name, amount=1):
        pass

    def begin_job(self, key):
        pass


class Tracer:
    """Tracing on: records spans and exact counts for every job."""

    enabled = True

    def __init__(self):
        self.spans = []  # [id, parent id, name, job, start, end]
        self.counts = Counter()
        self.overhead_s = 0.0
        self._stack = []
        self._job = None

    def begin_job(self, key):
        self._job = key

    @contextmanager
    def span(self, name):
        t0 = perf_counter()
        record = [len(self.spans), self._stack[-1] if self._stack else None, name, self._job, 0.0, 0.0]
        self.spans.append(record)
        self._stack.append(record[0])
        record[4] = t1 = perf_counter()
        try:
            yield record
        finally:
            record[5] = t2 = perf_counter()
            self._stack.pop()
            self.overhead_s += (t1 - t0) + (perf_counter() - t2)

    def count(self, name, amount=1):
        self.counts[name] += amount

    def self_times(self) -> dict:
        """Total self time per span name, in seconds."""
        covered = defaultdict(float)
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                covered[parent] += end - start
        totals = defaultdict(float)
        for sid, _, name, _, start, end in self.spans:
            totals[name] += (end - start) - covered[sid]
        return dict(totals)

    def dump(self, path):
        with open(path, "w") as handle:
            json.dump(
                {
                    "fields": ["id", "parent", "name", "job", "start_s", "end_s"],
                    "spans": self.spans,
                    "counts": dict(self.counts),
                    "overhead_s": self.overhead_s,
                },
                handle,
            )
