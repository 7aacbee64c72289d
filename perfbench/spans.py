"""In-memory spans and counters for the traced benchmark passes.

Spans are recorded from the benchmark's own code, around calls into the
public functions of each specangle module. A span's name is
``<layer>.<what>``; its layer is the part before the first dot. A span's self
time is its duration minus the durations of its direct children, so the self
times of all spans under one root add up to the root's duration.
"""

import time
import tracemalloc
from collections import Counter, defaultdict

_clock = time.perf_counter


class Tracer:
    """Spans of one pass, as ``[name, parent index, start, end]`` lists.

    With ``memory=True``, spans opened with ``memory=True`` also record the
    peak of memory allocated inside them (tracemalloc, which numpy reports
    to), keyed by span name. Tracing memory slows allocation, so a pass made
    for memory is not used for time.
    """

    def __init__(self, memory=False):
        self.memory = memory
        self.spans = []
        self.counts = Counter()
        self.peak_mb = defaultdict(float)
        self._open = []

    def span(self, name, memory=False):
        return _Span(self, name, memory and self.memory)

    def add(self, key, amount=1):
        self.counts[key] += amount

    def summary(self):
        """Per span name: total duration, self time and call count; and the
        duration of every span of each name (for percentiles)."""
        n = len(self.spans)
        child = [0.0] * n
        for _, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total, self_s, calls = Counter(), Counter(), Counter()
        durations = defaultdict(list)
        for i, (name, _, start, end) in enumerate(self.spans):
            total[name] += end - start
            self_s[name] += end - start - child[i]
            calls[name] += 1
            durations[name].append(end - start)
        return {"total": total, "self": self_s, "calls": calls, "durations": durations}


class _Span:
    __slots__ = ("tracer", "name", "memory", "index")

    def __init__(self, tracer, name, memory):
        self.tracer = tracer
        self.name = name
        self.memory = memory

    def __enter__(self):
        tr = self.tracer
        self.index = len(tr.spans)
        tr.spans.append([self.name, tr._open[-1] if tr._open else -1, _clock(), 0.0])
        tr._open.append(self.index)
        if self.memory:
            tracemalloc.start()
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        if self.memory:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            tr.peak_mb[self.name] = max(tr.peak_mb[self.name], peak / 1e6)
        tr.spans[self.index][3] = _clock()
        tr._open.pop()
        return False


def layer_of(name):
    return name.split(".", 1)[0]
