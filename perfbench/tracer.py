"""In-memory span recorder for the traced benchmark run.

Each thread keeps its own stack of open spans, so a span opened in a worker
thread never becomes the parent of a span on another thread.  Spans are kept
in memory and summarised once, after the traced command has returned.
"""

from __future__ import annotations

import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


def union_length(intervals):
    """Total length covered by a list of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class Tracer:
    """Spans (name, thread, start, end, parent) plus named counters."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.spans = []          # [name, thread_id, start, end, parent_index]
        self.counts = Counter()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name):
        stack = self._stack()
        parent = stack[-1] if stack else None
        record = [name, threading.get_ident(), time.perf_counter(), None, parent]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        try:
            yield
        finally:
            record[3] = time.perf_counter()
            stack.pop()

    @contextmanager
    def untraced(self):
        """Calls made on this thread inside the block record no spans."""
        self._local.off = True
        try:
            yield
        finally:
            self._local.off = False

    def is_off(self):
        return getattr(self._local, "off", False)

    def add(self, key, amount):
        with self._lock:
            self.counts[key] += amount

    def summary(self):
        """Per span name: total seconds, self seconds and call count.

        Self time is a span's duration minus the union of its child spans'
        intervals.  Spans that never closed (an exception escaped past the
        recorder) are ignored.
        """
        children = defaultdict(list)
        for name, _, lo, hi, parent in self.spans:
            if parent is not None and hi is not None:
                children[parent].append((lo, hi))
        out = {}
        for i, (name, _, lo, hi, _) in enumerate(self.spans):
            if hi is None:
                continue
            entry = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
            entry["s"] += hi - lo
            entry["self_s"] += (hi - lo) - union_length(children.get(i, ()))
            entry["calls"] += 1
        return out

    def covered(self, thread_id, exclude_prefixes=()):
        """Seconds of ``thread_id`` covered by its outermost spans whose
        names do not start with one of ``exclude_prefixes``."""
        intervals = []
        for name, tid, lo, hi, parent in self.spans:
            if tid != thread_id or hi is None or name.startswith(exclude_prefixes):
                continue
            intervals.append((lo, hi))
        return union_length(intervals)

    def thread_ids(self):
        return {tid for _, tid, _, _, _ in self.spans}
