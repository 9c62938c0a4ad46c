"""One job split into contiguous ranges, run on every CPU this process may use.

:func:`run_ranges` runs ``task(first, last)`` for each range of a cut list
from :func:`split`: this process runs the first range and a forked child
each further one, and the results come back in range order, each child's
pickled through its own pipe.  The numeric CSV writer formats its blocks
(:func:`sispace.report._write_csv`), and the analytic decay probe sums its
trapezoid segments this way (:func:`sispace.localization._window_partials`).
A child shares this process's memory copy-on-write, so tables built before
the fork cost it nothing, and it computes exactly what this process would
have computed for its range.

A child leaves only through ``os._exit``: it never returns into the caller,
never runs an ``atexit`` handler and never flushes a file object it
inherited.  Every child is reaped on every path, and the first failure is
re-raised as its own exception (a child that exits without sending one is a
``ChildProcessError``); when this process's own range fails, that failure
wins and the children's are dropped.  Forking is safe here: after
``import numpy`` the process has 2 threads, and 1 from ``os.fork()`` on,
since OpenBLAS's fork handler stops its pool (CPython 3.12 and later warn
only when the parent has several threads at a fork, so they should not warn;
CI runs the tests on 3.12).  ``spawn`` would start each worker from a fresh
import, which costs more than the work it is given and shares no tables.
"""

from __future__ import annotations

import bisect
import contextlib
import os
import pickle


def workers():
    """The CPUs this process may run on, or 1 where ``os.fork`` does not exist."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def split(bounds):
    """Cut list over the units ``bounds[i]..bounds[i+1]`` (ascending from 0):
    one range per worker, at most one per unit, each ending at the first unit
    boundary at or past its share of ``bounds[-1]``."""
    units = len(bounds) - 1
    ranges = max(1, min(workers(), units))
    ends = {bisect.bisect_left(bounds, bounds[-1] * r // ranges) for r in range(1, ranges)}
    return [0, *sorted(ends - {0, units}), units]


def _fork(task, first, last):
    """Fork a child that runs ``task(first, last)``; (pid, read end of the pipe
    that carries its pickled result, or its pickled failure)."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(r)
            try:
                payload, status = pickle.dumps(task(first, last)), 0
            except BaseException as e:
                # if this fails too, the parent sees exit code 1 and no payload
                payload, status = pickle.dumps(e), 1
            while payload:
                payload = payload[os.write(w, payload):]
            code = status
        finally:
            os._exit(code)
    os.close(w)
    return pid, r


def _join(children):
    """Reap every ``(pid, pipe)`` of :func:`_fork` in ``children``, emptying the
    list; their results in order, or the first failure raised as its own."""
    outcomes = []
    while children:
        pid, r = children.pop(0)
        try:
            with os.fdopen(r, "rb") as pipe:
                payload = pipe.read()
        finally:
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        outcomes.append((pid, code, payload))
    results = []
    for pid, code, payload in outcomes:
        if code == 0:
            results.append(pickle.loads(payload))
        elif payload:
            raise pickle.loads(payload)
        else:
            raise ChildProcessError(f"worker process {pid} exited with {code}")
    return results


def run_ranges(task, cuts):
    """``[task(first, last) for first, last in zip(cuts, cuts[1:])]``, the first
    range run here and each further one in a forked child."""
    children = []
    try:
        for first, last in zip(cuts[1:], cuts[2:]):
            children.append(_fork(task, first, last))
        return [task(cuts[0], cuts[1]), *_join(children)]
    finally:
        if children:   # this process failed first: its failure wins
            with contextlib.suppress(Exception):
                _join(children)
