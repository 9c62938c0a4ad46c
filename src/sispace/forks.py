"""One job split into contiguous ranges, run on every CPU this process may use.

:func:`run_ranges` runs ``task(first, last)`` for each range of a cut list
from :func:`split`: this process runs the first range and a forked child
each further one, and the results come back in range order, each child's
pickled through its own pipe.  The numeric CSV writer formats its blocks
(:func:`sispace.report._write_csv`), and the analytic decay probe sums its
trapezoid segments this way (:func:`sispace.localization._window_partials`).
A child shares this process's memory copy-on-write, so tables built before
the fork cost it nothing, and it computes exactly what this process would
have computed for its range.  The objects that :func:`sispace.cli.main`
freezes (``gc.freeze``) are never scanned by a child's collector either, so
their pages stay shared too.

A child leaves only through ``os._exit``: it never returns into the caller,
never runs an ``atexit`` handler and never flushes a file object it
inherited.  Every child is reaped on every path, and the first failure is
re-raised as its own exception (a child that exits without sending one is a
``ChildProcessError``); when this process's own range fails, that failure
wins, and the children, whose work it drops, are killed and reaped.  A
signal whose handler raises (``cli.Terminated`` for SIGTERM and SIGHUP) does
not lose a child: every signal is held in this thread from before each fork
until the child is on the list, and while a child whose pipe has ended is
reaped and taken off it.  (One that another thread takes is not held: that
can be OpenBLAS's pool.)  Forking is safe here: after ``import numpy`` the
process has 2 threads, and 1 after ``os.fork()`` up to the next BLAS call,
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
import signal


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


@contextlib.contextmanager
def _signals_held():
    """Hold every signal in this thread for the block: one that arrives in it
    is delivered as the block exits.  ``pthread_sigmask`` runs the handlers of
    signals that arrived before, so those raise as the block is entered."""
    held = signal.pthread_sigmask(signal.SIG_BLOCK, ())   # the mask as it is
    try:
        signal.pthread_sigmask(signal.SIG_BLOCK, signal.valid_signals())
        yield held
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, held)


def _fork(task, first, last, children):
    """Fork a child that runs ``task(first, last)`` and record it in
    ``children`` as (pid, read end of the pipe that carries its pickled
    result, or its pickled failure).  Signals are held from before the fork
    until the child is recorded, so a signal cannot lose it."""
    with _signals_held() as held:
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
                    signal.pthread_sigmask(signal.SIG_SETMASK, held)
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
        children.append((pid, r))


def _join(children):
    """Reap every ``(pid, pipe)`` of :func:`_fork` in ``children``, emptying the
    list; their results in order, or the first failure raised as its own.  A
    child leaves the list only once it is reaped."""
    outcomes = []
    while children:
        pid, r = children[0]
        with open(r, "rb", closefd=False) as pipe:
            payload = pipe.read()
        # the pipe is at its end, so the child has exited and the wait is short
        with _signals_held():
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            os.close(r)
            children.pop(0)
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
            _fork(task, first, last, children)
        return [task(cuts[0], cuts[1]), *_join(children)]
    finally:
        if children:   # this process failed first: its failure wins, the children's work goes
            with _signals_held():
                for pid, r in children:
                    os.kill(pid, signal.SIGKILL)
                    os.close(r)
                    os.waitpid(pid, 0)
                children.clear()
