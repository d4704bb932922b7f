"""Per-slice worker processes: ingest and atoms run their slices on every
usable core, bit for bit. The stage process forks plain os.fork workers,
which read its memory copy-on-write, after its BLAS is pinned to one thread
(see cli), so it forks single-threaded. Only ingest and atoms load this
module."""

from __future__ import annotations

import os
import pickle
import signal
from contextlib import suppress
from typing import Callable

from .config import WorkerError


def per_slice(T: int, work: Callable) -> list:
    """[work(t) for t in range(T)], run on W = min(T, usable cores)
    processes. This process takes the slices t = 0, W, 2W, ...; W - 1
    forked workers take the rest, each in slice order, reading this
    process's memory copy-on-write. work(t) writes its slice's artifacts
    itself and returns a small summary, which a worker sends back pickled.
    When slices fail, the lowest failing slice's exception is raised: the
    one a loop over range(T) would raise. No worker outlives the call."""
    W = max(1, min(T, len(os.sched_getaffinity(0))))
    parent, workers, reports = os.getpid(), [], []
    try:
        for w in range(1, W):
            slices = range(w, T, W)
            try:
                r, fd = os.pipe()
                pid = os.fork()
            except OSError as exc:
                raise WorkerError("cannot start a worker process: "
                                  f"{exc.strerror}") from exc
            if pid == 0:  # the worker: it never returns from here
                os.close(r)
                _worker(work, slices, fd, parent)
            os.close(fd)
            workers.append((pid, os.fdopen(r, "rb"), slices))
        reports.append(_run_slices(work, range(0, T, W)))
        while workers:
            pid, pipe, slices = workers[0]
            blob = pipe.read()  # until the worker closes its end
            pipe.close()
            workers.pop(0)
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if not blob:
                if code == -signal.SIGINT:
                    raise KeyboardInterrupt
                raise WorkerError(
                    f"the worker of slices {', '.join(map(str, slices))} "
                    f"ended without a report, with status {code}")
            reports.append(pickle.loads(blob))
    finally:
        for pid, pipe, _ in workers:  # after a failure or an interrupt
            pipe.close()
            with suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    results, failures = [None] * T, []
    for done, failed in reports:
        for t, summary in done:
            results[t] = summary
        if failed:
            failures.append(failed)
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    return results


def _run_slices(work, slices):
    """([(t, work(t))] for slices in order up to the first that raises,
    (t, its exception) or None)."""
    done = []
    for t in slices:
        try:
            done.append((t, work(t)))
        except Exception as exc:
            return done, (t, exc)
    return done, None


def _worker(work, slices, fd, parent):
    """A forked worker of per_slice: run slices, write their report to the
    pipe fd, pickled, and exit without returning; a report that does not
    pickle is not written. Ctrl-C ends the worker at once, and it starts no
    slice once parent has gone."""
    code = 1
    try:
        signal.signal(signal.SIGINT, signal.SIG_DFL)

        def guarded(t):
            if os.getppid() != parent:
                os._exit(1)
            return work(t)

        report = pickle.dumps(_run_slices(guarded, slices))
        with os.fdopen(fd, "wb") as pipe:
            pipe.write(report)
        code = 0
    finally:
        os._exit(code)
