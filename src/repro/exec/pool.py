"""Deterministic fan-out of independent jobs over worker processes.

The engine's one contract: **results stream back in submission order**,
regardless of completion order, so a parallel sweep is bit-identical to
the serial one (same rows, same order, same JSON).  ``-j 1`` never
touches ``multiprocessing`` at all — it is the plain in-process loop,
and the reference the equivalence tests compare against.

Job functions cross a process boundary, so they must be picklable:
module-level functions (or ``functools.partial`` over one) taking
picklable arguments and returning picklable results.  Jobs here return
plain result dataclasses (outcomes + statistics), never live
``Program`` objects.

Teardown is bounded everywhere: :meth:`JobPool.close` cancels pending
work, gives running jobs a drain window, then terminates stragglers —
a Ctrl-C'd sweep never orphans worker processes.
"""

from __future__ import annotations

import os
import threading
from typing import Callable, Iterable, Iterator, List, Optional, Tuple

__all__ = ["JobPool", "default_jobs"]

#: default drain window for :meth:`JobPool.close`: long enough for any
#: sane job to finish its current item, short enough that Ctrl-C feels
#: like Ctrl-C
DRAIN_TIMEOUT_S = 5.0


def default_jobs() -> int:
    """Default worker count for ``--jobs``: every core the host has."""
    return os.cpu_count() or 1


class _DoneFuture:
    """Serial-mode stand-in for ``concurrent.futures.Future``: the job
    already ran inline at submit time."""

    __slots__ = ("_value", "_error")

    def __init__(self, value=None, error: Optional[BaseException] = None):
        self._value = value
        self._error = error

    def result(self, timeout=None):
        if self._error is not None:
            raise self._error
        return self._value

    def done(self) -> bool:
        return True

    def cancel(self) -> bool:
        return False

    def add_done_callback(self, fn) -> None:
        fn(self)


class JobPool:
    """A worker pool for flat batches and dependency-driven job graphs.

    :meth:`map` runs one flat batch.  Schedulers that release work
    incrementally — the SCC-wave whole-program driver, where a caller's
    job cannot be built until its callees' high-water marks exist —
    keep one pool alive across many small :meth:`submit` rounds instead
    of paying executor start-up per round.

    The worker processes start on first use.  ``jobs <= 1`` (or a host
    without working multiprocessing) runs every job inline at
    :meth:`submit` and returns an already-completed future, so the
    scheduling loop above is identical in both modes and the serial
    path stays the deterministic reference.
    """

    def __init__(self, jobs: int = 1):
        self.jobs = max(jobs, 1)
        self._pool = None
        self._lock = threading.Lock()
        self._outstanding: set = set()

    def _executor(self, workers: int):
        """The process pool, started with ``workers`` processes on first
        use; None on the serial path."""
        if self._pool is None and min(self.jobs, workers) > 1:
            try:
                from concurrent.futures import ProcessPoolExecutor
                self._pool = ProcessPoolExecutor(
                    max_workers=min(self.jobs, workers))
            except (ImportError, OSError, ValueError):
                self.jobs = 1      # degrade to the serial path
        return self._pool

    @property
    def serial(self) -> bool:
        """Whether jobs run inline (starts the workers to find out)."""
        return self._executor(self.jobs) is None

    def map(self, fn: Callable, items: Iterable,
            stop_when: Optional[Callable[[], bool]] = None
            ) -> Iterator[Tuple[object, object]]:
        """Apply ``fn`` to each item, yielding ``(item, result)`` in
        submission order.

        A serial pool, or a batch of at most one item, runs each item
        lazily in-process and starts no worker.  ``stop_when`` is
        polled before each yielded result; once true, the remaining
        work is abandoned — this is how wall-clock budgets stop a sweep
        early without tearing down mid-job.  A job that raises
        propagates its exception at the point its item would have been
        yielded, in both modes.  Callers hold the pool in a ``with``
        block, so any exit — normal, early stop, or an exception in the
        consumer (Ctrl-C included) — goes through :meth:`close`, and
        abandoned workers are drained within a bounded window.
        """
        items = list(items)
        if len(items) <= 1 or self._executor(len(items)) is None:
            for item in items:
                if stop_when is not None and stop_when():
                    return
                yield item, fn(item)
            return
        futures = [self.submit(fn, item) for item in items]
        for item, future in zip(items, futures):
            if stop_when is not None and stop_when():
                return
            yield item, future.result()

    def submit(self, fn: Callable, *args):
        if self._executor(self.jobs) is None:
            try:
                return _DoneFuture(fn(*args))
            except BaseException as exc:  # noqa: BLE001 - mirrors Future
                return _DoneFuture(error=exc)
        future = self._pool.submit(fn, *args)
        with self._lock:
            self._outstanding.add(future)
        future.add_done_callback(self._retire)
        return future

    def _retire(self, future) -> None:
        with self._lock:
            self._outstanding.discard(future)

    def wait_any(self, futures: Iterable) -> List:
        """Block until at least one future completes; returns the done
        set as a list.  Serial-mode futures are always done."""
        futures = list(futures)
        done = [f for f in futures if f.done()]
        if done or not futures:
            return done
        from concurrent.futures import FIRST_COMPLETED, wait
        result = wait(futures, return_when=FIRST_COMPLETED)
        return list(result.done)

    def close(self, timeout: Optional[float] = DRAIN_TIMEOUT_S) -> bool:
        """Graceful bounded shutdown: cancel pending work, give running
        jobs ``timeout`` seconds to drain, terminate whatever remains.

        Returns True for a clean drain, False when stragglers had to be
        terminated.  Idempotent; after close the pool degrades to the
        serial inline path (a late :meth:`submit` still works, it just
        runs in-process).  This is the SIGTERM/Ctrl-C path: the worker
        processes are *always* reaped, never orphaned.
        """
        pool, self._pool = self._pool, None
        self.jobs = 1
        if pool is None:
            return True
        with self._lock:
            pending = list(self._outstanding)
            self._outstanding.clear()
        for future in pending:
            future.cancel()
        # snapshot the workers and the executor's manager thread BEFORE
        # shutdown: the executor drops both references during
        # shutdown(wait=False)
        procs = getattr(pool, "_processes", None)
        processes = list(procs.values()) if procs else []
        manager = getattr(pool, "_executor_manager_thread", None)
        pool.shutdown(wait=False, cancel_futures=True)
        # The manager thread reaps every worker once the pool has
        # drained, so waiting for that thread is waiting for the drain.
        # Joining the workers from here as well would race it: two
        # threads calling waitpid() on one pid, where the loser gets
        # ECHILD and reports an exited worker as still alive.
        clean = _join(manager, timeout)
        if not clean:
            for proc in processes:
                if not _exited(proc):
                    proc.terminate()
            if not _join(manager, 1.0):
                for proc in processes:
                    if not _exited(proc):
                        proc.kill()
                _join(manager, 1.0)
        return clean

    def __enter__(self) -> "JobPool":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False


def _join(thread: Optional[threading.Thread],
          timeout: Optional[float]) -> bool:
    """Join ``thread`` for up to ``timeout`` seconds; True once it has
    finished (or never existed)."""
    if thread is None:
        return True
    thread.join(timeout)
    return not thread.is_alive()


def _exited(proc) -> bool:
    """Whether a worker has exited, read from its sentinel pipe so the
    check never calls waitpid() (the manager thread owns reaping)."""
    from multiprocessing.connection import wait
    return bool(wait([proc.sentinel], 0))
