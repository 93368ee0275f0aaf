"""Fork/join over two lanes: the calling thread and one process-wide helper pool.

Fork(fn, *args) offers fn(*args) to the helper; whichever lane claims it first
computes it, once: join() runs it inline if no helper has started it, and
otherwise waits for it. A lane only waits on a task another lane is running,
so waits cannot deadlock. The helper pool is sized once, at import, with a
worker per usable CPU beyond the caller's. Forks made on a worker (the
helper's, or the threaded pipeline's, whose units fill the cores) are not
offered: they run when joined.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import CancelledError, ThreadPoolExecutor


def usable_cpus() -> int:
    """The number of CPUs this process may run on now."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


_WORKER = threading.local()  # .marked on helper and threaded pipeline workers


def mark_worker() -> None:
    """Pool initializer: forks made on this thread are not offered to the helper."""
    _WORKER.marked = True


_HELPERS = usable_cpus() - 1
_HELPER = ThreadPoolExecutor(_HELPERS, "rtcdenoise-helper", mark_worker) if _HELPERS else None


def offered() -> bool:
    """Whether a fork made on this thread is offered to the helper, or only runs when joined."""
    return _HELPER is not None and not getattr(_WORKER, "marked", False)


class Fork:
    """fn(*args), computed once by whichever lane claims it first.

    Leaving a with block on the fork cancels it, so no lane still runs it.
    """

    def __init__(self, fn, *args):
        self._task = (fn, args)
        self._claim = threading.Lock()
        self._done = threading.Event()
        self._value = self._error = None
        if offered():
            _HELPER.submit(self._run)  # _run keeps every error, so its future holds none

    def _run(self) -> None:
        if self._claim.acquire(blocking=False):  # else another lane has it
            (fn, args), self._task = self._task, None  # keep no argument past the run
            try:
                self._value = fn(*args)
            except BaseException as exc:
                self._error = exc
            finally:
                self._done.set()

    def join(self):
        """The value, computed here unless a lane has started it; its error re-raised."""
        self._run()
        self._done.wait()
        if self._error is not None:
            raise self._error
        return self._value

    def cancel(self) -> None:
        """Keep the task from starting, or wait until it ends; a no-op once joined."""
        if self._claim.acquire(blocking=False):
            self._task, self._error = None, CancelledError()
            self._done.set()
        self._done.wait()

    def __enter__(self) -> "Fork":
        return self

    def __exit__(self, *exc) -> None:
        self.cancel()
