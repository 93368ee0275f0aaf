"""Fork/join over two lanes: the calling thread and one process-wide helper queue.

Fork(fn, *args) offers fn(*args) to the helper; whichever lane claims it first
computes it, once: join() runs it inline if no helper has started it, and
otherwise waits for it. A lane only waits on a task another lane is running,
so waits cannot deadlock. A fork made with background=True is queued behind
every other fork: a helper starts it only when no urgent fork is waiting, so
work that may trail (a frame's report) fills the helper's idle time without
delaying the work it idles beside. The helper threads, one per usable CPU
beyond the caller's, start on first use. Forks made on a helper thread, or
with no helper, are not offered: they run when joined.

This module decides every split of the work over the lanes: halves() cuts one
call in two, and join_all() joins a list of forks from the last.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from concurrent.futures import CancelledError
from typing import Callable


def usable_cpus() -> int:
    """The number of CPUs this process may run on now."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


_ON_HELPER = threading.local()  # .marked on the helper threads


class _Helpers:
    """The helper lanes' queue: urgent tasks in order, then background tasks in order."""

    def __init__(self, threads: int):
        self._threads = threads
        self._started = 0
        self._queued = threading.Condition()
        self._urgent: deque = deque()
        self._background: deque = deque()

    def submit(self, run: Callable[[], None], background: bool = False) -> None:
        """Queue run(), which must raise nothing, for the next free helper thread."""
        with self._queued:
            (self._background if background else self._urgent).append(run)
            if self._started < self._threads:
                self._started += 1
                threading.Thread(target=self._serve, name=f"rtcdenoise-helper_{self._started}",
                                 daemon=True).start()
            self._queued.notify()

    def _serve(self) -> None:
        _ON_HELPER.marked = True  # forks made here run when joined
        while True:
            with self._queued:
                while not (self._urgent or self._background):
                    self._queued.wait()
                run = (self._urgent or self._background).popleft()
            run()


_HELPERS = usable_cpus() - 1
_HELPER = _Helpers(_HELPERS) if _HELPERS else None


def offered() -> bool:
    """Whether a fork made on this thread is offered to the helper, or only runs when joined."""
    return _HELPER is not None and not getattr(_ON_HELPER, "marked", False)


class Fork:
    """fn(*args), computed once by whichever lane claims it first.

    Leaving a with block on the fork cancels it, so no lane still runs it.
    """

    def __init__(self, fn, *args, background: bool = False):
        self._task = (fn, args)
        self._claim = threading.Lock()
        self._done = threading.Event()
        self._value = self._error = None
        if offered():
            _HELPER.submit(self._run, background)  # _run keeps every error

    def _run(self) -> None:
        if self._claim.acquire(blocking=False):  # else another lane has it
            (fn, args), self._task = self._task, None  # keep no argument past the run
            try:
                self._value = fn(*args)
            except BaseException as exc:
                self._error = exc
            finally:
                self._done.set()

    def done(self) -> bool:
        """Whether join() would return at once: the task has ended, or was cancelled."""
        return self._done.is_set()

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


def halves(fn, n: int, *args) -> None:
    """fn(*args, 0, n), with fn(*args, n // 2, n) forked where a helper lane takes forks.

    fn(*args, lo, hi) must write its part of the result alone. Elsewhere (on
    a helper thread, or with no helper) it runs as one call: two halves in a
    row on one lane with every core busy cost 5% of the fps.
    """
    if offered():
        with Fork(fn, *args, n // 2, n) as half:
            fn(*args, 0, n // 2)
            half.join()
    else:
        fn(*args, 0, n)


def join_all(forks) -> list:
    """Every fork's value, in order, joined from the last; every fork is cancelled on the way out.

    A helper starts forks in the order made, so joining (and cancelling) the
    last first claims the forks it has not started before waiting on the one
    it runs. After a raise, no fork is left running and none starts later.
    """
    try:
        return [fork.join() for fork in reversed(forks)][::-1]
    finally:
        for fork in reversed(forks):
            fork.cancel()
