"""The helper queue: urgent forks first, and join's claim-or-wait rule for background forks."""

import collections
import sys
import threading
import time

import pytest

from rtcdenoise import lanes
from rtcdenoise.lanes import Fork

from util import helpers_blocked

pytestmark = pytest.mark.skipif(lanes._HELPER is None,
                                reason="one usable CPU: nothing is offered to a helper")


def _wait_done(forks, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not all(fork.done() for fork in forks):
        assert time.monotonic() < deadline, "a queued fork never ran"
        time.sleep(1e-3)


def test_a_background_fork_never_starts_while_an_urgent_fork_is_queued():
    started = []  # (name, urgent forks still queued) as each fork starts

    def note(name):
        started.append((name, len(lanes._HELPER._urgent)))

    with helpers_blocked():  # every fork below is queued before any starts
        forks = [Fork(note, "background", background=True)]
        forks += [Fork(note, f"urgent{i}") for i in range(3)]
    _wait_done(forks)
    assert dict(started)["background"] == 0
    if lanes._HELPERS == 1:
        assert [name for name, _ in started] == ["urgent0", "urgent1", "urgent2", "background"]


def test_join_runs_a_queued_background_fork_inline_and_once():
    calls = []

    def claim():
        calls.append(threading.current_thread())
        return len(calls)

    with helpers_blocked():
        fork = Fork(claim, background=True)
        assert not fork.done()
        assert fork.join() == 1
        assert fork.done() and calls == [threading.current_thread()]
    time.sleep(0.05)  # the helper pops the claimed fork and leaves it be
    assert fork.join() == 1 and len(calls) == 1


def test_forks_from_many_threads_each_run_once():
    counts = collections.Counter()
    lock = threading.Lock()
    results = {}

    def task(key):
        with lock:
            counts[key] += 1
        return key

    def caller(i):  # half the forks are background ones, joined in making order
        forks = [Fork(task, (i, j), background=j % 2 == 0) for j in range(50)]
        results[i] = [fork.join() for fork in forks]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=caller, args=(i,)) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert results == {i: [(i, j) for j in range(50)] for i in range(6)}
    assert len(counts) == 300 and set(counts.values()) == {1}
