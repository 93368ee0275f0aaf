"""The helper queue: urgent forks first, join's claim-or-wait rule, and the splits halves and join_all make."""

import collections
import sys
import threading
import time

import numpy as np
import pytest

from rtcdenoise import lanes
from rtcdenoise.lanes import Fork

from util import helpers_blocked

pytestmark = pytest.mark.skipif(lanes._HELPER is None,
                                reason="one usable CPU: nothing is offered to a helper")


def _wait_until(condition, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "a queued fork never ran"
        time.sleep(1e-3)


def _wait_done(forks):
    _wait_until(lambda: all(fork.done() for fork in forks))


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


# --- halves and join_all ---------------------------------------------------------


def _recorder():
    """(calls, fn): fn(value) appends (value, its thread) to calls and returns value."""
    calls = []

    def fn(value):
        calls.append((value, threading.current_thread()))
        return value

    return calls, fn


def test_join_all_returns_the_values_in_order():
    _, fn = _recorder()
    assert lanes.join_all([Fork(fn, i) for i in range(7)]) == list(range(7))
    assert lanes.join_all([]) == []


def test_join_all_runs_the_forks_from_last_to_first_when_the_helpers_are_blocked():
    calls, fn = _recorder()
    with helpers_blocked():
        assert lanes.join_all([Fork(fn, i) for i in range(5)]) == list(range(5))
    assert calls == [(i, threading.current_thread()) for i in reversed(range(5))]


def test_after_a_raise_join_all_leaves_no_fork_running_and_none_starts_later():
    calls, fn = _recorder()
    release, ended = threading.Event(), []

    def slow():
        release.wait(10)
        ended.append(True)

    def fail():
        raise RuntimeError("piece failed")

    started = Fork(slow)
    _wait_until(started._claim.locked)  # a helper runs it
    timer = threading.Timer(0.05, release.set)
    timer.start()
    try:
        forks = [started, Fork(fn, 1), Fork(fn, 2), Fork(fail)]
        with pytest.raises(RuntimeError, match="piece failed"):
            lanes.join_all(forks)
        assert ended == [True]  # the running fork ended before join_all raised
        assert all(fork.done() for fork in forks)
        ran = list(calls)
    finally:
        timer.join()
    time.sleep(0.05)
    assert calls == ran
    if lanes._HELPERS == 1:  # the one helper was busy: no queued fork ran
        assert ran == []


def test_halves_computes_both_halves_in_order():
    out = np.zeros(11, dtype=np.int64)
    parts = []

    def fill(scale, lo, hi):
        parts.append((lo, hi))
        out[lo:hi] = scale * np.arange(lo, hi)

    lanes.halves(fill, 11, 3)
    assert np.array_equal(out, 3 * np.arange(11))
    assert sorted(parts) == [(0, 5), (5, 11)]


def test_halves_runs_both_halves_on_the_caller_when_the_helpers_are_blocked():
    parts = []

    def note(lo, hi):
        parts.append((lo, hi, threading.current_thread()))

    with helpers_blocked():
        lanes.halves(note, 9)
    assert parts == [(0, 4, threading.current_thread()), (4, 9, threading.current_thread())]


def test_after_a_raise_halves_leaves_no_half_running_and_none_starts_later():
    parts = []

    def first_half_fails(lo, hi):
        parts.append((lo, hi))
        if lo == 0:
            raise RuntimeError("half failed")

    with helpers_blocked():
        with pytest.raises(RuntimeError, match="half failed"):
            lanes.halves(first_half_fails, 8)
    time.sleep(0.05)
    assert parts == [(0, 4)]
