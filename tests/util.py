"""Shared assertions and helpers for the test suite."""

from __future__ import annotations

import fcntl
import io
import os
import queue
import struct
import termios
import threading
import time
import tracemalloc
from contextlib import contextmanager, nullcontext

import numpy as np

from rtcdenoise import Frame, VideoSequence, lanes


def planes_equal(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return np.array_equal(a, b)


def frames_equal(a: Frame, b: Frame) -> bool:
    return (
        planes_equal(a.y, b.y)
        and planes_equal(a.u, b.u)
        and planes_equal(a.v, b.v)
    )


def sequences_equal(a: VideoSequence, b: VideoSequence) -> bool:
    return len(a) == len(b) and all(frames_equal(x, y) for x, y in zip(a, b))


def luma_f64(frame: Frame) -> np.ndarray:
    return frame.y.astype(np.float64)


def mean_abs_frame_diff(seq: VideoSequence) -> float:
    """Average per-pixel temporal variation: a simple flicker measure."""
    diffs = [
        np.mean(np.abs(luma_f64(seq[t]) - luma_f64(seq[t - 1])))
        for t in range(1, len(seq))
    ]
    return float(np.mean(diffs))


def traced_peak(fn, *args):
    """(fn(*args), the peak bytes tracemalloc traced while it ran)."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@contextmanager
def helpers_blocked():
    """Keep every helper worker busy inside the block, so callers claim every fork."""
    gate = threading.Event()
    running = threading.Semaphore(0)
    released: queue.Queue = queue.Queue()  # what each blocker's wait on the gate returned

    def hold():
        running.release()
        released.put(gate.wait(30))

    for _ in range(lanes._HELPERS):
        lanes._HELPER.submit(hold)
    try:
        for _ in range(lanes._HELPERS):
            assert running.acquire(timeout=10), "a helper worker never started"
        yield
    finally:
        gate.set()
        assert all(released.get(timeout=10) is True for _ in range(lanes._HELPERS))


@contextmanager
def helpers_claim_every_fork(timeout: float = 30.0):
    """Inside the block, join() on a fork offered to the helper waits until a helper has claimed it.

    So every offered fork runs on a helper, whichever lane would have reached
    it first; forks that are not offered (made on a helper) still run when
    joined.
    """
    init, join = lanes.Fork.__init__, lanes.Fork.join

    def offering_init(self, *args, **kwargs):
        self.offered = lanes.offered()
        init(self, *args, **kwargs)

    def claimed_join(self):
        deadline = time.monotonic() + timeout
        while getattr(self, "offered", False) and not self._claim.locked():
            assert time.monotonic() < deadline, "no helper claimed an offered fork"
            time.sleep(1e-4)
        return join(self)

    lanes.Fork.__init__, lanes.Fork.join = offering_init, claimed_join
    try:
        yield
    finally:
        lanes.Fork.__init__, lanes.Fork.join = init, join


# Where a run's forks go: as they fall, every offered fork on the helper, and
# every fork on the caller. Each names a context manager to run inside.
PLACEMENTS = {
    "free": nullcontext,
    "claimed": helpers_claim_every_fork,
    "blocked": helpers_blocked,
}


def on_single_lane(fn, *args):
    """fn(*args) on a fresh thread marked as the helper threads are, so it offers no fork."""
    outcome = []

    def run():
        lanes._ON_HELPER.marked = True
        try:
            outcome.append((fn(*args), None))
        except BaseException as exc:
            outcome.append((None, exc))

    worker = threading.Thread(target=run)
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive(), "the worker thread did not finish"
    value, error = outcome[0]
    if error is not None:
        raise error
    return value


def _unread(fd: int) -> int:
    """Bytes waiting in the pipe that fd is an end of."""
    return struct.unpack("i", fcntl.ioctl(fd, termios.FIONREAD, b"\0" * 4))[0]


@contextmanager
def pipe_feeding(source, chunk: int = 1 << 16):
    """The read end of a pipe that a writer thread feeds source into, chunk bytes at a time.

    source is bytes, or the path of a file, which is streamed. Each chunk goes
    into the pipe only once the one before it has been read, so no read of the
    pipe returns more than one chunk. Leaving the block closes the read end,
    which stops a writer whose reader quit early, and joins the writer.
    """
    read_end, write_end = os.pipe()
    closed = threading.Event()

    def feed():
        streamed = isinstance(source, (str, os.PathLike))
        try:
            with open(source, "rb") if streamed else io.BytesIO(source) as src:
                while part := src.read(chunk):
                    while _unread(write_end) and not closed.is_set():
                        time.sleep(1e-4)
                    view = memoryview(part)
                    while view:
                        view = view[os.write(write_end, view):]
        except BrokenPipeError:
            pass  # the reader quit early
        finally:
            os.close(write_end)

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        yield read_end
    finally:
        closed.set()
        os.close(read_end)
        writer.join(timeout=30)
        assert not writer.is_alive(), "the pipe's writer thread did not finish"
