"""Tests of the benchmark itself: run failures are recorded, spans nest.

    python3 -m pytest bench/tests
"""

from __future__ import annotations

import os
import sys
import threading
import time

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

TIMEOUT_S = 15.0


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    workdir = str(tmp_path_factory.mktemp("cli"))
    inputs.prepare(inputs.WORKLOADS["cli-mixed-threaded"], 3, workdir)
    return workdir


@pytest.mark.parametrize("mode", ["threaded", "sequential"])
def test_stage_failure_on_a_later_frame_is_a_failed_run(cli_inputs, mode):
    # denoise_window runs on temporal frames of denoised cohorts; failing
    # after 30 calls hits a frame far into the clip, with queues in flight
    spec = {
        "workload": "cli-mixed-threaded", "seed": 3, "workdir": cli_inputs, "index": 1,
        "trace": False, "mode": mode,
        "fault": {"module_name": "rtcdenoise.pipeline", "attr": "denoise_window", "after": 30},
    }
    started = time.monotonic()
    result = run.run_process(spec, timeout=TIMEOUT_S)
    elapsed = time.monotonic() - started
    assert not result["ok"]
    assert elapsed < TIMEOUT_S + 5.0
    if mode == "sequential":
        assert "injected fault" in result["error"]


def test_spans_nest_per_thread_and_aggregate_by_self_time():
    tracer = tracing.Tracer()
    block = tracer.wrap("video_denoiser.denoise_block", lambda: time.sleep(0.02))

    def window_body():
        block()
        time.sleep(0.01)
    window = tracer.wrap("video_denoiser.denoise_window", window_body)

    start = time.perf_counter()
    other = threading.Thread(target=window)
    other.start()
    window()
    other.join(timeout=5.0)
    assert not other.is_alive()
    end = time.perf_counter()

    spans = {span[0]: span for span in tracer.spans}
    assert len(spans) == 4
    for _, name, _, _, parent, thread in spans.values():
        if name == "video_denoiser.denoise_block":
            assert spans[parent][1] == "video_denoiser.denoise_window"
            assert spans[parent][5] == thread  # the parent ran on the same thread
        else:
            assert parent is None

    m = tracer.aggregate(start, end, frames=2)
    wall = end - start
    assert m["video_denoiser.denoise_window.calls"] == 2
    assert m["video_denoiser.blocks_per_window"] == 1.0
    # self time of the windows is their own 10 ms sleeps, not the blocks'
    assert m["video_denoiser.denoise_window.share"] * wall == pytest.approx(0.02, abs=0.01)
    assert m["video_denoiser.denoise_block.share"] * wall == pytest.approx(0.04, abs=0.01)
    # the two threads overlap: parallelism near 2, almost no uncovered time
    assert m["pipeline.parallelism"] > 1.5
    assert 0.0 <= m["pipeline.self_ms_per_frame"] < 5.0
