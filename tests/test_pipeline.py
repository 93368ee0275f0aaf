import sys
import threading
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from rtcdenoise import (
    Frame,
    LossModel,
    LossState,
    NoiseCategory,
    NoiseRng,
    PipelineConfig,
    Route,
    SenderConfig,
    VideoSequence,
    WindowPlan,
    add_gaussian_noise,
    analyze_frame,
    denoise_keyframe,
    denoise_window,
    estimate_sigma,
    fork_decision,
    gaussian_kernel,
    make_sequence,
    median_filter_3x3,
    run_denoise,
    run_simulate,
)

import rtcdenoise.image_denoiser
import rtcdenoise.pipeline
import rtcdenoise.video_denoiser
from rtcdenoise import lanes
import oracles
from oracles import denoise_stream
from util import PLACEMENTS, frames_equal, helpers_blocked, helpers_claim_every_fork, sequences_equal


def _noisy_sequence(n, sigma, seed=0, width=96, height=64, **kwargs):
    clean = make_sequence(n, width, height, seed=seed, **kwargs)
    frames = tuple(add_gaussian_noise(f, sigma, seed=t) for t, f in enumerate(clean))
    return clean, VideoSequence(frames=frames, frame_rate=clean.frame_rate)


# --- routing ------------------------------------------------------------------

def test_clean_input_bypasses_bit_identically():
    video = make_sequence(12, 96, 64, seed=1)
    out, reports, stats = run_denoise(video)
    assert sequences_equal(out, video)
    assert stats.frames_bypassed == 12 and stats.frames_denoised == 0
    for i, frame in enumerate(out):
        assert frame is video[i]  # passthrough, not a copy
    for t, report in enumerate(reports):
        assert report.frame_index == t
        assert report.reference_mode == "noref"
        assert report.runtime_ms == 0.0
        assert report.delta_sigma == 0.0
        assert report.score == 0.0
        assert report.detail_retention == 1.0
        assert report.sigma == analyze_frame(video[t - t % 5]).sigma
        assert report.psnr_noisy is report.psnr_denoised is None
        assert report.ssim_noisy is report.ssim_denoised is None
        assert report.ms_ssim_noisy is report.ms_ssim_denoised is None
        assert report.vifp_noisy is report.vifp_denoised is None
        assert report.delta_psnr is report.delta_ssim is None


def test_noisy_input_denoises_every_frame():
    _, noisy = _noisy_sequence(10, 30.0, seed=2)
    out, reports, stats = run_denoise(noisy)
    assert stats.frames_denoised == 10 and stats.frames_bypassed == 0
    assert not sequences_equal(out, noisy)
    for report in reports:
        assert report.sigma > 20.0
        assert report.delta_sigma > 0.0
        assert report.runtime_ms > 0.0


def test_mixed_halves_fork_per_keyframe_cohort():
    clean = make_sequence(20, 96, 64, seed=3)
    frames = tuple(
        f if t < 10 else add_gaussian_noise(f, 30.0, seed=t) for t, f in enumerate(clean)
    )
    video = VideoSequence(frames=frames, frame_rate=clean.frame_rate)
    out, _, stats = run_denoise(video)
    # keyframes 0 and 5 are clean, 10 and 15 noisy: two cohorts each way
    assert stats.frames_bypassed == 10
    assert stats.frames_denoised == 10
    for t in range(10):
        assert out[t] is video[t]
    for t in range(10, 20):
        assert not frames_equal(out[t], video[t])


def test_empty_input_rejected():
    empty = VideoSequence(frames=(), frame_rate=Fraction(25))
    with pytest.raises(ValueError):
        run_denoise(empty)
    with pytest.raises(ValueError):
        run_simulate(empty)


# --- output recomposition --------------------------------------------------------

def test_run_denoise_matches_manual_recomposition():
    """The pipeline must equal the documented composition of its parts."""
    n, cadence = 12, 5
    _, noisy = _noisy_sequence(n, 25.0, seed=4)
    config = PipelineConfig()
    out, _, _ = run_denoise(noisy, config)

    plan = WindowPlan(n, cadence)
    records = {}
    for k in plan.keyframe_indices:
        estimate = analyze_frame(noisy[k])
        work, sigma_work = noisy[k], estimate.sigma
        if estimate.category is NoiseCategory.SALT_PEPPER:
            work = median_filter_3x3(noisy[k])
            sigma_work = estimate_sigma(work)
        decision = fork_decision(estimate, config.threshold)
        output = (
            denoise_keyframe(work, sigma_work, config.cascade)
            if decision.route is Route.DENOISE
            else noisy[k]
        )
        records[k] = (decision.route, sigma_work, output)

    def source(idx):
        return records[idx][2] if idx in records else noisy[idx]

    for t in range(n):
        k = plan.last_keyframe_at_or_before(t)
        route, sigma_work, key_output = records[k]
        if t == k:
            expected = key_output
        elif route is Route.DENOISE:
            window = [source(i) for i in plan.window(t)]
            expected = denoise_window(window, sigma_work, config.block)
        else:
            expected = noisy[t]
        assert frames_equal(out[t], expected), f"frame {t} diverges"


@pytest.mark.parametrize("cadence, n", [(2, 7), (3, 11), (5, 13)])
def test_run_denoise_matches_stream_oracle(cadence, n):
    """Windows assembled cohort by cohort equal the whole-stream reference."""
    _, noisy = _noisy_sequence(n, 25.0, seed=16)
    out, reports, stats = run_denoise(noisy, PipelineConfig(cadence=cadence))
    assert stats.frames_denoised == n
    plan = WindowPlan(n, cadence)
    keys = plan.keyframe_indices
    expected = denoise_stream(noisy, {k: out[k] for k in keys},
                              {k: reports[k].sigma for k in keys}, plan)
    assert sequences_equal(out, expected)


# --- failures -----------------------------------------------------------------------

# Tasks, each looked up through the module that calls it: the keyframe
# smooth's rows (one half forked), a forked first-level temporal block, the
# window the cohort computes on its own thread, and a frame's report (a
# background fork that trails a temporal frame).
FORKED_TASKS = [
    (rtcdenoise.image_denoiser, "_smooth_rows"),
    (rtcdenoise.video_denoiser, "denoise_block"),
    (rtcdenoise.pipeline, "denoise_window"),
    (rtcdenoise.pipeline, "_report"),
]


@pytest.mark.parametrize("module, name", FORKED_TASKS, ids=[name for _, name in FORKED_TASKS])
@pytest.mark.parametrize("placement", list(PLACEMENTS))
def test_stage_failure_raises_instead_of_hanging(placement, module, name, monkeypatch):
    _, noisy = _noisy_sequence(40, 25.0, seed=15)
    original = getattr(module, name)
    lock = threading.Lock()
    calls = []
    running = [0]
    after_raise = []
    raised_event = threading.Event()

    def failing(*args, **kwargs):
        with lock:
            calls.append(None)
            running[0] += 1
            if raised_event.is_set():
                after_raise.append(None)
            fail = len(calls) > 3
        try:
            if fail:
                raise RuntimeError("injected fault")
            return original(*args, **kwargs)
        finally:
            with lock:
                running[0] -= 1

    monkeypatch.setattr(module, name, failing)
    raised = []

    def run():
        try:
            run_denoise(noisy)
        except Exception as exc:
            with lock:
                raised.append((exc, running[0]))
            raised_event.set()

    worker = threading.Thread(target=run, daemon=True)
    with PLACEMENTS[placement]():
        worker.start()
        worker.join(timeout=30)
    assert not worker.is_alive(), "run_denoise hung after a stage failure"
    assert len(raised) == 1 and str(raised[0][0]) == "injected fault"
    # no task of the run is still running once it has raised, and none starts later
    assert raised[0][1] == 0
    time.sleep(0.2)
    assert not after_raise


@pytest.mark.parametrize("forked, failing", [
    ((rtcdenoise.video_denoiser, "denoise_block"), (rtcdenoise.pipeline, "build_report_noref")),
    ((rtcdenoise.pipeline, "denoise_window"), (rtcdenoise.pipeline, "build_report_noref")),
], ids=["denoise_block", "denoise_window"])
def test_caller_error_leaves_no_forked_task_running(forked, failing, monkeypatch):
    _, noisy = _noisy_sequence(12, 25.0, seed=18)
    original = getattr(*forked)
    lock = threading.Lock()
    running = [0]
    after_raise = []
    raised = threading.Event()

    def slow(*args, **kwargs):
        with lock:
            running[0] += 1
            if raised.is_set():
                after_raise.append(None)
        try:
            time.sleep(0.05)  # still running when the caller fails
            return original(*args, **kwargs)
        finally:
            with lock:
                running[0] -= 1

    def fail(*args, **kwargs):
        raise RuntimeError("injected caller fault")

    monkeypatch.setattr(*forked, slow)
    monkeypatch.setattr(*failing, fail)
    with pytest.raises(RuntimeError, match="injected caller fault"):
        try:
            run_denoise(noisy)
        finally:
            with lock:
                running_at_raise = running[0]
            raised.set()
    assert running_at_raise == 0
    time.sleep(0.3)
    assert not after_raise


def test_a_fault_while_reports_trail_leaves_no_report_running(monkeypatch):
    _, noisy = _noisy_sequence(16, 25.0, seed=18)
    keyframe, report = rtcdenoise.pipeline._keyframe, rtcdenoise.pipeline._report
    lock = threading.Lock()
    running = [0]
    after_raise = []
    raised = threading.Event()
    keyframes = []

    def slow_report(*args):
        with lock:
            running[0] += 1
            if raised.is_set():
                after_raise.append(None)
        try:
            time.sleep(0.02)  # cohort 0's reports still trail at keyframe 10
            return report(*args)
        finally:
            with lock:
                running[0] -= 1

    def failing_keyframe(frame, config):
        keyframes.append(None)
        if len(keyframes) == 3:  # keyframe 10, under which cohort 0's reports trail
            raise RuntimeError("injected keyframe fault")
        return keyframe(frame, config)

    monkeypatch.setattr(rtcdenoise.pipeline, "_report", slow_report)
    monkeypatch.setattr(rtcdenoise.pipeline, "_keyframe", failing_keyframe)
    with pytest.raises(RuntimeError, match="injected keyframe fault"):
        try:
            run_denoise(noisy)
        finally:
            with lock:
                running_at_raise = running[0]
            raised.set()
    assert running_at_raise == 0
    time.sleep(0.3)
    assert not after_raise


def test_smooth_error_on_the_caller_leaves_no_half_running(monkeypatch):
    _, noisy = _noisy_sequence(6, 25.0, seed=18)
    original = rtcdenoise.image_denoiser._smooth_rows
    running = []
    after_raise = []
    raised = threading.Event()

    def rows(padded, kernel, w, out, r0, r1):
        if r0 == 0:  # the caller's own half
            raise RuntimeError("injected caller fault")
        if raised.is_set():
            after_raise.append(None)
        running.append(None)
        try:
            time.sleep(0.05)  # still running when the caller fails
            return original(padded, kernel, w, out, r0, r1)
        finally:
            running.pop()

    monkeypatch.setattr(rtcdenoise.image_denoiser, "_smooth_rows", rows)
    with pytest.raises(RuntimeError, match="injected caller fault"):
        try:
            run_denoise(noisy)
        finally:
            running_at_raise = len(running)
            raised.set()
    assert running_at_raise == 0
    time.sleep(0.3)
    assert not after_raise


def _recording_helper(monkeypatch):
    """Record the function of each Fork offered to the helper pool, then pass it on."""
    submitted = []
    pool = lanes._HELPER

    class Recording:
        def submit(self, fn, *args):
            submitted.append(fn.__self__._task[0])  # fn is the offered Fork's _run
            return pool.submit(fn, *args)

    monkeypatch.setattr(lanes, "_HELPER", Recording() if pool is not None else None)
    return submitted


def test_run_forks_blocks_and_kernel_halves_but_no_window(monkeypatch):
    if lanes._HELPER is None:
        pytest.skip("one usable CPU: nothing is offered to a helper")
    _, noisy = _noisy_sequence(12, 25.0, seed=17)
    submitted = _recording_helper(monkeypatch)
    _, _, stats = run_denoise(noisy)
    assert stats.frames_denoised == 12
    offered = {fn.__name__ for fn in submitted}
    assert {"denoise_block", "_smooth_rows", "_bilateral_runs", "_report"} <= offered
    assert "denoise_window" not in offered
    # a full-reference report shares its own pieces out over both lanes, and
    # the sender halves its noise and codec, so no report is forked whole
    submitted.clear()
    run_simulate(make_sequence(12, 96, 64, seed=17), PipelineConfig(sender=SenderConfig(noise_sigma=25.0)))
    offered = {fn.__name__ for fn in submitted}
    assert {"_psnr", "_ms_ssim_levels", "_vif_scales", "_normal_runs", "_dct_block_rows"} <= offered
    assert "_report" not in offered


def test_reports_trail_their_cohort_until_the_next_one_starts(monkeypatch):
    if lanes._HELPER is None:
        pytest.skip("one usable CPU: nothing is offered to a helper")
    _, noisy = _noisy_sequence(23, 25.0, seed=19)
    cohort = rtcdenoise.pipeline._cohort
    trailing = []  # the report forks of every cohort run so far
    unfinished = []  # how many of them were not done as each cohort started

    def recording(start, *args):
        unfinished.append(sum(not fork.done() for fork in trailing))
        record, emitted = cohort(start, *args)
        trailing.extend(item.report for item in emitted if isinstance(item.report, lanes.Fork))
        return record, emitted

    monkeypatch.setattr(rtcdenoise.pipeline, "_cohort", recording)
    out, reports, stats = run_denoise(noisy)
    # every temporal frame's report trails it; each keyframe's runs in its cohort
    assert len(trailing) == 23 - len(WindowPlan(23).keyframe_indices)
    assert unfinished == [0] * 5
    assert all(fork.done() for fork in trailing)
    assert len(stats.analyze_ms) == 23 and all(ms > 0 for ms in stats.analyze_ms)
    with helpers_blocked():
        expected = run_denoise(noisy)
    assert sequences_equal(out, expected[0]) and reports == expected[1]


# --- a window on its own --------------------------------------------------------------

def test_standalone_window_equals_cohort_output_and_oracle():
    n, sigma = 6, 25.0
    _, noisy = _noisy_sequence(n, sigma, seed=20, width=24, height=16)
    out, reports, stats = run_denoise(noisy)
    assert stats.frames_denoised == n
    plan = WindowPlan(n)
    keys = plan.keyframe_indices
    sigma_work = reports[0].sigma  # Gaussian noise: no prefilter, so the cascade's sigma
    for t in plan.cohort(0)[1:]:
        window = [out[i] if i in keys else noisy[i] for i in plan.window(t)]
        free = denoise_window(window, sigma_work)
        with helpers_blocked():
            claimed = denoise_window(window, sigma_work)
        assert frames_equal(free, out[t]) and frames_equal(claimed, out[t]), t
        if t == 2:
            first = [oracles.classical_block(*(f.y for f in window[i : i + 3]), sigma_work, 1.0, True)
                     for i in range(3)]
            assert np.array_equal(free.y, oracles.classical_block(*first, sigma_work, 1.0, True))


def test_standalone_window_error_leaves_no_block_running(monkeypatch):
    _, noisy = _noisy_sequence(5, 25.0, seed=21)
    window = list(noisy)
    original = rtcdenoise.video_denoiser.denoise_block
    lock = threading.Lock()
    running = [0]
    after_raise = []
    raised = threading.Event()

    def slow_or_failing(f_a, *args, **kwargs):
        with lock:
            running[0] += 1
            if raised.is_set():
                after_raise.append(None)
        try:
            if f_a is window[2]:  # the last first-level block, which the caller joins first
                raise RuntimeError("injected block fault")
            time.sleep(0.05)  # still running when the failing block raises
            return original(f_a, *args, **kwargs)
        finally:
            with lock:
                running[0] -= 1

    monkeypatch.setattr(rtcdenoise.video_denoiser, "denoise_block", slow_or_failing)
    with pytest.raises(RuntimeError, match="injected block fault"):
        try:
            denoise_window(window, 25.0)
        finally:
            with lock:
                running_at_raise = running[0]
            raised.set()
    assert running_at_raise == 0
    time.sleep(0.3)
    assert not after_raise


# --- schedules ------------------------------------------------------------------------

def _mixed_c420(n, seed):
    clean = make_sequence(n, 40, 36, seed=seed, motion=(1.0, 0.5), with_chroma=True)
    # sigma switches between 4 and 30 inside cohorts, so both routes run
    return VideoSequence(tuple(add_gaussian_noise(f, 30.0 if (t // 4) % 2 else 4.0, seed=t)
                               for t, f in enumerate(clean)))


def _run_counted(run):
    """run() with denoise_block and denoise_window calls counted, from any thread."""
    counts = {"denoise_block": 0, "denoise_window": 0}
    lock = threading.Lock()
    sites = [(rtcdenoise.video_denoiser, "denoise_block"), (rtcdenoise.pipeline, "denoise_window")]
    originals = [getattr(module, name) for module, name in sites]

    def counted(name, original):
        def call(*args, **kwargs):
            with lock:
                counts[name] += 1
            return original(*args, **kwargs)
        return call

    for (module, name), original in zip(sites, originals):
        setattr(module, name, counted(name, original))
    try:
        return run(), counts
    finally:
        for (module, name), original in zip(sites, originals):
            setattr(module, name, original)


def _schedules(config, run):
    """run(config) as it falls, with the helper claiming every fork, with the
    helpers blocked (the caller claims every fork), under a tiny switch
    interval, and with no helper (as on one CPU: each fork runs when joined)."""
    results = {"free": _run_counted(lambda: run(config))}
    with helpers_claim_every_fork():
        results["claimed"] = _run_counted(lambda: run(config))
    with helpers_blocked():
        results["reclaimed"] = _run_counted(lambda: run(config))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        results["switching"] = _run_counted(lambda: run(config))
    finally:
        sys.setswitchinterval(interval)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lanes, "_HELPER", None)
        results["helperless"] = _run_counted(lambda: run(config))
    return results


def _expected_blocks(plan, reports):
    """Each distinct first-level block of a denoised cohort once, plus one per window."""
    total = 0
    for k in plan.keyframe_indices:
        windows = [plan.window(t) for t in plan.cohort(k)[1:]]
        if reports[k].runtime_ms > 0:  # the cohort denoised
            total += len({w[i : i + 3] for w in windows for i in range(3)}) + len(windows)
    return total


@pytest.mark.parametrize("cadence, n", [(2, 13), (3, 13), (5, 13)])
def test_schedules_give_identical_denoise_results(cadence, n):
    noisy = _mixed_c420(n, seed=31)
    results = _schedules(PipelineConfig(cadence=cadence), lambda c: run_denoise(noisy, c))
    (out, reports, stats), counts = results["free"]
    assert 0 < stats.frames_bypassed < n
    assert counts["denoise_block"] == _expected_blocks(WindowPlan(n, cadence), reports)
    for schedule, ((other_out, other_reports, _), other_counts) in results.items():
        assert sequences_equal(other_out, out), schedule
        assert other_reports == reports, schedule
        assert other_counts == counts, schedule


@pytest.mark.parametrize("cadence, n", [(2, 13), (3, 13), (5, 13)])
def test_schedules_give_identical_simulate_results(cadence, n):
    clip = _mixed_c420(n, seed=32)
    config = PipelineConfig(
        cadence=cadence,
        feedback_window=3,
        loss=replace(PipelineConfig().loss, p_loss=0.05, seed=5),
    )
    results = _schedules(config, lambda c: run_simulate(clip, c))
    free, counts = results["free"]
    assert 0 < free.stats.frames_bypassed < n
    for schedule, (result, other_counts) in results.items():
        _assert_same_result(result, free)
        assert other_counts == counts, schedule


# --- simulation loop ---------------------------------------------------------------

def test_simulate_near_lossless_channel_bypasses():
    clean = make_sequence(10, 96, 64, seed=5)
    config = PipelineConfig(sender=SenderConfig(q=1, q_min=1))
    result = run_simulate(clean, config)
    err = max(
        float(np.abs(r.luma_f64() - c.luma_f64()).max())
        for r, c in zip(result.received, clean)
    )
    assert err <= 1.0
    assert result.stats.frames_bypassed == 10
    assert sequences_equal(result.denoised, result.received)


def test_simulate_feedback_cadence_and_windows():
    clean = make_sequence(20, 96, 64, seed=6)
    config = PipelineConfig(
        feedback_window=5, sender=SenderConfig(noise_sigma=25.0)
    )
    result = run_simulate(clean, config)
    assert len(result.feedback_log) == 4
    for i, message in enumerate(result.feedback_log):
        assert (message.window_start, message.window_end) == (5 * i, 5 * i + 4)
    assert len(result.reports) == 20
    for report in result.reports:
        assert report.reference_mode == "full"
        assert report.psnr_noisy is not None


def test_simulate_feedback_disabled_keeps_initial_trace_only():
    clean = make_sequence(12, 96, 64, seed=7)
    config = PipelineConfig(feedback_window=0, sender=SenderConfig(noise_sigma=25.0))
    result = run_simulate(clean, config)
    assert result.feedback_log == []
    assert len(result.sender_trace) == 1
    assert result.sender_trace[0].frame_index == 0
    assert result.sender_trace[0].q == 16


def test_simulate_framerate_divisor_repeats_frames():
    # moving content so consecutive encoded slots genuinely differ
    clean = make_sequence(9, 96, 64, seed=8, motion=(2.0, 1.0))
    config = PipelineConfig(
        feedback_window=0, sender=SenderConfig(framerate_divisor=3)
    )
    result = run_simulate(clean, config)
    assert len(result.received) == 9
    for t in range(9):
        expected_slot = (t // 3) * 3
        assert frames_equal(result.received[t], result.received[expected_slot])
    assert not frames_equal(result.received[0], result.received[3])


def test_simulate_trace_entries_record_config_changes():
    # strong grain that denoising cannot fix drives RAISE_BITRATE steps
    clean = make_sequence(20, 96, 64, seed=9, style="grain", grain_sigma=28.0)
    config = PipelineConfig(
        feedback_window=5, sender=SenderConfig(q=32, noise_sigma=0.0)
    )
    result = run_simulate(clean, config)
    assert len(result.sender_trace) >= 2
    qs = [entry.q for entry in result.sender_trace]
    assert qs[0] == 32
    assert all(b < a for a, b in zip(qs, qs[1:]))
    assert all(a - b == 4 for a, b in zip(qs, qs[1:]))


# --- determinism, wherever the forks run ----------------------------------------------

def _assert_same_result(a, b):
    assert sequences_equal(a.received, b.received)
    assert sequences_equal(a.denoised, b.denoised)
    assert a.reports == b.reports
    assert a.feedback_log == b.feedback_log
    assert a.sender_trace == b.sender_trace


def test_simulate_rerun_is_bit_identical():
    clean = make_sequence(15, 96, 64, seed=10)
    config = PipelineConfig(
        feedback_window=5,
        sender=SenderConfig(noise_sigma=25.0),
        loss=replace(PipelineConfig().loss, p_loss=0.05, seed=3),
    )
    _assert_same_result(run_simulate(clean, config), run_simulate(clean, config))


def test_sender_mixes_the_loss_seed_into_the_pipeline_seed():
    config = PipelineConfig(seed=11, loss=LossModel(p_loss=0.3, seed=4))
    sender = rtcdenoise.pipeline._Sender(config)
    assert sender.loss is config.loss  # kept as given: [loss] seed stays a substream id
    state = sender.loss_state
    assert state.rng.seed == NoiseRng(seed=11).derive(2).derive(4).seed
    assert state.rng.counter == 0 and state.in_bad is False
    # distinct pipeline seeds give distinct channel streams for the same settings
    other = rtcdenoise.pipeline._Sender(replace(config, seed=12))
    assert other.loss_state.rng.seed != state.rng.seed
    # the stream runs on from frame to frame: one draw per 16-row slice
    for index, frame in enumerate(make_sequence(2, 96, 64, seed=1)):
        sender.produce(index, frame)
    assert state.rng.counter == 2 * 4


def test_the_largest_seeds_run_a_run_of_their_own():
    top = 2 ** 64 - 1  # the largest seed a stream keeps as given
    config = PipelineConfig(seed=top, sender=SenderConfig(noise_sigma=10.0),
                            loss=LossModel(p_loss=0.3, seed=top))
    assert rtcdenoise.pipeline._Sender(config).loss_state == LossState(NoiseRng(top).derive(2).derive(top))
    clean = make_sequence(4, 48, 32, seed=2)
    lowest = run_simulate(clean, replace(config, seed=0, loss=replace(config.loss, seed=0)))
    highest = run_simulate(clean, config)
    assert not frames_equal(lowest.received[0], highest.received[0])


@pytest.mark.parametrize("placement", ["free", "claimed"])
@pytest.mark.parametrize("n, cadence", [(13, 3), (7, 5)])
def test_run_simulate_sink_gets_every_frame_in_order_and_keeps_none(n, cadence, placement):
    # the sender lowers its rate, resolution or quality on each message; at
    # cadence 5 the first one applies at frame 7, the 7-frame clip's end,
    # where it changes no frame and so leaves no trace entry
    clean = make_sequence(n, 40, 36, seed=n, motion=(1.0, 0.5), with_chroma=True)
    config = PipelineConfig(
        cadence=cadence, feedback_window=4, budget_ms=0.05,
        sender=SenderConfig(noise_sigma=25.0),
        loss=replace(PipelineConfig().loss, p_loss=0.1, seed=2),
    )
    whole = run_simulate(clean, config)
    seen = []
    # a bare iterator: with a sink, no frame_rate is read
    with PLACEMENTS[placement]():
        streamed = run_simulate(iter(clean.frames), config, sink=lambda *item: seen.append(item))
    assert streamed[:3] == (None, None, None)
    assert streamed.feedback_log == whole.feedback_log and len(whole.feedback_log) == n // 4
    assert streamed.sender_trace == whole.sender_trace
    assert all(entry.frame_index < n for entry in whole.sender_trace)
    assert streamed.stats.frame_count == n
    assert [report for _, _, report in seen] == whole.reports
    assert all(frames_equal(r, a) and frames_equal(d, b)
               for (r, d, _), a, b in zip(seen, whole.received, whole.denoised))
    assert len(seen) == n


def test_simulate_agrees_on_either_lane():
    clean = make_sequence(15, 96, 64, seed=11)
    config = PipelineConfig(
        feedback_window=5,
        sender=SenderConfig(noise_sigma=25.0),
        loss=replace(PipelineConfig().loss, p_loss=0.05, seed=4),
    )
    free = run_simulate(clean, config)
    for placement in (helpers_claim_every_fork, helpers_blocked):
        with placement():
            _assert_same_result(run_simulate(clean, config), free)



class _SlowSource:
    """A clip whose frames take a while to arrive, counting those returned."""

    def __init__(self, video, delay_s):
        self.video, self.delay_s, self.returned = video, delay_s, 0
        self.frame_rate = video.frame_rate

    def __len__(self):
        return len(self.video)

    def __getitem__(self, t):
        time.sleep(self.delay_s)
        self.returned += 1
        return self.video[t]


def test_a_finished_cohort_is_emitted_after_the_next_frame(monkeypatch):
    _, noisy = _noisy_sequence(17, 25.0, seed=16, width=48, height=32)
    expected = run_denoise(noisy)[0]
    source = _SlowSource(noisy, 0.03)
    finished = {}  # cohort start -> frames returned when its unit finished
    cohort = rtcdenoise.pipeline._cohort

    def recording(start, *args):
        result = cohort(start, *args)
        finished[start] = source.returned
        return result

    monkeypatch.setattr(rtcdenoise.pipeline, "_cohort", recording)
    arrived = []  # frames returned when each output frame reached the sink
    outputs = []

    def sink(frame, report):
        arrived.append(source.returned)
        outputs.append(frame)

    cadence = PipelineConfig().cadence
    run_denoise(source, sink=sink)
    assert sequences_equal(VideoSequence(tuple(outputs)), expected)
    for t, count in enumerate(arrived):
        assert count - finished[t - t % cadence] <= 1, t


# --- modeled runtime ----------------------------------------------------------------

@pytest.mark.parametrize("sigma_work, taps", [(13.3335, 7), (20.003, 9), (25.0, 9)])
def test_modeled_keyframe_cost_counts_the_gaussian_taps_the_kernel_runs(sigma_work, taps):
    # just above 3 * sigma_g = 2 and 3 the kernel's radius rounds up
    config = PipelineConfig()
    assert len(gaussian_kernel(config.cascade.gaussian_sigma(sigma_work))) == taps
    p = rtcdenoise.pipeline
    per_px = 7 * 7 * p._NS_BILATERAL_TAP + 2 * taps * p._NS_GAUSSIAN_TAP + p._NS_FUSE
    pixels = 480 * 360
    assert p._virtual_image_ms(pixels, sigma_work, config) == pytest.approx(pixels * per_px * 1e-6)


# --- stats ------------------------------------------------------------------------

def test_stats_accounting_invariants():
    _, noisy = _noisy_sequence(11, 25.0, seed=13)
    _, _, stats = run_denoise(noisy)
    assert stats.frame_count == 11
    assert stats.frames_bypassed + stats.frames_denoised == 11
    assert len(stats.detect_ms) == 3   # one per keyframe
    assert len(stats.analyze_ms) == 11
    assert all(v >= 0.0 for v in stats.detect_ms)
    assert all(v >= 0.0 for v in stats.video_denoise_ms)
    assert stats.mean_latency_ms >= 0.0
    assert stats.p95_latency_ms >= 0.0
    assert stats.achieved_fps > 0.0
    assert stats.wall_ms > 0.0
    payload = stats.to_json_dict()
    assert payload["frame_count"] == 11
    assert payload["detect_ms"] == list(stats.detect_ms)
