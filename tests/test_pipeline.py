import threading
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from rtcdenoise import (
    Frame,
    NoiseCategory,
    PipelineConfig,
    Route,
    SenderConfig,
    VideoSequence,
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
    schedule_windows,
)

import rtcdenoise.pipeline
from oracles import denoise_stream
from util import frames_equal, sequences_equal


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

    plan = schedule_windows(n, cadence)
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
    plan = schedule_windows(n, cadence)
    keys = plan.keyframe_indices
    expected = denoise_stream(noisy, {k: out[k] for k in keys},
                              {k: reports[k].sigma for k in keys}, plan)
    assert sequences_equal(out, expected)


# --- failures -----------------------------------------------------------------------

@pytest.mark.parametrize("execution", ["sequential", "threaded"])
def test_stage_failure_raises_instead_of_hanging(execution, monkeypatch):
    _, noisy = _noisy_sequence(40, 25.0, seed=15)
    original = rtcdenoise.pipeline.denoise_window
    calls = []

    def failing(*args, **kwargs):
        calls.append(None)
        if len(calls) > 3:
            raise RuntimeError("injected window fault")
        return original(*args, **kwargs)

    monkeypatch.setattr(rtcdenoise.pipeline, "denoise_window", failing)
    raised = []

    def run():
        try:
            run_denoise(noisy, PipelineConfig(execution=execution))
        except Exception as exc:
            raised.append(exc)

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(timeout=30)
    assert not worker.is_alive(), "run_denoise hung after a stage failure"
    assert len(raised) == 1 and str(raised[0]) == "injected window fault"


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


# --- determinism and execution modes --------------------------------------------------

def _assert_same_result(a, b):
    assert sequences_equal(a.received, b.received)
    assert sequences_equal(a.denoised, b.denoised)
    assert a.reports == b.reports
    assert a.feedback_log == b.feedback_log
    assert a.sender_trace == b.sender_trace


@pytest.mark.parametrize("execution", ["sequential", "threaded"])
def test_simulate_rerun_is_bit_identical(execution):
    clean = make_sequence(15, 96, 64, seed=10)
    config = PipelineConfig(
        execution=execution,
        feedback_window=5,
        sender=SenderConfig(noise_sigma=25.0),
        loss=replace(PipelineConfig().loss, p_loss=0.05, seed=3),
    )
    _assert_same_result(run_simulate(clean, config), run_simulate(clean, config))


def test_sequential_and_threaded_agree():
    clean = make_sequence(15, 96, 64, seed=11)
    base = PipelineConfig(
        feedback_window=5,
        sender=SenderConfig(noise_sigma=25.0),
        loss=replace(PipelineConfig().loss, p_loss=0.05, seed=4),
    )
    seq = run_simulate(clean, base)
    thr = run_simulate(clean, replace(base, execution="threaded"))
    _assert_same_result(seq, thr)


def test_run_denoise_modes_agree_on_outputs_and_reports():
    _, noisy = _noisy_sequence(12, 25.0, seed=12)
    out_seq, rep_seq, _ = run_denoise(noisy, PipelineConfig())
    out_thr, rep_thr, _ = run_denoise(noisy, PipelineConfig(execution="threaded"))
    assert sequences_equal(out_seq, out_thr)
    assert rep_seq == rep_thr


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


def test_trace_entry_json_shape():
    clean = make_sequence(6, 96, 64, seed=14)
    result = run_simulate(clean, PipelineConfig(feedback_window=0))
    payload = result.sender_trace[0].to_json_dict()
    assert payload == {
        "frame_index": 0,
        "q": 16,
        "resolution_scale": 1.0,
        "framerate_divisor": 1,
    }
