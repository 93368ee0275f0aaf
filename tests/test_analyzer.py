import json
import math

import numpy as np
import pytest

from rtcdenoise import (
    DEFAULT_BUDGET_MS,
    DEFAULT_WEIGHTS,
    AnalyzerReport,
    FeedbackMessage,
    Frame,
    Recommendation,
    add_gaussian_noise,
    build_report,
    build_report_noref,
    denoise_keyframe,
    estimate_sigma,
    feedback_to_json,
    make_feedback,
    make_frame,
    performance_score,
    psnr,
    report_to_json,
    ssim,
    stage_smooth,
)

import oracles
from util import helpers_blocked, helpers_claim_every_fork, on_single_lane


def _report(delta_psnr=1.0, delta_sigma=None, sigma=25.0, runtime_ms=10.0, index=0):
    """Minimal synthetic report for feedback-policy tests."""
    return AnalyzerReport(
        frame_index=index,
        reference_mode="full" if delta_psnr is not None else "noref",
        psnr_noisy=None, psnr_denoised=None,
        ssim_noisy=None, ssim_denoised=None,
        ms_ssim_noisy=None, ms_ssim_denoised=None,
        vifp_noisy=None, vifp_denoised=None,
        detail_retention=None,
        delta_psnr=delta_psnr,
        delta_ssim=0.01 if delta_psnr is not None else None,
        delta_sigma=delta_sigma,
        sigma=sigma,
        runtime_ms=runtime_ms,
        score=0.0,
    )


# --- performance score ----------------------------------------------------------

def test_performance_score_closed_forms():
    # full gains, no cost: 0.4 + 0.4
    assert performance_score(10.0, 0.1, 0.0) == pytest.approx(0.8)
    # no gain, runtime exactly at budget: -0.2
    assert performance_score(0.0, 0.0, DEFAULT_BUDGET_MS) == pytest.approx(-0.2)
    # half gains and half budget: 0.2 + 0.2 - 0.1
    assert performance_score(5.0, 0.05, DEFAULT_BUDGET_MS / 2) == pytest.approx(0.3)


def test_performance_score_clamps_gains():
    assert performance_score(50.0, 0.5, 0.0) == pytest.approx(0.8)
    assert performance_score(-10.0, -0.5, 0.0) == pytest.approx(0.0)


def test_performance_score_runtime_term_is_unclamped():
    assert performance_score(0.0, 0.0, 10 * DEFAULT_BUDGET_MS) == pytest.approx(-2.0)


def test_performance_score_monotonicity():
    grid = [0.0, 2.0, 6.0, 10.0]
    scores = [performance_score(d, 0.0, 20.0) for d in grid]
    assert scores == sorted(scores)
    runtimes = [performance_score(5.0, 0.05, r) for r in (0.0, 20.0, 40.0, 80.0)]
    assert runtimes == sorted(runtimes, reverse=True)


def test_performance_score_validation():
    with pytest.raises(ValueError):
        performance_score(1.0, 0.0, 1.0, budget_ms=0.0)
    with pytest.raises(ValueError):
        performance_score(1.0, 0.0, 1.0, weights=(-0.1, 0.5, 0.5))


# --- report builders --------------------------------------------------------------

@pytest.fixture(scope="module")
def report_inputs(natural_frames):
    ref = natural_frames[0]
    noisy = add_gaussian_noise(ref, 25.0, seed=1)
    denoised = denoise_keyframe(noisy, 25.0)
    return ref, noisy, denoised


def test_build_report_fields_consistent(report_inputs):
    ref, noisy, denoised = report_inputs
    report = build_report(3, ref, noisy, denoised, sigma=25.0, runtime_ms=12.0)
    assert report.frame_index == 3
    assert report.reference_mode == "full"
    assert report.psnr_noisy == psnr(ref, noisy)
    assert report.psnr_denoised == psnr(ref, denoised)
    assert report.ssim_noisy == ssim(ref, noisy)
    assert report.delta_psnr == pytest.approx(report.psnr_denoised - report.psnr_noisy)
    assert report.delta_ssim == pytest.approx(report.ssim_denoised - report.ssim_noisy)
    assert report.delta_sigma is None
    assert report.score == pytest.approx(
        performance_score(report.delta_psnr, report.delta_ssim, 12.0)
    )


def test_build_report_identical_frames_zero_delta(natural_frames):
    ref = natural_frames[1]
    report = build_report(0, ref, ref, ref, sigma=0.0, runtime_ms=0.0)
    # inf - inf must not produce nan
    assert report.delta_psnr == 0.0
    assert report.psnr_noisy == math.inf
    assert report.score == pytest.approx(0.0)


def _noisy_pair(ref, sigma, seed):
    noisy = add_gaussian_noise(ref, sigma, seed=seed)
    return noisy, stage_smooth(noisy, sigma)


def _flat(value, h, w):
    return Frame(y=np.full((h, w), value, dtype=np.uint8))


def _half_flat(frame):
    y = frame.y.copy()
    y[:, : y.shape[1] // 2] = 77
    return Frame(y=y)


def _sized(h, w, seed):
    return make_frame(w, h, seed=seed, style="grain")


def _report_case(name):
    natural = make_frame(128, 96, seed=4)
    if name == "natural":
        return (natural, *_noisy_pair(natural, 25.0, 1))
    if name == "flat-reference":
        ref = _flat(100, 48, 64)
        return (ref, *_noisy_pair(ref, 15.0, 2))
    if name == "half-flat-reference":
        ref = _half_flat(natural)
        return (ref, *_noisy_pair(ref, 10.0, 3))
    if name == "flat-test":
        return natural, _flat(30, 96, 128), stage_smooth(natural, 20.0)
    if name == "inverted-test":
        inverted = Frame(y=255 - natural.y)
        return natural, inverted, stage_smooth(inverted, 20.0)
    if name == "identical":
        return natural, Frame(y=natural.y.copy()), Frame(y=natural.y.copy())
    if name == "denoised-is-noisy":
        noisy = add_gaussian_noise(natural, 25.0, seed=5)
        return natural, noisy, noisy
    h, w = (int(side) for side in name.split("x"))
    ref = _sized(h, w, seed=h)
    return (ref, *_noisy_pair(ref, 20.0, w))


REPORT_CASES = [
    "natural", "flat-reference", "half-flat-reference", "flat-test", "inverted-test",
    "identical", "denoised-is-noisy", "17x17", "24x31", "45x90",
]


@pytest.mark.parametrize("case", REPORT_CASES)
def test_build_report_equals_separable_reference_exactly(case):
    """Shared reference-side moments must not change a single bit of a report."""
    ref, noisy, denoised = _report_case(case)
    report = build_report(5, ref, noisy, denoised, sigma=12.5, runtime_ms=9.0)
    expected = oracles.full_reference_report(
        5, ref, noisy, denoised, 12.5, 9.0, DEFAULT_BUDGET_MS, DEFAULT_WEIGHTS
    )
    assert report == expected
    if case == "identical":
        assert report.psnr_noisy == math.inf and report.delta_psnr == 0.0


def _placed(placement, fn, *args):
    """fn(*args) with the report's pieces placed: all on the caller, all forked ones on
    the helper, or on one lane ("worker": a thread marked as the helpers are), which
    forks nothing."""
    if placement == "helper-blocked":
        with helpers_blocked():
            return fn(*args)
    if placement == "helper-claims-all":
        with helpers_claim_every_fork():
            return fn(*args)
    return on_single_lane(fn, *args)


@pytest.mark.parametrize("placement", ["helper-blocked", "helper-claims-all", "worker"])
@pytest.mark.parametrize("case", REPORT_CASES)
def test_build_report_equals_separable_reference_in_every_placement(case, placement):
    """Whichever lane scores each piece of a report, the report keeps every bit."""
    ref, noisy, denoised = _report_case(case)
    report = _placed(placement, build_report, 5, ref, noisy, denoised, 12.5, 9.0)
    assert report == oracles.full_reference_report(
        5, ref, noisy, denoised, 12.5, 9.0, DEFAULT_BUDGET_MS, DEFAULT_WEIGHTS)


def test_build_report_noref_uses_sigma_proxy(report_inputs):
    _, noisy, denoised = report_inputs
    sigma_after = estimate_sigma(denoised)
    report = build_report_noref(7, noisy, denoised, 25.0, sigma_after, runtime_ms=8.0)
    assert report.reference_mode == "noref"
    assert report.psnr_noisy is None and report.delta_psnr is None
    assert report.delta_sigma == pytest.approx(25.0 - sigma_after)
    assert report.sigma == 25.0
    expected = 0.4 * min(max(report.delta_sigma / 10.0, 0.0), 1.0) - 0.2 * (8.0 / DEFAULT_BUDGET_MS)
    assert report.score == pytest.approx(expected)
    assert 0.0 < report.detail_retention <= 1.0


# --- feedback policy ----------------------------------------------------------------

def test_feedback_raise_bitrate_when_denoising_stalls():
    reports = [_report(delta_psnr=0.1, sigma=30.0, index=i) for i in range(5)]
    msg = make_feedback(reports)
    assert msg.recommendation is Recommendation.RAISE_BITRATE
    assert (msg.window_start, msg.window_end) == (0, 4)
    assert msg.mean_delta_psnr == pytest.approx(0.1)
    assert msg.mean_sigma == pytest.approx(30.0)


def test_feedback_no_raise_when_stream_is_clean():
    # poor gain but sigma below the threshold: nothing to raise bitrate for
    reports = [_report(delta_psnr=0.1, sigma=5.0, runtime_ms=1.0, index=i) for i in range(3)]
    assert make_feedback(reports).recommendation is Recommendation.NONE
    # the run's threshold decides what counts as noisy; a tie is noisy, as in fork_decision
    assert make_feedback(reports, sigma_threshold=5.0).recommendation is Recommendation.RAISE_BITRATE


def test_feedback_runtime_ladder():
    over = [_report(delta_psnr=3.0, runtime_ms=15.0, index=i) for i in range(4)]
    assert make_feedback(over, budget_ms=10.0).recommendation is Recommendation.LOWER_RESOLUTION
    way_over = [_report(delta_psnr=3.0, runtime_ms=25.0, index=i) for i in range(4)]
    assert make_feedback(way_over, budget_ms=10.0).recommendation is Recommendation.LOWER_FRAMERATE
    at_budget = [_report(delta_psnr=3.0, runtime_ms=10.0, index=i) for i in range(4)]
    assert make_feedback(at_budget, budget_ms=10.0).recommendation is Recommendation.NONE


def test_feedback_bitrate_outranks_runtime():
    # both rules fire; the bitrate rule is checked first
    reports = [_report(delta_psnr=0.0, sigma=40.0, runtime_ms=500.0, index=i) for i in range(3)]
    assert make_feedback(reports).recommendation is Recommendation.RAISE_BITRATE


def test_feedback_uses_sigma_proxy_for_noref_reports():
    reports = [
        _report(delta_psnr=None, delta_sigma=20.0, sigma=30.0, runtime_ms=1.0, index=i)
        for i in range(3)
    ]
    msg = make_feedback(reports)
    assert msg.mean_delta_psnr == pytest.approx(20.0)
    assert msg.recommendation is Recommendation.NONE


def test_feedback_skips_nonfinite_improvements():
    reports = [
        _report(delta_psnr=math.inf, index=0),
        _report(delta_psnr=2.0, index=1),
    ]
    assert make_feedback(reports).mean_delta_psnr == pytest.approx(2.0)


def test_feedback_empty_window_raises():
    with pytest.raises(ValueError):
        make_feedback([])


def test_feedback_policy_validation():
    for budget_ms in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match=r"budget_ms: must be in \(0, inf\)"):
            make_feedback([_report()], budget_ms=budget_ms)
    for threshold in (-1.0, math.nan, math.inf):  # the range PipelineConfig.threshold takes
        with pytest.raises(ValueError, match=r"sigma_threshold: must be in \[0, inf\)"):
            make_feedback([_report()], sigma_threshold=threshold)
    with pytest.raises(ValueError):
        FeedbackMessage(
            window_start=5, window_end=4,
            mean_delta_psnr=0.0, mean_delta_ssim=0.0,
            mean_runtime_ms=0.0, mean_sigma=0.0,
            recommendation=Recommendation.NONE,
        )


# --- json serialization ----------------------------------------------------------------

def test_report_json_roundtrip_and_infinity(natural_frames):
    ref = natural_frames[2]
    report = build_report(1, ref, ref, ref, sigma=0.0, runtime_ms=0.0)
    payload = json.loads(report_to_json(report))
    assert payload["frame_index"] == 1
    assert payload["psnr_noisy"] is None  # inf maps to null
    assert payload["ssim_noisy"] == pytest.approx(1.0)
    assert payload["reference_mode"] == "full"


def test_feedback_json_uses_enum_name():
    msg = make_feedback([_report(delta_psnr=0.0, sigma=40.0)])
    payload = json.loads(feedback_to_json(msg))
    assert payload["recommendation"] == "RAISE_BITRATE"
    assert payload["window_start"] == 0
