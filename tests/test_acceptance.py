"""Acceptance suite: one test per shipped guarantee, at the stated tolerance.

Run with -v for one pass/fail line per criterion. Numbered to match the
project acceptance checklist (1..9).
"""

import math
import time

import numpy as np
import pytest
from scipy.ndimage import gaussian_filter

from rtcdenoise import (
    INFINITE,
    BlockMode,
    BlockParams,
    Frame,
    LossKind,
    LossModel,
    PipelineConfig,
    Route,
    SenderConfig,
    VideoSequence,
    WindowPlan,
    add_gaussian_noise,
    analyze_frame,
    denoise_keyframe,
    denoise_window,
    detail_retention,
    encode_decode,
    estimate_sigma,
    fork_decision,
    make_frame,
    make_sequence,
    ms_ssim,
    psnr,
    quantize_plane,
    run_denoise,
    run_simulate,
    ssim,
    stage_smooth,
    transmit,
    vifp,
    zero_weights,
)

import oracles
from util import (frames_equal, helpers_blocked, helpers_claim_every_fork, mean_abs_frame_diff,
                  sequences_equal)

SIGMA_BAND = (20.0, 30.0, 40.0, 50.0)


def _noisy(video, sigma, seed_base=0):
    return VideoSequence(
        frames=tuple(
            add_gaussian_noise(f, sigma, seed=seed_base + t) for t, f in enumerate(video)
        ),
        frame_rate=video.frame_rate,
    )


def _pass(n, detail):
    print(f"criterion {n}: PASS ({detail})")


# -- 1. noise estimation accuracy and speed ------------------------------------

def test_criterion_1_noise_estimation(natural_frames):
    worst = 0.0
    for sigma in SIGMA_BAND:
        for fixture in natural_frames:
            mean_est = sum(
                estimate_sigma(add_gaussian_noise(fixture, sigma, seed=s))
                for s in range(5)
            ) / 5.0
            rel = abs(mean_est - sigma) / sigma
            worst = max(worst, rel)
            assert rel <= 0.15, f"sigma={sigma}: mean estimate {mean_est:.2f}"

    frame = add_gaussian_noise(natural_frames[0], 25.0, seed=0)
    analyze_frame(frame)  # warm caches before timing
    t0 = time.perf_counter()
    runs = 10
    for _ in range(runs):
        analyze_frame(frame)
    per_frame_ms = (time.perf_counter() - t0) / runs * 1e3
    assert per_frame_ms < 5.0, f"detection took {per_frame_ms:.2f} ms/frame"
    _pass(1, f"worst relative error {worst:.3f}, {per_frame_ms:.2f} ms/frame")


# -- 2. fork correctness ---------------------------------------------------------

def test_criterion_2_fork_correctness():
    clean = make_sequence(15, 320, 240, seed=21)
    out, _, stats = run_denoise(clean)
    assert sequences_equal(out, clean)
    assert stats.frames_bypassed == 15 and stats.frames_denoised == 0

    noisy = _noisy(clean, 30.0)
    _, _, noisy_stats = run_denoise(noisy)
    assert noisy_stats.frames_denoised == 15 and noisy_stats.frames_bypassed == 0

    # exact tie routes to DENOISE, both at the fork and through the pipeline
    estimate = analyze_frame(noisy[0])
    assert fork_decision(estimate, threshold=estimate.sigma).route is Route.DENOISE
    tie_config = PipelineConfig(threshold=estimate.sigma)
    _, _, tie_stats = run_denoise(
        VideoSequence(frames=(noisy[0],) * 3, frame_rate=clean.frame_rate), tie_config
    )
    assert tie_stats.frames_denoised == 3
    _pass(2, "bypass bit-identical, noisy all denoised, tie denoises")


# -- 3. denoiser topology ---------------------------------------------------------

def test_criterion_3_topology():
    # (a) zero-weight CONV net is the bit-exact identity on the center frame
    conv = BlockParams(mode=BlockMode.CONV, conv_weights=zero_weights())
    for seed in (1, 2, 3):
        window = list(make_sequence(5, 48, 32, seed=seed, motion=(1.0, 1.0)))
        out = denoise_window(window, 20.0, conv)
        assert np.array_equal(out.y, window[2].y)

    # (b) five identical frames below the activity floor pass through untouched
    frame = make_frame(48, 32, seed=4)
    out = denoise_window([frame] * 5, 0.4)
    assert np.array_equal(out.y, frame.y)

    # (c) schedule matches the independent reference exhaustively
    checked = 0
    for n in range(1, 26):
        for cadence in range(2, 7):
            plan = WindowPlan(n, cadence)
            roles, windows = oracles.schedule_reference(n, cadence)
            assert [r.value for r in plan.roles] == [
                "keyframe" if r == "keyframe" else "temporal" for r in roles
            ]
            assert list(plan.windows) == windows
            checked += 1
    _pass(3, f"conv identity, classical identity, {checked} schedules")


# -- 4. denoising efficacy ---------------------------------------------------------

def test_criterion_4_efficacy(natural_frames):
    gains = []
    for fixture in natural_frames:
        noisy = add_gaussian_noise(fixture, 25.0, seed=7)
        denoised = denoise_keyframe(noisy, estimate_sigma(noisy))
        d_psnr = psnr(fixture, denoised) - psnr(fixture, noisy)
        d_ssim = ssim(fixture, denoised) - ssim(fixture, noisy)
        assert d_psnr >= 2.0, f"dPSNR {d_psnr:.2f}"
        assert d_ssim >= 0.05, f"dSSIM {d_ssim:.3f}"
        gains.append(d_psnr)

    # flicker on a static noisy scene through the full pipeline
    clean = make_sequence(12, 320, 240, seed=41)
    noisy_seq = _noisy(clean, 25.0)
    out, _, _ = run_denoise(noisy_seq)
    flicker_in = mean_abs_frame_diff(noisy_seq)
    flicker_out = mean_abs_frame_diff(out)
    assert flicker_out <= 0.5 * flicker_in, f"{flicker_out:.2f} vs {flicker_in:.2f}"

    # detail survives better than under a crude blur of the same input;
    # needs textured content, where detail actually exists to lose
    textured = make_frame(480, 360, seed=44, style="grain", grain_sigma=12.0)
    noisy = add_gaussian_noise(textured, 25.0, seed=7)
    denoised = denoise_keyframe(noisy, estimate_sigma(noisy))
    control = Frame(y=quantize_plane(gaussian_filter(noisy.luma_f64(), 5.0, mode="nearest")))
    r_denoised = detail_retention(textured, denoised)
    r_control = detail_retention(textured, control)
    assert r_denoised >= r_control, f"{r_denoised:.3f} < {r_control:.3f}"
    _pass(
        4,
        f"dPSNR >= {min(gains):.1f} dB, flicker x{flicker_out / flicker_in:.2f}, "
        f"retention {r_denoised:.2f} >= {r_control:.2f}",
    )


# -- 5. metric correctness ---------------------------------------------------------

def _metric_oracle_pairs(natural_frames):
    rng = np.random.default_rng(505)
    sizes = ((64, 64), (80, 48), (48, 80), (96, 64), (33, 49))
    pairs = []
    for i in range(20):  # unstructured random pairs
        h, w = sizes[i % len(sizes)]
        pairs.append((
            rng.integers(0, 256, (h, w), dtype=np.uint8),
            rng.integers(0, 256, (h, w), dtype=np.uint8),
        ))
    for i in range(15):  # natural content with additive noise
        base = natural_frames[i % 3].y
        r0, c0 = 10 * i % 200, 14 * i % 300
        crop = base[r0 : r0 + 64, c0 : c0 + 96]
        noisy = add_gaussian_noise(Frame(y=crop.copy()), 5.0 + 2.0 * i, seed=i)
        pairs.append((crop, noisy.y))
    for i in range(10):  # natural content blurred
        base = natural_frames[i % 3].y
        crop = Frame(y=base[i : i + 72, 2 * i : 2 * i + 72].copy())
        pairs.append((crop.y, stage_smooth(crop, 10.0 + 4.0 * i).y))
    for i in range(5):   # structurally unrelated natural crops
        a = natural_frames[i % 3].y[:64, :64]
        b = natural_frames[(i + 1) % 3].y[64:128, 64:128]
        pairs.append((a, b))
    return pairs


def test_criterion_5_metric_correctness(natural_frames):
    # closed forms
    flat0 = Frame(y=np.zeros((32, 32), dtype=np.uint8))
    flat16 = Frame(y=np.full((32, 32), 16, dtype=np.uint8))
    expected_psnr = 10.0 * math.log10(255.0 ** 2 / 16.0 ** 2)
    assert abs(psnr(flat0, flat16) - expected_psnr) <= 1e-4
    c100 = Frame(y=np.full((32, 32), 100, dtype=np.uint8))
    c110 = Frame(y=np.full((32, 32), 110, dtype=np.uint8))
    assert abs(ssim(c100, c110) - 0.995477) <= 1e-5

    # identical inputs
    fixture = natural_frames[0]
    assert psnr(fixture, fixture) is INFINITE
    assert abs(ssim(fixture, fixture) - 1.0) <= 1e-9
    assert abs(ms_ssim(fixture, fixture) - 1.0) <= 1e-9
    small = Frame(y=fixture.y[:64, :64].copy())
    assert abs(vifp(small, small) - 1.0) <= 1e-6

    # brute-force oracle agreement on >= 50 mixed pairs
    pairs = _metric_oracle_pairs(natural_frames)
    assert len(pairs) >= 50
    worst_ssim = worst_ms = worst_vif = 0.0
    for a, b in pairs:
        fa, fb = Frame(y=np.ascontiguousarray(a)), Frame(y=np.ascontiguousarray(b))
        xa, xb = fa.luma_f64(), fb.luma_f64()
        worst_ssim = max(worst_ssim, abs(ssim(fa, fb) - oracles.ssim(xa, xb)))
        worst_ms = max(worst_ms, abs(ms_ssim(fa, fb) - oracles.ms_ssim(xa, xb)))
        worst_vif = max(worst_vif, abs(vifp(fa, fb) - oracles.vifp(xa, xb)))
    assert worst_ssim <= 1e-4
    assert worst_ms <= 1e-4
    assert worst_vif <= 1e-3
    _pass(
        5,
        f"{len(pairs)} pairs; worst ssim {worst_ssim:.2e}, "
        f"ms-ssim {worst_ms:.2e}, vifp {worst_vif:.2e}",
    )


# -- 6. feedback loop closure -------------------------------------------------------

def test_criterion_6_feedback_loop():
    # static grain the denoiser cannot improve: every window asks for bitrate
    clean = make_sequence(48, 192, 144, seed=9, style="grain", grain_sigma=28.0)
    config = PipelineConfig(feedback_window=4, sender=SenderConfig(q=48))
    result = run_simulate(clean, config)

    qs = [entry.q for entry in result.sender_trace]
    assert qs[0] == 48
    assert all(a - b == 4 for a, b in zip(qs, qs[1:])), qs
    assert qs[-1] == config.sender.q_min

    window = config.feedback_window
    window_means = []
    for w in range(len(result.reports) // window):
        values = [
            psnr(clean[t], result.received[t])
            for t in range(window * w, window * (w + 1))
        ]
        window_means.append(sum(values) / window)
    assert all(b >= a for a, b in zip(window_means, window_means[1:])), window_means
    _pass(
        6,
        f"q {qs[0]} -> {qs[-1]} in -4 steps; received PSNR "
        f"{window_means[0]:.1f} -> {window_means[-1]:.1f} dB non-decreasing",
    )


# -- 7. determinism wherever the forks run ---------------------------------------------

def test_criterion_7_placement_equivalence():
    scenarios = [
        # clean channel, sender capture noise
        (101, LossModel(), SenderConfig(noise_sigma=25.0)),
        # independent slice loss
        (202, LossModel(kind=LossKind.BERNOULLI, p_loss=0.08, seed=5),
         SenderConfig(noise_sigma=20.0)),
        # bursty slice loss
        (303, LossModel(kind=LossKind.GILBERT_ELLIOTT, p_enter_bad=0.1,
                        p_exit_bad=0.4, p_loss_bad=0.9, seed=6),
         SenderConfig(noise_sigma=30.0)),
    ]
    for seed, loss, sender in scenarios:
        clean = make_sequence(15, 96, 64, seed=seed, motion=(1.0, 0.0))
        base = PipelineConfig(seed=seed, feedback_window=5, sender=sender, loss=loss)
        free = run_simulate(clean, base)
        # every fork on the helper, then every fork on the caller
        for placement in (helpers_claim_every_fork, helpers_blocked):
            with placement():
                other = run_simulate(clean, base)
            assert sequences_equal(free.received, other.received)
            assert sequences_equal(free.denoised, other.denoised)
            assert free.reports == other.reports
            assert free.feedback_log == other.feedback_log
            assert free.sender_trace == other.sender_trace
    _pass(7, "3 scenarios bit-identical with the forks on either lane")


# -- 8. throughput -----------------------------------------------------------------

def test_criterion_8_throughput():
    clean = make_sequence(30, 480, 360, seed=81)
    noisy = _noisy(clean, 25.0)
    _, _, stats = run_denoise(noisy)
    assert stats.frames_denoised == 30  # the expensive path, not bypass
    assert stats.achieved_fps >= 25.0, f"{stats.achieved_fps:.1f} fps"
    # per-stage latency is recorded so regressions stay visible
    assert len(stats.detect_ms) > 0
    assert len(stats.image_denoise_ms) > 0
    assert len(stats.video_denoise_ms) > 0
    assert len(stats.analyze_ms) == 30
    assert stats.mean_latency_ms > 0.0
    assert stats.p95_latency_ms > 0.0
    _pass(8, f"{stats.achieved_fps:.1f} fps at 480x360, per-stage latency recorded")


# -- 9. channel model sanity ----------------------------------------------------------

def test_criterion_9_channel_sanity(natural_frames):
    for fixture in natural_frames:
        decoded = encode_decode(fixture, SenderConfig(q=1, q_min=1))
        assert float(np.abs(decoded.luma_f64() - fixture.luma_f64()).max()) <= 1.0

    flat = Frame(y=np.full((64, 64), 128, dtype=np.uint8))
    assert np.array_equal(encode_decode(flat, SenderConfig(q=16)).y, flat.y)

    frame = make_frame(64, 48, seed=91)
    prev = make_frame(64, 48, seed=92)
    out, lost = transmit(frame, prev, LossModel(p_loss=0.0))
    assert out is frame and lost == []
    concealed, lost = transmit(frame, None, LossModel(p_loss=1.0))
    assert np.all(concealed.y == 128) and len(lost) == 3
    repeated, _ = transmit(frame, prev, LossModel(p_loss=1.0))
    assert np.array_equal(repeated.y, prev.y)
    _pass(9, "q=1 error <= 1, q=16 flat invariant, loss concealment exact")
