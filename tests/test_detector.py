import math
from dataclasses import replace

import numpy as np
import pytest

from rtcdenoise import (
    DEFAULT_FORK_THRESHOLD,
    Frame,
    NoiseCategory,
    NoiseEstimate,
    Route,
    add_gaussian_noise,
    add_salt_pepper,
    add_speckle,
    analyze_frame,
    blockiness_ratio,
    classify_noise,
    estimate_sigma,
    fork_decision,
    impulse_fraction,
    luma_histogram,
    make_frame,
    mean_var_correlation,
    median_filter_3x3,
)

import oracles


def _midgray(h=128, w=128):
    return Frame(y=np.full((h, w), 128, dtype=np.uint8))


# --- sigma estimation -------------------------------------------------------

@pytest.mark.parametrize("sigma", [5.0, 15.0, 25.0, 40.0])
def test_estimate_sigma_tracks_injected_noise(sigma, natural_frames):
    # mid-gray carrier avoids clipping bias at high sigma
    noisy = add_gaussian_noise(_midgray(240, 320), sigma, seed=int(sigma))
    assert abs(estimate_sigma(noisy) - sigma) / sigma < 0.10
    # natural content adds texture response but stays in band at sigma >= 15
    if sigma >= 15.0:
        noisy_nat = add_gaussian_noise(natural_frames[0], sigma, seed=int(sigma))
        assert abs(estimate_sigma(noisy_nat) - sigma) / sigma < 0.15


def test_estimate_sigma_clean_is_small(natural_frames):
    for frame in natural_frames:
        assert estimate_sigma(frame) < 2.0


def test_estimate_sigma_matches_direct_formula():
    frame = make_frame(16, 12, seed=5)
    y = frame.luma_f64()
    total = 0.0
    for r in range(1, 11):
        for c in range(1, 15):
            resp = (
                y[r - 1, c - 1] - 2 * y[r - 1, c] + y[r - 1, c + 1]
                - 2 * y[r, c - 1] + 4 * y[r, c] - 2 * y[r, c + 1]
                + y[r + 1, c - 1] - 2 * y[r + 1, c] + y[r + 1, c + 1]
            )
            total += abs(resp)
    expected = math.sqrt(math.pi / 2.0) * total / (6.0 * 14 * 10)
    assert estimate_sigma(frame) == pytest.approx(expected, abs=1e-12)


def test_statistics_match_float64_oracles(natural_frames):
    # the detector sums in integers; the oracles are the float64 formulas
    frames = [add_gaussian_noise(f, 25.0, seed=1) for f in natural_frames]
    frames.append(add_salt_pepper(natural_frames[1], 0.05, seed=2))
    frames.append(add_speckle(natural_frames[2], 0.3, seed=3))
    rng = np.random.default_rng(4)
    for shape in ((3, 3), (9, 17), (23, 41), (16, 8), (8, 16)):
        frames.append(Frame(y=rng.integers(0, 256, size=shape, dtype=np.uint8)))
    for frame in frames:
        assert estimate_sigma(frame) == oracles.estimate_sigma(frame.y)
        assert blockiness_ratio(frame) == oracles.blockiness_ratio(frame.y)
        assert mean_var_correlation(frame) == oracles.mean_var_correlation(frame.y)


def test_estimate_sigma_rejects_tiny_frames():
    with pytest.raises(ValueError):
        estimate_sigma(Frame(y=np.zeros((2, 8), dtype=np.uint8)))
    with pytest.raises(ValueError):
        estimate_sigma(Frame(y=np.zeros((8, 2), dtype=np.uint8)))


# --- individual statistics --------------------------------------------------

def test_impulse_fraction_counts_saturated_pixels():
    y = np.full((10, 10), 128, dtype=np.uint8)
    y[0, :3] = 0
    y[1, :2] = 255
    assert impulse_fraction(Frame(y=y)) == pytest.approx(0.05)


def test_blockiness_ratio_flags_tile_edges():
    # steps exactly at columns 8, 16, ... and flat elsewhere
    cols = (np.arange(64) // 8 * 20).astype(np.uint8)
    frame = Frame(y=np.tile(cols, (32, 1)))
    assert blockiness_ratio(frame) > 10.0
    assert blockiness_ratio(_midgray(16, 16)) == 0.0


def test_blockiness_ratio_narrow_frame_is_zero():
    assert blockiness_ratio(Frame(y=np.zeros((8, 7), dtype=np.uint8))) == 0.0


def test_mean_var_correlation_signal_dependent_noise():
    ramp = np.tile(np.linspace(30, 220, 128), (64, 1))
    frame = Frame(y=ramp.astype(np.uint8))
    speckled = add_speckle(frame, 0.25, seed=6)
    assert mean_var_correlation(speckled) > 0.5
    uniform = add_gaussian_noise(frame, 10.0, seed=6)
    assert mean_var_correlation(uniform) < 0.5


def test_mean_var_correlation_degenerate_cases():
    assert mean_var_correlation(_midgray()) == 0.0          # variance is constant
    assert mean_var_correlation(_midgray(8, 8)) == 0.0      # single tile


def test_luma_histogram_shape_and_mass():
    frame = make_frame(31, 17, seed=2)
    hist = luma_histogram(frame)
    assert hist.shape == (256,)
    assert hist.dtype == np.int64
    assert int(hist.sum()) == 31 * 17
    assert int(hist[frame.y[0, 0]]) >= 1


# --- classification ---------------------------------------------------------

def test_classify_gaussian_and_clean(natural_frames):
    noisy = add_gaussian_noise(natural_frames[1], 25.0, seed=1)
    est = analyze_frame(noisy)
    assert est.category is NoiseCategory.GAUSSIAN
    assert analyze_frame(natural_frames[1]).category is NoiseCategory.CLEAN


def test_classify_salt_pepper():
    noisy = add_salt_pepper(_midgray(), 0.05, seed=2)
    assert analyze_frame(noisy).category is NoiseCategory.SALT_PEPPER


def test_classify_pixelation():
    cols = (np.arange(96) // 8 * 15 + 40).astype(np.uint8)
    frame = Frame(y=np.tile(cols, (64, 1)))
    assert analyze_frame(frame).category is NoiseCategory.PIXELATION_PROCESSED


def test_classify_speckle():
    # ramp kept below 180 so intensity-scaled noise rarely saturates and the
    # impulse check does not fire first
    ramp = np.tile(np.linspace(30, 180, 128), (64, 1))
    speckled = add_speckle(Frame(y=ramp.astype(np.uint8)), 0.12, seed=3)
    assert analyze_frame(speckled).category is NoiseCategory.SPECKLE_SIGNAL_DEPENDENT


def test_classify_first_match_priority():
    # impulsive *and* blocky content: the impulse check wins
    cols = (np.arange(96) // 8 * 15 + 40).astype(np.uint8)
    frame = add_salt_pepper(Frame(y=np.tile(cols, (64, 1))), 0.05, seed=4)
    assert classify_noise(frame, estimate_sigma(frame)) is NoiseCategory.SALT_PEPPER


def test_classify_sigma_threshold_boundary():
    frame = _midgray(64, 64)
    assert classify_noise(frame, 1.99) is NoiseCategory.CLEAN
    assert classify_noise(frame, 2.0) is NoiseCategory.GAUSSIAN


# --- estimate container and fork --------------------------------------------

def test_analyze_frame_fields_consistent(natural_frames):
    frame = add_gaussian_noise(natural_frames[0], 20.0, seed=9)
    est = analyze_frame(frame)
    assert est.sigma == estimate_sigma(frame)
    assert est.impulse_fraction == impulse_fraction(frame)
    assert est.blockiness_ratio == blockiness_ratio(frame)
    assert est.mean_var_correlation == mean_var_correlation(frame)


def test_noise_estimate_rejects_negative_sigma():
    with pytest.raises(ValueError):
        NoiseEstimate(
            sigma=-1.0,
            category=NoiseCategory.CLEAN,
            impulse_fraction=0.0,
            blockiness_ratio=0.0,
            mean_var_correlation=0.0,
        )


def test_fork_decision_tie_routes_to_denoise():
    est = analyze_frame(add_gaussian_noise(_midgray(), 25.0, seed=5))
    assert fork_decision(est, threshold=est.sigma).route is Route.DENOISE
    assert fork_decision(est, threshold=est.sigma + 0.001).route is Route.BYPASS
    at_default = replace(est, sigma=DEFAULT_FORK_THRESHOLD)
    assert fork_decision(at_default).route is Route.DENOISE
    below = replace(est, sigma=math.nextafter(DEFAULT_FORK_THRESHOLD, 0.0))
    assert fork_decision(below) == fork_decision(below, threshold=DEFAULT_FORK_THRESHOLD)
    assert fork_decision(below).route is Route.BYPASS


def test_fork_decision_rejects_negative_threshold():
    est = analyze_frame(_midgray())
    with pytest.raises(ValueError):
        fork_decision(est, threshold=-1.0)


# --- impulse prefilter ------------------------------------------------------

def test_median_filter_removes_isolated_impulses():
    y = np.full((16, 16), 90, dtype=np.uint8)
    y[5, 5] = 255
    y[9, 3] = 0
    cleaned = median_filter_3x3(Frame(y=y))
    assert np.all(cleaned.y == 90)


def test_median_filter_keeps_flat_regions_and_edges():
    y = np.full((12, 12), 50, dtype=np.uint8)
    y[:, 6:] = 200
    cleaned = median_filter_3x3(Frame(y=y))
    assert np.array_equal(cleaned.y, y)


@pytest.mark.parametrize("shape", [(37, 53), (1, 1), (2, 3), (3, 2)])
def test_median_filter_equals_scipy_median(shape):
    rng = np.random.default_rng(sum(shape))
    noisy = rng.integers(0, 256, shape, dtype=np.uint8)
    # mostly saturated: many equal values, and impulses next to each other
    saturated = rng.choice(np.array([0, 255, 90], dtype=np.uint8), shape, p=(0.4, 0.4, 0.2))
    for y in (noisy, saturated):
        assert np.array_equal(median_filter_3x3(Frame(y=y)).y, oracles.median3x3(y))


def test_median_filter_preserves_chroma_object():
    frame = make_frame(16, 16, seed=8, with_chroma=True)
    cleaned = median_filter_3x3(frame)
    assert cleaned.u is frame.u and cleaned.v is frame.v
