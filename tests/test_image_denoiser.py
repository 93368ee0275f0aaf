import math
import warnings

import numpy as np
import pytest

from rtcdenoise import (
    CascadeParams,
    Frame,
    add_gaussian_noise,
    denoise_keyframe,
    gaussian_kernel,
    make_frame,
    psnr,
    stage_detail,
    stage_fuse,
    stage_smooth,
)
from rtcdenoise.metrics import gradient_magnitude
from rtcdenoise import metrics
from rtcdenoise.image_denoiser import MAX_CASCADE_SIGMA, MAX_WINDOW_RADIUS, MIN_CASCADE_SIGMA

import oracles
from oracles import gauss_mask


def _const(value, h=24, w=24):
    return Frame(y=np.full((h, w), value, dtype=np.uint8))


# --- parameters and kernel ---------------------------------------------------

def test_cascade_params_validation():
    with pytest.raises(ValueError):
        CascadeParams(bilateral_spatial_sigma=0)
    with pytest.raises(ValueError):
        CascadeParams(bilateral_range_factor=-1)
    with pytest.raises(ValueError):
        CascadeParams(gaussian_sigma_min=2.0, gaussian_sigma_max=1.0)
    with pytest.raises(ValueError):
        CascadeParams(gaussian_sigma_divisor=0)
    with pytest.raises(ValueError):
        CascadeParams(fusion_tau=-0.1)
    with pytest.raises(ValueError):
        CascadeParams(window_radius=0)


@pytest.mark.parametrize("fields", [
    dict(bilateral_spatial_sigma=1e-300),
    dict(bilateral_range_factor=1e-20),
    dict(bilateral_range_factor=1e200),
    dict(gaussian_sigma_min=1e-300),
    dict(gaussian_sigma_min=1e300, gaussian_sigma_max=1e300),
])
def test_cascade_params_reject_sigmas_outside_bounds(fields):
    with pytest.raises(ValueError, match=r"must be in \[1e-06, 1000\]"):
        CascadeParams(**fields)


@pytest.mark.parametrize("radius", [0, 16, 1_000_000_000])
def test_cascade_params_reject_window_radius_outside_bounds(radius):
    with pytest.raises(ValueError, match=r"window_radius: must be in \[1, 15\]"):
        CascadeParams(window_radius=radius)


def test_stage_detail_matches_oracle_at_the_window_radius_bound():
    rng = np.random.default_rng(15)
    plane = rng.integers(0, 256, size=(4, 24), dtype=np.uint8)  # r reaches past every edge
    params = CascadeParams(window_radius=MAX_WINDOW_RADIUS)
    expected = oracles.bilateral(plane, 25.0, 2.0, 2.0, MAX_WINDOW_RADIUS)
    assert np.array_equal(stage_detail(Frame(y=plane), 25.0, params).y, expected)


def test_cascade_runs_cleanly_at_the_sigma_bounds():
    noisy = add_gaussian_noise(make_frame(24, 24, seed=3), 25.0, seed=3)
    for bound in (MIN_CASCADE_SIGMA, MAX_CASCADE_SIGMA):
        params = CascadeParams(bilateral_spatial_sigma=bound, bilateral_range_factor=bound,
                               gaussian_sigma_min=bound, gaussian_sigma_max=bound)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = denoise_keyframe(noisy, 25.0, params)
        assert out.y.shape == noisy.y.shape


def test_gaussian_sigma_mapping_clamps():
    params = CascadeParams()
    assert params.gaussian_sigma(25.0) == pytest.approx(1.25)
    assert params.gaussian_sigma(1.0) == pytest.approx(0.5)    # floor
    assert params.gaussian_sigma(100.0) == pytest.approx(2.5)  # ceiling


@pytest.mark.parametrize("sigma_g", [0.5, 1.0, 1.7, 2.5])
def test_gaussian_kernel_shape_and_mass(sigma_g):
    kernel = gaussian_kernel(sigma_g)
    radius = max(1, math.ceil(3.0 * sigma_g))
    assert kernel.shape == (2 * radius + 1,)
    assert kernel.sum() == pytest.approx(1.0, abs=1e-15)
    assert np.array_equal(kernel, kernel[::-1])
    assert kernel.argmax() == radius


def test_gaussian_kernel_rejects_nonpositive():
    with pytest.raises(ValueError):
        gaussian_kernel(0.0)


# --- individual stages -------------------------------------------------------

def test_stage_detail_passthrough_below_threshold():
    frame = make_frame(32, 24, seed=1)
    assert stage_detail(frame, 0.49) is frame


def test_stage_detail_constant_frame_invariant():
    frame = _const(77)
    out = stage_detail(frame, 25.0)
    assert np.array_equal(out.y, frame.y)


def test_stage_detail_reduces_noise_but_keeps_edges():
    y = np.full((48, 48), 60, dtype=np.uint8)
    y[:, 24:] = 190
    clean = Frame(y=y)
    noisy = add_gaussian_noise(clean, 20.0, seed=2)
    out = stage_detail(noisy, 20.0)
    err_before = np.abs(noisy.luma_f64() - clean.luma_f64()).mean()
    err_after = np.abs(out.luma_f64() - clean.luma_f64()).mean()
    assert err_after < 0.6 * err_before
    # the step stays sharp: neighbors across the edge remain far apart
    assert float(out.luma_f64()[:, 24].mean() - out.luma_f64()[:, 23].mean()) > 80


@pytest.mark.parametrize("radius", [1, 3])
@pytest.mark.parametrize("shape", [(9, 13), (4, 5), (1, 6), (7, 1)])
def test_stage_detail_matches_brute_force_oracle(radius, shape):
    # random content puts large range deltas at every border pixel; r=3 on a
    # 4x5 frame reaches past both edges in each direction
    rng = np.random.default_rng(radius * 100 + shape[0] * 10 + shape[1])
    plane = rng.integers(0, 256, size=shape, dtype=np.uint8)
    plane[0, 0], plane[-1, -1] = 0, 255
    frame = Frame(y=plane)
    for spatial, factor in ((2.0, 2.0), (1.5, 2.5)):
        params = CascadeParams(bilateral_spatial_sigma=spatial, bilateral_range_factor=factor,
                               window_radius=radius)
        for sigma in (0.6, 8.0, 25.0, 60.0):
            expected = oracles.bilateral(plane, sigma, spatial, factor, radius)
            assert np.array_equal(stage_detail(frame, sigma, params).y, expected), (spatial, sigma)


def test_stage_detail_rejects_negative_sigma():
    with pytest.raises(ValueError):
        stage_detail(_const(10), -1.0)


def test_stage_smooth_constant_frame_invariant():
    frame = _const(201)
    out = stage_smooth(frame, 30.0)
    assert np.array_equal(out.y, frame.y)


# sigma_est is the Gaussian sigma itself, so each length's sigma is (k - 0.5) / 3
_SMOOTH_BY_SIGMA = CascadeParams(gaussian_sigma_divisor=1.0, gaussian_sigma_min=0.1,
                                 gaussian_sigma_max=3.0)


@pytest.mark.parametrize("length", range(3, 18, 2))
def test_stage_smooth_equals_scipy_whole_plane_filter(length):
    sigma = (length // 2 - 0.5) / 3.0
    kernel = gaussian_kernel(sigma)
    assert len(kernel) == length
    rng = np.random.default_rng(length)
    # the 1x1, 2x3 and 5x1 frames are narrower and shorter than the kernel
    for h, w in ((1, 1), (2, 3), (5, 1), (23, 37)):
        y = rng.integers(0, 256, (h, w), dtype=np.uint8)
        out = stage_smooth(Frame(y=y), sigma, _SMOOTH_BY_SIGMA).y
        assert np.array_equal(out, oracles.smooth(y, kernel)), (h, w)
    # rounding to uint8 hides most changes of summation order, so each pass's
    # float64 values must equal correlate1d's too: uint8 rows (the vertical
    # pass, summing pairs in uint16) and float64 rows (the horizontal pass)
    reach = length // 2
    for line, sums in ((rng.integers(0, 256, 301, dtype=np.uint8), np.empty(301, np.uint16)),
                       (rng.uniform(0.0, 255.0, 301), np.empty(301))):
        padded = np.pad(line, reach, mode="edge")
        out = np.empty(301)
        metrics._symmetric_taps(lambda j: padded[reach + j : reach + j + 301], kernel, out,
                                sums, np.empty(301))
        assert np.array_equal(out, oracles.correlate_nearest(line, kernel)), line.dtype


def test_stage_smooth_impulse_response_is_separable_kernel():
    params = CascadeParams()
    sigma_g = params.gaussian_sigma(30.0)
    kernel = gaussian_kernel(sigma_g)
    radius = kernel.size // 2
    n = 4 * radius + 9
    y = np.zeros((n, n), dtype=np.uint8)
    y[n // 2, n // 2] = 255
    out = stage_smooth(Frame(y=y), 30.0).luma_f64()
    expected = 255.0 * np.outer(kernel, kernel)
    window = out[
        n // 2 - radius : n // 2 + radius + 1,
        n // 2 - radius : n // 2 + radius + 1,
    ]
    assert np.abs(window - expected).max() <= 0.5  # quantization only
    assert gauss_mask(kernel.size, sigma_g) == pytest.approx(np.outer(kernel, kernel))


def test_stage_fuse_flat_content_takes_smooth_branch():
    detail = _const(100)
    smooth = _const(140)
    fused = stage_fuse(detail, smooth, 10.0)
    # zero gradient everywhere: weight 0, output equals the smooth branch
    assert np.array_equal(fused.y, smooth.y)


def test_stage_fuse_strong_edge_takes_detail_branch():
    y = np.zeros((16, 16), dtype=np.uint8)
    y[:, 8:] = 255
    detail = Frame(y=y)
    smooth = _const(128, 16, 16)
    fused = stage_fuse(detail, smooth, 1.0, CascadeParams(fusion_tau=1.0))
    edge = fused.luma_f64()[:, 7:9]
    # g = 127.5 at the edge, tau = 1: weight ~ 0.992, output hugs the detail side
    assert np.abs(edge - detail.luma_f64()[:, 7:9]).max() <= 2.0


def test_stage_fuse_weight_formula_midpoint():
    # a single column step of 2*tau gives g = tau at the step, so weight = 0.5
    tau = 8.0
    y = np.full((8, 8), 100.0)
    y[:, 4:] += 2 * tau
    detail = Frame(y=y.astype(np.uint8))
    smooth = Frame(y=np.zeros((8, 8), dtype=np.uint8))
    fused = stage_fuse(detail, smooth, 0.0, CascadeParams(fusion_tau=tau))
    expected_mid = 0.5 * detail.luma_f64()[0, 4]
    assert fused.luma_f64()[3, 4] == pytest.approx(expected_mid, abs=1.0)


@pytest.mark.parametrize("tau", [None, 0.0, 7.5])
def test_stage_fuse_matches_oracle(tau):
    noisy = add_gaussian_noise(make_frame(37, 23, seed=21, with_chroma=True), 25.0, seed=21)
    params = CascadeParams(fusion_tau=tau)
    detail = stage_detail(noisy, 25.0, params)
    smooth = stage_smooth(noisy, 25.0, params)
    fused = stage_fuse(detail, smooth, 25.0, params)
    assert np.array_equal(fused.y, oracles.fuse(detail.y, smooth.y, 25.0 if tau is None else tau))
    assert fused.u is detail.u and fused.v is detail.v


def test_stage_fuse_matches_oracle_next_to_rounding_ties():
    # each smooth pixel puts the blend as near a half integer as it can, where
    # a change to the kernel's float64 operation order is most likely to flip
    # the rounding
    tau = 7.5
    detail = stage_detail(add_gaussian_noise(make_frame(37, 23, seed=22), 25.0, seed=22), 25.0)
    g = gradient_magnitude(detail.y)
    weight = (g / (g + tau))[..., None]
    blend = weight * detail.y[..., None] + (1.0 - weight) * np.arange(256.0)
    off = np.abs(blend - np.floor(blend) - 0.5)
    smooth = Frame(y=np.argmin(np.where(off > 0, off, 1.0), axis=-1).astype(np.uint8))
    fused = stage_fuse(detail, smooth, 25.0, CascadeParams(fusion_tau=tau))
    assert np.array_equal(fused.y, oracles.fuse(detail.y, smooth.y, tau))


def test_stage_fuse_rejects_mismatched_shapes():
    with pytest.raises(ValueError):
        stage_fuse(_const(0, 8, 8), _const(0, 8, 10), 5.0)


# --- full cascade -------------------------------------------------------------

def test_denoise_keyframe_passthrough_identity():
    frame = make_frame(40, 32, seed=3)
    out = denoise_keyframe(frame, 0.3)
    assert out is frame


def test_denoise_keyframe_matches_stage_composition(natural_frames):
    noisy = add_gaussian_noise(natural_frames[0], 25.0, seed=4)
    params = CascadeParams()
    expected = stage_fuse(
        stage_detail(noisy, 25.0, params),
        stage_smooth(noisy, 25.0, params),
        25.0,
        params,
    )
    out = denoise_keyframe(noisy, 25.0, params)
    assert np.array_equal(out.y, expected.y)


def test_denoise_keyframe_improves_psnr(natural_frames):
    for clean in natural_frames:
        noisy = add_gaussian_noise(clean, 25.0, seed=5)
        denoised = denoise_keyframe(noisy, 25.0)
        gain = psnr(clean, denoised) - psnr(clean, noisy)
        assert gain >= 2.0


def test_denoise_keyframe_preserves_chroma_planes():
    frame = add_gaussian_noise(make_frame(32, 32, seed=8, with_chroma=True), 25.0, seed=8)
    out = denoise_keyframe(frame, 25.0)
    assert out.u is frame.u and out.v is frame.v
