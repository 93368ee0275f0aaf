"""Chunked kernels give the same bits whatever their chunk size.

Each kernel family sizes its runs with one constant: frame.ELEMENTWISE_PIXELS,
frame.BILATERAL_PIXELS (the one range-weighted kernel, run by the bilateral
and the motion gate), frame.BAND_PIXELS (row bands of the metric moments, of
the codec's block rows and of its bilinear resize, and PSNR's runs) and
image_denoiser._SMOOTH_PIXELS (row bands of stage_smooth). At their shipped
sizes every test frame elsewhere fits in one chunk, so these tests shrink each
constant to small odd sizes, putting many seams inside small frames, and
compare against the oracles.
"""

from fractions import Fraction

import numpy as np
import pytest

from rtcdenoise import (
    BlockParams,
    CascadeParams,
    Frame,
    PipelineConfig,
    SenderConfig,
    VideoSequence,
    add_gaussian_noise,
    denoise_block,
    detail_retention,
    gaussian_kernel,
    make_frame,
    make_sequence,
    ms_ssim,
    psnr,
    quantize_plane,
    run_denoise,
    ssim,
    stage_detail,
    stage_fuse,
    stage_smooth,
    vifp,
)
from rtcdenoise import frame as frame_module
from rtcdenoise import channel, image_denoiser, metrics
from rtcdenoise.metrics import full_reference_scores

import oracles
from util import helpers_blocked, helpers_claim_every_fork, sequences_equal

SMALL_SIZES = (1, 7, 61)


def _noisy(width, height, seed, sigma=25.0, with_chroma=False):
    clean = make_frame(width, height, seed=seed, with_chroma=with_chroma)
    return add_gaussian_noise(clean, sigma, seed=seed)


# --- the bilateral ------------------------------------------------------------


@pytest.mark.parametrize("size", SMALL_SIZES)
@pytest.mark.parametrize("radius", [1, 3])
def test_bilateral_across_chunk_seams_matches_oracle(monkeypatch, size, radius):
    monkeypatch.setattr(frame_module, "BILATERAL_PIXELS", size)
    shape = (9, 11) if size == 1 else (21, 17)
    frame = _noisy(shape[1], shape[0], seed=40 + size)
    for sigma in (8.0, 25.0):
        expected = oracles.bilateral(frame.y, sigma, 2.0, 2.0, radius)
        assert np.array_equal(stage_detail(frame, sigma, CascadeParams(window_radius=radius)).y,
                              expected), sigma


@pytest.mark.parametrize("size", SMALL_SIZES)
def test_classical_block_across_chunk_seams_matches_oracle(monkeypatch, size):
    monkeypatch.setattr(frame_module, "BILATERAL_PIXELS", size)
    monkeypatch.setattr(frame_module, "ELEMENTWISE_PIXELS", size)
    shape = (9, 11) if size == 1 else (23, 19)
    clean = make_sequence(3, shape[1], shape[0], seed=9, motion=(1.0, 0.0))
    a, b, c = (add_gaussian_noise(f, 18.0, seed=50 + i) for i, f in enumerate(clean))
    out = denoise_block(a, b, c, 20.0, BlockParams())
    assert np.array_equal(out.y, oracles.classical_block(a.y, b.y, c.y, 20.0, 1.0, True))


@pytest.mark.parametrize("size", SMALL_SIZES)
def test_temporal_blend_across_chunk_seams_matches_oracle(monkeypatch, size):
    monkeypatch.setattr(frame_module, "BILATERAL_PIXELS", size)  # the motion gate's runs
    monkeypatch.setattr(frame_module, "ELEMENTWISE_PIXELS", size)
    shape = (9, 11) if size == 1 else (23, 19)
    clean = make_sequence(3, shape[1], shape[0], seed=10, motion=(1.0, 0.0), with_chroma=True)
    a, b, c = (add_gaussian_noise(f, 18.0, seed=60 + i) for i, f in enumerate(clean))
    for sigma, k_temporal in ((0.2, 1.0), (20.0, 1.0), (20.0, 0.3)):
        out = denoise_block(a, b, c, sigma, BlockParams(k_temporal=k_temporal, spatial_enabled=False))
        assert np.array_equal(out.y, oracles.classical_block(a.y, b.y, c.y, sigma, k_temporal, False))
        assert out.u is b.u and out.v is b.v


# --- the elementwise passes -----------------------------------------------------


@pytest.mark.parametrize("size", SMALL_SIZES)
def test_quantize_plane_across_chunk_seams(monkeypatch, size):
    monkeypatch.setattr(frame_module, "ELEMENTWISE_PIXELS", size)
    values = np.random.default_rng(size).uniform(-20.0, 280.0, size=(13, 29))
    values[0, :4] = (0.5, 1.5, 254.5, 255.5)
    expected = np.clip(np.floor(values + 0.5), 0, 255).astype(np.uint8)
    assert np.array_equal(quantize_plane(values), expected)


@pytest.mark.parametrize("size", SMALL_SIZES)
def test_stage_fuse_across_chunk_seams_matches_oracle(monkeypatch, size):
    noisy = _noisy(37, 23, seed=21, with_chroma=True)
    detail = stage_detail(noisy, 25.0)
    smooth = stage_smooth(noisy, 25.0)
    monkeypatch.setattr(frame_module, "ELEMENTWISE_PIXELS", size)
    for tau in (None, 0.0, 7.5):
        fused = stage_fuse(detail, smooth, 25.0, CascadeParams(fusion_tau=tau))
        assert np.array_equal(fused.y, oracles.fuse(detail.y, smooth.y, 25.0 if tau is None else tau))


@pytest.mark.parametrize("size", SMALL_SIZES)
def test_detail_retention_across_chunk_seams_matches_oracle(monkeypatch, size):
    monkeypatch.setattr(frame_module, "ELEMENTWISE_PIXELS", size)
    ref = make_frame(37, 23, seed=23)
    test = _noisy(37, 23, seed=23)
    assert detail_retention(ref, test) == oracles.detail_retention(ref.y, test.y)


@pytest.mark.parametrize("size", SMALL_SIZES)
def test_noise_injector_across_chunk_seams_matches_oracle(monkeypatch, size):
    monkeypatch.setattr(frame_module, "ELEMENTWISE_PIXELS", size)
    frame = make_frame(37, 23, seed=24)
    assert np.array_equal(add_gaussian_noise(frame, 25.0, seed=7).y,
                          oracles.add_gaussian_noise(frame, 25.0, seed=7).y)


# --- the row bands of the separable filters ------------------------------------

# 1 is one row per band; at 53 pixels per row, 61 is one row and 331 six
BAND_SIZES = (1, 61, 331)


@pytest.mark.parametrize("rows", SMALL_SIZES)
def test_stage_smooth_across_band_seams_equals_whole_plane_filter(monkeypatch, rows):
    monkeypatch.setattr(image_denoiser, "_SMOOTH_PIXELS", rows * 53)
    # sigma 60 reaches 8 rows, more than a band; 7 rows is less than one reach
    for shape in ((47, 53), (7, 53)):
        frame = _noisy(shape[1], shape[0], seed=25)
        for sigma in (5.0, 25.0, 60.0):
            kernel = gaussian_kernel(CascadeParams().gaussian_sigma(sigma))
            assert np.array_equal(stage_smooth(frame, sigma).y, oracles.smooth(frame.y, kernel))


@pytest.mark.parametrize("size", BAND_SIZES)
def test_metrics_across_band_seams_equal_separable_reference(monkeypatch, size):
    monkeypatch.setattr(frame_module, "BAND_PIXELS", size)
    ref = make_frame(53, 47, seed=26)
    tests = [_noisy(53, 47, seed=26), stage_smooth(ref, 40.0)]
    a = ref.luma_f64()
    expected = []
    for test in tests:
        b = test.luma_f64()
        expected.append((oracles.separable_psnr(a, b), oracles.separable_ssim(a, b),
                         oracles.separable_ms_ssim(a, b), oracles.separable_vifp(a, b)))
        assert (psnr(ref, test), ssim(ref, test), ms_ssim(ref, test), vifp(ref, test)) == expected[-1]
    assert [tuple(s) for s in full_reference_scores(ref, tests)] == expected


@pytest.mark.parametrize("size", BAND_SIZES)
def test_filter_halve_across_band_seams_equals_whole_plane_filter(monkeypatch, size):
    monkeypatch.setattr(frame_module, "BAND_PIXELS", size)
    rng = np.random.default_rng(size)
    for shape in ((47, 53), (18, 17)):
        levels = rng.integers(0, 256, shape)
        for plane in (levels.astype(np.uint8), levels + rng.random(shape)):
            for taps in metrics._VIF_TAPS[1:]:
                expected = metrics._filter_valid(plane, taps, metrics._Scratch(), "whole")[::2, ::2]
                assert np.array_equal(metrics._filter_halve(plane, taps, metrics._Scratch()),
                                      expected), (shape, plane.dtype, len(taps))


# --- the bands of the codec ----------------------------------------------------


# at 53 pixels per row, one, two and three block rows; every size is one block
# row at 480. The resize of scales 3/4 and 1/2 runs in row bands of the same size.
@pytest.mark.parametrize("size", [1, 2 * 8 * 53, 3 * 8 * 53])
def test_block_dct_across_band_seams_equals_whole_plane_transform(monkeypatch, size):
    monkeypatch.setattr(frame_module, "BAND_PIXELS", size)
    rng = np.random.default_rng(size)
    for shape in ((37, 53), (360, 480)):
        luma = rng.integers(0, 256, shape, dtype=np.uint8)
        for q in (1, 16):
            assert np.array_equal(channel._block_dct_quantize(luma, q),
                                  oracles.block_dct_quantize(luma, q))
            for scale in (Fraction(3, 4), Fraction(1, 2)):
                config = SenderConfig(q=q, q_min=1, resolution_scale=scale)
                expected = oracles.block_dct_quantize(oracles.scale_round_trip(luma, scale), q)
                assert np.array_equal(channel.encode_decode(Frame(luma), config).y, expected), \
                    (shape, q, scale)


# --- forks on either lane, every family cut small ------------------------------


def test_placements_agree_with_every_family_across_seams(monkeypatch):
    clean = make_sequence(16, 48, 32, seed=27, motion=(1.0, 0.0), with_chroma=True)
    # sigma switches inside cohorts, so both routes run
    noisy = VideoSequence(tuple(add_gaussian_noise(f, 30.0 if (t // 7) % 2 else 4.0, seed=t)
                                for t, f in enumerate(clean)))
    reference = run_denoise(noisy, PipelineConfig())
    # a 48x32 plane is 1,536 pixels; the bilateral runs over (32 - 1) * 54 + 48
    # flat positions at radius 3; at 48 pixels per row a 97-pixel band is 2 rows
    monkeypatch.setattr(frame_module, "ELEMENTWISE_PIXELS", 61)
    monkeypatch.setattr(frame_module, "BILATERAL_PIXELS", 127)
    monkeypatch.setattr(image_denoiser, "_SMOOTH_PIXELS", 97)
    monkeypatch.setattr(frame_module, "BAND_PIXELS", 97)
    runs = [run_denoise(noisy)]
    for placement in (helpers_claim_every_fork, helpers_blocked):
        with placement():
            runs.append(run_denoise(noisy))
    stats = reference[2]
    assert 0 < stats.frames_bypassed < len(noisy)
    for output, reports, _ in runs:
        assert sequences_equal(output, reference[0])
        assert reports == reference[1]
