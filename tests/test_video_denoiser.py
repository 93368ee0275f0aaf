import io
import warnings

import numpy as np
import pytest

from rtcdenoise import (
    BlockMode,
    BlockParams,
    ConvWeightSet,
    Frame,
    FrameRole,
    VideoSequence,
    WindowPlan,
    add_gaussian_noise,
    denoise_block,
    denoise_window,
    make_sequence,
    quantize_plane,
    random_weights,
    read_weights,
    read_weights_file,
    write_weights,
    write_weights_file,
    zero_weights,
)

from rtcdenoise.video_denoiser import MAX_K_TEMPORAL, MIN_K_TEMPORAL

import oracles
from oracles import denoise_stream
from util import frames_equal, mean_abs_frame_diff


def _const(value, h=16, w=16):
    return Frame(y=np.full((h, w), value, dtype=np.uint8))


# --- window scheduling --------------------------------------------------------

def test_schedule_hand_traced_example():
    plan = WindowPlan(7, cadence=5)
    assert plan.keyframe_indices == (0, 5)
    assert plan.role(0) is FrameRole.KEYFRAME
    assert plan.role(3) is FrameRole.TEMPORAL
    assert plan.window(1) == (0, 0, 1, 2, 3)   # left edge clamps
    assert plan.window(3) == (1, 2, 3, 4, 5)
    assert plan.window(6) == (4, 5, 6, 6, 6)   # right edge clamps


def test_schedule_matches_reference_exhaustively():
    for n in range(1, 26):
        for cadence in range(2, 7):
            plan = WindowPlan(n, cadence)
            roles, windows = oracles.schedule_reference(n, cadence)
            assert plan.n_frames == n and plan.cadence == cadence
            got_roles = ["keyframe" if r is FrameRole.KEYFRAME else "temporal" for r in plan.roles]
            assert got_roles == roles
            assert list(plan.windows) == windows


def test_cohort_and_reach_match_reference_exhaustively():
    for n in range(1, 26):
        for cadence in range(2, 7):
            plan = WindowPlan(n, cadence)
            roles, windows = oracles.schedule_reference(n, cadence)
            keyframes = [t for t in range(n) if roles[t] == "keyframe"]
            covered = []
            for k, end in zip(keyframes, keyframes[1:] + [n]):
                cohort, reach = plan.cohort(k), plan.reach(k)
                assert list(cohort) == list(range(k, end))
                assert all(roles[t] == "temporal" for t in cohort[1:])
                read = {i for t in cohort[1:] for i in windows[t]}
                assert read <= set(reach) and k in reach
                assert reach.stop - 1 == min(cohort[-1] + 2, n - 1)
                covered.extend(cohort)
            assert covered == list(range(n))


def test_schedule_accessor_errors():
    plan = WindowPlan(6, cadence=3)
    with pytest.raises(ValueError):
        plan.window(0)  # keyframes have no window
    with pytest.raises(IndexError):
        plan.role(6)
    with pytest.raises(IndexError):
        plan.last_keyframe_at_or_before(6)
    assert plan.last_keyframe_at_or_before(5) == 3
    with pytest.raises(ValueError):
        plan.cohort(4)  # cohorts start at keyframes


def test_schedule_validation():
    with pytest.raises(ValueError):
        WindowPlan(0)
    with pytest.raises(ValueError):
        WindowPlan(5, cadence=1)


# --- classical block ----------------------------------------------------------

def test_block_identical_triplet_is_identity():
    frame = _const(137)
    out = denoise_block(frame, frame, frame, 0.0)
    assert np.array_equal(out.y, frame.y)


def test_block_matches_closed_form_weights():
    a = Frame(y=np.array([[100, 20, 200]], dtype=np.uint8))
    b = Frame(y=np.array([[110, 30, 150]], dtype=np.uint8))
    c = Frame(y=np.array([[90, 200, 150]], dtype=np.uint8))
    sigma, k = 10.0, 1.0
    out = denoise_block(a, b, c, sigma, BlockParams(k_temporal=k, spatial_enabled=False))
    af, bf, cf = (f.luma_f64() for f in (a, b, c))
    w_a = np.exp(-((af - bf) ** 2) / (2.0 * (k * sigma) ** 2))
    w_c = np.exp(-((cf - bf) ** 2) / (2.0 * (k * sigma) ** 2))
    expected = quantize_plane((w_a * af + bf + w_c * cf) / (w_a + 1.0 + w_c))
    assert np.abs(out.luma_f64() - expected).max() <= 1.0


def test_block_motion_gating_suppresses_far_neighbor():
    b = _const(100)
    far = _const(220)
    out = denoise_block(far, b, b, 0.0, BlockParams(spatial_enabled=False))
    # weight of the misaligned neighbor underflows: output is the static pair mean
    assert np.array_equal(out.y, b.y)


def test_block_small_sigma_floor():
    # sigma below 0.5 uses the 0.5 floor in the gate, not a zero division
    a = _const(100)
    b = _const(101)
    out = denoise_block(a, b, a, 0.1, BlockParams(spatial_enabled=False))
    assert out.y.dtype == np.uint8


@pytest.mark.parametrize("spatial_enabled", [False, True])
@pytest.mark.parametrize("sigma, k", [(0.2, 1.0), (18.0, 1.0), (18.0, 0.35),
                                      # the gate at its bounds: a differing
                                      # neighbour's weight underflows to 0, or
                                      # stays above 0.87
                                      (0.2, MIN_K_TEMPORAL), (18.0, MIN_K_TEMPORAL),
                                      (0.2, MAX_K_TEMPORAL), (18.0, MAX_K_TEMPORAL)])
def test_classical_block_matches_oracle(spatial_enabled, sigma, k):
    clean = make_sequence(3, 37, 23, seed=9, motion=(1.0, 0.0), with_chroma=True)
    a, b, c = (add_gaussian_noise(f, 18.0, seed=30 + i) for i, f in enumerate(clean))
    out = denoise_block(a, b, c, sigma, BlockParams(k_temporal=k, spatial_enabled=spatial_enabled))
    expected = oracles.classical_block(a.y, b.y, c.y, sigma, k, spatial_enabled)
    assert np.array_equal(out.y, expected)
    assert out.u is b.u and out.v is b.v


def test_classical_block_matches_oracle_next_to_rounding_ties():
    # each pixel's triplet puts the blend as near a half integer as integer
    # inputs allow, where a change to the kernel's float32 operation order
    # is most likely to flip the rounding
    sigma, k = 40.0, 1.0
    levels = np.arange(256.0)
    a, b, c = (p.ravel() for p in np.meshgrid(levels, levels[1::16], levels, indexing="ij"))
    w_a, w_c = (np.exp(-((n - b) ** 2) / (2.0 * (k * sigma) ** 2)) for n in (a, c))
    value = (w_a * a + b + w_c * c) / (w_a + 1.0 + w_c)
    off = np.abs(value - np.floor(value) - 0.5)
    # below 1e-9 a blend is a tie up to weights too small to move a float32 sum
    off[off <= 1e-9] = 1.0
    chosen = np.sort(np.argpartition(off, 31 * 29)[: 31 * 29])
    triplet = [Frame(y=p[chosen].reshape(31, 29).astype(np.uint8)) for p in (a, b, c)]
    out = denoise_block(*triplet, sigma, BlockParams(k_temporal=k, spatial_enabled=False))
    assert np.array_equal(out.y, oracles.classical_block(*(f.y for f in triplet), sigma, k, False))


def test_block_validates_inputs():
    with pytest.raises(ValueError):
        denoise_block(_const(0, 8, 8), _const(0, 8, 9), _const(0, 8, 8), 5.0)
    with pytest.raises(ValueError):
        denoise_block(_const(0), _const(0), _const(0), -1.0)
    with pytest.raises(ValueError):
        BlockParams(k_temporal=0.0)


@pytest.mark.parametrize("k", [0.0, 1e-30, 9e-7, 1001.0, 1e200])
def test_block_params_reject_k_temporal_outside_bounds(k):
    with pytest.raises(ValueError, match=r"k_temporal: must be in \[1e-06, 1000\]"):
        BlockParams(k_temporal=k)


def test_block_runs_cleanly_at_the_k_temporal_bounds():
    # sigma 0 gives the effective floor 0.5; 852.4 is past the estimator's
    # ceiling (a 0/255 checkerboard reads about 852.3)
    noisy = add_gaussian_noise(_const(128, 12, 12), 60.0, seed=1)
    triplet = (_const(0, 12, 12), noisy, _const(255, 12, 12))
    for k in (MIN_K_TEMPORAL, MAX_K_TEMPORAL):
        for sigma in (0.0, 852.4):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                out = denoise_block(*triplet, sigma, BlockParams(k_temporal=k))
            assert out.y.shape == noisy.y.shape


# --- conv block ----------------------------------------------------------------

def test_conv_zero_weights_is_identity():
    params = BlockParams(mode=BlockMode.CONV, conv_weights=zero_weights())
    frames = make_sequence(3, 24, 20, seed=4, motion=(1.0, 0.0))
    out = denoise_block(frames[0], frames[1], frames[2], 15.0, params)
    assert np.array_equal(out.y, frames[1].y)


def test_conv_requires_weights():
    frame = _const(50)
    with pytest.raises(ValueError):
        denoise_block(frame, frame, frame, 5.0, BlockParams(mode=BlockMode.CONV))


def _conv_reference(stack, kernels, bias):
    # direct nested-loop 3x3 convolution with replicate padding
    c_in, h, w = stack.shape
    c_out = kernels.shape[0]
    padded = np.pad(stack, ((0, 0), (1, 1), (1, 1)), mode="edge").astype(np.float64)
    out = np.zeros((c_out, h, w))
    for o in range(c_out):
        out[o] = bias[o]
        for ci in range(c_in):
            for ky in range(3):
                for kx in range(3):
                    out[o] += kernels[o, ci, ky, kx] * padded[ci, ky : ky + h, kx : kx + w]
    return out


def test_conv_block_matches_nested_loop_reference():
    weights = random_weights(seed=11)
    a, b, c = (make_sequence(3, 8, 8, seed=7)[i] for i in range(3))
    sigma = 12.0
    out = denoise_block(a, b, c, sigma,
                        BlockParams(mode=BlockMode.CONV, conv_weights=weights))
    stack = np.stack([
        a.luma_f64(), b.luma_f64(), c.luma_f64(), np.full((8, 8), sigma)
    ])
    x = np.maximum(_conv_reference(stack, weights.kernels[0], weights.biases[0]), 0.0)
    x = np.maximum(_conv_reference(x, weights.kernels[1], weights.biases[1]), 0.0)
    x = _conv_reference(x, weights.kernels[2], weights.biases[2])
    expected = quantize_plane(b.luma_f64() + x[0])
    assert np.abs(out.luma_f64() - expected).max() <= 1.0


# --- weight files ----------------------------------------------------------------

def test_weight_set_validation():
    good = zero_weights()
    with pytest.raises(ValueError):
        ConvWeightSet(kernels=good.kernels[:2], biases=good.biases[:2])
    with pytest.raises(ValueError):
        ConvWeightSet(
            kernels=(np.zeros((16, 4, 3, 3), dtype=np.float32),) + good.kernels[1:],
            biases=(np.zeros(8, dtype=np.float32),) + good.biases[1:],
        )
    with pytest.raises(ValueError):
        ConvWeightSet(
            kernels=(good.kernels[0].astype(np.float64),) + good.kernels[1:],
            biases=good.biases,
        )


def test_weights_roundtrip_buffer_and_file(tmp_path):
    weights = random_weights(seed=3)
    buf = io.BytesIO()
    n = write_weights(weights, buf)
    assert n == len(buf.getvalue())
    loaded = read_weights(buf.getvalue())
    for k1, k2 in zip(weights.kernels, loaded.kernels):
        assert np.array_equal(k1, k2)
    for b1, b2 in zip(weights.biases, loaded.biases):
        assert np.array_equal(b1, b2)

    path = tmp_path / "w.cwb"
    write_weights_file(weights, path)
    loaded2 = read_weights_file(path)
    assert np.array_equal(loaded2.kernels[2], weights.kernels[2])


def _weights_with(layer: int, value: float, in_bias: bool) -> ConvWeightSet:
    """random_weights with one kernel or bias value of the layer (1-based) replaced."""
    good = random_weights(seed=2)
    kernels, biases = list(good.kernels), list(good.biases)
    arrays = biases if in_bias else kernels
    arrays[layer - 1] = arrays[layer - 1].copy()
    arrays[layer - 1].flat[0] = value
    return ConvWeightSet(kernels=tuple(kernels), biases=tuple(biases))


@pytest.mark.parametrize("layer, value, in_bias", [
    (1, np.nan, False), (2, np.inf, True), (3, -np.inf, False), (3, np.nan, True)])
def test_weights_reject_non_finite_values(layer, value, in_bias):
    buf = io.BytesIO()
    write_weights(_weights_with(layer, value, in_bias), buf)  # a valid checksum
    with pytest.raises(ValueError, match=f"^layer {layer} holds a non-finite weight$"):
        read_weights(buf.getvalue())


def test_weights_reject_corruption():
    buf = io.BytesIO()
    write_weights(random_weights(seed=1), buf)
    blob = bytearray(buf.getvalue())

    with pytest.raises(ValueError, match="magic"):
        read_weights(b"XXXX" + bytes(blob[4:]))
    with pytest.raises(ValueError, match="truncated"):
        read_weights(bytes(blob[:6]))
    flipped = bytearray(blob)
    flipped[100] ^= 0xFF
    with pytest.raises(ValueError, match="checksum"):
        read_weights(bytes(flipped))
    with pytest.raises(ValueError):
        read_weights(bytes(blob[:-40]))  # tensor data cut, checksum recomputed below
    body = blob[4:-4]
    import struct
    import zlib
    wrong_shape = bytearray(body)
    wrong_shape[0:8] = struct.pack("<II", 5, 16)
    crc = struct.pack("<I", zlib.crc32(bytes(wrong_shape)) & 0xFFFFFFFF)
    with pytest.raises(ValueError, match="layer 1"):
        read_weights(b"CWB1" + bytes(wrong_shape) + crc)
    padded = bytes(body) + b"\x00" * 8
    crc = struct.pack("<I", zlib.crc32(padded) & 0xFFFFFFFF)
    with pytest.raises(ValueError, match="trailing"):
        read_weights(b"CWB1" + padded + crc)


# --- window cascade ---------------------------------------------------------------

def test_window_requires_five_frames():
    frame = _const(10)
    with pytest.raises(ValueError):
        denoise_window([frame] * 4, 5.0)
    with pytest.raises(ValueError):
        denoise_window([frame] * 6, 5.0)


def test_window_of_identical_frames_is_identity():
    frame = _const(93)
    out = denoise_window([frame] * 5, 0.0)
    assert np.array_equal(out.y, frame.y)


def test_window_equals_two_step_composition():
    frames = make_sequence(5, 32, 24, seed=9, motion=(1.0, 0.5))
    noisy = [add_gaussian_noise(f, 15.0, seed=t) for t, f in enumerate(frames)]
    params = BlockParams(spatial_enabled=False)
    d1 = denoise_block(noisy[0], noisy[1], noisy[2], 15.0, params)
    d2 = denoise_block(noisy[1], noisy[2], noisy[3], 15.0, params)
    d3 = denoise_block(noisy[2], noisy[3], noisy[4], 15.0, params)
    expected = denoise_block(d1, d2, d3, 15.0, params)
    out = denoise_window(noisy, 15.0, params)
    assert frames_equal(out, expected)


def test_window_reduces_noise_on_static_scene():
    clean = make_sequence(5, 64, 48, seed=2)  # no motion: all frames identical
    noisy = [add_gaussian_noise(f, 20.0, seed=t + 1) for t, f in enumerate(clean)]
    out = denoise_window(noisy, 20.0)
    err_before = np.abs(noisy[2].luma_f64() - clean[2].luma_f64()).mean()
    err_after = np.abs(out.luma_f64() - clean[2].luma_f64()).mean()
    assert err_after < 0.5 * err_before


# --- stream assembly ----------------------------------------------------------------

def _run_stream(n=12, cadence=5, sigma=18.0, seed=6):
    clean = make_sequence(n, 48, 32, seed=seed)
    noisy = VideoSequence(
        frames=tuple(add_gaussian_noise(f, sigma, seed=t) for t, f in enumerate(clean)),
        frame_rate=clean.frame_rate,
    )
    plan = WindowPlan(n, cadence)
    keyframe_outputs = {k: _const(40 + k, 32, 48) for k in plan.keyframe_indices}
    sigmas = {k: sigma for k in plan.keyframe_indices}
    return noisy, plan, keyframe_outputs, sigmas


def test_stream_keyframes_pass_through_verbatim():
    noisy, plan, outputs, sigmas = _run_stream()
    result = denoise_stream(noisy, outputs, sigmas, plan)
    assert len(result) == len(noisy)
    assert result.frame_rate == noisy.frame_rate
    for k in plan.keyframe_indices:
        assert result[k] is outputs[k]


def test_stream_substitutes_keyframe_outputs_in_windows():
    noisy, plan, outputs, sigmas = _run_stream()
    result = denoise_stream(noisy, outputs, sigmas, plan)
    for t in range(plan.n_frames):
        if plan.role(t) is not FrameRole.TEMPORAL:
            continue
        window = [outputs.get(i, noisy[i]) for i in plan.window(t)]
        sigma = sigmas[plan.last_keyframe_at_or_before(t)]
        assert frames_equal(result[t], denoise_window(window, sigma))


def test_stream_sigma_follows_segment_keyframe():
    noisy, plan, outputs, _ = _run_stream(n=8, cadence=5)
    sigmas = {0: 25.0, 5: 3.0}
    result = denoise_stream(noisy, outputs, sigmas, plan)
    window = [outputs.get(i, noisy[i]) for i in plan.window(6)]
    assert frames_equal(result[6], denoise_window(window, 3.0))
    assert not frames_equal(result[6], denoise_window(window, 25.0))


def test_stream_validation():
    noisy, plan, outputs, sigmas = _run_stream()
    with pytest.raises(ValueError):
        denoise_stream(noisy[:-1], outputs, sigmas, plan)
    missing = dict(outputs)
    del missing[5]
    with pytest.raises(ValueError):
        denoise_stream(noisy, missing, sigmas, plan)
    with pytest.raises(ValueError):
        denoise_stream(noisy, outputs, {0: 18.0}, plan)


def test_stream_reduces_flicker_on_static_scene():
    n = 11
    clean = make_sequence(n, 64, 48, seed=3)
    noisy_frames = tuple(add_gaussian_noise(f, 20.0, seed=t) for t, f in enumerate(clean))
    noisy = VideoSequence(frames=noisy_frames, frame_rate=clean.frame_rate)
    plan = WindowPlan(n, 5)
    outputs = {k: noisy[k] for k in plan.keyframe_indices}
    sigmas = {k: 20.0 for k in plan.keyframe_indices}
    result = denoise_stream(noisy, outputs, sigmas, plan)
    assert mean_abs_frame_diff(result) < mean_abs_frame_diff(noisy)
