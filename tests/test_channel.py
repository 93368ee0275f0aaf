from fractions import Fraction

import numpy as np
import pytest

from rtcdenoise import (
    MAX_FRAMERATE_DIVISOR,
    SCALE_LADDER,
    Frame,
    LossKind,
    LossModel,
    Recommendation,
    SenderConfig,
    add_gaussian_noise,
    add_salt_pepper,
    add_speckle,
    encode_decode,
    make_frame,
    sender_step,
    transmit,
)

from rtcdenoise.channel import _scale_round_trip
from rtcdenoise.frame import quantize_plane

from util import frames_equal

import oracles


def _const(value, h=32, w=32):
    return Frame(y=np.full((h, w), value, dtype=np.uint8))


# --- sender config ----------------------------------------------------------

def test_sender_config_defaults_and_validation():
    cfg = SenderConfig()
    assert (cfg.q, cfg.resolution_scale, cfg.framerate_divisor) == (16, Fraction(1), 1)
    with pytest.raises(ValueError):
        SenderConfig(q=2)  # below q_min
    with pytest.raises(ValueError):
        SenderConfig(resolution_scale=Fraction(2, 3))
    with pytest.raises(ValueError):
        SenderConfig(framerate_divisor=5)
    with pytest.raises(ValueError):
        SenderConfig(noise_sigma=-1)
    with pytest.raises(ValueError):
        SenderConfig(q_min=0)


def test_scale_ladder_contents():
    assert SCALE_LADDER == (Fraction(1, 2), Fraction(3, 4), Fraction(1, 1))


# --- codec surrogate --------------------------------------------------------

def test_encode_decode_q1_nearly_lossless(natural_frames):
    cfg = SenderConfig(q=1, q_min=1)
    for frame in natural_frames:
        decoded = encode_decode(frame, cfg)
        err = np.abs(decoded.luma_f64() - frame.luma_f64()).max()
        assert err <= 1.0


def test_encode_decode_constant_128_invariant_q16():
    # the DC coefficient of a constant block is a multiple of q = 16
    frame = _const(128, 40, 48)
    decoded = encode_decode(frame, SenderConfig(q=16))
    assert np.array_equal(decoded.y, frame.y)


def test_encode_decode_preserves_dimensions_and_chroma():
    frame = make_frame(37, 23, seed=3, with_chroma=True)
    for scale in SCALE_LADDER:
        decoded = encode_decode(frame, SenderConfig(q=8, resolution_scale=scale))
        assert (decoded.width, decoded.height) == (frame.width, frame.height)
        assert decoded.has_chroma
        assert decoded.u.shape == frame.u.shape


def test_encode_decode_chroma_takes_only_the_resolution_round_trip():
    frame = make_frame(37, 23, seed=3, with_chroma=True)
    for scale in SCALE_LADDER:
        decoded = encode_decode(frame, SenderConfig(q=8, resolution_scale=scale))
        for got, plane in ((decoded.u, frame.u), (decoded.v, frame.v)):
            expected = quantize_plane(_scale_round_trip(plane.astype(np.float64), scale))
            assert np.array_equal(got, expected)
            if scale == 1:
                assert np.array_equal(got, plane)


def test_encode_decode_downscale_loses_detail():
    frame = make_frame(64, 64, seed=9, style="detail")
    full = encode_decode(frame, SenderConfig(q=4))
    half = encode_decode(frame, SenderConfig(q=4, resolution_scale=Fraction(1, 2)))
    err_full = np.mean((full.luma_f64() - frame.luma_f64()) ** 2)
    err_half = np.mean((half.luma_f64() - frame.luma_f64()) ** 2)
    assert err_half > err_full


def test_encode_decode_larger_q_is_coarser(natural_frames):
    frame = natural_frames[2]
    errs = []
    for q in (4, 16, 48):
        decoded = encode_decode(frame, SenderConfig(q=q))
        errs.append(float(np.mean((decoded.luma_f64() - frame.luma_f64()) ** 2)))
    assert errs[0] <= errs[1] <= errs[2]


# --- noise injectors --------------------------------------------------------

def test_injectors_zero_strength_return_same_object():
    frame = _const(100)
    assert add_gaussian_noise(frame, 0.0) is frame
    assert add_salt_pepper(frame, 0.0) is frame
    assert add_speckle(frame, 0.0) is frame


def test_gaussian_noise_statistics():
    frame = _const(128, 128, 128)
    noisy = add_gaussian_noise(frame, 10.0, seed=4)
    delta = noisy.luma_f64() - frame.luma_f64()
    assert abs(float(delta.std()) - 10.0) < 0.5
    assert abs(float(delta.mean())) < 0.5


def test_gaussian_noise_deterministic_per_seed():
    frame = _const(100)
    a = add_gaussian_noise(frame, 5.0, seed=1)
    b = add_gaussian_noise(frame, 5.0, seed=1)
    c = add_gaussian_noise(frame, 5.0, seed=2)
    assert frames_equal(a, b)
    assert not frames_equal(a, c)


@pytest.mark.parametrize("shape", [(1, 1), (7, 13), (128, 257), (360, 480)])
def test_normal_injectors_equal_whole_plane_formula(shape):
    rng = np.random.default_rng(shape[0] * shape[1])
    frame = Frame(y=rng.integers(0, 256, shape, dtype=np.uint8))
    for seed in (0, 5, 2**64 - 1):
        for sigma in (0.5, 25.0, 300.0):
            assert frames_equal(add_gaussian_noise(frame, sigma, seed=seed),
                                oracles.add_gaussian_noise(frame, sigma, seed=seed))
            assert frames_equal(add_speckle(frame, sigma / 100, seed=seed),
                                oracles.add_speckle(frame, sigma / 100, seed=seed))


def test_salt_pepper_density_and_polarity():
    frame = _const(128, 100, 100)
    noisy = add_salt_pepper(frame, 0.05, seed=7)
    pepper = int(np.sum(noisy.y == 0))
    salt = int(np.sum(noisy.y == 255))
    total = frame.width * frame.height
    assert abs((pepper + salt) / total - 0.05) < 0.01
    assert pepper > 0 and salt > 0


def test_salt_pepper_validates_density():
    with pytest.raises(ValueError):
        add_salt_pepper(_const(1), 1.5)


def test_speckle_scales_with_intensity():
    lo = add_speckle(_const(40, 64, 64), 0.2, seed=3)
    hi = add_speckle(_const(200, 64, 64), 0.2, seed=3)
    std_lo = float((lo.luma_f64() - 40).std())
    std_hi = float((hi.luma_f64() - 200).std())
    assert std_hi > 3 * std_lo


def test_injectors_touch_luma_only():
    frame = make_frame(16, 16, seed=1, with_chroma=True)
    for noisy in (
        add_gaussian_noise(frame, 20, seed=1),
        add_salt_pepper(frame, 0.1, seed=1),
        add_speckle(frame, 0.3, seed=1),
    ):
        assert noisy.u is frame.u and noisy.v is frame.v


# --- slice loss and concealment ---------------------------------------------

def test_transmit_lossless_is_identity():
    frame = make_frame(48, 40, seed=2)
    loss = LossModel(kind=LossKind.BERNOULLI, p_loss=0.0)
    out, lost = transmit(frame, None, loss)
    assert out is frame
    assert lost == []


def test_transmit_total_loss_concealment_rules():
    frame = make_frame(48, 40, seed=2)
    prev = make_frame(48, 40, seed=8)
    # no previous frame: every slice becomes mid-gray
    out, lost = transmit(frame, None, LossModel(p_loss=1.0))
    assert np.all(out.y == 128)
    assert lost == list(range((40 + 15) // 16))
    # with a previous frame: bit-exact copy of it
    out2, _ = transmit(frame, prev, LossModel(p_loss=1.0))
    assert np.array_equal(out2.y, prev.y)


def test_transmit_partial_loss_slice_geometry():
    frame = Frame(y=np.full((40, 16), 200, dtype=np.uint8))
    loss = LossModel(p_loss=1.0, slice_height=16)
    out, lost = transmit(frame, None, loss)
    assert lost == [0, 1, 2]  # 16 + 16 + 8 rows
    assert np.all(out.y == 128)


def test_transmit_chroma_cosliced():
    frame = make_frame(32, 32, seed=4, with_chroma=True)
    out, lost = transmit(frame, None, LossModel(p_loss=1.0, slice_height=16))
    assert lost == [0, 1]
    assert np.all(out.u == 128) and np.all(out.v == 128)


def test_transmit_partial_loss_conceals_chroma_from_previous_frame():
    # 23 rows in slices of 7: rows 0-6, 7-13, 14-20, 21-22. Slices 0 and 2 are
    # lost; a lost slice's chroma rows r0//2..(r1+1)//2 win over a kept neighbour's.
    frame = make_frame(37, 23, seed=4, with_chroma=True)
    prev = make_frame(37, 23, seed=5, with_chroma=True)
    out, lost = transmit(frame, prev, LossModel(p_loss=0.5, slice_height=7, seed=10))
    assert lost == [0, 2]
    luma_from_prev = [*range(0, 7), *range(14, 21)]
    chroma_from_prev = [0, 1, 2, 3, 7, 8, 9, 10]
    for got, cur, old, from_prev in ((out.y, frame.y, prev.y, luma_from_prev),
                                     (out.u, frame.u, prev.u, chroma_from_prev),
                                     (out.v, frame.v, prev.v, chroma_from_prev)):
        for row in range(got.shape[0]):
            assert np.array_equal(got[row], (old if row in from_prev else cur)[row]), row


def test_transmit_conceals_chroma_mid_gray_when_previous_frame_has_none():
    frame = make_frame(37, 23, seed=4, with_chroma=True)
    prev = make_frame(37, 23, seed=5)  # luma only
    out, lost = transmit(frame, prev, LossModel(p_loss=1.0, slice_height=7))
    assert lost == [0, 1, 2, 3]
    assert np.array_equal(out.y, prev.y)
    assert np.all(out.u == 128) and np.all(out.v == 128)
    out, lost = transmit(frame, prev, LossModel(p_loss=0.5, slice_height=7, seed=10))
    assert lost == [0, 2]
    assert np.all(out.u[:4] == 128) and np.array_equal(out.u[4:7], frame.u[4:7])
    assert np.all(out.v[7:11] == 128) and np.array_equal(out.v[11:], frame.v[11:])


def test_transmit_draw_accounting_is_state_independent():
    frame = make_frame(64, 32, seed=1)  # two 16-row slices
    bern = LossModel(kind=LossKind.BERNOULLI, p_loss=0.5, seed=3)
    transmit(frame, None, bern)
    assert bern.draws == 2
    ge = LossModel(kind=LossKind.GILBERT_ELLIOTT, p_enter_bad=0.9, p_loss_bad=1.0, seed=3)
    transmit(frame, None, ge)
    assert ge.draws == 4  # two draws per slice in either state
    transmit(frame, None, ge)
    assert ge.draws == 8


def test_transmit_deterministic_for_seed():
    frame = make_frame(64, 64, seed=5)
    a = LossModel(p_loss=0.5, seed=9)
    b = LossModel(p_loss=0.5, seed=9)
    out_a, lost_a = transmit(frame, None, a)
    out_b, lost_b = transmit(frame, None, b)
    assert lost_a == lost_b
    assert frames_equal(out_a, out_b)


def test_gilbert_elliott_bursts_lose_more_than_independent():
    frame = make_frame(16, 256, seed=1)  # 16 slices per frame
    ge = LossModel(
        kind=LossKind.GILBERT_ELLIOTT,
        p_enter_bad=0.2,
        p_exit_bad=0.2,
        p_loss_bad=1.0,
        seed=2,
    )
    lost_total = 0
    for _ in range(50):
        _, lost = transmit(frame, None, ge)
        lost_total += len(lost)
    assert lost_total > 0
    assert ge.draws == 50 * 16 * 2


def test_loss_model_validation():
    with pytest.raises(ValueError):
        LossModel(p_loss=1.5)
    with pytest.raises(ValueError):
        LossModel(slice_height=0)


# --- sender adaptation ------------------------------------------------------

def test_sender_step_raise_bitrate_steps_q_by_4():
    cfg = SenderConfig(q=48)
    cfg = sender_step(cfg, Recommendation.RAISE_BITRATE)
    assert cfg.q == 44
    for _ in range(20):
        cfg = sender_step(cfg, Recommendation.RAISE_BITRATE)
    assert cfg.q == cfg.q_min


def test_sender_step_raise_bitrate_restores_scale_at_q_min():
    cfg = SenderConfig(q=4, resolution_scale=Fraction(1, 2))
    cfg = sender_step(cfg, Recommendation.RAISE_BITRATE)
    assert cfg.resolution_scale == Fraction(3, 4)
    cfg = sender_step(cfg, Recommendation.RAISE_BITRATE)
    assert cfg.resolution_scale == Fraction(1, 1)
    assert sender_step(cfg, Recommendation.RAISE_BITRATE) == cfg


def test_sender_step_lower_resolution_walks_ladder():
    cfg = SenderConfig()
    cfg = sender_step(cfg, Recommendation.LOWER_RESOLUTION)
    assert cfg.resolution_scale == Fraction(3, 4)
    cfg = sender_step(cfg, Recommendation.LOWER_RESOLUTION)
    assert cfg.resolution_scale == Fraction(1, 2)
    assert sender_step(cfg, Recommendation.LOWER_RESOLUTION).resolution_scale == Fraction(1, 2)


def test_sender_step_lower_framerate_caps_at_max():
    cfg = SenderConfig()
    for expected in (2, 3, 4, 4):
        cfg = sender_step(cfg, Recommendation.LOWER_FRAMERATE)
        assert cfg.framerate_divisor == expected
    assert cfg.framerate_divisor == MAX_FRAMERATE_DIVISOR


def test_sender_step_none_and_duck_typing():
    cfg = SenderConfig(q=20)

    class Msg:
        recommendation = Recommendation.RAISE_BITRATE

    assert sender_step(cfg, Recommendation.NONE) is cfg
    with pytest.raises(ValueError):
        sender_step(cfg, Msg())  # the caller passes message.recommendation


def test_sender_step_rejects_unknown():
    with pytest.raises(ValueError):
        sender_step(SenderConfig(), "SOMETHING_ELSE")
