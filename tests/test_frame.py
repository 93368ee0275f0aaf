from fractions import Fraction

import numpy as np
import pytest

from rtcdenoise import Frame, VideoSequence, clamp_index, quantize_plane
from rtcdenoise.frame import chroma_shape

from util import frames_equal

import oracles


def _luma(h=8, w=8, value=128):
    return np.full((h, w), value, dtype=np.uint8)


def test_frame_basic_properties():
    f = Frame(y=_luma(6, 10))
    assert (f.width, f.height) == (10, 6)
    assert not f.has_chroma
    assert f.u is None and f.v is None


def test_frame_rejects_bad_luma():
    with pytest.raises(ValueError):
        Frame(y=np.zeros((4, 4), dtype=np.float32))
    with pytest.raises(ValueError):
        Frame(y=np.zeros(16, dtype=np.uint8))
    with pytest.raises(ValueError):
        Frame(y=np.zeros((0, 4), dtype=np.uint8))


def test_chroma_shape_is_ceil_half():
    f = Frame(y=_luma(5, 7), u=np.zeros((3, 4), dtype=np.uint8), v=np.zeros((3, 4), dtype=np.uint8))
    assert f.has_chroma
    with pytest.raises(ValueError):
        Frame(y=_luma(5, 7), u=np.zeros((2, 3), dtype=np.uint8), v=np.zeros((2, 3), dtype=np.uint8))


def test_chroma_shape_and_plane_order():
    assert [chroma_shape(h, w) for h, w in ((5, 7), (4, 4), (1, 1))] == [(3, 4), (2, 2), (1, 1)]
    u = np.zeros((3, 4), dtype=np.uint8)
    v = np.ones((3, 4), dtype=np.uint8)
    f = Frame(y=_luma(5, 7), u=u, v=v)
    assert [id(p) for p in f.planes] == [id(f.y), id(f.u), id(f.v)]
    mono = Frame(y=_luma(5, 7))
    assert [id(p) for p in mono.planes] == [id(mono.y)]


def test_with_luma_takes_a_uint8_plane_as_is():
    base = Frame(y=_luma(4, 4))
    plane = np.arange(16, dtype=np.uint8).reshape(4, 4)
    assert base.with_luma(plane).y is plane
    assert np.array_equal(base.with_luma(plane + 0.4).y, plane)


def test_chroma_must_come_in_pairs():
    with pytest.raises(ValueError):
        Frame(y=_luma(4, 4), u=np.zeros((2, 2), dtype=np.uint8))


def test_planes_are_read_only():
    f = Frame(y=_luma())
    with pytest.raises(ValueError):
        f.y[0, 0] = 1


def test_quantize_plane_rounding_and_clamping():
    values = np.array([[-3.0, -0.4, 0.0, 0.5, 1.49, 254.5, 255.6, 1000.0]])
    out = quantize_plane(values)
    assert out.dtype == np.uint8
    assert out.tolist() == [[0, 0, 0, 1, 1, 255, 255, 255]]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_quantize_plane_equals_the_per_value_oracle(dtype):
    rng = np.random.default_rng(5)
    edges = [-np.inf, -1.0, -0.5, -0.4999, -0.0, 0.0, 0.4999, 0.5, 1.5, 2.5, 254.4999, 254.5,
             254.9, 255.0, 255.49, 255.5, 255.99, 256.0, 300.0, 3e38, np.inf]
    values = np.concatenate([np.array(edges), rng.uniform(-40, 300, 40_000),
                             np.floor(rng.uniform(-10, 270, 30_000)) + 0.5]).astype(dtype)
    assert np.array_equal(quantize_plane(values), oracles.quantize(values))


def test_from_luma_and_with_luma_carry_chroma():
    u = np.full((2, 2), 90, dtype=np.uint8)
    v = np.full((2, 2), 200, dtype=np.uint8)
    base = Frame(y=_luma(4, 4), u=u, v=v)
    out = base.with_luma(base.luma_f64() + 0.2)
    assert frames_equal(out, base)
    assert out.u is base.u and out.v is base.v
    bare = Frame(y=_luma(4, 4)).with_luma(np.zeros((4, 4)))
    assert not bare.has_chroma


def test_luma_float_views():
    f = Frame(y=_luma(value=17))
    assert f.luma_f64().dtype == np.float64
    assert float(f.luma_f64()[0, 0]) == 17.0


def test_sequence_geometry_checks():
    a = Frame(y=_luma(4, 4))
    b = Frame(y=_luma(4, 6))
    with pytest.raises(ValueError):
        VideoSequence(frames=(a, b))
    c = Frame(y=_luma(4, 4), u=np.zeros((2, 2), dtype=np.uint8), v=np.zeros((2, 2), dtype=np.uint8))
    with pytest.raises(ValueError):
        VideoSequence(frames=(a, c))


def test_sequence_iteration():
    frames = tuple(Frame(y=_luma(value=i)) for i in range(3))
    seq = VideoSequence(frames=frames, frame_rate=Fraction(30, 1))
    assert len(seq) == 3
    assert [int(f.y[0, 0]) for f in seq] == [0, 1, 2]
    assert seq[1] is frames[1]


def test_sequence_rejects_bad_frame_rate():
    with pytest.raises(ValueError):
        VideoSequence(frames=(Frame(y=_luma()),), frame_rate=Fraction(0, 1))


def test_clamp_index():
    assert clamp_index(-5, 10) == 0
    assert clamp_index(3, 10) == 3
    assert clamp_index(99, 10) == 9
    with pytest.raises(ValueError):
        clamp_index(0, 0)
