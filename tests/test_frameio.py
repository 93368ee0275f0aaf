import io
import tracemalloc
from fractions import Fraction

import pytest

from rtcdenoise import (
    FormatError,
    VideoSequence,
    make_sequence,
    read_y4m,
    read_y4m_file,
    write_y4m,
    write_y4m_file,
)

from util import sequences_equal


def _roundtrip(seq: VideoSequence) -> VideoSequence:
    sink = io.BytesIO()
    write_y4m(seq, sink)
    return read_y4m(sink.getvalue())


def test_y4m_roundtrip_mono():
    seq = make_sequence(3, 24, 18, seed=1, style="detail")
    back = _roundtrip(seq)
    assert sequences_equal(seq, back)
    assert back.frame_rate == seq.frame_rate
    assert not back[0].has_chroma


def test_y4m_roundtrip_chroma_and_odd_dims():
    seq = make_sequence(2, 13, 9, seed=2, with_chroma=True, frame_rate=Fraction(30000, 1001))
    back = _roundtrip(seq)
    assert sequences_equal(seq, back)
    assert back.frame_rate == Fraction(30000, 1001)
    assert back[0].u.shape == (5, 7)


def test_y4m_header_variants_accepted():
    y = bytes(range(6))
    data = b"YUV4MPEG2 W3 H2 F30:1 Ip A1:1 C420jpeg Xsome-comment\nFRAME\n" + y + b"\x80\x81\x82\x83"
    seq = read_y4m(data)
    assert len(seq) == 1
    assert seq.frame_rate == Fraction(30, 1)
    assert seq[0].u.shape == (1, 2)


def test_y4m_defaults_when_rate_missing():
    data = b"YUV4MPEG2 W2 H2 Cmono\nFRAME\n\x01\x02\x03\x04"
    seq = read_y4m(data)
    assert seq.frame_rate == Fraction(25, 1)
    assert seq[0].y.tolist() == [[1, 2], [3, 4]]


@pytest.mark.parametrize("rate", [b"F0:1", b"F-25:1", b"F0"])
def test_y4m_rejects_non_positive_rate(rate):
    with pytest.raises(FormatError, match="frame rate must be positive") as err:
        read_y4m(b"YUV4MPEG2 W2 H2 " + rate + b" Cmono\nFRAME\n\x01\x02\x03\x04")
    assert err.value.offset == 0


def test_y4m_bad_magic_offset_zero():
    with pytest.raises(FormatError) as err:
        read_y4m(b"JUNKJUNKJUNK\n")
    assert err.value.offset == 0


def test_y4m_missing_frame_marker_offset():
    good = b"YUV4MPEG2 W2 H2 Cmono\n"
    with pytest.raises(FormatError) as err:
        read_y4m(good + b"GRAME\n\x00\x00\x00\x00")
    assert err.value.offset == len(good)


def test_y4m_truncated_frame():
    data = b"YUV4MPEG2 W4 H4 Cmono\nFRAME\n" + b"\x00" * 7
    with pytest.raises(FormatError) as err:
        read_y4m(data)
    assert "truncated" in str(err.value)


def test_y4m_rejects_unknown_colorspace():
    with pytest.raises(FormatError):
        read_y4m(b"YUV4MPEG2 W2 H2 C444\nFRAME\n" + b"\x00" * 12)


def test_y4m_requires_dimensions():
    with pytest.raises(FormatError):
        read_y4m(b"YUV4MPEG2 F25:1\n")


def test_y4m_empty_write_rejected():
    with pytest.raises(ValueError):
        write_y4m(VideoSequence(frames=()), io.BytesIO())


def test_y4m_file_helpers(tmp_path):
    seq = make_sequence(2, 16, 12, seed=5, with_chroma=True)
    path = tmp_path / "clip.y4m"
    n = write_y4m_file(seq, path)
    assert path.stat().st_size == n
    assert sequences_equal(read_y4m_file(path), seq)


def test_y4m_bytearray_source_is_not_aliased():
    sink = io.BytesIO()
    write_y4m(make_sequence(2, 8, 6, seed=3, with_chroma=True), sink)
    data = bytearray(sink.getvalue())
    seq = read_y4m(data)
    before = [f.y.copy() for f in seq]
    data[:] = bytes(len(data))
    assert all((f.y == b).all() for f, b in zip(seq, before))


def test_read_y4m_file_holds_the_clip_once(tmp_path):
    seq = make_sequence(20, 64, 48, seed=6, with_chroma=True)
    path = tmp_path / "clip.y4m"
    size = write_y4m_file(seq, path)
    tracemalloc.start()
    try:
        back = read_y4m_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sequences_equal(back, seq)
    assert peak < 1.5 * size, f"traced peak {peak} for a {size}-byte file"
    for frame in back:
        for plane in (frame.y, frame.u, frame.v):
            assert not plane.flags.writeable
