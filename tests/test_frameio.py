import io
from fractions import Fraction

import numpy as np
import pytest

from rtcdenoise import (
    FormatError,
    Frame,
    VideoSequence,
    make_sequence,
    read_pgm,
    read_pgm_file,
    read_y4m,
    read_y4m_file,
    write_pgm,
    write_pgm_file,
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


def test_pgm_roundtrip(tmp_path):
    frame = Frame(y=np.arange(48, dtype=np.uint8).reshape(6, 8))
    path = tmp_path / "still.pgm"
    write_pgm_file(frame, path)
    back = read_pgm_file(path)
    assert np.array_equal(back.y, frame.y)
    assert not back.has_chroma


def test_pgm_comments_and_whitespace():
    payload = bytes(range(4))
    data = b"P5\n# a comment\n 2\n# another\n2\t255\n" + payload
    frame = read_pgm(data)
    assert frame.y.tolist() == [[0, 1], [2, 3]]


def test_pgm_rejects_wrong_magic_and_maxval():
    with pytest.raises(FormatError):
        read_pgm(b"P6\n2 2\n255\n" + b"\x00" * 12)
    with pytest.raises(FormatError):
        read_pgm(b"P5\n2 2\n65535\n" + b"\x00" * 8)


def test_pgm_truncated_payload():
    with pytest.raises(FormatError) as err:
        read_pgm(b"P5\n4 4\n255\n\x00\x00")
    assert "truncated" in str(err.value)


def test_pgm_drops_chroma_on_write():
    frame = Frame(
        y=np.zeros((4, 4), dtype=np.uint8),
        u=np.zeros((2, 2), dtype=np.uint8),
        v=np.zeros((2, 2), dtype=np.uint8),
    )
    sink = io.BytesIO()
    write_pgm(frame, sink)
    assert np.array_equal(read_pgm(sink.getvalue()).y, frame.y)
