import gzip
import io
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
from rtcdenoise.frameio import Y4MReader, Y4MWriter, open_y4m

from util import frames_equal, pipe_feeding, sequences_equal, traced_peak


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
    back, peak = traced_peak(read_y4m_file, path)
    assert sequences_equal(back, seq)
    assert peak < 1.5 * size, f"traced peak {peak} for a {size}-byte file"
    for frame in back:
        for plane in (frame.y, frame.u, frame.v):
            assert not plane.flags.writeable


def test_reader_parses_the_header_then_reads_frames_forward(tmp_path):
    seq = make_sequence(5, 13, 9, seed=7, with_chroma=True, frame_rate=Fraction(30, 1))
    path = tmp_path / "clip.y4m"
    write_y4m_file(seq, path)
    with open_y4m(path) as reader:
        assert (reader.width, reader.height, reader.frame_rate) == (13, 9, Fraction(30, 1))
        first = next(reader)
        assert frames_equal(first, seq[0]) and not first.y.flags.writeable
        assert sequences_equal(VideoSequence((first,) + tuple(reader)), seq)
        assert list(reader) == []  # one pass

    # the error comes at the faulty frame, after every whole frame before it
    data = path.read_bytes()
    path.write_bytes(data[:-1])
    read = []
    with open_y4m(path) as reader, pytest.raises(FormatError, match="truncated frame 4") as err:
        for frame in reader:
            read.append(frame)
    assert sequences_equal(VideoSequence(tuple(read)), VideoSequence(seq.frames[:4]))
    assert err.value.offset == len(data) - (13 * 9 + 2 * 7 * 5)


def test_reader_rejects_a_bad_marker_past_the_first_frame():
    seq = make_sequence(3, 4, 4, seed=1)
    data = _roundtrip_bytes(seq)
    second = data.index(b"FRAME", data.index(b"FRAME") + 1)
    reader = Y4MReader(io.BytesIO(data[:second] + b"JUNK\n" + data[second + 6:]))
    assert frames_equal(next(reader), seq[0])
    with pytest.raises(FormatError) as err:
        next(reader)
    assert err.value.offset == second


def test_writer_writes_what_write_y4m_writes():
    seq = make_sequence(3, 11, 7, seed=8, with_chroma=True)
    sink = io.BytesIO()
    writer = Y4MWriter(sink, seq.frame_rate)
    for frame in seq:
        writer.write(frame)
    assert sink.getvalue() == _roundtrip_bytes(seq)
    assert writer.written == len(sink.getvalue())


def test_read_y4m_reads_through_a_decompressing_stream(tmp_path):
    # a gzip file can seek, and its fileno() is the compressed file's
    seq = make_sequence(4, 10, 6, seed=5, with_chroma=True)
    path = tmp_path / "clip.y4m.gz"
    with gzip.open(path, "wb") as fh:
        write_y4m(seq, fh)
    with gzip.open(path, "rb") as fh:
        assert sequences_equal(read_y4m(fh), seq)


def test_read_y4m_accepts_a_stream_that_cannot_seek():
    seq = make_sequence(2, 8, 6, seed=4)
    with pipe_feeding(_roundtrip_bytes(seq)) as fd, open(fd, "rb", closefd=False) as fh:
        assert sequences_equal(read_y4m(fh), seq)


def test_reader_reads_a_raw_pipe_until_each_frame_is_whole():
    # 2,160-byte frames through an unbuffered pipe that gives at most 1,000 bytes a read
    seq = make_sequence(3, 40, 36, seed=4, with_chroma=True)
    with pipe_feeding(_roundtrip_bytes(seq), chunk=1000) as fd, \
            open(fd, "rb", buffering=0, closefd=False) as raw:
        assert sequences_equal(read_y4m(raw), seq)


def test_reader_holds_a_large_frame_once():
    # a frame larger than the first read's buffer grows that buffer as its
    # bytes arrive, not by joining parts; a 4100x4200 mono frame is 17.2 MB
    import numpy as np

    rows = np.arange(4100, dtype=np.uint8)[:, None]
    data = b"YUV4MPEG2 W4200 H4100 Cmono\nFRAME\n" + np.broadcast_to(rows, (4100, 4200)).tobytes()
    with io.BytesIO(data) as stream:
        frame, peak = traced_peak(next, Y4MReader(stream))
    assert (frame.y == rows).all()
    assert peak < 1.2 * 4100 * 4200, f"traced {peak} B"


def _roundtrip_bytes(seq: VideoSequence) -> bytes:
    sink = io.BytesIO()
    write_y4m(seq, sink)
    return sink.getvalue()
