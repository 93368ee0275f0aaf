"""Raw video file I/O: YUV4MPEG2 (Y4M) sequences and binary PGM stills.

Both formats round-trip bit-exactly, which the tests rely on for fixtures.
Readers accept an open binary stream or a bytes object; parse errors carry
the byte offset of the offending data.
"""

from __future__ import annotations

import io
from fractions import Fraction
from typing import BinaryIO, Union

import numpy as np

from .frame import Frame, FormatError, VideoSequence

_Y4M_MAGIC = b"YUV4MPEG2"
_MONO_TAGS = {"mono"}
_C420_TAGS = {"420", "420jpeg", "420mpeg2", "420paldv"}

ByteSource = Union[bytes, bytearray, BinaryIO]


def _as_buffer(source: ByteSource) -> bytes:
    if isinstance(source, (bytes, bytearray)):
        return bytes(source)
    return source.read()


def _chroma_shape(width: int, height: int) -> tuple[int, int]:
    return ((height + 1) // 2, (width + 1) // 2)


def read_y4m(source: ByteSource) -> VideoSequence:
    """Parse a YUV4MPEG2 stream (Cmono or C420 family) into a VideoSequence."""
    data = _as_buffer(source)
    if not data.startswith(_Y4M_MAGIC):
        raise FormatError("not a YUV4MPEG2 stream (bad magic)", offset=0)
    header_end = data.find(b"\n")
    if header_end < 0:
        raise FormatError("unterminated stream header", offset=len(data))

    width = height = None
    rate = Fraction(25, 1)
    colorspace = "420"
    for token in data[len(_Y4M_MAGIC):header_end].split(b" "):
        if not token:
            continue
        tag, value = chr(token[0]), token[1:].decode("ascii", "replace")
        try:
            if tag == "W":
                width = int(value)
            elif tag == "H":
                height = int(value)
            elif tag == "F":
                num, _, den = value.partition(":")
                rate = Fraction(int(num), int(den or "1"))
                if rate <= 0:
                    raise ValueError("frame rate must be positive")
            elif tag == "C":
                colorspace = value
            # I (interlacing), A (aspect), X (comment) are accepted and ignored
        except (ValueError, ZeroDivisionError) as exc:
            raise FormatError(f"bad header parameter {tag}{value!r}: {exc}", offset=0) from exc
    if width is None or height is None or width < 1 or height < 1:
        raise FormatError("header missing valid W/H parameters", offset=0)
    if colorspace in _MONO_TAGS:
        mono = True
    elif colorspace in _C420_TAGS:
        mono = False
    else:
        raise FormatError(f"unsupported colorspace C{colorspace}", offset=0)

    luma_size = width * height
    ch, cw = _chroma_shape(width, height)
    chroma_size = ch * cw
    frame_size = luma_size if mono else luma_size + 2 * chroma_size

    frames = []
    pos = header_end + 1
    while pos < len(data):
        nl = data.find(b"\n", pos)
        if nl < 0 or not data[pos:nl].startswith(b"FRAME"):
            raise FormatError("expected FRAME marker", offset=pos)
        payload_start = nl + 1
        payload = data[payload_start : payload_start + frame_size]
        if len(payload) < frame_size:
            raise FormatError(
                f"truncated frame {len(frames)}: got {len(payload)} of {frame_size} bytes",
                offset=payload_start,
            )
        raw = np.frombuffer(payload, dtype=np.uint8)
        y = raw[:luma_size].reshape(height, width).copy()
        if mono:
            frames.append(Frame(y=y))
        else:
            u = raw[luma_size : luma_size + chroma_size].reshape(ch, cw).copy()
            v = raw[luma_size + chroma_size :].reshape(ch, cw).copy()
            frames.append(Frame(y=y, u=u, v=v))
        pos = payload_start + frame_size
    return VideoSequence(frames=tuple(frames), frame_rate=rate)


def write_y4m(sequence: VideoSequence, sink: BinaryIO) -> int:
    """Serialize a sequence as Y4M; returns bytes written."""
    if len(sequence) == 0:
        raise ValueError("cannot write an empty sequence")
    first = sequence[0]
    tag = "C420" if first.has_chroma else "Cmono"
    rate = sequence.frame_rate
    header = (
        f"YUV4MPEG2 W{first.width} H{first.height} "
        f"F{rate.numerator}:{rate.denominator} Ip A1:1 {tag}\n"
    ).encode("ascii")
    written = sink.write(header)
    for frame in sequence:
        written += sink.write(b"FRAME\n")
        written += sink.write(frame.y.tobytes())
        if frame.has_chroma:
            written += sink.write(frame.u.tobytes())
            written += sink.write(frame.v.tobytes())
    return written


def read_y4m_file(path) -> VideoSequence:
    with open(path, "rb") as fh:
        return read_y4m(fh)


def write_y4m_file(sequence: VideoSequence, path) -> int:
    with open(path, "wb") as fh:
        return write_y4m(sequence, fh)


def _next_pgm_token(data: bytes, pos: int) -> tuple[bytes, int]:
    # skip whitespace and '#' comment lines between header tokens
    while pos < len(data):
        c = data[pos : pos + 1]
        if c == b"#":
            nl = data.find(b"\n", pos)
            pos = len(data) if nl < 0 else nl + 1
        elif c.isspace():
            pos += 1
        else:
            break
    start = pos
    while pos < len(data) and not data[pos : pos + 1].isspace():
        pos += 1
    if start == pos:
        raise FormatError("unexpected end of PGM header", offset=start)
    return data[start:pos], pos


def read_pgm(source: ByteSource) -> Frame:
    """Parse a binary (P5) PGM with maxval 255 into a luma-only Frame."""
    data = _as_buffer(source)
    magic, pos = _next_pgm_token(data, 0)
    if magic != b"P5":
        raise FormatError(f"not a binary PGM (magic {magic!r})", offset=0)
    fields = []
    for _ in range(3):
        token, pos = _next_pgm_token(data, pos)
        try:
            fields.append(int(token))
        except ValueError as exc:
            raise FormatError(f"bad PGM header token {token!r}", offset=pos) from exc
    width, height, maxval = fields
    if maxval != 255:
        raise FormatError(f"unsupported maxval {maxval} (only 255)", offset=pos)
    if width < 1 or height < 1:
        raise FormatError("PGM dimensions must be positive", offset=pos)
    pos += 1  # single whitespace byte after maxval
    payload = data[pos : pos + width * height]
    if len(payload) < width * height:
        raise FormatError(
            f"truncated PGM payload: got {len(payload)} of {width * height} bytes",
            offset=pos,
        )
    y = np.frombuffer(payload, dtype=np.uint8).reshape(height, width).copy()
    return Frame(y=y)


def write_pgm(frame: Frame, sink: BinaryIO) -> int:
    """Write the luma plane as binary PGM; chroma, if any, is dropped."""
    header = f"P5\n{frame.width} {frame.height}\n255\n".encode("ascii")
    return sink.write(header) + sink.write(frame.y.tobytes())


def read_pgm_file(path) -> Frame:
    with open(path, "rb") as fh:
        return read_pgm(fh)


def write_pgm_file(frame: Frame, path) -> int:
    with open(path, "wb") as fh:
        return write_pgm(frame, fh)
