"""Raw video file I/O: YUV4MPEG2 (Y4M) sequences, Cmono or the C420 family.

Sequences round-trip bit-exactly, which the tests rely on for fixtures. The
reader accepts an open binary stream or a bytes object; parse errors carry
the byte offset of the offending data. Every plane it returns is a read-only
view of the bytes read (a bytearray is copied to bytes once, so no frame
aliases a mutable buffer), so a clip is held in memory once.
"""

from __future__ import annotations

from fractions import Fraction
from typing import BinaryIO, Union

import numpy as np

from .frame import Frame, FormatError, VideoSequence, chroma_shape

_Y4M_MAGIC = b"YUV4MPEG2"
# colorspace tag -> planes per frame: luma, then the 4:2:0 u and v planes
_PLANE_COUNTS = {"mono": 1, "420": 3, "420jpeg": 3, "420mpeg2": 3, "420paldv": 3}
_WRITE_TAGS = {1: "Cmono", 3: "C420"}

ByteSource = Union[bytes, bytearray, BinaryIO]


def read_y4m(source: ByteSource) -> VideoSequence:
    """Parse a YUV4MPEG2 stream (Cmono or C420 family) into a VideoSequence."""
    data = bytes(source) if isinstance(source, (bytes, bytearray)) else source.read()
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
    if colorspace not in _PLANE_COUNTS:
        raise FormatError(f"unsupported colorspace C{colorspace}", offset=0)
    cshape = chroma_shape(height, width)
    shapes = ((height, width), cshape, cshape)[: _PLANE_COUNTS[colorspace]]
    frame_size = sum(h * w for h, w in shapes)

    frames = []
    pos = header_end + 1
    while pos < len(data):
        nl = data.find(b"\n", pos)
        if nl < 0 or not data.startswith(b"FRAME", pos, nl):
            raise FormatError("expected FRAME marker", offset=pos)
        offset = nl + 1
        if len(data) - offset < frame_size:
            raise FormatError(
                f"truncated frame {len(frames)}: got {len(data) - offset} of {frame_size} bytes",
                offset=offset,
            )
        planes = []
        for h, w in shapes:
            planes.append(np.frombuffer(data, np.uint8, h * w, offset).reshape(h, w))
            offset += h * w
        frames.append(Frame(*planes))
        pos = offset
    return VideoSequence(frames=tuple(frames), frame_rate=rate)


def write_y4m(sequence: VideoSequence, sink: BinaryIO) -> int:
    """Serialize a sequence as Y4M; returns bytes written."""
    if len(sequence) == 0:
        raise ValueError("cannot write an empty sequence")
    first = sequence[0]
    tag = _WRITE_TAGS[len(first.planes)]
    rate = sequence.frame_rate
    header = (
        f"YUV4MPEG2 W{first.width} H{first.height} "
        f"F{rate.numerator}:{rate.denominator} Ip A1:1 {tag}\n"
    ).encode("ascii")
    written = sink.write(header)
    for frame in sequence:
        written += sink.write(b"FRAME\n")
        for plane in frame.planes:
            written += sink.write(plane.tobytes())
    return written


def read_y4m_file(path) -> VideoSequence:
    with open(path, "rb") as fh:
        return read_y4m(fh)


def write_y4m_file(sequence: VideoSequence, path) -> int:
    with open(path, "wb") as fh:
        return write_y4m(sequence, fh)
