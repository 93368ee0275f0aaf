"""Raw video file I/O: YUV4MPEG2 (Y4M) sequences, Cmono or the C420 family.

Sequences round-trip bit-exactly, which the tests rely on for fixtures.
Y4MReader and Y4MWriter handle one frame at a time, so a clip can stream
through the pipeline; read_y4m and write_y4m are built on them. The reader
checks the whole stream when it opens it (header, then every FRAME marker
and frame length, by seeking), so parse errors, which carry the byte offset
of the offending data, come before any frame; it then reads each frame's
planes when asked. Every plane it returns is a read-only view of that
frame's bytes, so no frame aliases a mutable buffer.
"""

from __future__ import annotations

import io
from contextlib import contextmanager
from fractions import Fraction
from typing import BinaryIO, Iterator, Union

import numpy as np

from .frame import Frame, FormatError, VideoSequence, chroma_shape

_Y4M_MAGIC = b"YUV4MPEG2"
# colorspace tag -> planes per frame: luma, then the 4:2:0 u and v planes
_PLANE_COUNTS = {"mono": 1, "420": 3, "420jpeg": 3, "420mpeg2": 3, "420paldv": 3}
_WRITE_TAGS = {1: "Cmono", 3: "C420"}

ByteSource = Union[bytes, bytearray, BinaryIO]


class Y4MReader:
    """The frames of a YUV4MPEG2 stream, read one at a time on demand.

    Opening checks the whole stream and raises FormatError for any fault, so
    len(reader) and the geometry are known before the first frame is read.
    reader[t] reads frame t's planes; one thread reads at a time. A stream
    that cannot seek, such as a pipe, is read whole first.
    """

    def __init__(self, stream: BinaryIO):
        if not stream.seekable():
            stream = io.BytesIO(stream.read())
        self._stream = stream
        base = stream.tell()
        header = stream.readline()
        if not header.startswith(_Y4M_MAGIC):
            raise FormatError("not a YUV4MPEG2 stream (bad magic)", offset=0)
        if not header.endswith(b"\n"):
            raise FormatError("unterminated stream header", offset=len(header))

        width = height = None
        self.frame_rate = Fraction(25, 1)
        colorspace = "420"
        for token in header[len(_Y4M_MAGIC):-1].split(b" "):
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
                    self.frame_rate = Fraction(int(num), int(den or "1"))
                    if self.frame_rate <= 0:
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
        self.width, self.height = width, height
        cshape = chroma_shape(height, width)
        self._shapes = ((height, width), cshape, cshape)[: _PLANE_COUNTS[colorspace]]
        self._frame_size = sum(h * w for h, w in self._shapes)

        self._frames = []  # (stream position, marker length) of each frame
        end = stream.seek(0, io.SEEK_END)
        pos = base + len(header)
        while pos < end:
            stream.seek(pos)
            marker = stream.readline()
            if not (marker.endswith(b"\n") and marker.startswith(b"FRAME")):
                raise FormatError("expected FRAME marker", offset=pos - base)
            offset = pos + len(marker)
            if end - offset < self._frame_size:
                raise FormatError(
                    f"truncated frame {len(self._frames)}: "
                    f"got {end - offset} of {self._frame_size} bytes",
                    offset=offset - base,
                )
            self._frames.append((pos, len(marker)))
            pos = offset + self._frame_size

    def __len__(self) -> int:
        return len(self._frames)

    def __getitem__(self, t: int) -> Frame:
        pos, offset = self._frames[t]
        self._stream.seek(pos)
        data = self._stream.read(offset + self._frame_size)
        planes = []
        for h, w in self._shapes:
            planes.append(np.frombuffer(data, np.uint8, h * w, offset).reshape(h, w))
            offset += h * w
        return Frame(*planes)


class Y4MWriter:
    """Writes frames to a Y4M stream one at a time; the first frame's geometry sets the header."""

    def __init__(self, sink: BinaryIO, frame_rate: Fraction = Fraction(25, 1)):
        self._sink = sink
        self._rate = frame_rate
        self.written = 0  # bytes so far

    def write(self, frame: Frame) -> None:
        if not self.written:
            rate = self._rate
            self.written += self._sink.write((
                f"YUV4MPEG2 W{frame.width} H{frame.height} "
                f"F{rate.numerator}:{rate.denominator} Ip A1:1 {_WRITE_TAGS[len(frame.planes)]}\n"
            ).encode("ascii"))
        self.written += self._sink.write(b"FRAME\n")
        for plane in frame.planes:
            self.written += self._sink.write(plane.tobytes())


@contextmanager
def open_y4m(path) -> Iterator[Y4MReader]:
    """A Y4MReader over the file at path, open for the with block."""
    with open(path, "rb") as fh:
        yield Y4MReader(fh)


def read_y4m(source: ByteSource) -> VideoSequence:
    """Parse a YUV4MPEG2 stream (Cmono or C420 family) into a VideoSequence."""
    reader = Y4MReader(io.BytesIO(source) if isinstance(source, (bytes, bytearray)) else source)
    return VideoSequence(frames=tuple(reader), frame_rate=reader.frame_rate)


def write_y4m(sequence: VideoSequence, sink: BinaryIO) -> int:
    """Serialize a sequence as Y4M; returns bytes written."""
    if len(sequence) == 0:
        raise ValueError("cannot write an empty sequence")
    writer = Y4MWriter(sink, sequence.frame_rate)
    for frame in sequence:
        writer.write(frame)
    return writer.written


def read_y4m_file(path) -> VideoSequence:
    with open(path, "rb") as fh:
        return read_y4m(fh)


def write_y4m_file(sequence: VideoSequence, path) -> int:
    with open(path, "wb") as fh:
        return write_y4m(sequence, fh)
