"""Raw video file I/O: YUV4MPEG2 (Y4M) sequences, Cmono or the C420 family.

Sequences round-trip bit-exactly, which the tests rely on for fixtures.
Y4MReader and Y4MWriter handle one frame at a time, so a clip can stream
through the pipeline; read_y4m and write_y4m are built on them. The reader
reads forward only, so a pipe streams like a file: it parses the header when
it opens the stream, then each FRAME marker and frame as it is iterated.
Parse errors carry the byte offset of the offending data and come at the
first bad marker or short frame. Every plane it returns is a read-only view
of that frame's bytes, which no other object holds.
"""

from __future__ import annotations

import io
from contextlib import contextmanager
from fractions import Fraction
from itertools import accumulate
from typing import BinaryIO, Iterator, Union

import numpy as np

from .frame import Frame, FormatError, VideoSequence, chroma_shape

_Y4M_MAGIC = b"YUV4MPEG2"
# colorspace tag -> planes per frame: luma, then the 4:2:0 u and v planes
_PLANE_COUNTS = {"mono": 1, "420": 3, "420jpeg": 3, "420mpeg2": 3, "420paldv": 3}
_WRITE_TAGS = {1: "Cmono", 3: "C420"}
# the most bytes one readline reads, and a frame's buffer takes before its
# bytes arrive: a damaged header or FRAME line is not read on into the frames,
# nor a damaged frame size allocated up front
_LINE_LIMIT = 1 << 16
_READ_LIMIT = 1 << 24

ByteSource = Union[bytes, bytearray, BinaryIO]


class Y4MReader:
    """The frames of a YUV4MPEG2 stream, read forward one at a time.

    Opening parses the header, so the geometry and frame rate are known before
    the first frame. Iterating reads each FRAME marker and frame in order and
    raises FormatError at the first bad marker or truncated frame.
    """

    def __init__(self, stream: BinaryIO):
        self._stream = stream
        header = stream.readline(_LINE_LIMIT)
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
            raise FormatError(f"unsupported colorspace C{colorspace!r}", offset=0)
        self.width, self.height = width, height
        cshape = chroma_shape(height, width)
        self._shapes = ((height, width), cshape, cshape)[: _PLANE_COUNTS[colorspace]]
        self.frame_size = sum(h * w for h, w in self._shapes)
        self._pos = len(header)  # bytes read so far
        self._count = 0  # frames read so far

    def __iter__(self) -> "Y4MReader":
        return self

    def __next__(self) -> Frame:
        marker = self._stream.readline(_LINE_LIMIT)
        if not marker:
            raise StopIteration
        if not (marker.endswith(b"\n") and marker.startswith(b"FRAME")):
            raise FormatError("expected FRAME marker", offset=self._pos)
        self._pos += len(marker)
        pixels = np.empty(min(self.frame_size, _READ_LIMIT), np.uint8)
        got = 0  # a raw stream, such as an unbuffered pipe, may return less than asked
        while got < self.frame_size:
            if got == pixels.size:  # grown in place as bytes arrive, doubling
                pixels.resize(min(self.frame_size, 2 * got), refcheck=False)
            part = self._stream.readinto(memoryview(pixels)[got:])
            if not part:
                raise FormatError(f"truncated frame {self._count}: got {got} of "
                                  f"{self.frame_size} bytes", offset=self._pos)
            got += part
        self._pos += got
        self._count += 1
        starts = accumulate((h * w for h, w in self._shapes), initial=0)
        return Frame(*(pixels[s:s + h * w].reshape(h, w) for s, (h, w) in zip(starts, self._shapes)))


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
