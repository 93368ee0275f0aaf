"""Frame and sequence data model shared by every pipeline stage.

A :class:`Frame` is a single 8-bit planar picture: one luma plane, plus an
optional pair of half-resolution (4:2:0) chroma planes.  Planes are numpy
uint8 arrays that are frozen at construction time, so frames can be shared
across concurrent stages without copies or locks.  Filters work on floating
point copies internally and re-quantize on the way out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

import numpy as np

BIT_DEPTH = 8
PIXEL_MAX = 255
CHUNK_PIXELS = 1 << 15  # elements per elementwise pass; see chunk_bounds


class FormatError(ValueError):
    """Malformed external data (file headers, payloads, config text)."""

    def __init__(self, message: str, *, offset: Optional[int] = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


def require_finite(**values: Optional[float]) -> None:
    """Reject NaN and infinities, naming the first offender; None is skipped."""
    for name, value in values.items():
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def _check_plane(name: str, plane: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    plane = np.asarray(plane)
    if plane.dtype != np.uint8:
        raise ValueError(f"{name} plane must be uint8, got {plane.dtype}")
    if plane.shape != shape:
        raise ValueError(f"{name} plane shape {plane.shape} != expected {shape}")
    plane.setflags(write=False)
    return plane


@dataclass(frozen=True)
class Frame:
    """One 8-bit video frame (luma plane ``y``, optional 4:2:0 chroma ``u``/``v``)."""

    y: np.ndarray
    u: Optional[np.ndarray] = None
    v: Optional[np.ndarray] = None

    def __post_init__(self):
        y = np.asarray(self.y)
        if y.ndim != 2:
            raise ValueError(f"luma plane must be 2-D, got shape {y.shape}")
        h, w = y.shape
        if h < 1 or w < 1:
            raise ValueError("frame dimensions must be positive")
        object.__setattr__(self, "y", _check_plane("luma", y, (h, w)))
        if (self.u is None) != (self.v is None):
            raise ValueError("chroma planes must be both present or both absent")
        if self.u is not None:
            cshape = ((h + 1) // 2, (w + 1) // 2)
            object.__setattr__(self, "u", _check_plane("u", self.u, cshape))
            object.__setattr__(self, "v", _check_plane("v", self.v, cshape))

    @property
    def width(self) -> int:
        return self.y.shape[1]

    @property
    def height(self) -> int:
        return self.y.shape[0]

    @property
    def has_chroma(self) -> bool:
        return self.u is not None

    @classmethod
    def from_luma(cls, values: np.ndarray, chroma_from: Optional["Frame"] = None) -> "Frame":
        """Quantize a real-valued luma plane into a frame.

        Values are rounded half-away-from-zero and clamped to [0, 255].
        If ``chroma_from`` is given, its chroma planes are attached unchanged
        (the denoisers touch luma only).
        """
        q = quantize_plane(values)
        if chroma_from is not None and chroma_from.has_chroma:
            return cls(y=q, u=chroma_from.u, v=chroma_from.v)
        return cls(y=q)

    def with_luma(self, values: np.ndarray) -> "Frame":
        """Same as from_luma with this frame as the chroma source."""
        return Frame.from_luma(values, chroma_from=self)

    def luma_f32(self) -> np.ndarray:
        return self.y.astype(np.float32)

    def luma_f64(self) -> np.ndarray:
        return self.y.astype(np.float64)


def quantize_plane(values: np.ndarray) -> np.ndarray:
    """Round and clamp a real-valued plane to uint8.

    Uses round-half-away-from-zero so that x.5 maps to x+1 for non-negative
    values, independent of the banker's rounding used by numpy's round().
    """
    values = np.asarray(values)
    out = np.empty(values.shape, dtype=np.uint8)
    src = values.reshape(-1)
    dst = out.reshape(-1)
    buf = np.empty(min(src.size, CHUNK_PIXELS), dtype=np.float64)
    for c0, c1 in chunk_bounds(src.size):
        v = buf[: c1 - c0]
        np.add(src[c0:c1], 0.5, out=v, dtype=np.float64)
        np.floor(v, out=v)
        np.clip(v, 0, PIXEL_MAX, out=v)
        np.copyto(dst[c0:c1], v, casting="unsafe")
    return out


def chunk_bounds(n: int, size: int = CHUNK_PIXELS) -> Iterator[tuple[int, int]]:
    """Consecutive [start, stop) runs of at most ``size`` covering range(n).

    Elementwise passes run one run at a time so their temporaries stay small
    and in cache; a frame-sized temporary per pass would be allocated (and
    page-faulted in) afresh on every call.
    """
    for c0 in range(0, n, size):
        yield c0, min(c0 + size, n)


@dataclass(frozen=True)
class VideoSequence:
    """Ordered frames of identical geometry plus the nominal frame rate."""

    frames: tuple[Frame, ...]
    frame_rate: Fraction = Fraction(25, 1)

    def __post_init__(self):
        frames = tuple(self.frames)
        object.__setattr__(self, "frames", frames)
        if frames:
            first = frames[0]
            for i, f in enumerate(frames[1:], start=1):
                if (f.width, f.height, f.has_chroma) != (
                    first.width,
                    first.height,
                    first.has_chroma,
                ):
                    raise ValueError(f"frame {i} geometry differs from frame 0")
        if self.frame_rate <= 0:
            raise ValueError("frame_rate must be positive")

    def __len__(self) -> int:
        return len(self.frames)

    def __iter__(self) -> Iterator[Frame]:
        return iter(self.frames)

    def __getitem__(self, i: int) -> Frame:
        return self.frames[i]

    @property
    def width(self) -> int:
        return self.frames[0].width

    @property
    def height(self) -> int:
        return self.frames[0].height

    def replace_frames(self, frames: Sequence[Frame]) -> "VideoSequence":
        return VideoSequence(frames=tuple(frames), frame_rate=self.frame_rate)


def clamp_index(i: int, n: int) -> int:
    """Clamp a signed frame index into [0, n-1] (replicate edge handling)."""
    if n < 1:
        raise ValueError("sequence length must be >= 1")
    return min(max(i, 0), n - 1)
