"""Frame and sequence data model shared by every pipeline stage.

A :class:`Frame` is a single 8-bit planar picture: one luma plane, plus an
optional pair of half-resolution (4:2:0) chroma planes.  This module alone
states that layout (:func:`chroma_shape`, :attr:`Frame.planes`); I/O, codec
and channel code loop over the planes instead of naming them.  Planes are
numpy uint8 arrays that are frozen at construction time, so frames can be
shared across concurrent stages without copies or locks.  Filters work on
floating point copies internally and re-quantize on the way out.

The module also states how a numeric setting declares its valid values: a
dataclass field made by :func:`ranged` carries a :class:`Range`, which
:func:`check_ranges` enforces from ``__post_init__`` (an ``int`` field's value
too must be an integer) and the config parser at the line that sets the field.

It states, too, how a plane is cut for the kernels: the runs of
:func:`chunk_bounds`, the row bands of :func:`row_bands`, and the sizes that
more than one kernel module shares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from fractions import Fraction
from numbers import Integral
from typing import Iterator, Optional

import numpy as np

BIT_DEPTH = 8
PIXEL_MAX = 255


class FormatError(ValueError):
    """Malformed external data (file headers, payloads, config text)."""

    def __init__(self, message: str, *, offset: Optional[int] = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


_RANGE = "range"  # dataclasses.field metadata key holding the field's Range


def _bound(end) -> str:
    return str(end) if isinstance(end, int) else f"{end:g}"


@dataclass(frozen=True)
class Range:
    """The valid values of a number: lo..hi, each end closed unless marked open.

    A None end is unbounded. NaN and infinities lie in no range.
    """

    lo: Optional[float] = None
    hi: Optional[float] = None
    open_lo: bool = False
    open_hi: bool = False

    def __contains__(self, value) -> bool:
        # an int is finite, also past float range, where math.isfinite overflows
        return not ((self.lo is not None and (value < self.lo or self.open_lo and value == self.lo))
                    or (self.hi is not None and (value > self.hi or self.open_hi and value == self.hi))
                    or not (isinstance(value, int) or math.isfinite(value)))

    def __str__(self) -> str:
        """Interval notation: "[1, 15]", "(0, inf)"; an unbounded end is open, an integer end exact."""
        lo = "-inf" if self.lo is None else _bound(self.lo)
        hi = "inf" if self.hi is None else _bound(self.hi)
        left = "(" if self.open_lo or self.lo is None else "["
        right = ")" if self.open_hi or self.hi is None else "]"
        return f"{left}{lo}, {hi}{right}"


def ranged(default, valid: Range):
    """A dataclass field whose values must lie in valid (see check_range)."""
    return field(default=default, metadata={_RANGE: valid})


def check_range(name: str, value, valid: Optional[Range]) -> None:
    """Raise ValueError("name: must be in <valid>, got value") for a value outside valid.

    None passes, as does any value when valid is None; a tuple or list is
    checked item by item, each named name[i].
    """
    if valid is None or value is None:
        return
    if isinstance(value, (tuple, list)):
        for i, item in enumerate(value):
            check_range(f"{name}[{i}]", item, valid)
    elif value not in valid:
        raise ValueError(f"{name}: must be in {valid}, got {value}")


def range_of(owner, name: str) -> Optional[Range]:
    """The Range that field name of dataclass owner declares, if any."""
    return next(spec.metadata.get(_RANGE) for spec in fields(owner) if spec.name == name)


def check_ranges(obj) -> None:
    """From a dataclass's __post_init__: check each field's Range, and that an int field holds an integer."""
    for spec in fields(obj):
        value = getattr(obj, spec.name)
        check_range(spec.name, value, spec.metadata.get(_RANGE))
        if spec.type in ("int", int) and (isinstance(value, bool) or not isinstance(value, Integral)):
            raise ValueError(f"{spec.name}: must be an integer, got {value}")


def chroma_shape(height: int, width: int) -> tuple[int, int]:
    """Shape of each 4:2:0 chroma plane of a height x width frame (ceil of half)."""
    return ((height + 1) // 2, (width + 1) // 2)


def _check_plane(name: str, plane: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    plane = np.asarray(plane)
    if plane.dtype != np.uint8:
        raise ValueError(f"{name} plane must be uint8, got {plane.dtype}")
    if plane.shape != shape:
        raise ValueError(f"{name} plane shape {plane.shape} != expected {shape}")
    plane.setflags(write=False)
    return plane


@dataclass(frozen=True, eq=False)
class Frame:
    """One 8-bit video frame (luma plane ``y``, optional 4:2:0 chroma ``u``/``v``).

    Planes are read-only; frames read from Y4M hold read-only views of the
    bytes read rather than copies. ``planes`` lists them in Y4M order. A frame
    compares and hashes by identity, so it can key a cache of work done on it.
    """

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
        if (self.u is None) != (self.v is None):
            raise ValueError("chroma planes must be both present or both absent")
        shapes = ((h, w), chroma_shape(h, w), chroma_shape(h, w))
        for name, plane, shape in zip(("y", "u", "v"), self.planes, shapes):
            object.__setattr__(self, name, _check_plane(name, plane, shape))

    @property
    def width(self) -> int:
        return self.y.shape[1]

    @property
    def height(self) -> int:
        return self.y.shape[0]

    @property
    def has_chroma(self) -> bool:
        return self.u is not None

    @property
    def planes(self) -> tuple[np.ndarray, ...]:
        """``(y,)`` or ``(y, u, v)``: every plane, in Y4M order."""
        return (self.y,) if self.u is None else (self.y, self.u, self.v)

    def with_luma(self, values: np.ndarray) -> "Frame":
        """This frame's chroma (unchanged: the denoisers touch luma only) with new luma.

        Real values are rounded half-away-from-zero and clamped to [0, 255];
        a uint8 plane, already quantized, is taken as it is.
        """
        y = np.asarray(values)
        return Frame(y if y.dtype == np.uint8 else quantize_plane(y), self.u, self.v)

    def luma_f64(self) -> np.ndarray:
        return self.y.astype(np.float64)


# The sizes that more than one module reads, each read at call time as
# frame.NAME. A size one kernel alone uses stays beside it.
#
# Elements per run of the elementwise passes (quantize_plane, the fusion
# blend, detail retention, the noise injectors). A run is a few calls, so
# longer runs save few lock hand-offs, and at 1 << 17 their float64
# temporaries took 940-2,450 page faults per 480x360 call and 1.6-2x the time.
ELEMENTWISE_PIXELS = 1 << 15
# Flat positions per run of image_denoiser._bilateral_runs, the one
# range-weighted kernel: the keyframe bilateral, and denoise_block's motion
# gate (a three-tap bilateral along time). A run makes eight numpy calls per
# tap, so short runs wait on lock hand-offs under two threads: two r=3
# 480x360 frames on two threads took 40 ms at 1 << 15 and 24 ms here, one
# frame on one thread 23 and 21.5 ms. The three float32 buffers (1.5 MB) fit
# in a 2 MB L2.
BILATERAL_PIXELS = 1 << 17
# Output pixels per row band (row_bands) of the metric moments, of the codec's
# block rows and of its bilinear resize, and per run of PSNR's squared errors.
# A band's temporaries stay in cache and are reused rather than page-faulted
# in afresh, and the rows a band filters beyond its own stay few. At 480x360,
# 1 << 15 and 1 << 16 took about 1.6x and 2.3x the page faults of 1 << 14 per
# full-reference report, in the same time on one or two threads; a scale-3/4
# encode_decode traced 2.9 MB here, 3.5 MB at 1 << 15 and 6.4 MB whole-plane.
BAND_PIXELS = 1 << 14


def quantize_plane(values: np.ndarray) -> np.ndarray:
    """Round and clamp a real-valued plane to uint8.

    Uses round-half-away-from-zero so that x.5 maps to x+1 for non-negative
    values, independent of the banker's rounding used by numpy's round():
    x + 0.5 clamped to [0, 255] is at least 0, so the truncating uint8 cast
    takes its floor.
    """
    values = np.asarray(values)
    out = np.empty(values.shape, dtype=np.uint8)
    src = values.reshape(-1)
    dst = out.reshape(-1)
    buf = np.empty(min(src.size, ELEMENTWISE_PIXELS), dtype=np.float64)
    for c0, c1 in chunk_bounds(src.size):
        v = buf[: c1 - c0]
        np.add(src[c0:c1], 0.5, out=v, dtype=np.float64)
        np.clip(v, 0, PIXEL_MAX, out=v)
        np.copyto(dst[c0:c1], v, casting="unsafe")
    return out


def chunk_bounds(n: int, size: Optional[int] = None) -> Iterator[tuple[int, int]]:
    """Consecutive [start, stop) runs of at most ``size`` covering range(n).

    ``size`` defaults to ELEMENTWISE_PIXELS. Kernels run one run at a time,
    so their temporaries stay small and in cache instead of being allocated
    (and page-faulted in) frame-sized on every call. Each kernel family has
    one size constant: ELEMENTWISE_PIXELS, BILATERAL_PIXELS (the one
    range-weighted kernel, run by the bilateral and the motion gate),
    BAND_PIXELS (the row bands of the metric moments, of the codec's block
    rows and of its bilinear resize, and PSNR's runs), all here, and
    image_denoiser._SMOOTH_PIXELS (the row bands of stage_smooth), beside the
    one kernel that uses it. Two costs set it: each numpy call hands the
    interpreter lock over, so under two threads longer runs (fewer calls)
    wait less; but longer runs need larger temporaries, which leave the
    core's cache and, past the allocator's mmap threshold, are page-faulted
    in afresh on each run. The README's "Chunk sizes" gives the measurements.
    """
    size = ELEMENTWISE_PIXELS if size is None else size
    for c0 in range(0, n, size):
        yield c0, min(c0 + size, n)


def row_bands(rows: int, width: int, step: int = 1) -> Iterator[tuple[int, int]]:
    """chunk_bounds over rows: bands of about BAND_PIXELS pixels, a multiple of step rows."""
    return chunk_bounds(rows, max(step, BAND_PIXELS // width // step * step))


@dataclass(frozen=True)
class VideoSequence:
    """Ordered frames of identical geometry plus the nominal frame rate."""

    frames: tuple[Frame, ...]
    frame_rate: Fraction = Fraction(25, 1)

    def __post_init__(self):
        frames = tuple(self.frames)
        object.__setattr__(self, "frames", frames)
        if frames:
            shapes = [p.shape for p in frames[0].planes]
            for i, f in enumerate(frames[1:], start=1):
                if [p.shape for p in f.planes] != shapes:
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


def clamp_index(i: int, n: int) -> int:
    """Clamp a signed frame index into [0, n-1] (replicate edge handling)."""
    if n < 1:
        raise ValueError("sequence length must be >= 1")
    return min(max(i, 0), n - 1)
