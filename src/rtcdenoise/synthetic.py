"""Procedural test content: smooth, deterministic frames and sequences.

Frames are sums of a few low-frequency cosine waves, so clean content has
almost no high-frequency energy (noise estimators read it as near zero) and
translation is exact: motion just shifts the sampling grid of an analytic
field, no resampling artifacts.

Styles:
  gradient  two very low-frequency components, nearly flat
  blobs     half a dozen components up to ~3 cycles per frame
  detail    blobs plus mid-frequency components (edges for fusion tests)
  grain     blobs plus static per-pixel grain that is part of the content
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .frame import Frame, VideoSequence, chroma_shape, quantize_plane
from .rng import NoiseRng

_LUMA_LO = 70.0
_LUMA_HI = 185.0

_STYLE_BANDS = {
    # (count, min cycles, max cycles, relative amplitude) per band
    "gradient": ((2, 0.3, 0.8, 1.0),),
    "blobs": ((6, 0.5, 3.0, 1.0),),
    "detail": ((6, 0.5, 3.0, 1.0), (4, 6.0, 16.0, 0.35)),
    "grain": ((6, 0.5, 3.0, 1.0),),
}


def _wave_params(rng: NoiseRng, bands) -> list[tuple[float, float, float, float]]:
    waves = []
    for count, lo, hi, rel in bands:
        freqs = lo + (hi - lo) * rng.uniforms(count)
        angles = 2.0 * np.pi * rng.uniforms(count)
        phases = 2.0 * np.pi * rng.uniforms(count)
        amps = rel * (0.5 + 0.5 * rng.uniforms(count))
        for f, a, p, amp in zip(freqs, angles, phases, amps):
            waves.append((f * np.cos(a), f * np.sin(a), p, amp))
    return waves


def _field(waves, width: int, height: int, shift_x: float, shift_y: float) -> np.ndarray:
    xs = (np.arange(width, dtype=np.float64) + shift_x) / max(width, 1)
    ys = (np.arange(height, dtype=np.float64) + shift_y) / max(height, 1)
    total = np.zeros((height, width), dtype=np.float64)
    for fx, fy, phase, amp in waves:
        arg = 2.0 * np.pi * (fx * xs[None, :] + fy * ys[:, None]) + phase
        total += amp * np.cos(arg)
    peak = sum(w[3] for w in waves)
    return total / peak  # in [-1, 1]


def _to_luma(field: np.ndarray) -> np.ndarray:
    mid = 0.5 * (_LUMA_LO + _LUMA_HI)
    half = 0.5 * (_LUMA_HI - _LUMA_LO)
    return quantize_plane(mid + half * field)


def _chroma_planes(rng: NoiseRng, width: int, height: int):
    ch, cw = chroma_shape(height, width)
    planes = []
    for _ in range(2):
        waves = _wave_params(rng, ((3, 0.4, 2.0, 1.0),))
        planes.append(quantize_plane(128.0 + 28.0 * _field(waves, cw, ch, 0.0, 0.0)))
    return planes


def make_frame(
    width: int,
    height: int,
    seed: int = 0,
    style: str = "blobs",
    grain_sigma: float = 12.0,
    with_chroma: bool = False,
) -> Frame:
    """One deterministic frame; same seed and arguments give identical bytes."""
    seq = make_sequence(1, width, height, seed=seed, style=style,
                        grain_sigma=grain_sigma, with_chroma=with_chroma)
    return seq[0]


def make_sequence(
    count: int,
    width: int,
    height: int,
    seed: int = 0,
    style: str = "blobs",
    motion: tuple[float, float] = (0.0, 0.0),
    grain_sigma: float = 12.0,
    with_chroma: bool = False,
    frame_rate: Fraction = Fraction(25, 1),
) -> VideoSequence:
    if style not in _STYLE_BANDS:
        raise ValueError(f"unknown style {style!r}")
    if count < 1:
        raise ValueError("count must be at least 1")
    rng = NoiseRng(seed=seed)
    waves = _wave_params(rng.derive(1), _STYLE_BANDS[style])
    grain = None
    if style == "grain":
        noise = rng.derive(2).normals(height * width).reshape(height, width)
        grain = grain_sigma * noise
        if motion != (0.0, 0.0) and any(m != int(m) for m in motion):
            raise ValueError("grain content only supports integer motion")
    chroma = _chroma_planes(rng.derive(3), width, height) if with_chroma else []

    dx, dy = motion
    frames = []
    for t in range(count):
        field = _field(waves, width, height, t * dx, t * dy)
        luma = _to_luma(field)
        if grain is not None:
            rolled = np.roll(grain, shift=(-int(t * dy), -int(t * dx)), axis=(0, 1))
            luma = quantize_plane(luma.astype(np.float64) + rolled)
        frames.append(Frame(luma, *chroma))
    return VideoSequence(frames=tuple(frames), frame_rate=frame_rate)
