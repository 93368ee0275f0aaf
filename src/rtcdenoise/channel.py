"""Simulated sender, codec surrogate, and lossy network.

The encoder surrogate is an 8x8 orthonormal block-DCT with uniform coefficient
quantization, optionally preceded by a bilinear down/upscale round trip. The
network drops whole horizontal slices (Bernoulli or Gilbert-Elliott) and the
decoder conceals a lost slice with the co-located slice of the previous
decoded frame, which yields the familiar blocky "pixelation" artifacts.

Noise injectors exist to manufacture detector test stimuli. All randomness
comes from the counter-based generator in rng.py, so results are bit-identical
across runs and platforms for a fixed seed. Injectors touch only the luma
plane; chroma passes through unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from typing import Optional

import numpy as np
from scipy.fft import dctn, idctn

from .analyzer import Recommendation
from .frame import Frame, chunk_bounds, quantize_plane, require_finite
from .rng import NoiseRng

SCALE_LADDER = (Fraction(1, 2), Fraction(3, 4), Fraction(1, 1))
MAX_FRAMERATE_DIVISOR = 4
_BLOCK = 8


@dataclass(frozen=True)
class SenderConfig:
    """Encoder-side knobs the feedback loop adjusts."""

    q: int = 16
    resolution_scale: Fraction = Fraction(1, 1)
    framerate_divisor: int = 1
    q_min: int = 4
    q_max: int = 48
    noise_sigma: float = 0.0  # capture noise added before encoding

    def __post_init__(self):
        if not 1 <= self.q_min <= self.q_max <= 64:
            raise ValueError(f"require 1 <= q_min <= q_max <= 64, got {self.q_min}..{self.q_max}")
        if not self.q_min <= self.q <= self.q_max:
            raise ValueError(f"q={self.q} outside [{self.q_min}, {self.q_max}]")
        if Fraction(self.resolution_scale) not in SCALE_LADDER:
            raise ValueError(f"resolution_scale must be one of 1, 3/4, 1/2, got {self.resolution_scale}")
        if not 1 <= self.framerate_divisor <= MAX_FRAMERATE_DIVISOR:
            raise ValueError(f"framerate_divisor must be in 1..{MAX_FRAMERATE_DIVISOR}")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be non-negative")
        require_finite(noise_sigma=self.noise_sigma)
        object.__setattr__(self, "resolution_scale", Fraction(self.resolution_scale))


class LossKind(Enum):
    BERNOULLI = "bernoulli"
    GILBERT_ELLIOTT = "gilbert-elliott"


@dataclass
class LossModel:
    """Slice-loss process. Mutable: transmit() advances draw counter and state."""

    kind: LossKind = LossKind.BERNOULLI
    p_loss: float = 0.0          # bernoulli loss probability
    p_enter_bad: float = 0.05    # gilbert-elliott: good -> bad
    p_exit_bad: float = 0.5      # gilbert-elliott: bad -> good
    p_loss_bad: float = 0.8      # loss probability while in the bad state
    slice_height: int = 16
    seed: int = 0
    in_bad: bool = False
    draws: int = 0

    def __post_init__(self):
        for name in ("p_loss", "p_enter_bad", "p_exit_bad", "p_loss_bad"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name}={p} outside [0, 1]")
        if self.slice_height < 1:
            raise ValueError("slice_height must be >= 1")

    def _next_uniform(self) -> float:
        rng = NoiseRng(seed=self.seed, counter=self.draws)
        u = float(rng.uniforms(1)[0])
        self.draws += 1
        return u

    def step_slice(self) -> bool:
        """Advance one slice; returns True when the slice is lost."""
        if self.kind is LossKind.BERNOULLI:
            return self._next_uniform() < self.p_loss
        lost = self.in_bad and self._next_uniform() < self.p_loss_bad
        if not self.in_bad:
            self._next_uniform()  # keep two draws per slice in both states
        flip = self._next_uniform()
        if self.in_bad:
            self.in_bad = flip >= self.p_exit_bad
        else:
            self.in_bad = flip < self.p_enter_bad
        return lost


def _add_normals(frame: Frame, seed: int, combine) -> Frame:
    """Luma quantize(combine(luma, normals)), one frame.chunk_bounds run at a time.

    The normals are NoiseRng(seed).normals(pixels) in raster order, drawn run
    by run, so the frame equals the whole-plane formula bit for bit without
    frame-sized float64 temporaries.
    """
    rng = NoiseRng(seed=seed)
    luma = frame.y.reshape(-1)
    out = np.empty(luma.size, dtype=np.uint8)
    for c0, c1 in chunk_bounds(luma.size):
        noise = rng.normal_run(luma.size, c0, c1)
        out[c0:c1] = quantize_plane(combine(luma[c0:c1].astype(np.float64), noise))
    return frame.with_luma(out.reshape(frame.y.shape))


def add_gaussian_noise(frame: Frame, sigma: float, seed: int = 0) -> Frame:
    """Additive zero-mean Gaussian noise on luma, clamped to [0, 255]."""
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    if sigma == 0:
        return frame
    return _add_normals(frame, seed, lambda x, noise: x + sigma * noise)


def add_salt_pepper(frame: Frame, density: float, seed: int = 0) -> Frame:
    """Impulse noise: each luma pixel becomes 0 or 255 with probability density.

    One uniform per pixel: the lower tail (u < density/2) gives pepper, the
    upper tail gives salt, so both polarities are equally likely.
    """
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must be in [0, 1]")
    if density == 0:
        return frame
    u = NoiseRng(seed=seed).uniforms(frame.height * frame.width)
    u = u.reshape(frame.height, frame.width)
    luma = frame.y.copy()
    luma[u < density / 2.0] = 0
    luma[u >= 1.0 - density / 2.0] = 255
    return frame.with_luma(luma)


def add_speckle(frame: Frame, sigma_mult: float, seed: int = 0) -> Frame:
    """Multiplicative (signal-dependent) noise: x * (1 + n), n ~ N(0, sigma_mult^2)."""
    if sigma_mult < 0:
        raise ValueError("sigma_mult must be non-negative")
    if sigma_mult == 0:
        return frame
    return _add_normals(frame, seed, lambda x, noise: x * (1.0 + sigma_mult * noise))


def _bilinear_resize(plane: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Pixel-center-aligned bilinear resample of a float64 plane."""
    in_h, in_w = plane.shape
    if (in_h, in_w) == (out_h, out_w):
        return plane

    def axis_coords(n_in: int, n_out: int):
        src = (np.arange(n_out, dtype=np.float64) + 0.5) * (n_in / n_out) - 0.5
        src = np.clip(src, 0.0, n_in - 1.0)
        lo = np.floor(src).astype(np.intp)
        hi = np.minimum(lo + 1, n_in - 1)
        return lo, hi, src - lo

    ylo, yhi, wy = axis_coords(in_h, out_h)
    xlo, xhi, wx = axis_coords(in_w, out_w)
    top = plane[ylo][:, xlo] * (1 - wx) + plane[ylo][:, xhi] * wx
    bot = plane[yhi][:, xlo] * (1 - wx) + plane[yhi][:, xhi] * wx
    return top * (1 - wy[:, None]) + bot * wy[:, None]


def _scale_round_trip(plane: np.ndarray, scale: Fraction) -> np.ndarray:
    """Float64 down/up bilinear round trip; at scale 1 just the float64 copy."""
    h, w = plane.shape
    small_h = max(1, round(h * scale))
    small_w = max(1, round(w * scale))
    small = _bilinear_resize(plane.astype(np.float64), small_h, small_w)
    return _bilinear_resize(small, h, w)


def _block_dct_quantize(plane: np.ndarray, q: int) -> np.ndarray:
    h, w = plane.shape
    pad_h = (-h) % _BLOCK
    pad_w = (-w) % _BLOCK
    padded = np.pad(plane, ((0, pad_h), (0, pad_w)), mode="edge")
    ph, pw = padded.shape
    blocks = padded.reshape(ph // _BLOCK, _BLOCK, pw // _BLOCK, _BLOCK).swapaxes(1, 2)
    coeffs = dctn(blocks, axes=(-2, -1), norm="ortho")
    coeffs = np.round(coeffs / q) * q
    recon = idctn(coeffs, axes=(-2, -1), norm="ortho")
    recon = recon.swapaxes(1, 2).reshape(ph, pw)
    return recon[:h, :w]


def encode_decode(frame: Frame, config: SenderConfig) -> Frame:
    """Codec surrogate: optional resolution round trip, then block-DCT quantization.

    Quantization applies to luma; chroma only takes the resolution round trip.
    Output dimensions always match the input.
    """
    planes = [_scale_round_trip(p, config.resolution_scale) for p in frame.planes]
    planes[0] = _block_dct_quantize(planes[0], config.q)
    return Frame(*(quantize_plane(p) for p in planes))


def transmit(
    frame: Frame,
    prev_decoded: Optional[Frame],
    loss: LossModel,
) -> tuple[Frame, list[int]]:
    """Apply slice loss and concealment; advances the loss model state.

    A lost slice is concealed with the co-located rows of prev_decoded, or
    mid-gray where it has no such plane. Chroma rows are co-sliced with luma
    (half vertical resolution), so a lost slice conceals the matching chroma
    region too.
    """
    n_slices = (frame.height + loss.slice_height - 1) // loss.slice_height
    lost = [i for i in range(n_slices) if loss.step_slice()]
    if not lost:
        return frame, []

    planes = [plane.copy() for plane in frame.planes]
    prev = prev_decoded.planes if prev_decoded is not None else ()
    for i in lost:
        r0 = i * loss.slice_height
        r1 = min(r0 + loss.slice_height, frame.height)
        for k, plane in enumerate(planes):
            rows = slice(r0, r1) if k == 0 else slice(r0 // 2, (r1 + 1) // 2)
            plane[rows] = prev[k][rows] if k < len(prev) else 128
    return Frame(*planes), lost


def _scale_step(scale: Fraction, direction: int) -> Fraction:
    idx = SCALE_LADDER.index(Fraction(scale))
    return SCALE_LADDER[min(max(idx + direction, 0), len(SCALE_LADDER) - 1)]


def sender_step(config: SenderConfig, feedback: Recommendation) -> SenderConfig:
    """Pure sender adaptation: apply one feedback message's recommendation."""
    if feedback is Recommendation.RAISE_BITRATE:
        if config.q > config.q_min:
            return replace(config, q=max(config.q - 4, config.q_min))
        return replace(config, resolution_scale=_scale_step(config.resolution_scale, +1))
    if feedback is Recommendation.LOWER_RESOLUTION:
        return replace(config, resolution_scale=_scale_step(config.resolution_scale, -1))
    if feedback is Recommendation.LOWER_FRAMERATE:
        divisor = min(config.framerate_divisor + 1, MAX_FRAMERATE_DIVISOR)
        return replace(config, framerate_divisor=divisor)
    if feedback is Recommendation.NONE:
        return config
    raise ValueError(f"unknown recommendation {feedback!r}")
