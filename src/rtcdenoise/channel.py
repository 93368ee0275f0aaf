"""Simulated sender, codec surrogate, and lossy network.

The encoder surrogate is an 8x8 orthonormal block-DCT with uniform coefficient
quantization, optionally preceded by a bilinear down/upscale round trip. It
transforms bands of whole block rows (frame.row_bands) straight into uint8,
so at scale 1 no frame-sized float64 array is made; the values equal those of
one transform of the whole plane. lanes.halves places the halves of the
noise and of the codec. The network drops whole horizontal slices
(Bernoulli or Gilbert-Elliott) and the decoder conceals a lost slice with the co-located slice of the previous
decoded frame, which yields the familiar blocky "pixelation" artifacts.
LossModel is settings only; a run's LossState carries the loss process across transmit calls.

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

from .analyzer import Recommendation
from .frame import Frame, Range, check_ranges, chunk_bounds, quantize_plane, ranged, row_bands
from .lanes import halves
from .rng import SEED_RANGE, NoiseRng

SCALE_LADDER = (Fraction(1, 2), Fraction(3, 4), Fraction(1, 1))
MAX_FRAMERATE_DIVISOR = 4
_Q_STEP = Range(1, 64)  # the quantizer steps q, q_min and q_max may take
_PROBABILITY = Range(0, 1)
_BLOCK = 8
# every NoiseRng normal has |n| <= sqrt(-2 ln 2**-53) < 8.6, so below this cap
# a noisy value x + s * n or x * (1 + m * n) stays finite for any 8-bit x
MAX_NOISE_STRENGTH = 1e300


@dataclass(frozen=True)
class SenderConfig:
    """Encoder-side knobs the feedback loop adjusts."""

    q: int = ranged(16, _Q_STEP)
    resolution_scale: Fraction = Fraction(1, 1)
    framerate_divisor: int = ranged(1, Range(1, MAX_FRAMERATE_DIVISOR))
    q_min: int = ranged(4, _Q_STEP)
    q_max: int = ranged(48, _Q_STEP)
    # capture noise added before encoding
    noise_sigma: float = ranged(0.0, Range(0, MAX_NOISE_STRENGTH))

    def __post_init__(self):
        check_ranges(self)
        if not self.q_min <= self.q_max:
            raise ValueError(f"require {_Q_STEP.lo} <= q_min <= q_max <= {_Q_STEP.hi}, "
                             f"got {self.q_min}..{self.q_max}")
        if not self.q_min <= self.q <= self.q_max:
            raise ValueError(f"q={self.q} outside [{self.q_min}, {self.q_max}]")
        if Fraction(self.resolution_scale) not in SCALE_LADDER:
            raise ValueError(f"resolution_scale must be one of 1, 3/4, 1/2, got {self.resolution_scale}")
        object.__setattr__(self, "resolution_scale", Fraction(self.resolution_scale))


class LossKind(Enum):
    BERNOULLI = "bernoulli"
    GILBERT_ELLIOTT = "gilbert-elliott"


@dataclass(frozen=True)
class LossModel:
    """Slice-loss settings; a run's LossState carries the process from frame to frame."""

    kind: LossKind = LossKind.BERNOULLI
    p_loss: float = ranged(0.0, _PROBABILITY)       # bernoulli loss probability
    p_enter_bad: float = ranged(0.05, _PROBABILITY)  # gilbert-elliott: good -> bad
    p_exit_bad: float = ranged(0.5, _PROBABILITY)    # gilbert-elliott: bad -> good
    p_loss_bad: float = ranged(0.8, _PROBABILITY)    # loss probability while in the bad state
    slice_height: int = ranged(16, Range(1))
    seed: int = ranged(0, SEED_RANGE)

    def __post_init__(self):
        kind = self.kind.lower() if isinstance(self.kind, str) else self.kind
        object.__setattr__(self, "kind", LossKind(kind))
        check_ranges(self)


@dataclass
class LossState:
    """A loss process's run state: its uniform stream and the Gilbert-Elliott channel state."""

    rng: NoiseRng
    in_bad: bool = False


def _normal_runs(luma: np.ndarray, rng: NoiseRng, combine, out: np.ndarray,
                 lo: int, hi: int) -> None:
    """_add_normals' values at flat positions lo..hi into out, one frame.chunk_bounds run at a time."""
    for c0, c1 in chunk_bounds(hi - lo):
        c0, c1 = lo + c0, lo + c1
        noise = rng.normal_run(luma.size, c0, c1)
        out[c0:c1] = quantize_plane(combine(luma[c0:c1].astype(np.float64), noise))


def _add_normals(frame: Frame, seed: int, combine) -> Frame:
    """Luma quantize(combine(luma, normals)), one frame.chunk_bounds run at a time.

    The normals are NoiseRng(seed).normals(pixels) in raster order, drawn run
    by run, so the frame equals the whole-plane formula bit for bit without
    frame-sized float64 temporaries. Where a helper lane takes forks
    (lanes.halves), it draws the second half of the runs.
    """
    rng = NoiseRng(seed=seed)
    luma = frame.y.reshape(-1)
    out = np.empty(luma.size, dtype=np.uint8)
    halves(_normal_runs, luma.size, luma, rng, combine, out)
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
    """Pixel-center-aligned bilinear resample of a plane, as float64.

    Each row band of output pixels (frame.row_bands) reads only the input
    rows it blends, so the call holds no temporary of the whole plane; every value is
    the float64 formula's, as uint8 values convert to float64 exactly.
    """
    in_h, in_w = plane.shape
    if (in_h, in_w) == (out_h, out_w):
        return plane.astype(np.float64)

    def axis_coords(n_in: int, n_out: int):
        src = (np.arange(n_out, dtype=np.float64) + 0.5) * (n_in / n_out) - 0.5
        src = np.clip(src, 0.0, n_in - 1.0)
        lo = np.floor(src).astype(np.intp)
        hi = np.minimum(lo + 1, n_in - 1)
        return lo, hi, src - lo

    ylo, yhi, wy = axis_coords(in_h, out_h)
    xlo, xhi, wx = axis_coords(in_w, out_w)
    out = np.empty((out_h, out_w), dtype=np.float64)
    for r0, r1 in row_bands(out_h, out_w):
        top, bot = plane[ylo[r0:r1]], plane[yhi[r0:r1]]
        top = top[:, xlo] * (1 - wx) + top[:, xhi] * wx
        bot = bot[:, xlo] * (1 - wx) + bot[:, xhi] * wx
        out[r0:r1] = top * (1 - wy[r0:r1, None]) + bot * wy[r0:r1, None]
    return out


def _scale_round_trip(plane: np.ndarray, scale: Fraction) -> np.ndarray:
    """Float64 bilinear down/up round trip."""
    h, w = plane.shape
    small_h = max(1, round(h * scale))
    small_w = max(1, round(w * scale))
    return _bilinear_resize(_bilinear_resize(plane, small_h, small_w), h, w)


def _dct_block_rows(plane: np.ndarray, q: int, out: np.ndarray, b0: int, b1: int) -> None:
    """_block_dct_quantize's block rows b0..b1 into out, one band of whole block rows at a time."""
    from scipy.fft import dctn, idctn  # on first use: the receiver's path needs no scipy

    h, w = plane.shape
    top = b0 * _BLOCK
    for r0, r1 in row_bands(min(b1 * _BLOCK, h) - top, w, step=_BLOCK):
        r0, r1 = top + r0, top + r1
        band = np.pad(plane[r0:r1], ((0, (r0 - r1) % _BLOCK), (0, (-w) % _BLOCK)), mode="edge")
        bh, bw = band.shape
        blocks = band.reshape(bh // _BLOCK, _BLOCK, bw // _BLOCK, _BLOCK).swapaxes(1, 2)
        coeffs = dctn(blocks, axes=(-2, -1), norm="ortho")
        coeffs /= q
        np.round(coeffs, out=coeffs)
        coeffs *= q
        recon = idctn(coeffs, axes=(-2, -1), norm="ortho")
        out[r0:r1] = quantize_plane(recon.swapaxes(1, 2).reshape(bh, bw)[: r1 - r0, :w])


def _block_dct_quantize(plane: np.ndarray, q: int) -> np.ndarray:
    """uint8 of the 8x8 orthonormal block-DCT round trip with step-q coefficients.

    The plane is edge-padded to whole blocks and transformed a band of block
    rows at a time; each block's values depend on that block alone, so they
    equal those of transforming the whole padded plane. Where a helper lane
    takes forks (lanes.halves), it transforms the second half of the block
    rows.
    """
    h, w = plane.shape
    out = np.empty((h, w), dtype=np.uint8)
    halves(_dct_block_rows, -(-h // _BLOCK), plane, q, out)
    return out


def encode_decode(frame: Frame, config: SenderConfig) -> Frame:
    """Codec surrogate: optional resolution round trip, then block-DCT quantization.

    Quantization applies to luma; chroma only takes the resolution round trip,
    so at scale 1 it passes through as it is. Output dimensions always match
    the input.
    """
    if config.resolution_scale == 1:
        return frame.with_luma(_block_dct_quantize(frame.y, config.q))
    scale = config.resolution_scale
    # one plane's float64 round trip at a time
    luma = _block_dct_quantize(_scale_round_trip(frame.y, scale), config.q)
    return Frame(luma, *(quantize_plane(_scale_round_trip(p, scale)) for p in frame.planes[1:]))


def transmit(
    frame: Frame,
    prev_decoded: Optional[Frame],
    loss: LossModel,
    state: Optional[LossState] = None,
) -> tuple[Frame, list[int]]:
    """Apply slice loss and concealment; advances state (None: afresh at NoiseRng(loss.seed)).

    A frame takes its uniforms in one draw: per slice, one for Bernoulli, and
    two for Gilbert-Elliott in either state (the loss, read when bad, then the
    flip). A lost slice is concealed with the co-located rows of prev_decoded, or
    mid-gray where it has no such plane. Chroma rows are co-sliced with luma
    (half vertical resolution), so a lost slice conceals the matching chroma
    region too.
    """
    if state is None:
        state = LossState(NoiseRng(loss.seed))
    n_slices = (frame.height + loss.slice_height - 1) // loss.slice_height
    if loss.kind is LossKind.BERNOULLI:
        lost = [i for i, u in enumerate(state.rng.uniforms(n_slices).tolist()) if u < loss.p_loss]
    else:
        lost = []
        draws = state.rng.uniforms(2 * n_slices).tolist()
        for i, (u_loss, u_flip) in enumerate(zip(draws[0::2], draws[1::2])):
            if state.in_bad and u_loss < loss.p_loss_bad:
                lost.append(i)
            state.in_bad = u_flip >= loss.p_exit_bad if state.in_bad else u_flip < loss.p_enter_bad
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
