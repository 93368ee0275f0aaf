"""Temporal denoiser: two-step cascade of three-frame blocks over 5-frame windows.

Every fifth frame (the keyframe cadence) is denoised spatially elsewhere; the
frames in between get motion-gated temporal averaging. A window of five frames
feeds three triplet blocks, whose outputs feed one more block, so the center
frame effectively aggregates all five inputs while large inter-frame
differences (motion) suppress the contribution of misaligned neighbors.

Blocks run in one of two modes: CLASSICAL (closed-form exponential gating,
the default) or CONV (a small 3-layer residual convolution net with weights
loaded from a checksummed file). A classical block's motion gate is a
three-tap bilateral along time with no spatial term, run on the keyframe
bilateral's kernel (image_denoiser._bilateral_runs); a window's three
first-level blocks are forks (lanes.Fork), which denoise_window joins with
lanes.join_all.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .frame import Frame, Range, check_ranges, clamp_index, ranged
from .image_denoiser import PASSTHROUGH_SIGMA, CascadeParams, _bilateral_runs, stage_detail
from .lanes import Fork, join_all
from .rng import NoiseRng

DEFAULT_CADENCE = 5
_WEIGHT_MAGIC = b"CWB1"
_LAYER_SHAPES = ((4, 16), (16, 16), (16, 1))
# Largest weight magnitude a CWB1 file may hold: on 8-bit frames, whose sigma
# estimates stay below 1e3, a block's activations then stay below 1e27, finite
# in float32.
MAX_CONV_WEIGHT = 1e6
_SPATIAL_PARAMS = CascadeParams(window_radius=1)
# Bounds on k_temporal: a block's weight exponent scales with 1/(2 (k s)^2) for
# an effective sigma s in [0.5, about 852], which stays finite and non-zero in
# float32 for k in this range; 1e-30 overflows the cast and 1e200 the square.
MIN_K_TEMPORAL = 1e-6
MAX_K_TEMPORAL = 1e3


class FrameRole(Enum):
    KEYFRAME = "keyframe"
    TEMPORAL = "temporal"


class BlockMode(Enum):
    CLASSICAL = "classical"
    CONV = "conv"


@dataclass(frozen=True)
class WindowPlan:
    """Keyframes at multiples of cadence; every other index gets a clamped window.

    Everything is arithmetic in the frame index, so a plan costs O(1) memory
    whatever its length. A keyframe k leads the cohort k..k+cadence-1; the
    cohort's windows read one frame before it and two past its end.
    """

    n_frames: int
    cadence: int = DEFAULT_CADENCE

    def __post_init__(self):
        if self.n_frames < 1:
            raise ValueError("n_frames must be at least 1")
        if self.cadence < 2:
            raise ValueError("cadence must be at least 2")

    @property
    def roles(self) -> tuple:
        return tuple(self.role(t) for t in range(self.n_frames))

    @property
    def windows(self) -> tuple:  # entry is None for keyframes, else a 5-tuple of indices
        return tuple(None if t % self.cadence == 0 else self.window(t) for t in range(self.n_frames))

    @property
    def keyframe_indices(self) -> tuple:
        return tuple(range(0, self.n_frames, self.cadence))

    def role(self, t: int) -> FrameRole:
        if not 0 <= t < self.n_frames:
            raise IndexError(f"frame index {t} outside plan of {self.n_frames}")
        return FrameRole.KEYFRAME if t % self.cadence == 0 else FrameRole.TEMPORAL

    def window(self, t: int) -> tuple:
        if self.role(t) is not FrameRole.TEMPORAL:
            raise ValueError(f"frame {t} is a keyframe; keyframes have no window")
        return tuple(clamp_index(i, self.n_frames) for i in range(t - 2, t + 3))

    def last_keyframe_at_or_before(self, t: int) -> int:
        self.role(t)  # raises IndexError outside the plan
        return t - t % self.cadence

    def cohort(self, k: int) -> range:
        """The indices keyframe k leads: itself and the temporal frames up to the next keyframe."""
        if self.role(k) is not FrameRole.KEYFRAME:
            raise ValueError(f"frame {k} is not a keyframe")
        return range(k, min(k + self.cadence, self.n_frames))

    def reach(self, k: int) -> range:
        """The indices keyframe k's cohort reads: one back, through two past its end."""
        return range(max(k - 1, 0), min(self.cohort(k).stop + 2, self.n_frames))


@dataclass(frozen=True)
class ConvWeightSet:
    """Kernels and biases for the 3-layer block net; arrays are float32."""

    kernels: tuple  # per layer: (out_ch, in_ch, 3, 3)
    biases: tuple   # per layer: (out_ch,)

    def __post_init__(self):
        if len(self.kernels) != 3 or len(self.biases) != 3:
            raise ValueError("expected exactly 3 layers")
        for i, (in_ch, out_ch) in enumerate(_LAYER_SHAPES):
            k, b = self.kernels[i], self.biases[i]
            if k.shape != (out_ch, in_ch, 3, 3):
                raise ValueError(f"layer {i + 1} kernel shape {k.shape}, want {(out_ch, in_ch, 3, 3)}")
            if b.shape != (out_ch,):
                raise ValueError(f"layer {i + 1} bias shape {b.shape}, want {(out_ch,)}")
            if k.dtype != np.float32 or b.dtype != np.float32:
                raise ValueError("weights must be float32")
            k.setflags(write=False)
            b.setflags(write=False)


def zero_weights() -> ConvWeightSet:
    """All-zero weights: the residual net becomes the identity."""
    kernels = tuple(np.zeros((o, i, 3, 3), dtype=np.float32) for i, o in _LAYER_SHAPES)
    biases = tuple(np.zeros(o, dtype=np.float32) for _, o in _LAYER_SHAPES)
    return ConvWeightSet(kernels=kernels, biases=biases)


def random_weights(seed: int = 0, scale: float = 0.05) -> ConvWeightSet:
    """Small random weights for exercising the CONV path in tests and demos."""
    rng = NoiseRng(seed=seed)
    kernels = []
    biases = []
    for i, o in _LAYER_SHAPES:
        kernels.append((scale * rng.normals(o * i * 9)).astype(np.float32).reshape(o, i, 3, 3))
        biases.append((scale * rng.normals(o)).astype(np.float32))
    return ConvWeightSet(kernels=tuple(kernels), biases=tuple(biases))


def write_weights(weights: ConvWeightSet, sink) -> int:
    """Serialize as magic CWB1 + per-layer shapes/tensors + trailing CRC32."""
    payload = bytearray()
    for k, b in zip(weights.kernels, weights.biases):
        out_ch, in_ch = k.shape[0], k.shape[1]
        payload += struct.pack("<II", in_ch, out_ch)
        payload += k.astype("<f4").tobytes()
        payload += b.astype("<f4").tobytes()
    crc = zlib.crc32(bytes(payload)) & 0xFFFFFFFF
    blob = _WEIGHT_MAGIC + bytes(payload) + struct.pack("<I", crc)
    return sink.write(blob)


def read_weights(source) -> ConvWeightSet:
    """Parse and checksum-validate a CWB1 weight file."""
    data = source.read() if hasattr(source, "read") else bytes(source)
    if not data.startswith(_WEIGHT_MAGIC):
        raise ValueError("bad weight file magic (want CWB1)")
    if len(data) < len(_WEIGHT_MAGIC) + 4:
        raise ValueError("weight file truncated before checksum")
    payload, (stored_crc,) = data[4:-4], struct.unpack("<I", data[-4:])
    if zlib.crc32(payload) & 0xFFFFFFFF != stored_crc:
        raise ValueError("weight file checksum mismatch")
    kernels = []
    biases = []
    pos = 0
    for layer, (want_in, want_out) in enumerate(_LAYER_SHAPES, start=1):
        if pos + 8 > len(payload):
            raise ValueError(f"weight file truncated in layer {layer} header")
        in_ch, out_ch = struct.unpack_from("<II", payload, pos)
        pos += 8
        if (in_ch, out_ch) != (want_in, want_out):
            raise ValueError(f"layer {layer} declares {in_ch}->{out_ch}, want {want_in}->{want_out}")
        k_count = out_ch * in_ch * 9
        end = pos + 4 * (k_count + out_ch)
        if end > len(payload):
            raise ValueError(f"weight file truncated in layer {layer} tensors")
        flat = np.frombuffer(payload, dtype="<f4", count=k_count + out_ch, offset=pos).astype(np.float32)
        if not np.isfinite(flat).all():
            raise ValueError(f"layer {layer} holds a non-finite weight")
        if np.abs(flat).max() > MAX_CONV_WEIGHT:
            raise ValueError(f"layer {layer} holds a weight above {MAX_CONV_WEIGHT:g} in magnitude")
        kernels.append(flat[:k_count].reshape(out_ch, in_ch, 3, 3))
        biases.append(flat[k_count:])
        pos = end
    if pos != len(payload):
        raise ValueError(f"{len(payload) - pos} trailing bytes after layer 3")
    return ConvWeightSet(kernels=tuple(kernels), biases=tuple(biases))


def read_weights_file(path) -> ConvWeightSet:
    with open(path, "rb") as fh:
        return read_weights(fh)


def write_weights_file(weights: ConvWeightSet, path) -> int:
    with open(path, "wb") as fh:
        return write_weights(weights, fh)


@dataclass(frozen=True)
class BlockParams:
    mode: BlockMode = BlockMode.CLASSICAL
    k_temporal: float = ranged(1.0, Range(MIN_K_TEMPORAL, MAX_K_TEMPORAL))
    spatial_enabled: bool = True
    conv_weights: Optional[ConvWeightSet] = None

    def __post_init__(self):
        object.__setattr__(self, "mode", BlockMode(self.mode))
        check_ranges(self)


def _conv3x3(stack: np.ndarray, kernels: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """3x3 convolution with replicate padding; stack is (C, H, W) float32."""
    _, h, w = stack.shape
    padded = np.pad(stack, ((0, 0), (1, 1), (1, 1)), mode="edge")
    out = np.broadcast_to(bias[:, None, None], (kernels.shape[0], h, w)).astype(np.float32).copy()
    for ky in range(3):
        for kx in range(3):
            window = padded[:, ky : ky + h, kx : kx + w]
            # einsum keeps the reduction in plain C loops: bit-stable across BLAS builds
            out += np.einsum("oc,chw->ohw", kernels[:, :, ky, kx], window)
    return out


def _conv_residual(a: np.ndarray, b: np.ndarray, c: np.ndarray, sigma: float,
                   weights: ConvWeightSet) -> np.ndarray:
    stack = np.stack([a, b, c, np.full_like(b, np.float32(sigma))])
    x = _conv3x3(stack, weights.kernels[0], weights.biases[0])
    np.maximum(x, 0.0, out=x)
    x = _conv3x3(x, weights.kernels[1], weights.biases[1])
    np.maximum(x, 0.0, out=x)
    x = _conv3x3(x, weights.kernels[2], weights.biases[2])
    return b + x[0]


def denoise_block(f_a: Frame, f_b: Frame, f_c: Frame, sigma: float,
                  params: BlockParams = BlockParams()) -> Frame:
    """Denoise the temporal center f_b from the triplet (f_a, f_b, f_c).

    CLASSICAL: the motion gate (w_a a + b + w_c c) / (w_a + 1 + w_c), w_n =
    exp(-(n - b)^2 / (2 (k_temporal max(sigma, 0.5))^2)), then the radius-1
    bilateral if spatial_enabled. CONV: b plus the residual net's output.
    """
    shape = (f_b.height, f_b.width)
    if (f_a.height, f_a.width) != shape or (f_c.height, f_c.width) != shape:
        raise ValueError("triplet frames must share dimensions")
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    if params.mode is BlockMode.CONV:
        if params.conv_weights is None:
            raise ValueError("CONV mode requires loaded weights")
        a, b, c = (f.y.astype(np.float32) for f in (f_a, f_b, f_c))
        return f_b.with_luma(_conv_residual(a, b, c, sigma, params.conv_weights))

    inv = np.float32(1.0 / (2.0 * (params.k_temporal * max(sigma, 0.5)) ** 2))
    a, b, c = (f.y.ravel() for f in (f_a, f_b, f_c))
    out = np.empty(b.size, dtype=np.uint8)
    # a bilateral along time with no spatial term, in runs: no frame-sized temporaries
    _bilateral_runs([(a, 0, 0), (b, 0, None), (c, 0, 0)], inv, out, 0, b.size)
    fused = f_b.with_luma(out.reshape(shape))
    if params.spatial_enabled and sigma >= PASSTHROUGH_SIGMA:
        fused = stage_detail(fused, sigma, _SPATIAL_PARAMS)
    return fused


def fork_blocks(window: Sequence[Frame], sigma: float, params: BlockParams, blocks: dict) -> list:
    """The forks (lanes.Fork) of a window's three first-level blocks, made where blocks lacks them.

    blocks keeps the forks across calls that share sigma and params, such as
    the windows of one cohort: consecutive windows share two of their three
    triplets, and each distinct triplet is denoised once. An entry is keyed by
    the identity of the triplet's frames and holds those frames and the
    block's Fork, so no key can be reused by another frame while cached.
    """
    forks = []
    for i in range(3):
        triplet = tuple(window[i : i + 3])
        key = tuple(id(f) for f in triplet)
        if key not in blocks:
            blocks[key] = (triplet, Fork(denoise_block, *triplet, sigma, params))
        forks.append(blocks[key][1])
    return forks


def denoise_window(window: Sequence[Frame], sigma: float,
                   params: BlockParams = BlockParams(),
                   blocks: Optional[dict] = None) -> Frame:
    """Two-step cascade over exactly five frames; returns the denoised center.

    The first-level blocks are the forks fork_blocks makes in, or finds in,
    blocks (see there), joined here by lanes.join_all, so none of them is
    left running when the call returns or raises.
    """
    if len(window) != 5:
        raise ValueError(f"window must hold 5 frames, got {len(window)}")
    forks = fork_blocks(window, sigma, params, {} if blocks is None else blocks)
    return denoise_block(*join_all(forks), sigma, params)
