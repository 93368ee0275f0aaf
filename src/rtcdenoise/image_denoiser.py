"""Keyframe denoiser: a three-stage cascade of classical filters.

Two parallel stages process the same input: a bilateral filter that keeps
edges (detail stage) and a noise-scaled Gaussian blur that buys PSNR
(smooth stage). A fusion stage blends them per pixel, gated by the local
gradient magnitude of the detail output, so edges keep the bilateral result
and flat regions take the blur. denoise_keyframe runs the detail stage, then
the smooth stage, then fuses. lanes.halves splits each of the two stages
over the lanes (stage_detail's runs, stage_smooth's rows), and frame sizes
the bilateral's runs: the stages hold only their arithmetic. The
bilateral's kernel is the package's one range-weighted average: the motion
gate of video_denoiser runs on it too.

Every stage is numpy alone, so the receiver never loads scipy. The blur
still gives scipy.ndimage.correlate1d's values to the bit (stage_smooth).

Below sigma 0.5 the whole cascade is a bit-exact passthrough: denoising
visually clean frames only costs latency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import frame
from .frame import Frame, Range, check_ranges, chunk_bounds, quantize_plane, ranged
from .lanes import halves
from .metrics import _gaussian_taps, _gradient_index, _gradient_run, _symmetric_taps

PASSTHROUGH_SIGMA = 0.5

# Bounds on the two bilateral parameters and the Gaussian sigma range, with
# wide margins: a bilateral weight exponent scales with 1/(2 s^2), which
# overflows float32 for s below about 1e-17 (and s^2 overflows a float near
# 1e154), and a Gaussian kernel spans 6 s taps, wider than a 4K frame above MAX.
MIN_CASCADE_SIGMA = 1e-6
MAX_CASCADE_SIGMA = 1e3
# The bilateral window is (2r+1)^2 taps per pixel: 31x31 at this bound, about
# 20 times the default 7x7; far larger radii take minutes or exhaust memory.
MAX_WINDOW_RADIUS = 15
_CASCADE_SIGMA = Range(MIN_CASCADE_SIGMA, MAX_CASCADE_SIGMA)


@dataclass(frozen=True)
class CascadeParams:
    bilateral_spatial_sigma: float = ranged(2.0, _CASCADE_SIGMA)
    bilateral_range_factor: float = ranged(2.0, _CASCADE_SIGMA)
    gaussian_sigma_divisor: float = ranged(20.0, Range(0, open_lo=True))
    gaussian_sigma_min: float = ranged(0.5, _CASCADE_SIGMA)
    gaussian_sigma_max: float = ranged(2.5, _CASCADE_SIGMA)
    fusion_tau: Optional[float] = ranged(None, Range(0))  # None: use sigma_est at call time
    window_radius: int = ranged(3, Range(1, MAX_WINDOW_RADIUS))

    def __post_init__(self):
        check_ranges(self)
        if not self.gaussian_sigma_min <= self.gaussian_sigma_max:
            raise ValueError("require 0 < gaussian_sigma_min <= gaussian_sigma_max")

    def gaussian_sigma(self, sigma_est: float) -> float:
        return min(max(sigma_est / self.gaussian_sigma_divisor, self.gaussian_sigma_min),
                   self.gaussian_sigma_max)


def gaussian_kernel(sigma_g: float) -> np.ndarray:
    """1-D Gaussian taps truncated at 3 sigma, normalized to sum exactly 1."""
    if sigma_g <= 0:
        raise ValueError("sigma_g must be positive")
    return _gaussian_taps(2 * max(1, math.ceil(3.0 * sigma_g)) + 1, sigma_g)


def _tap_weight(shifted, centre, spatial, inv_2sr, out: np.ndarray) -> np.ndarray:
    """out = exp(spatial - delta^2 * inv_2sr), in this order, delta taken exactly in float32."""
    np.subtract(shifted, centre, out=out, dtype=np.float32)
    np.multiply(out, out, out=out)
    np.multiply(out, inv_2sr, out=out)
    np.subtract(spatial, out, out=out)
    return np.exp(out, out=out)


def _bilateral_runs(taps, inv_2sr, out, lo: int, hi: int) -> None:
    """Range-weighted averages at flat positions lo..hi, one frame.BILATERAL_PIXELS run at a time.

    taps are (source, offset, spatial) in summation order. Position i adds
    source[offset + i] with the weight _tap_weight gives its delta from the
    centre tap, which has spatial None and weight exactly 1, and is not first.
    stage_detail passes a window over one padded plane, denoise_block a triplet.
    """
    centre_source, centre_offset, _ = next(tap for tap in taps if tap[2] is None)
    (first_source, first_offset, first_spatial), rest = taps[0], taps[1:]
    wgt_buf, weight_buf, value_buf = np.empty((3, min(hi - lo, frame.BILATERAL_PIXELS)), np.float32)
    for r0, r1 in chunk_bounds(hi - lo, frame.BILATERAL_PIXELS):
        c0, c1 = lo + r0, lo + r1
        centre = centre_source[centre_offset + c0 : centre_offset + c1]
        weight_sum = weight_buf[: c1 - c0]
        value_sum = value_buf[: c1 - c0]
        # the first tap starts both sums, as 0 + x == x
        shifted = first_source[first_offset + c0 : first_offset + c1]
        _tap_weight(shifted, centre, first_spatial, inv_2sr, weight_sum)
        np.multiply(weight_sum, shifted, out=value_sum)
        for source, offset, spatial in rest:
            if spatial is None:
                # the centre tap has delta 0, so its weight is exp(0) = 1
                weight_sum += 1.0
                value_sum += centre
                continue
            shifted = source[offset + c0 : offset + c1]
            wgt = _tap_weight(shifted, centre, spatial, inv_2sr, wgt_buf[: c1 - c0])
            weight_sum += wgt
            wgt *= shifted
            value_sum += wgt
        value_sum /= weight_sum
        out[c0:c1] = quantize_plane(value_sum)


def stage_detail(frame: Frame, sigma_est: float, params: CascadeParams = CascadeParams()) -> Frame:
    """Edge-preserving bilateral filter over a (2r+1)^2 window."""
    if sigma_est < 0:
        raise ValueError("sigma_est must be non-negative")
    if sigma_est < PASSTHROUGH_SIGMA:
        return frame
    r = params.window_radius
    sigma_r = params.bilateral_range_factor * sigma_est
    inv_2ss = np.float32(1.0 / (2.0 * params.bilateral_spatial_sigma ** 2))
    inv_2sr = np.float32(1.0 / (2.0 * sigma_r ** 2))

    h, w = frame.y.shape
    # Rows of the edge-padded plane lie end to end, so tap (dy, dx) is the flat
    # shift dy * pw + dx and every operand is one contiguous run. Positions
    # i * pw + j with j >= w fall in the padding and are dropped at the end.
    pw = w + 2 * r
    padded = np.pad(frame.y, r, mode="edge").astype(np.float32).ravel()
    first = r * pw + r  # flat index of pixel (0, 0)
    n = (h - 1) * pw + w
    taps = [
        (padded, first + dy * pw + dx, np.float32(-(dy * dy + dx * dx)) * inv_2ss)
        for dy in range(-r, r + 1)
        for dx in range(-r, r + 1)
    ]
    taps[len(taps) // 2] = (padded, first, None)  # the centre tap
    out = np.empty(h * pw, dtype=np.uint8)
    # a helper filters the second half; each position reads padded alone
    halves(_bilateral_runs, n, taps, inv_2sr, out)
    plane = np.ascontiguousarray(out.reshape(h, pw)[:, :w])
    return frame.with_luma(plane)


# Output pixels per row band of stage_smooth. A band makes about 30 numpy
# calls, so short bands wait on lock hand-offs under two threads: two 480x360
# calls on two threads took 8.4 ms at 1 << 14 (4.8 here), and a keyframe on
# two lanes 18.7 ms (16.6 here). Its buffers (about 1.7 MB at 480 wide) stay
# in a 2 MB L2: whole-plane passes took 5.9 and 17.0 ms.
_SMOOTH_PIXELS = 1 << 16


def _smooth_rows(padded: np.ndarray, kernel: np.ndarray, w: int, out: np.ndarray,
                 r0: int, r1: int) -> None:
    """stage_smooth's output rows r0..r1 into out, one band of _SMOOTH_PIXELS at a time."""
    reach = len(kernel) // 2
    pw = w + 2 * reach
    rows = max(1, min(r1 - r0, _SMOOTH_PIXELS // w))
    vertical, horizontal, pair = np.empty((3, rows * pw), dtype=np.float64)
    sums = np.empty(rows * pw, dtype=np.uint16)
    for b0, b1 in chunk_bounds(r1 - r0, rows):
        size = (b1 - b0) * pw
        first = (reach + r0 + b0) * pw  # flat index of the band's first padded row
        v = vertical[:size]
        _symmetric_taps(lambda j: padded[first + j * pw : first + j * pw + size], kernel, v,
                        sums[:size], pair[:size])
        size -= 2 * reach  # the last row's right padding is never kept
        band = horizontal[:size]
        _symmetric_taps(lambda j: v[reach + j : reach + j + size], kernel, band,
                        pair[:size], pair[:size])
        start = (r0 + b0) * pw
        out[start : start + size] = quantize_plane(band)


def stage_smooth(frame: Frame, sigma_est: float, params: CascadeParams = CascadeParams()) -> Frame:
    """Separable Gaussian blur with noise-scaled strength, replicated borders.

    Every value equals that of scipy.ndimage.correlate1d(mode="nearest")
    along both axes of the whole plane (see _symmetric_taps). The plane is
    edge-padded once, as uint8, and filtered one band of _SMOOTH_PIXELS rows
    at a time. As in stage_detail, a band's padded rows lie end to end: a
    vertical tap is a shift by whole rows, and a horizontal tap a shift
    within the band's flat run, whose positions in the padding are dropped.
    The vertical pass covers the padded columns too, so it is already the
    edge-padded input of the horizontal pass.
    """
    if sigma_est < 0:
        raise ValueError("sigma_est must be non-negative")
    kernel = gaussian_kernel(params.gaussian_sigma(sigma_est))
    reach = len(kernel) // 2
    h, w = frame.y.shape
    pw = w + 2 * reach
    padded = np.pad(frame.y, reach, mode="edge").ravel()
    out = np.empty(h * pw, dtype=np.uint8)
    # a helper filters the lower half; each band reads padded alone
    halves(_smooth_rows, h, padded, kernel, w, out)
    plane = np.ascontiguousarray(out.reshape(h, pw)[:, :w])
    return frame.with_luma(plane)


def stage_fuse(
    detail_out: Frame,
    smooth_out: Frame,
    sigma_est: float,
    params: CascadeParams = CascadeParams(),
) -> Frame:
    """Blend: w = g/(g + tau) with g the detail-output gradient magnitude."""
    if (detail_out.height, detail_out.width) != (smooth_out.height, smooth_out.width):
        raise ValueError(
            f"stage outputs disagree: {detail_out.width}x{detail_out.height} "
            f"vs {smooth_out.width}x{smooth_out.height}"
        )
    tau = params.fusion_tau if params.fusion_tau is not None else sigma_est
    index = _gradient_index(detail_out.y).ravel()
    detail = detail_out.y.ravel()
    smooth = smooth_out.y.ravel()
    out = np.empty(index.size, dtype=np.uint8)
    g_run = np.empty(min(index.size, frame.ELEMENTWISE_PIXELS), dtype=np.float64)
    for c0, c1 in chunk_bounds(index.size):
        g_c = _gradient_run(index[c0:c1], g_run)  # metrics.gradient_magnitude, one run at a time
        denom = g_c + tau
        weight = np.divide(g_c, denom, out=np.zeros_like(g_c), where=denom > 0)
        # weight * detail + (1 - weight) * smooth, in this order
        blend = np.multiply(weight, detail[c0:c1])
        np.subtract(1.0, weight, out=weight)
        weight *= smooth[c0:c1]
        blend += weight
        out[c0:c1] = quantize_plane(blend)
    return detail_out.with_luma(out.reshape(detail_out.y.shape))


def denoise_keyframe(frame: Frame, estimate: float, params: CascadeParams = CascadeParams()) -> Frame:
    """Full cascade at the estimated noise sigma; below PASSTHROUGH_SIGMA it returns frame."""
    if estimate < PASSTHROUGH_SIGMA:
        return frame
    # each stage splits itself over both lanes: a smooth forked whole would
    # run on the helper ahead of the bilateral's half, and the caller would wait
    detail = stage_detail(frame, estimate, params)
    return stage_fuse(detail, stage_smooth(frame, estimate, params), estimate, params)
