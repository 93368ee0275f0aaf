"""Keyframe denoiser: a three-stage cascade of classical filters.

Two parallel stages process the same input: a bilateral filter that keeps
edges (detail stage) and a noise-scaled Gaussian blur that buys PSNR
(smooth stage). A fusion stage blends them per pixel, gated by the local
gradient magnitude of the detail output, so edges keep the bilateral result
and flat regions take the blur.

Below sigma 0.5 the whole cascade is a bit-exact passthrough: denoising
visually clean frames only costs latency.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.ndimage import correlate1d

from .frame import CHUNK_PIXELS, Frame, chunk_bounds, quantize_plane, require_finite
from .metrics import _gaussian_taps, gradient_magnitude

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


@dataclass(frozen=True)
class CascadeParams:
    bilateral_spatial_sigma: float = 2.0
    bilateral_range_factor: float = 2.0
    gaussian_sigma_divisor: float = 20.0
    gaussian_sigma_min: float = 0.5
    gaussian_sigma_max: float = 2.5
    fusion_tau: Optional[float] = None  # None: use sigma_est at call time
    window_radius: int = 3

    def __post_init__(self):
        if self.bilateral_spatial_sigma <= 0 or self.bilateral_range_factor <= 0:
            raise ValueError("bilateral sigmas must be positive")
        if not 0 < self.gaussian_sigma_min <= self.gaussian_sigma_max:
            raise ValueError("require 0 < gaussian_sigma_min <= gaussian_sigma_max")
        if self.gaussian_sigma_divisor <= 0:
            raise ValueError("gaussian_sigma_divisor must be positive")
        if self.fusion_tau is not None and self.fusion_tau < 0:
            raise ValueError("fusion_tau must be non-negative")
        require_finite(**vars(self))  # every field is a number (fusion_tau may be None)
        if not 1 <= self.window_radius <= MAX_WINDOW_RADIUS:
            raise ValueError(
                f"window_radius must be in [1, {MAX_WINDOW_RADIUS}], got {self.window_radius!r}")
        for name in ("bilateral_spatial_sigma", "bilateral_range_factor",
                     "gaussian_sigma_min", "gaussian_sigma_max"):
            value = getattr(self, name)
            if not MIN_CASCADE_SIGMA <= value <= MAX_CASCADE_SIGMA:
                raise ValueError(
                    f"{name} must be in [{MIN_CASCADE_SIGMA:g}, {MAX_CASCADE_SIGMA:g}], got {value!r}")

    def gaussian_sigma(self, sigma_est: float) -> float:
        return min(max(sigma_est / self.gaussian_sigma_divisor, self.gaussian_sigma_min),
                   self.gaussian_sigma_max)


def gaussian_kernel(sigma_g: float) -> np.ndarray:
    """1-D Gaussian taps truncated at 3 sigma, normalized to sum exactly 1."""
    if sigma_g <= 0:
        raise ValueError("sigma_g must be positive")
    return _gaussian_taps(2 * max(1, math.ceil(3.0 * sigma_g)) + 1, sigma_g)


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
        (dy * pw + dx, np.float32(-(dy * dy + dx * dx)) * inv_2ss)
        for dy in range(-r, r + 1)
        for dx in range(-r, r + 1)
    ]
    out = np.empty(h * pw, dtype=np.uint8)
    wgt_buf, weight_buf, value_buf = np.empty((3, min(n, CHUNK_PIXELS)), dtype=np.float32)
    for c0, c1 in chunk_bounds(n):
        centre = padded[first + c0 : first + c1]
        wgt = wgt_buf[: c1 - c0]
        weight_sum = weight_buf[: c1 - c0]
        value_sum = value_buf[: c1 - c0]
        weight_sum.fill(0.0)
        value_sum.fill(0.0)
        for shift, spatial in taps:
            if shift == 0:
                # the centre tap has delta 0, so its weight is exp(0) = 1
                weight_sum += 1.0
                value_sum += centre
                continue
            shifted = padded[first + shift + c0 : first + shift + c1]
            # wgt = exp(-(dy^2 + dx^2) / (2 ss^2) - delta^2 / (2 sr^2)), in this order
            np.subtract(shifted, centre, out=wgt)
            np.multiply(wgt, wgt, out=wgt)
            np.multiply(wgt, inv_2sr, out=wgt)
            np.subtract(spatial, wgt, out=wgt)
            np.exp(wgt, out=wgt)
            weight_sum += wgt
            wgt *= shifted
            value_sum += wgt
        value_sum /= weight_sum
        out[c0:c1] = quantize_plane(value_sum)
    plane = np.ascontiguousarray(out.reshape(h, pw)[:, :w])
    return frame.with_luma(plane)


def stage_smooth(frame: Frame, sigma_est: float, params: CascadeParams = CascadeParams()) -> Frame:
    """Separable Gaussian blur with noise-scaled strength, replicated borders."""
    if sigma_est < 0:
        raise ValueError("sigma_est must be non-negative")
    kernel = gaussian_kernel(params.gaussian_sigma(sigma_est))
    y = frame.luma_f64()
    blurred = correlate1d(y, kernel, axis=0, mode="nearest")
    correlate1d(blurred, kernel, axis=1, output=y, mode="nearest")
    return frame.with_luma(y)


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
    g = gradient_magnitude(detail_out.y).ravel()
    detail = detail_out.y.ravel()
    smooth = smooth_out.y.ravel()
    out = np.empty(g.size, dtype=np.uint8)
    for c0, c1 in chunk_bounds(g.size):
        g_c = g[c0:c1]
        denom = g_c + tau
        weight = np.divide(g_c, denom, out=np.zeros_like(g_c), where=denom > 0)
        # weight * detail + (1 - weight) * smooth, in this order
        blend = np.multiply(weight, detail[c0:c1])
        np.subtract(1.0, weight, out=weight)
        weight *= smooth[c0:c1]
        blend += weight
        out[c0:c1] = quantize_plane(blend)
    return detail_out.with_luma(out.reshape(detail_out.y.shape))


def denoise_keyframe(
    frame: Frame,
    estimate: float,
    params: CascadeParams = CascadeParams(),
    timings: Optional[dict] = None,
) -> Frame:
    """Full cascade at the estimated noise sigma; below PASSTHROUGH_SIGMA it returns frame.

    timings, when given, receives per-stage milliseconds in place.
    """
    if estimate < PASSTHROUGH_SIGMA:
        if timings is not None:
            timings.update(detail_ms=0.0, smooth_ms=0.0, fuse_ms=0.0)
        return frame
    t0 = time.perf_counter()
    detail = stage_detail(frame, estimate, params)
    t1 = time.perf_counter()
    smooth = stage_smooth(frame, estimate, params)
    t2 = time.perf_counter()
    fused = stage_fuse(detail, smooth, estimate, params)
    t3 = time.perf_counter()
    if timings is not None:
        timings.update(
            detail_ms=(t1 - t0) * 1e3,
            smooth_ms=(t2 - t1) * 1e3,
            fuse_ms=(t3 - t2) * 1e3,
        )
    return fused
