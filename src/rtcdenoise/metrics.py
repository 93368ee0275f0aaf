"""Full-reference quality metrics on luma planes.

SSIM uses the canonical 11x11 Gaussian window (sigma 1.5) and averages over
positions where the whole window fits inside the frame. MS-SSIM uses the
canonical five scale weights with 2x2-mean downsampling; frames too small for
five scales fall back to however many scales fit, with weights renormalized.
VIFp follows the standard pixel-domain formulation: four scales, Gaussian
windows of size 17/9/5/3, Gaussian scale-mixture stabilization rules, and a
1e-10 floor in divisions and logarithms.

All SSIM-family metrics are exactly symmetric in their two arguments: every
mixed term is a commutative product or sum, so swapping arguments produces
bit-identical floats.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.ndimage import correlate1d

from .frame import PIXEL_MAX, Frame, chunk_bounds

INFINITE = math.inf

_SSIM_WINDOW = 11
_SSIM_SIGMA = 1.5
_C1 = (0.01 * 255.0) ** 2
_C2 = (0.03 * 255.0) ** 2
MS_SSIM_WEIGHTS = (0.0448, 0.2856, 0.3001, 0.2363, 0.1333)
_VIF_EPS = 1e-10
_VIF_SIGMA_NSQ = 2.0
# smallest frame side every metric accepts (VIFp's first window)
MIN_METRIC_SIDE = 17
_RETENTION_C = 1e-4 * 255.0 ** 2


def _check_dimensions(ref: Frame, test: Frame) -> None:
    if (ref.height, ref.width) != (test.height, test.width):
        raise ValueError(
            f"dimension mismatch: {ref.width}x{ref.height} vs {test.width}x{test.height}"
        )


def _luma_pair(ref: Frame, test: Frame) -> tuple[np.ndarray, np.ndarray]:
    _check_dimensions(ref, test)
    return ref.luma_f64(), test.luma_f64()


def psnr(ref: Frame, test: Frame) -> float:
    """Peak signal-to-noise ratio in dB; identical frames give math.inf."""
    a, b = _luma_pair(ref, test)
    mse = float(np.mean((a - b) ** 2))
    if mse == 0.0:
        return INFINITE
    return 10.0 * math.log10(255.0 ** 2 / mse)


def _gaussian_taps(size: int, sigma: float) -> np.ndarray:
    xs = np.arange(size, dtype=np.float64) - (size - 1) / 2.0
    taps = np.exp(-(xs * xs) / (2.0 * sigma * sigma))
    return taps / taps.sum()


def _filter_valid(plane: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Separable correlation, keeping only fully-covered window positions."""
    r = (len(taps) - 1) // 2
    out = correlate1d(plane, taps, axis=0, mode="constant")
    out = correlate1d(out, taps, axis=1, mode="constant")
    return out[r : plane.shape[0] - r, r : plane.shape[1] - r]


def _ssim_maps(a: np.ndarray, b: np.ndarray, taps: np.ndarray):
    mu_a = _filter_valid(a, taps)
    mu_b = _filter_valid(b, taps)
    var_a = _filter_valid(a * a, taps) - mu_a * mu_a
    var_b = _filter_valid(b * b, taps) - mu_b * mu_b
    cov = _filter_valid(a * b, taps) - mu_a * mu_b
    luminance = (2.0 * mu_a * mu_b + _C1) / (mu_a * mu_a + mu_b * mu_b + _C1)
    cs = (2.0 * cov + _C2) / (var_a + var_b + _C2)
    return luminance, cs


def ssim(ref: Frame, test: Frame) -> float:
    """Structural similarity, mean over valid 11x11 window positions."""
    a, b = _luma_pair(ref, test)
    if min(a.shape) < _SSIM_WINDOW:
        raise ValueError(f"frame must be at least {_SSIM_WINDOW} pixels on each side")
    taps = _gaussian_taps(_SSIM_WINDOW, _SSIM_SIGMA)
    luminance, cs = _ssim_maps(a, b, taps)
    return float(np.mean(luminance * cs))


def _downsample2(plane: np.ndarray) -> np.ndarray:
    h2, w2 = plane.shape[0] // 2, plane.shape[1] // 2
    return plane[: 2 * h2, : 2 * w2].reshape(h2, 2, w2, 2).mean(axis=(1, 3))


def ms_ssim(ref: Frame, test: Frame) -> float:
    """Multi-scale SSIM; scale count adapts to frame size (5 max)."""
    a, b = _luma_pair(ref, test)
    levels = 0
    dim = min(a.shape)
    while dim >= _SSIM_WINDOW and levels < len(MS_SSIM_WEIGHTS):
        levels += 1
        dim //= 2
    if levels == 0:
        raise ValueError(f"frame must be at least {_SSIM_WINDOW} pixels on each side")
    weights = np.array(MS_SSIM_WEIGHTS[:levels], dtype=np.float64)
    weights /= weights.sum()

    taps = _gaussian_taps(_SSIM_WINDOW, _SSIM_SIGMA)
    score = 1.0
    for level in range(levels):
        luminance, cs = _ssim_maps(a, b, taps)
        if level == levels - 1:
            term = float(np.mean(luminance * cs))
        else:
            term = float(np.mean(cs))
            a = _downsample2(a)
            b = _downsample2(b)
        # negative means are possible on adversarial inputs; clamp before the
        # fractional power, which is undefined for negative bases
        score *= max(term, 0.0) ** weights[level]
    return float(score)


def vifp(ref: Frame, test: Frame) -> float:
    """Pixel-domain visual information fidelity over 4 scales."""
    a, b = _luma_pair(ref, test)
    if min(a.shape) < MIN_METRIC_SIDE:
        raise ValueError(f"frame must be at least {MIN_METRIC_SIDE} pixels on each side")
    num = 0.0
    den = 0.0
    for scale in range(1, 5):
        size = 2 ** (5 - scale) + 1
        taps = _gaussian_taps(size, size / 5.0)
        if scale > 1:
            if min(a.shape) < size:
                break
            a = _filter_valid(a, taps)[::2, ::2]
            b = _filter_valid(b, taps)[::2, ::2]
        if min(a.shape) < size:
            break
        mu_a = _filter_valid(a, taps)
        mu_b = _filter_valid(b, taps)
        var_a = _filter_valid(a * a, taps) - mu_a * mu_a
        var_b = _filter_valid(b * b, taps) - mu_b * mu_b
        cov = _filter_valid(a * b, taps) - mu_a * mu_b
        np.maximum(var_a, 0.0, out=var_a)
        np.maximum(var_b, 0.0, out=var_b)

        g = cov / (var_a + _VIF_EPS)
        sv_sq = var_b - g * cov

        weak_ref = var_a < _VIF_EPS
        g[weak_ref] = 0.0
        sv_sq[weak_ref] = var_b[weak_ref]
        var_a[weak_ref] = 0.0

        weak_test = var_b < _VIF_EPS
        g[weak_test] = 0.0
        sv_sq[weak_test] = 0.0

        negative_gain = g < 0.0
        sv_sq[negative_gain] = var_b[negative_gain]
        g[negative_gain] = 0.0
        np.maximum(sv_sq, _VIF_EPS, out=sv_sq)

        num += float(np.log10(1.0 + g * g * var_a / (sv_sq + _VIF_SIGMA_NSQ)).sum())
        den += float(np.log10(1.0 + var_a / _VIF_SIGMA_NSQ).sum())
    return num / max(den, _VIF_EPS)


# hypot of every pair of half-integer central differences, indexed by
# |dx| * 256 + |dy|. np.hypot and sqrt(gx^2 + gy^2) disagree on some of these
# pairs, so the table keeps hypot's exact values.
_HALF_STEPS = 0.5 * np.arange(PIXEL_MAX + 1, dtype=np.float64)
_GRADIENT_TABLE = np.hypot(_HALF_STEPS[:, None], _HALF_STEPS[None, :]).ravel()
_GRADIENT_TABLE.setflags(write=False)


def _abs_diff(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.maximum(a, b)
    out -= np.minimum(a, b)
    return out


def _gradient_index(plane: np.ndarray) -> np.ndarray:
    """|dx| * 256 + |dy| per pixel of a uint8 plane, edges replicated."""
    padded = np.pad(plane, 1, mode="edge")
    index = _abs_diff(padded[1:-1, 2:], padded[1:-1, :-2]).astype(np.uint16)
    index <<= 8
    index |= _abs_diff(padded[2:, 1:-1], padded[:-2, 1:-1])
    return index


def gradient_magnitude(plane: np.ndarray) -> np.ndarray:
    """Central-difference gradient magnitude of a uint8 plane, edges replicated.

    Equal, bit for bit, to np.hypot(gx, gy) with gx = (p[x+1] - p[x-1]) / 2
    and gy likewise on the edge-padded float64 plane.
    """
    return _GRADIENT_TABLE[_gradient_index(plane)]


def detail_retention(ref: Frame, test: Frame) -> float:
    """Gradient-energy agreement in [0, 1]; 1.0 means detail fully kept."""
    _check_dimensions(ref, test)
    index_ref = _gradient_index(ref.y).ravel()
    index_test = _gradient_index(test.y).ravel()
    score = np.empty(index_ref.size, dtype=np.float64)
    for c0, c1 in chunk_bounds(score.size):
        g_ref = _GRADIENT_TABLE[index_ref[c0:c1]]
        g_test = _GRADIENT_TABLE[index_test[c0:c1]]
        # (2 g_ref g_test + C) / (g_ref^2 + g_test^2 + C), in this order
        s = score[c0:c1]
        np.multiply(2.0, g_ref, out=s)
        s *= g_test
        s += _RETENTION_C
        g_ref *= g_ref
        g_test *= g_test
        g_ref += g_test
        g_ref += _RETENTION_C
        s /= g_ref
    return float(np.mean(score.reshape(ref.y.shape)))
