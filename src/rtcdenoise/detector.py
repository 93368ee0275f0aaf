"""Per-frame noise estimation, categorization, and the bypass/denoise fork.

Sigma comes from Immerkaer's fast method: a 3x3 second-difference kernel that
annihilates constant and planar image content, leaving (mostly) noise. The
categorizer uses three cheap statistics: the fraction of saturated pixels for
impulse noise, the excess of horizontal differences at 8-pixel column
boundaries for block/pixelation artifacts, and the correlation between local
mean and local variance for signal-dependent noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .frame import PIXEL_MAX, Frame

DEFAULT_FORK_THRESHOLD = 20.0
# smallest frame side the sigma estimate accepts (its 3x3 kernel)
MIN_DETECT_SIDE = 3

_IMPULSE_FRACTION_LIMIT = 0.005
_BLOCKINESS_LIMIT = 1.5
_MEAN_VAR_CORR_LIMIT = 0.5
_GAUSSIAN_SIGMA_LIMIT = 2.0
_TILE = 8


class NoiseCategory(Enum):
    GAUSSIAN = "gaussian"
    SALT_PEPPER = "salt-pepper"
    SPECKLE_SIGNAL_DEPENDENT = "speckle-signal-dependent"
    PIXELATION_PROCESSED = "pixelation-processed"
    CLEAN = "clean"


class Route(Enum):
    BYPASS = "bypass"
    DENOISE = "denoise"


@dataclass(frozen=True)
class NoiseEstimate:
    sigma: float
    category: NoiseCategory
    impulse_fraction: float
    blockiness_ratio: float
    mean_var_correlation: float
    histogram: np.ndarray

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError("sigma must be non-negative")
        self.histogram.setflags(write=False)


@dataclass(frozen=True)
class ForkDecision:
    route: Route
    estimate: NoiseEstimate
    threshold_used: float


def estimate_sigma(frame: Frame) -> float:
    """Immerkaer noise estimate on the 0-255 scale.

    sigma = sqrt(pi/2) / (6 (W-2)(H-2)) * sum |L*y| with the Laplacian-
    difference kernel [[1,-2,1],[-2,4,-2],[1,-2,1]] over interior pixels.
    """
    if min(frame.width, frame.height) < MIN_DETECT_SIDE:
        raise ValueError("estimate_sigma needs a frame of at least 3x3")
    # the kernel is the outer product of [1,-2,1] with itself, so two integer
    # second-difference passes give the exact response; every partial sum is
    # an integer below 2**53, so the float result matches the 9-tap float sum
    y = frame.y.astype(np.int16)
    rows = y[:, :-2] + y[:, 2:]
    rows -= 2 * y[:, 1:-1]
    resp = rows[:-2] + rows[2:]
    resp -= 2 * rows[1:-1]
    np.abs(resp, out=resp)
    norm = 6.0 * (frame.width - 2) * (frame.height - 2)
    return math.sqrt(math.pi / 2.0) * float(resp.sum(dtype=np.int64)) / norm


def impulse_fraction(frame: Frame) -> float:
    return _impulse_fraction(luma_histogram(frame))


def _impulse_fraction(histogram: np.ndarray) -> float:
    return (histogram[0] + histogram[PIXEL_MAX]) / histogram.sum()


def blockiness_ratio(frame: Frame) -> float:
    """Mean |horizontal diff| at columns divisible by 8 over the mean elsewhere.

    Returns 0 when the frame is too narrow to contain an interior 8-boundary.
    """
    y = frame.y.astype(np.int16)
    # diffs[:, j-1] sits between columns j-1 and j; label it with the right column j
    diffs = y[:, 1:] - y[:, :-1]
    np.abs(diffs, out=diffs)
    boundary = diffs[:, _TILE - 1 :: _TILE]
    if boundary.size == 0:
        return 0.0
    # integer sums are exact, so each mean is one correctly rounded division
    boundary_sum = int(boundary.sum(dtype=np.int64))
    other_sum = int(diffs.sum(dtype=np.int64)) - boundary_sum
    boundary_mean = boundary_sum / boundary.size
    other_mean = other_sum / (diffs.size - boundary.size)
    return boundary_mean / max(other_mean, 1e-6)


def mean_var_correlation(frame: Frame) -> float:
    """Pearson correlation of (mean, variance) over non-overlapping 8x8 tiles."""
    th, tw = frame.height // _TILE, frame.width // _TILE
    if th * tw < 2:
        return 0.0
    tiles = frame.y[: th * _TILE, : tw * _TILE].reshape(th, _TILE, tw, _TILE)
    n = _TILE * _TILE
    sums = np.einsum("iajb->ij", tiles, dtype=np.int64).ravel()
    squares = np.einsum("iajb,iajb->ij", tiles, tiles, dtype=np.int64).ravel()
    # mean S/n and variance (n Q - S^2) / n^2 are exact in float64 (n = 64),
    # equal to the two-pass float mean and variance of each tile
    means = sums / float(n)
    variances = (n * squares - sums * sums) / float(n * n)
    if means.std() == 0 or variances.std() == 0:
        return 0.0
    return float(np.corrcoef(means, variances)[0, 1])


def luma_histogram(frame: Frame) -> np.ndarray:
    """256-bin luma histogram; bins sum to width * height."""
    return np.bincount(frame.y.ravel(), minlength=256).astype(np.int64)


def _categorize(sigma: float, impulse: float, blockiness: float, mean_var_corr: float) -> NoiseCategory:
    if impulse > _IMPULSE_FRACTION_LIMIT:
        return NoiseCategory.SALT_PEPPER
    if blockiness > _BLOCKINESS_LIMIT:
        return NoiseCategory.PIXELATION_PROCESSED
    if mean_var_corr > _MEAN_VAR_CORR_LIMIT:
        return NoiseCategory.SPECKLE_SIGNAL_DEPENDENT
    if sigma >= _GAUSSIAN_SIGMA_LIMIT:
        return NoiseCategory.GAUSSIAN
    return NoiseCategory.CLEAN


def classify_noise(frame: Frame, sigma: float) -> NoiseCategory:
    """First-match categorization; thresholds are module constants."""
    return _categorize(sigma, impulse_fraction(frame), blockiness_ratio(frame),
                       mean_var_correlation(frame))


def analyze_frame(frame: Frame) -> NoiseEstimate:
    sigma = estimate_sigma(frame)
    histogram = luma_histogram(frame)
    impulse = _impulse_fraction(histogram)
    blockiness = blockiness_ratio(frame)
    mean_var_corr = mean_var_correlation(frame)
    return NoiseEstimate(
        sigma=sigma,
        category=_categorize(sigma, impulse, blockiness, mean_var_corr),
        impulse_fraction=impulse,
        blockiness_ratio=blockiness,
        mean_var_correlation=mean_var_corr,
        histogram=histogram,
    )


def fork_decision(estimate: NoiseEstimate, threshold: float = DEFAULT_FORK_THRESHOLD) -> ForkDecision:
    """Route DENOISE when sigma >= threshold (ties denoise), else BYPASS."""
    if threshold < 0:
        raise ValueError("threshold must be non-negative")
    route = Route.DENOISE if estimate.sigma >= threshold else Route.BYPASS
    return ForkDecision(route=route, estimate=estimate, threshold_used=threshold)


def _median3(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    return np.maximum(np.minimum(a, b), np.minimum(np.maximum(a, b), c))


def median_filter_3x3(frame: Frame) -> Frame:
    """3x3 median prefilter for impulse noise (edges replicate).

    The 19-step min/max median network over the nine edge-padded shifts
    (Paeth; Devillard's opt_med9): sort each column of three, then take the
    median of the largest low, the median middle and the smallest high. The
    column sorts are shared between horizontal neighbours. Equal to
    scipy.ndimage.median_filter(size=3, mode="nearest").
    """
    padded = np.pad(frame.y, 1, mode="edge")
    above, centre, below = padded[:-2], padded[1:-1], padded[2:]
    low, high = np.minimum(above, centre), np.maximum(above, centre)
    upper = np.maximum(low, below)
    np.minimum(low, below, out=low)
    middle = np.minimum(high, upper)
    np.maximum(high, upper, out=high)
    left, mid, right = slice(None, -2), slice(1, -1), slice(2, None)
    largest_low = np.maximum(np.maximum(low[:, left], low[:, mid]), low[:, right])
    smallest_high = np.minimum(np.minimum(high[:, left], high[:, mid]), high[:, right])
    median_middle = _median3(middle[:, left], middle[:, mid], middle[:, right])
    return frame.with_luma(_median3(largest_low, median_middle, smallest_high))
