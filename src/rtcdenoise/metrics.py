"""Full-reference quality metrics on luma planes.

SSIM uses the canonical 11x11 Gaussian window (sigma 1.5) and averages over
positions where the whole window fits inside the frame. MS-SSIM uses the
canonical five scale weights with 2x2-mean downsampling; frames too small for
five scales fall back to however many scales fit, with weights renormalized.
VIFp follows the standard pixel-domain formulation: four scales, Gaussian
windows of size 17/9/5/3, Gaussian scale-mixture stabilization rules, and a
1e-10 floor in divisions and logarithms.

A full-reference report scores the received and the denoised frame against
one reference, in two independent families: PSNR with MS-SSIM (SSIM is the
mean of luminance * cs at MS-SSIM level 0, so it needs no filtering of its
own), and VIFp. full_reference_scores runs the families at the same time:
the calling thread scores the first while VIFp is forked to the other lane
(lanes.Fork), and the filters release the interpreter lock. Each family builds
its reference side once for both test frames: at every MS-SSIM level and
VIFp scale the windowed mean and variance (for VIFp also the weak-reference
mask and the denominator term). The standalone functions run through the
same code and give the same bits.

MS-SSIM level 0 and VIFp scale 1 filter straight from the frames' uint8
rows: moments are filtered in row bands, each band converted to float64 as
it goes, and the elementwise map arithmetic runs band by band. Every value
equals that of whole-plane float64 filtering, and no frame-sized temporaries
are allocated beyond the maps whose means are taken.

The separable filters are scipy.ndimage.correlate1d, imported on first use
rather than with this module: the receiver's own path (image_denoiser's
Gaussian stage and the no-reference detail retention here) runs on numpy
alone, and importing scipy.ndimage takes longer and more memory than the
rest of the package (see the README's "Install"). A timed caller
(pipeline.run_simulate) imports it before its clock starts.

All SSIM-family metrics are exactly symmetric in their two arguments: every
mixed term is a commutative product or sum, so swapping arguments produces
bit-identical floats.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .frame import PIXEL_MAX, Frame, chunk_bounds
from .lanes import Fork

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


def _require_side(plane: np.ndarray, side: int) -> None:
    if min(plane.shape) < side:
        raise ValueError(f"frame must be at least {side} pixels on each side")


def _luma_pair(ref: Frame, test: Frame) -> tuple[np.ndarray, np.ndarray]:
    _check_dimensions(ref, test)
    return ref.y, test.y


def _gaussian_taps(size: int, sigma: float) -> np.ndarray:
    xs = np.arange(size, dtype=np.float64) - (size - 1) / 2.0
    taps = np.exp(-(xs * xs) / (2.0 * sigma * sigma))
    return taps / taps.sum()


_SSIM_TAPS = _gaussian_taps(_SSIM_WINDOW, _SSIM_SIGMA)
_VIF_TAPS = tuple(_gaussian_taps(size, size / 5.0) for size in (17, 9, 5, 3))


# Output pixels per row band of the metric moments (stage_smooth has its own,
# image_denoiser._SMOOTH_PIXELS). A band's temporaries stay in cache and
# are reused rather than page-faulted in afresh, and the rows a band filters
# beyond its own (the window's reach) stay few. At 480x360, 1 << 15 and
# 1 << 16 took about 1.6x and 2.3x the page faults of 1 << 14 per
# full-reference report, and its time did not move on one or two threads.
_BAND_PIXELS = 1 << 14


def _row_bands(rows: int, width: int, step: int = 1):
    """chunk_bounds over rows: bands of about _BAND_PIXELS pixels, a multiple of step rows."""
    return chunk_bounds(rows, max(step, _BAND_PIXELS // width // step * step))


class _Scratch:
    """Named float64 maps; a name's buffer serves every later, smaller request.

    A frame-sized array is page-faulted in afresh on each allocation (see
    frame.chunk_bounds), so one scratch set serves a whole report.
    """

    def __init__(self):
        self._flat: dict = {}

    def plane(self, name: str, shape: tuple) -> np.ndarray:
        size = shape[0] * shape[1]
        flat = self._flat.get(name)
        if flat is None or flat.size < size:
            flat = self._flat[name] = np.empty(size, dtype=np.float64)
        return flat[:size].reshape(shape)


def _filter_valid(plane: np.ndarray, taps: np.ndarray, scratch: _Scratch, name: str) -> np.ndarray:
    """Separable correlation, keeping only fully-covered window positions.

    The second pass filters only the rows the crop keeps, each row on its own,
    so the values are those of filtering the whole plane and cropping. The
    passes write into scratch's "rows" and name maps; the result is a view of
    the latter, valid until the next call that writes it.
    """
    from scipy.ndimage import correlate1d  # on first use: see the module docstring

    h, w = plane.shape
    r = (len(taps) - 1) // 2
    rows = correlate1d(plane, taps, axis=0, output=scratch.plane("rows", plane.shape),
                       mode="constant")[r : h - r]
    out = correlate1d(rows, taps, axis=1, output=scratch.plane(name, rows.shape), mode="constant")
    return out[:, r : w - r]


def _moment_bands(plane: np.ndarray, taps: np.ndarray, scratch: _Scratch,
                  ref: Optional[np.ndarray] = None):
    """Windowed moments of a plane, one row band of fully-covered positions at a time.

    Yields (rows, mean, filtered plane², filtered ref * plane); the last is
    None without a ref plane. A band filters its own rows plus the window's
    reach above and below, and each filtered value depends on those rows
    alone, so every value equals that of filtering the whole plane. A uint8
    plane is converted to float64 one band at a time. The moments are views
    of scratch, overwritten by the next band.
    """
    reach = len(taps) - 1
    for r0, r1 in _row_bands(plane.shape[0] - reach, plane.shape[1]):
        band = plane[r0 : r1 + reach].astype(np.float64, copy=False)
        cross = (None if ref is None
                 else _filter_valid(ref[r0 : r1 + reach] * band, taps, scratch, "cross"))
        yield (slice(r0, r1), _filter_valid(band, taps, scratch, "mean"),
               _filter_valid(band * band, taps, scratch, "square"), cross)


def _filter_halve(plane: np.ndarray, taps: np.ndarray, scratch: _Scratch) -> np.ndarray:
    """_filter_valid(plane, taps)[::2, ::2], filtered one even-aligned row band at a time."""
    reach = len(taps) - 1
    rows = plane.shape[0] - reach
    out = np.empty(((rows + 1) // 2, (plane.shape[1] - reach + 1) // 2), dtype=np.float64)
    for r0, r1 in _row_bands(rows, plane.shape[1], step=2):
        band = plane[r0 : r1 + reach].astype(np.float64, copy=False)
        out[r0 // 2 : (r1 + 1) // 2] = _filter_valid(band, taps, scratch, "mean")[::2, ::2]
    return out


class _Moments(NamedTuple):
    """A reference plane with its windowed mean and variance."""

    plane: np.ndarray
    mu: np.ndarray
    var: np.ndarray


def _reference_moments(plane: np.ndarray, taps: np.ndarray, scratch: _Scratch) -> _Moments:
    reach = len(taps) - 1
    shape = (plane.shape[0] - reach, plane.shape[1] - reach)
    mu = np.empty(shape, dtype=np.float64)
    var = np.empty(shape, dtype=np.float64)
    for rows, mu_a, square, _ in _moment_bands(plane, taps, scratch):
        mu[rows] = mu_a
        np.subtract(square, mu_a * mu_a, out=var[rows])
    return _Moments(plane, mu, var)


def _psnr(a: np.ndarray, b: np.ndarray, scratch: _Scratch) -> float:
    error = np.subtract(a, b, out=scratch.plane("map", a.shape), dtype=np.float64)
    error **= 2
    mse = float(np.mean(error))
    if mse == 0.0:
        return INFINITE
    return 10.0 * math.log10(255.0 ** 2 / mse)


def _ssim_maps(ref: _Moments, plane: np.ndarray, scratch: _Scratch, luminance: bool = True):
    """A test plane's cs map against one reference level, and its luminance * cs map or None."""
    cs_map = scratch.plane("map", ref.mu.shape)
    ssim_map = scratch.plane("ssim", ref.mu.shape) if luminance else None
    for rows, mu_b, square, cross in _moment_bands(plane, _SSIM_TAPS, scratch, ref.plane):
        mu_a = ref.mu[rows]
        var_b = square - mu_b * mu_b
        cov = cross - mu_a * mu_b
        cs = np.divide(2.0 * cov + _C2, ref.var[rows] + var_b + _C2, out=cs_map[rows])
        if luminance:
            lum = (2.0 * mu_a * mu_b + _C1) / (mu_a * mu_a + mu_b * mu_b + _C1)
            np.multiply(lum, cs, out=ssim_map[rows])
    return cs_map, ssim_map


def _downsample2(plane: np.ndarray) -> np.ndarray:
    h2, w2 = plane.shape[0] // 2, plane.shape[1] // 2
    return plane[: 2 * h2, : 2 * w2].reshape(h2, 2, w2, 2).mean(axis=(1, 3))


def _ms_ssim_levels(plane: np.ndarray, scratch: _Scratch) -> list:
    """Reference moments at every MS-SSIM level the frame size allows (5 max)."""
    levels = []
    dim = min(plane.shape)
    while dim >= _SSIM_WINDOW and len(levels) < len(MS_SSIM_WEIGHTS):
        if levels:
            plane = _downsample2(plane)
        levels.append(_reference_moments(plane, _SSIM_TAPS, scratch))
        dim //= 2
    return levels


def _ms_ssim(levels: list, plane: np.ndarray, scratch: _Scratch) -> tuple[float, float]:
    """(MS-SSIM, SSIM) of a test plane; SSIM is level 0's mean of luminance * cs."""
    weights = np.array(MS_SSIM_WEIGHTS[: len(levels)], dtype=np.float64)
    weights /= weights.sum()
    score = 1.0
    last = len(levels) - 1
    for level, ref in enumerate(levels):
        if level:
            plane = _downsample2(plane)
        # the levels between the first and the last read only the cs map
        cs_map, ssim_map = _ssim_maps(ref, plane, scratch, level in (0, last))
        if level == 0:
            ssim_value = float(np.mean(ssim_map))
        term = float(np.mean(ssim_map if level == last else cs_map))
        # negative means are possible on adversarial inputs; clamp before the
        # fractional power, which is undefined for negative bases
        score *= max(term, 0.0) ** weights[level]
    return float(score), ssim_value


class _VifScale(NamedTuple):
    """Reference side of one VIFp scale."""

    plane: np.ndarray
    mu: np.ndarray
    var: np.ndarray  # clamped at 0, then zeroed where weak
    taps: np.ndarray
    weak: np.ndarray  # variance below eps: no reference signal to carry
    den: float  # this scale's denominator term


def _vifp_scales(plane: np.ndarray, scratch: _Scratch) -> list:
    """Reference side of each VIFp scale the frame size allows (none below 17 px)."""
    scales = []
    for scale, taps in enumerate(_VIF_TAPS, start=1):
        if scale > 1:
            if min(plane.shape) < len(taps):
                break
            plane = _filter_halve(plane, taps, scratch)
        if min(plane.shape) < len(taps):
            break
        _, mu, var = _reference_moments(plane, taps, scratch)
        np.maximum(var, 0.0, out=var)
        weak = var < _VIF_EPS
        var[weak] = 0.0
        den = float(np.log10(1.0 + var / _VIF_SIGMA_NSQ).sum())
        scales.append(_VifScale(plane, mu, var, taps, weak, den))
    return scales


def _vifp(scales: list, plane: np.ndarray, scratch: _Scratch) -> float:
    num = 0.0
    den = 0.0
    for index, ref in enumerate(scales):
        if index:
            plane = _filter_halve(plane, ref.taps, scratch)
        info = scratch.plane("map", ref.mu.shape)
        for rows, mu_b, square, cross in _moment_bands(plane, ref.taps, scratch, ref.plane):
            mu_a = ref.mu[rows]
            var_b = square - mu_b * mu_b
            cov = cross - mu_a * mu_b
            np.maximum(var_b, 0.0, out=var_b)

            # var_a is zero at weak-reference positions; the g and sv_sq it
            # gives there are overwritten by the weak-reference rule below
            var_a = ref.var[rows]
            g = cov / (var_a + _VIF_EPS)
            sv_sq = var_b - g * cov

            weak_ref = ref.weak[rows]
            g[weak_ref] = 0.0
            sv_sq[weak_ref] = var_b[weak_ref]

            weak_test = var_b < _VIF_EPS
            g[weak_test] = 0.0
            sv_sq[weak_test] = 0.0

            negative_gain = g < 0.0
            sv_sq[negative_gain] = var_b[negative_gain]
            g[negative_gain] = 0.0
            np.maximum(sv_sq, _VIF_EPS, out=sv_sq)

            np.log10(1.0 + g * g * var_a / (sv_sq + _VIF_SIGMA_NSQ), out=info[rows])
        num += float(info.sum())
        den += ref.den
    return num / max(den, _VIF_EPS)


def psnr(ref: Frame, test: Frame) -> float:
    """Peak signal-to-noise ratio in dB; identical frames give math.inf."""
    a, b = _luma_pair(ref, test)
    return _psnr(a, b, _Scratch())


def ssim(ref: Frame, test: Frame) -> float:
    """Structural similarity, mean over valid 11x11 window positions."""
    a, b = _luma_pair(ref, test)
    _require_side(a, _SSIM_WINDOW)
    scratch = _Scratch()
    _, ssim_map = _ssim_maps(_reference_moments(a, _SSIM_TAPS, scratch), b, scratch)
    return float(np.mean(ssim_map))


def ms_ssim(ref: Frame, test: Frame) -> float:
    """Multi-scale SSIM; scale count adapts to frame size (5 max)."""
    a, b = _luma_pair(ref, test)
    _require_side(a, _SSIM_WINDOW)
    scratch = _Scratch()
    return _ms_ssim(_ms_ssim_levels(a, scratch), b, scratch)[0]


def vifp(ref: Frame, test: Frame) -> float:
    """Pixel-domain visual information fidelity over 4 scales."""
    a, b = _luma_pair(ref, test)
    _require_side(a, MIN_METRIC_SIDE)
    scratch = _Scratch()
    return _vifp(_vifp_scales(a, scratch), b, scratch)


class FullReferenceScores(NamedTuple):
    """The full-reference metrics of one test frame."""

    psnr: float
    ssim: float
    ms_ssim: float
    vifp: float


def _psnr_and_ms_ssim(reference: np.ndarray, planes: list) -> tuple[list, list]:
    scratch = _Scratch()
    psnr_values = [_psnr(reference, plane, scratch) for plane in planes]
    levels = _ms_ssim_levels(reference, scratch)
    return psnr_values, [_ms_ssim(levels, plane, scratch) for plane in planes]


def _vifp_family(reference: np.ndarray, planes: list) -> list:
    scratch = _Scratch()
    scales = _vifp_scales(reference, scratch)
    return [_vifp(scales, plane, scratch) for plane in planes]


def full_reference_scores(reference: Frame, tests: Sequence[Frame]) -> list:
    """PSNR, SSIM, MS-SSIM and VIFp of each test frame against one reference.

    Each family's reference side is built once and serves every test frame.
    VIFp is forked (lanes.Fork) while the calling thread scores PSNR and
    MS-SSIM; if no helper has started it by then (it may be busy with other
    work), the caller runs it. Nothing is kept across calls, and no helper
    task of the call is left running when it returns or raises.
    """
    for test in tests:
        _check_dimensions(reference, test)
    a = reference.y
    _require_side(a, MIN_METRIC_SIDE)
    planes = [test.y for test in tests]
    with Fork(_vifp_family, a, planes) as vifp_task:
        psnr_values, ms_ssim_pairs = _psnr_and_ms_ssim(a, planes)
        vifp_values = vifp_task.join()
    return [
        FullReferenceScores(p, s, m, v)
        for p, (m, s), v in zip(psnr_values, ms_ssim_pairs, vifp_values)
    ]


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
    if test is ref:
        return 1.0  # exact: every pixel is (2 g g + C) / (g g + g g + C)
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
