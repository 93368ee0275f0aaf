"""Full-reference quality metrics on luma planes.

SSIM uses the canonical 11x11 Gaussian window (sigma 1.5) and averages over
positions where the whole window fits inside the frame. MS-SSIM uses the
canonical five scale weights with 2x2-mean downsampling; frames too small for
five scales fall back to however many scales fit, with weights renormalized.
VIFp follows the standard pixel-domain formulation: four scales, Gaussian
windows of size 17/9/5/3, Gaussian scale-mixture stabilization rules, and a
1e-10 floor in divisions and logarithms.

A full-reference report scores the received and the denoised frame against
one reference. full_reference_scores cuts the work into independent pieces,
each with an exact partial result: PSNR; MS-SSIM level 0 (SSIM is the mean
of luminance * cs there, so it needs no filtering of its own) and levels 1
on; VIFp scale 1 and scales 2 on; and a caller's extra piece (build_report's
detail retention). It forks them all (lanes.Fork) and joins them with
lanes.join_all, so that the helper lane takes them from one end of the list
and the calling thread from the other, and the filters release the
interpreter lock, so the two lanes do about equal work whatever each piece
costs. MS-SSIM multiplies and VIFp sums the per-level results in level
order, so the standalone functions, which run the same code on one lane
with one test frame, give the same bits.

Every MS-SSIM level and VIFp scale runs band-major: for each row band of
window positions (frame.row_bands), the reference's windowed mean and
variance are filtered once, then each test frame's moments, and the band's
cs, luminance * cs, VIFp information and denominator terms go straight
into streaming sums (_PairwiseSum). PSNR's squared errors (in runs of
frame.BAND_PIXELS) and detail_retention's scores stream the same way. So the moments and maps are band-sized: no mean,
variance, weak-reference mask or SSIM map of the whole frame is kept. What
stays frame-sized is the pyramid below level 0 (float32 2x2 means, a quarter
of the frame or less) and VIFp's halved planes. The streaming sums add in
numpy's pairwise order, and every filtered value equals that of whole-plane
float64 filtering, so each mean equals np.mean of the whole map bit for bit,
whatever the band size.

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

import functools
import itertools
import math
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import frame
from .frame import PIXEL_MAX, Frame, chunk_bounds, row_bands
from .lanes import Fork, join_all

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


# Most values in a leaf of a _PairwiseSum (numpy's tree splits no run of 128
# values or fewer, so a smaller limit acts as 128). A leaf is one
# np.add.reduce call, and a sum buffers up to one leaf: at 480x360 a leaf is
# about 2,700 values, and a report's sums buffer about 0.15 MB.
_SUM_LEAF = 1 << 12


@functools.lru_cache(maxsize=64)
def _pairwise_plan(n: int, leaf: int) -> tuple:
    """numpy's summation tree over n values, cut into leaves of at most leaf values.

    numpy sums a contiguous float64 run of more than 128 values as the sum of
    its two halves, the first rounded down to a multiple of 8 values. Returns
    each leaf's length and how many of the nodes above it it completes.
    """
    if n <= max(leaf, 128):
        return (n,), (0,)
    half = n // 2 - n // 2 % 8
    left, left_joins = _pairwise_plan(half, leaf)
    right, right_joins = _pairwise_plan(n - half, leaf)
    return left + right, left_joins + right_joins[:-1] + (right_joins[-1] + 1,)


class _PairwiseSum:
    """np.add.reduce of n float64 values that arrive in pieces, bit for bit.

    Each leaf of numpy's summation tree is summed with np.add.reduce once its
    values have arrived: straight from a piece that holds it whole, else from
    a buffer. total() adds the leaf sums up the same tree, so it equals
    np.add.reduce of the whole sequence, and mean() the sequence's np.mean,
    wherever the pieces begin and end.
    """

    def __init__(self, n: int):
        self.n = n
        leaves, self._joins = _pairwise_plan(n, _SUM_LEAF)
        # leaf k holds values [_bounds[k], _bounds[k + 1]); the last bound stops add's scan
        self._bounds = list(itertools.accumulate(leaves, initial=0)) + [math.inf]
        self._buffer = np.empty(max(leaves), dtype=np.float64)
        self._sums: list = []
        self._arrived = 0

    def add(self, values: np.ndarray) -> None:
        """Append the values of a C-contiguous float64 array, in raster order."""
        values = values.reshape(-1)
        start = self._arrived
        stop = self._arrived = start + values.size
        bounds, sums = self._bounds, self._sums
        k = len(sums)
        while bounds[k + 1] <= stop:  # leaf k is complete
            lo, hi = bounds[k], bounds[k + 1]
            if lo >= start:
                sums.append(float(np.add.reduce(values[lo - start : hi - start])))
            else:  # its first values are in the buffer
                self._buffer[start - lo : hi - lo] = values[: hi - start]
                sums.append(float(np.add.reduce(self._buffer[: hi - lo])))
            k += 1
        lo = max(bounds[k], start)
        if lo < stop:
            self._buffer[lo - bounds[k] : stop - bounds[k]] = values[lo - start :]

    def total(self) -> float:
        stack: list = []
        for value, joins in zip(self._sums, self._joins):
            stack.append(value)
            for _ in range(joins):
                right = stack.pop()
                stack[-1] += right
        return stack[0]

    def mean(self) -> float:
        return self.total() / self.n


class _Scratch:
    """Named float64 arrays; a name's buffer serves every later, smaller request.

    An array past the allocator's mmap threshold is page-faulted in afresh on
    each allocation (see frame.chunk_bounds), so one scratch set serves a
    whole piece of a report (see full_reference_scores).
    """

    def __init__(self):
        self._flat: dict = {}

    def plane(self, name: str, shape: tuple, dtype=np.float64) -> np.ndarray:
        size = math.prod(shape)
        flat = self._flat.get(name)
        if flat is None or flat.size < size:
            flat = self._flat[name] = np.empty(size, dtype=dtype)
        return flat[:size].reshape(shape)


def _filter_valid(plane: np.ndarray, taps: np.ndarray, scratch: _Scratch, name: str) -> np.ndarray:
    """Separable correlation at every fully-covered window position, both axes.

    The second pass filters only the rows the crop keeps, each row on its own,
    so the values are those of filtering the whole plane and cropping. The
    passes write into scratch's "rows" and name arrays; the result is a view
    of the latter, valid until the next call that writes it.
    """
    from scipy.ndimage import correlate1d  # on first use: see the module docstring

    h, w = plane.shape
    r = (len(taps) - 1) // 2
    rows = correlate1d(plane, taps, axis=0, output=scratch.plane("rows", plane.shape),
                       mode="constant")[r : h - r]
    out = correlate1d(rows, taps, axis=1, output=scratch.plane(name, rows.shape), mode="constant")
    return out[:, r : w - r]


def _band_moments(reference: np.ndarray, planes: list, taps: np.ndarray, scratch: _Scratch):
    """Windowed moments of a reference and its test planes, one row band at a time.

    Yields (mu_a, var_a, tests) for each band of fully-covered positions,
    where tests yields (mu_b, var_b, cov) for each test plane in turn and
    must be used up before the next band. A band filters its own rows plus
    the window's reach above and below, and each filtered value depends on
    those rows alone, so every value equals that of filtering the whole
    float64 plane: the filters read uint8 rows as float64, and products are
    taken in float64. The moments are views of scratch: the reference's
    valid for the band, a test plane's until the next plane, whose moments
    the caller may overwrite. scratch's "term" array is free for the caller.
    """
    reach = len(taps) - 1
    for r0, r1 in row_bands(reference.shape[0] - reach, reference.shape[1]):
        rows = slice(r0, r1 + reach)
        a = reference[rows]
        mu_a = _filter_valid(a, taps, scratch, "mu_a")
        var_a = _filter_valid(_product(a, a, scratch), taps, scratch, "var_a")
        var_a -= np.multiply(mu_a, mu_a, out=scratch.plane("term", mu_a.shape))
        yield mu_a, var_a, _test_moments(a, mu_a, planes, rows, taps, scratch)


def _test_moments(a, mu_a, planes, rows, taps, scratch):
    for plane in planes:
        b = plane[rows]
        mu_b = _filter_valid(b, taps, scratch, "mu_b")
        var_b = _filter_valid(_product(b, b, scratch), taps, scratch, "var_b")
        var_b -= np.multiply(mu_b, mu_b, out=scratch.plane("term", mu_b.shape))
        cov = _filter_valid(_product(a, b, scratch), taps, scratch, "cov")
        cov -= np.multiply(mu_a, mu_b, out=scratch.plane("term", mu_b.shape))
        yield mu_b, var_b, cov


def _product(a: np.ndarray, b: np.ndarray, scratch: _Scratch) -> np.ndarray:
    """a * b in float64 values: uint8 products are exact in uint16, which the filters read."""
    if a.dtype == np.uint8:
        return np.multiply(a, b, out=scratch.plane("product16", a.shape, np.uint16), dtype=np.uint16)
    return np.multiply(a, b, out=scratch.plane("product", a.shape), dtype=np.float64)


def _symmetric_taps(shifted, kernel: np.ndarray, out: np.ndarray, sums: np.ndarray,
                    pair: np.ndarray) -> None:
    """out = sum over j of kernel[reach + j] * shifted(j), for a symmetric kernel.

    The sum runs in scipy.ndimage.correlate1d's order for symmetric weights:
    the centre tap first, then each pair from the outermost inward,
    (x[-j] + x[+j]) * w[j] in float64, so its values equal correlate1d's to
    the bit. A pair of uint8 values sums exactly in uint16 sums; pair may be
    sums.
    """
    reach = len(kernel) // 2
    np.multiply(shifted(0), kernel[reach], out=out)
    for j in range(reach, 0, -1):
        np.add(shifted(-j), shifted(j), out=sums, dtype=sums.dtype)
        np.multiply(sums, kernel[reach + j], out=pair)
        out += pair


def _filter_halve(plane: np.ndarray, taps: np.ndarray, scratch: _Scratch) -> np.ndarray:
    """_filter_valid(plane, taps)[::2, ::2], filtered one even-aligned row band at a time.

    The vertical pass filters only the rows the halving keeps (_symmetric_taps,
    correlate1d's order, each pair summed in float64 or exactly in uint16),
    and correlate1d the horizontal pass, so the values are those of filtering
    the whole plane and cropping.
    """
    from scipy.ndimage import correlate1d  # on first use: see the module docstring

    reach = len(taps) - 1
    r = reach // 2
    rows, w = plane.shape[0] - reach, plane.shape[1]
    out = np.empty(((rows + 1) // 2, (w - reach + 1) // 2), dtype=np.float64)
    for r0, r1 in row_bands(rows, w, step=2):
        kept = (r1 - r0 + 1) // 2
        first = r0 + r  # the band's first kept row of window centres
        vertical = scratch.plane("rows", (kept, w))
        pair = scratch.plane("pair", (kept, w))
        sums = scratch.plane("sums16", (kept, w), np.uint16) if plane.dtype == np.uint8 else pair
        _symmetric_taps(lambda j: plane[first + j : first + j + 2 * kept : 2], taps, vertical,
                        sums, pair)
        filtered = correlate1d(vertical, taps, axis=1, output=scratch.plane("mu_a", (kept, w)),
                               mode="constant")
        out[r0 // 2 : r0 // 2 + kept] = filtered[:, r : w - r : 2]
    return out


def _valid_size(plane: np.ndarray, taps: np.ndarray) -> int:
    reach = len(taps) - 1
    return (plane.shape[0] - reach) * (plane.shape[1] - reach)


def _psnr(reference: np.ndarray, planes: list) -> list:
    a = reference.reshape(-1)
    values = []
    for plane in planes:
        b = plane.reshape(-1)
        error = _PairwiseSum(a.size)
        for c0, c1 in chunk_bounds(a.size, frame.BAND_PIXELS):
            run = np.subtract(a[c0:c1], b[c0:c1], dtype=np.float64)
            run **= 2
            error.add(run)
        mse = error.mean()
        values.append(INFINITE if mse == 0.0 else 10.0 * math.log10(255.0 ** 2 / mse))
    return values


def _ssim_level(reference: np.ndarray, planes: list, scratch: _Scratch,
                cs: bool, luminance: bool) -> list:
    """Each test plane's (mean cs, mean luminance * cs) at one SSIM level; None where not asked."""
    n = _valid_size(reference, _SSIM_TAPS)
    sums = [(_PairwiseSum(n) if cs else None, _PairwiseSum(n) if luminance else None)
            for _ in planes]
    for mu_a, var_a, tests in _band_moments(reference, planes, _SSIM_TAPS, scratch):
        for (cs_sum, ssim_sum), (mu_b, var_b, cov) in zip(sums, tests):
            # cs = (2 cov + C2) / (var_a + var_b + C2), in this order
            cs_map = np.multiply(2.0, cov, out=scratch.plane("cs", mu_a.shape))
            cs_map += _C2
            var_b += var_a
            var_b += _C2
            cs_map /= var_b
            if cs:
                cs_sum.add(cs_map)
            if luminance:
                # (2 mu_a mu_b + C1) / (mu_a^2 + mu_b^2 + C1) * cs, in this order
                ssim_map = np.multiply(2.0, mu_a, out=scratch.plane("term", mu_a.shape))
                ssim_map *= mu_b
                ssim_map += _C1
                mu_b *= mu_b
                mu_b += np.multiply(mu_a, mu_a, out=var_b)
                mu_b += _C1
                ssim_map /= mu_b
                ssim_map *= cs_map
                ssim_sum.add(ssim_map)
    return [tuple(None if s is None else s.mean() for s in pair) for pair in sums]


def _downsample2(plane: np.ndarray) -> np.ndarray:
    """2x2 means of a uint8 plane or of an earlier level, as float32.

    Level k holds multiples of 4**-k up to 255, 8 + 2k significant bits at
    most, so float32 holds the float64 means exactly in half the memory. A
    2x2 sum needs 10 + 2k bits: uint16 holds level 0's and float32 every
    other level's exactly, so adding in any order and then quartering gives
    the float64 mean's value.
    """
    h2, w2 = plane.shape[0] // 2, plane.shape[1] // 2
    dtype = np.uint16 if plane.dtype == np.uint8 else np.float32
    pairs = np.add(plane[0 : 2 * h2 : 2, : 2 * w2], plane[1 : 2 * h2 : 2, : 2 * w2], dtype=dtype)
    sums = np.add(pairs[:, 0::2], pairs[:, 1::2])
    return np.multiply(sums, 0.25, dtype=np.float32)


def _ms_ssim_levels(reference: np.ndarray, planes: list, first: int,
                    stop: int = len(MS_SSIM_WEIGHTS)) -> list:
    """Each test plane's (mean cs, mean luminance * cs) at MS-SSIM levels first..stop.

    The frame has five levels, or as many as fit an 11-pixel window. The
    levels between the first and the last read only the cs mean, and the
    last only luminance * cs; a mean not read is None.
    """
    levels = 0
    dim = min(reference.shape)
    while dim >= _SSIM_WINDOW and levels < len(MS_SSIM_WEIGHTS):
        levels += 1
        dim //= 2
    scratch = _Scratch()
    means = []
    for level in range(min(stop, levels)):
        if level:
            reference = _downsample2(reference)
            planes = [_downsample2(plane) for plane in planes]
        if level >= first:
            last = level == levels - 1
            means.append(_ssim_level(reference, planes, scratch, not last, level == 0 or last))
    return means


def _ms_ssim_scores(means: list) -> list:
    """(MS-SSIM, SSIM) of each test plane from every level's means, multiplied in level order."""
    weights = np.array(MS_SSIM_WEIGHTS[: len(means)], dtype=np.float64)
    weights /= weights.sum()
    scores = [1.0] * len(means[0])
    for level, level_means in enumerate(means):
        last = level == len(means) - 1
        for i, (cs, ssim_value) in enumerate(level_means):
            # negative means are possible on adversarial inputs; clamp before
            # the fractional power, which is undefined for negative bases
            scores[i] *= max(ssim_value if last else cs, 0.0) ** weights[level]
    # SSIM is level 0's mean of luminance * cs
    return [(float(score), ssim_value) for score, (_, ssim_value) in zip(scores, means[0])]


def _vif_information(var_a: np.ndarray, weak_ref: np.ndarray, var_b: np.ndarray,
                     cov: np.ndarray, scratch: _Scratch) -> np.ndarray:
    """One band of a test plane's VIFp information map, in scratch's "term" array.

    var_a is zero where weak_ref; var_b and cov are overwritten.
    """
    np.maximum(var_b, 0.0, out=var_b)
    # g = cov / (var_a + eps) and sv_sq = var_b - g cov; the values a weak
    # reference gives are overwritten by its rule below
    g = np.add(var_a, _VIF_EPS, out=scratch.plane("term", var_a.shape))
    np.divide(cov, g, out=g)
    sv_sq = np.multiply(g, cov, out=cov)
    np.subtract(var_b, sv_sq, out=sv_sq)

    np.copyto(g, 0.0, where=weak_ref)
    np.copyto(sv_sq, var_b, where=weak_ref)

    weak_test = var_b < _VIF_EPS
    np.copyto(g, 0.0, where=weak_test)
    np.copyto(sv_sq, 0.0, where=weak_test)

    negative_gain = g < 0.0
    np.copyto(sv_sq, var_b, where=negative_gain)
    np.copyto(g, 0.0, where=negative_gain)
    np.maximum(sv_sq, _VIF_EPS, out=sv_sq)
    # log10(1 + g^2 var_a / (sv_sq + sigma_nsq)), in this order
    sv_sq += _VIF_SIGMA_NSQ
    info = np.multiply(g, g, out=g)
    info *= var_a
    info /= sv_sq
    info += 1.0
    return np.log10(info, out=info)


def _vif_scales(reference: np.ndarray, planes: list, first: int,
                stop: int = len(_VIF_TAPS) + 1) -> list:
    """(information sum of each test plane, denominator sum) at VIFp scales first..stop.

    Scales count from 1, and stop where the frame has become smaller than
    the scale's window.
    """
    scratch = _Scratch()
    sums = []
    for scale, taps in enumerate(_VIF_TAPS[: stop - 1], start=1):
        if scale > 1:
            if min(reference.shape) < len(taps):
                break
            reference = _filter_halve(reference, taps, scratch)
            planes = [_filter_halve(plane, taps, scratch) for plane in planes]
        if min(reference.shape) < len(taps):
            break
        if scale < first:
            continue
        n = _valid_size(reference, taps)
        den_sum = _PairwiseSum(n)
        info_sums = [_PairwiseSum(n) for _ in planes]
        for _, var_a, tests in _band_moments(reference, planes, taps, scratch):
            np.maximum(var_a, 0.0, out=var_a)
            weak_ref = var_a < _VIF_EPS  # no reference signal to carry
            np.copyto(var_a, 0.0, where=weak_ref)
            # log10(1 + var_a / sigma_nsq), in this order
            den_term = np.divide(var_a, _VIF_SIGMA_NSQ, out=scratch.plane("term", var_a.shape))
            den_term += 1.0
            den_sum.add(np.log10(den_term, out=den_term))
            for info_sum, (_, var_b, cov) in zip(info_sums, tests):
                info_sum.add(_vif_information(var_a, weak_ref, var_b, cov, scratch))
        sums.append(([info_sum.total() for info_sum in info_sums], den_sum.total()))
    return sums


def _vif_values(scale_sums: list) -> list:
    """VIFp of each test plane: its information over the denominator, each summed in scale order."""
    num = [0.0] * len(scale_sums[0][0])
    den = 0.0
    for info, den_total in scale_sums:
        num = [value + total for value, total in zip(num, info)]
        den += den_total
    return [value / max(den, _VIF_EPS) for value in num]


def psnr(ref: Frame, test: Frame) -> float:
    """Peak signal-to-noise ratio in dB; identical frames give math.inf."""
    a, b = _luma_pair(ref, test)
    return _psnr(a, [b])[0]


def ssim(ref: Frame, test: Frame) -> float:
    """Structural similarity, mean over valid 11x11 window positions."""
    a, b = _luma_pair(ref, test)
    _require_side(a, _SSIM_WINDOW)
    return _ssim_level(a, [b], _Scratch(), cs=False, luminance=True)[0][1]


def ms_ssim(ref: Frame, test: Frame) -> float:
    """Multi-scale SSIM; scale count adapts to frame size (5 max)."""
    a, b = _luma_pair(ref, test)
    _require_side(a, _SSIM_WINDOW)
    return _ms_ssim_scores(_ms_ssim_levels(a, [b], 0))[0][0]


def vifp(ref: Frame, test: Frame) -> float:
    """Pixel-domain visual information fidelity over 4 scales."""
    a, b = _luma_pair(ref, test)
    _require_side(a, MIN_METRIC_SIDE)
    return _vif_values(_vif_scales(a, [b], 1))[0]


class FullReferenceScores(NamedTuple):
    """The full-reference metrics of one test frame."""

    psnr: float
    ssim: float
    ms_ssim: float
    vifp: float


def full_reference_scores(reference: Frame, tests: Sequence[Frame],
                          extra: Optional[Callable[[], object]] = None) -> list:
    """PSNR, SSIM, MS-SSIM and VIFp of each test frame against one reference.

    Each band's reference moments are computed once and serve every test
    frame. The work is cut into independent pieces, each with an exact
    partial result: PSNR, MS-SSIM level 0 and levels 1 on, VIFp scale 1 and
    scales 2 on, and extra() if given, whose value follows the scores in
    the returned list. Every piece is forked (lanes.Fork) in list order, so
    the helper claims them from the front while the caller joins them from
    the back (lanes.join_all) and runs each one no lane has started: the lanes meet wherever
    the costs put that point, and the caller then waits at most for the one
    piece the helper is finishing. The two largest, VIFp scale 1 and MS-SSIM
    level 0, are at the ends, so each starts one lane, and the small ones
    meet in the middle. MS-SSIM multiplies and VIFp sums its per-level
    results in level order, so every score equals its standalone function's
    bit for bit. Nothing is kept across calls, and no piece of the call is
    left running when it returns or raises.
    """
    for test in tests:
        _check_dimensions(reference, test)
    a = reference.y
    _require_side(a, MIN_METRIC_SIDE)
    planes = [test.y for test in tests]
    pieces = [(_vif_scales, a, planes, 1, 2), (_ms_ssim_levels, a, planes, 1),
              *([(extra,)] if extra else []),
              (_psnr, a, planes), (_vif_scales, a, planes, 2), (_ms_ssim_levels, a, planes, 0, 1)]
    vif_first, ms_rest, *extra_value, psnr_values, vif_rest, ms_first = join_all(
        [Fork(*piece) for piece in pieces])
    ms_ssim_pairs = _ms_ssim_scores(ms_first + ms_rest)
    vifp_values = _vif_values(vif_first + vif_rest)
    scores = [FullReferenceScores(p, s, m, v)
              for p, (m, s), v in zip(psnr_values, ms_ssim_pairs, vifp_values)]
    return scores + extra_value


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


def _gradient_run(index: np.ndarray, out: np.ndarray) -> np.ndarray:
    """gradient_magnitude's values at a run of _gradient_index's, in out's first index.size."""
    # np.take into out skips fancy indexing's new array; mode="clip" skips
    # the bounds check and its buffered copy, and no index exceeds the table
    return np.take(_GRADIENT_TABLE, index, out=out[: index.size], mode="clip")


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
    score = _PairwiseSum(index_ref.size)
    runs = np.empty((3, min(index_ref.size, frame.ELEMENTWISE_PIXELS)), dtype=np.float64)
    for c0, c1 in chunk_bounds(index_ref.size):
        g_ref = _gradient_run(index_ref[c0:c1], runs[0])
        g_test = _gradient_run(index_test[c0:c1], runs[1])
        # (2 g_ref g_test + C) / (g_ref^2 + g_test^2 + C), in this order
        s = np.multiply(2.0, g_ref, out=runs[2][: c1 - c0])
        s *= g_test
        s += _RETENTION_C
        g_ref *= g_ref
        g_test *= g_test
        g_ref += g_test
        g_ref += _RETENTION_C
        s /= g_ref
        score.add(s)
    return score.mean()
