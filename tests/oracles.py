"""Brute-force reference metrics used to cross-check the package versions.

These were written and frozen before tuning the package implementations.
Every windowed statistic here is computed directly per window position with
an explicit 2-D Gaussian weight mask (sliding_window_view + einsum), never
with separable one-dimensional passes, so agreement with the optimized code
is evidence rather than tautology.

All metric functions take plain 2-D float64 arrays in [0, 255].
`denoise_stream` is the window-assembly reference the pipeline must match.
`add_gaussian_noise` and `add_speckle` are the injectors' whole-plane
formulas, one `NoiseRng.normals` block per frame, and `block_dct_quantize`
is the codec's block-DCT round trip in one transform of the whole plane;
`scale_round_trip` is its bilinear round trip on whole float64 planes, and
`quantize` rounds one value at a time. `lost_slices` is the slice-loss
process with one single-uniform NoiseRng call per draw, which transmit's one
draw per frame must equal. `bilateral`, `fuse` and
`classical_block` are per-pixel loops in the kernels' float32/float64
operation order, so the kernels must equal them bit for bit. `correlate_nearest`,
`smooth` and `median3x3` are the scipy filters the package's numpy kernels
replace.

The `separable_*` metrics are the exception: they are the package's own
separable-filter formulas as they stood before full-reference reports shared
reference-side moments, one whole-plane filter per statistic and per call.
`full_reference_report` assembles a report from them, and the package's
`build_report` must equal it bit for bit.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.fft import dctn, idctn
from scipy.ndimage import correlate1d, median_filter

from rtcdenoise import (
    AnalyzerReport,
    BlockParams,
    FrameRole,
    LossKind,
    NoiseRng,
    VideoSequence,
    denoise_window,
    performance_score,
)

C1 = (0.01 * 255.0) ** 2
C2 = (0.03 * 255.0) ** 2
MS_WEIGHTS = (0.0448, 0.2856, 0.3001, 0.2363, 0.1333)
VIF_EPS = 1e-10
VIF_SIGMA_NSQ = 2.0


def gauss_mask(size: int, sigma: float) -> np.ndarray:
    half = size // 2
    line = np.exp(-((np.arange(size, dtype=np.float64) - half) ** 2) / (2.0 * sigma * sigma))
    mask = np.outer(line, line)
    return mask / mask.sum()


def _window_stats(x: np.ndarray, y: np.ndarray, mask: np.ndarray):
    """Weighted mean/variance/covariance at every fully-contained position."""
    wx = sliding_window_view(x, mask.shape)
    wy = sliding_window_view(y, mask.shape)
    mx = np.einsum("ijkl,kl->ij", wx, mask)
    my = np.einsum("ijkl,kl->ij", wy, mask)
    vx = np.einsum("ijkl,ijkl,kl->ij", wx, wx, mask) - mx * mx
    vy = np.einsum("ijkl,ijkl,kl->ij", wy, wy, mask) - my * my
    cxy = np.einsum("ijkl,ijkl,kl->ij", wx, wy, mask) - mx * my
    return mx, my, vx, vy, cxy


def psnr(x: np.ndarray, y: np.ndarray) -> float:
    mse = float(np.mean((x - y) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(255.0 ** 2 / mse)


def ssim(x: np.ndarray, y: np.ndarray) -> float:
    mask = gauss_mask(11, 1.5)
    mx, my, vx, vy, cxy = _window_stats(x, y, mask)
    score = ((2.0 * mx * my + C1) * (2.0 * cxy + C2)) / (
        (mx * mx + my * my + C1) * (vx + vy + C2)
    )
    return float(np.mean(score))


def _cs_mean(x: np.ndarray, y: np.ndarray, mask: np.ndarray) -> float:
    _, _, vx, vy, cxy = _window_stats(x, y, mask)
    return float(np.mean((2.0 * cxy + C2) / (vx + vy + C2)))


def _halve(plane: np.ndarray) -> np.ndarray:
    h2, w2 = plane.shape[0] // 2, plane.shape[1] // 2
    trimmed = plane[: 2 * h2, : 2 * w2]
    return 0.25 * (
        trimmed[0::2, 0::2] + trimmed[0::2, 1::2] + trimmed[1::2, 0::2] + trimmed[1::2, 1::2]
    )


def ms_ssim(x: np.ndarray, y: np.ndarray) -> float:
    levels = 0
    dim = min(x.shape)
    while dim >= 11 and levels < len(MS_WEIGHTS):
        levels += 1
        dim //= 2
    if levels == 0:
        raise ValueError("too small")
    weights = [w / sum(MS_WEIGHTS[:levels]) for w in MS_WEIGHTS[:levels]]
    mask = gauss_mask(11, 1.5)
    score = 1.0
    for level in range(levels):
        if level == levels - 1:
            term = ssim(x, y)
        else:
            term = _cs_mean(x, y, mask)
            x, y = _halve(x), _halve(y)
        score *= max(term, 0.0) ** weights[level]
    return score


def vifp(x: np.ndarray, y: np.ndarray) -> float:
    num = 0.0
    den = 0.0
    for scale in range(1, 5):
        size = 2 ** (5 - scale) + 1
        mask = gauss_mask(size, size / 5.0)
        if scale > 1:
            if min(x.shape) < size:
                break
            wx = sliding_window_view(x, mask.shape)
            wy = sliding_window_view(y, mask.shape)
            x = np.einsum("ijkl,kl->ij", wx, mask)[::2, ::2]
            y = np.einsum("ijkl,kl->ij", wy, mask)[::2, ::2]
        if min(x.shape) < size:
            break
        _, _, var_ref, var_test, cov = _window_stats(x, y, mask)
        var_ref = np.maximum(var_ref, 0.0)
        var_test = np.maximum(var_test, 0.0)

        g = cov / (var_ref + VIF_EPS)
        sv_sq = var_test - g * cov

        weak_ref = var_ref < VIF_EPS
        g[weak_ref] = 0.0
        sv_sq[weak_ref] = var_test[weak_ref]
        var_ref[weak_ref] = 0.0

        weak_test = var_test < VIF_EPS
        g[weak_test] = 0.0
        sv_sq[weak_test] = 0.0

        negative = g < 0.0
        sv_sq[negative] = var_test[negative]
        g[negative] = 0.0
        sv_sq = np.maximum(sv_sq, VIF_EPS)

        num += float(np.sum(np.log10(1.0 + g * g * var_ref / (sv_sq + VIF_SIGMA_NSQ))))
        den += float(np.sum(np.log10(1.0 + var_ref / VIF_SIGMA_NSQ)))
    return num / max(den, VIF_EPS)


def _normal_plane(frame, seed: int) -> np.ndarray:
    return NoiseRng(seed=seed).normals(frame.height * frame.width).reshape(frame.y.shape)


def add_gaussian_noise(frame, sigma: float, seed: int = 0):
    return frame.with_luma(frame.luma_f64() + sigma * _normal_plane(frame, seed))


def add_speckle(frame, sigma_mult: float, seed: int = 0):
    return frame.with_luma(frame.luma_f64() * (1.0 + sigma_mult * _normal_plane(frame, seed)))


def block_dct_quantize(plane: np.ndarray, q: int) -> np.ndarray:
    """uint8 of the 8x8 orthonormal DCT round trip of the whole edge-padded plane, step q."""
    h, w = plane.shape
    padded = np.pad(plane.astype(np.float64), ((0, -h % 8), (0, -w % 8)), mode="edge")
    ph, pw = padded.shape
    blocks = padded.reshape(ph // 8, 8, pw // 8, 8).swapaxes(1, 2)
    coeffs = np.round(dctn(blocks, axes=(-2, -1), norm="ortho") / q) * q
    recon = idctn(coeffs, axes=(-2, -1), norm="ortho").swapaxes(1, 2).reshape(ph, pw)[:h, :w]
    return np.clip(np.floor(recon + 0.5), 0, 255).astype(np.uint8)


def _bilinear_resize(plane: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    in_h, in_w = plane.shape
    if (in_h, in_w) == (out_h, out_w):
        return plane

    def axis_coords(n_in: int, n_out: int):
        src = np.clip((np.arange(n_out, dtype=np.float64) + 0.5) * (n_in / n_out) - 0.5,
                      0.0, n_in - 1.0)
        lo = np.floor(src).astype(np.intp)
        return lo, np.minimum(lo + 1, n_in - 1), src - lo

    ylo, yhi, wy = axis_coords(in_h, out_h)
    xlo, xhi, wx = axis_coords(in_w, out_w)
    top = plane[ylo][:, xlo] * (1 - wx) + plane[ylo][:, xhi] * wx
    bot = plane[yhi][:, xlo] * (1 - wx) + plane[yhi][:, xhi] * wx
    return top * (1 - wy[:, None]) + bot * wy[:, None]


def scale_round_trip(plane: np.ndarray, scale) -> np.ndarray:
    """Pixel-centre bilinear resample of the whole float64 plane to round(side * scale) and back."""
    h, w = plane.shape
    small = _bilinear_resize(plane.astype(np.float64), max(1, round(h * scale)),
                             max(1, round(w * scale)))
    return _bilinear_resize(small, h, w)


def quantize(values: np.ndarray) -> np.ndarray:
    """frame.quantize_plane one value at a time: floor(x + 0.5), clamped to [0, 255]."""
    def one(x: float) -> int:
        v = float(x) + 0.5
        return 0 if v < 1.0 else 255 if v >= 255.0 else math.floor(v)

    return np.array([one(x) for x in np.ravel(values)], dtype=np.uint8).reshape(np.shape(values))


def lost_slices(loss, seed: int, n_slices: int, n_frames: int) -> list:
    """Each of n_frames chained frames' lost slice indices, one uniform per NoiseRng call.

    Uniform j is NoiseRng(seed, j).uniforms(1). A slice takes one for
    Bernoulli, and two for Gilbert-Elliott in either channel state: the loss
    draw, read in the bad state only, then the state flip.
    """
    draws = 0

    def draw() -> float:
        nonlocal draws
        draws += 1
        return float(NoiseRng(seed, draws - 1).uniforms(1)[0])

    in_bad = False
    frames = []
    for _ in range(n_frames):
        lost = []
        for i in range(n_slices):
            if loss.kind is LossKind.BERNOULLI:
                if draw() < loss.p_loss:
                    lost.append(i)
                continue
            u_loss, flip = draw(), draw()
            if in_bad and u_loss < loss.p_loss_bad:
                lost.append(i)
            in_bad = flip >= loss.p_exit_bad if in_bad else flip < loss.p_enter_bad
        frames.append(lost)
    return frames


def schedule_reference(n_frames: int, cadence: int):
    """Independent window plan: roles and clamped windows, first principles."""
    roles = []
    windows = []
    for t in range(n_frames):
        if t % cadence == 0:
            roles.append("keyframe")
            windows.append(None)
        else:
            roles.append("temporal")
            windows.append(tuple(min(max(i, 0), n_frames - 1) for i in range(t - 2, t + 3)))
    return roles, windows


def _clamped(plane: np.ndarray, i: int, j: int):
    h, w = plane.shape
    return plane[min(max(i, 0), h - 1), min(max(j, 0), w - 1)]


def bilateral(plane: np.ndarray, sigma_est: float, spatial_sigma: float,
              range_factor: float, radius: int) -> np.ndarray:
    """Bilateral filter of a uint8 plane, one pixel at a time, edges replicated.

    The taps of a pixel run in raster order (dy, then dx, each from -radius to
    radius). A tap's weight is exp(-(dy^2 + dx^2) * a - delta^2 * b) in
    float32, with a = 1 / (2 ss^2), b = 1 / (2 sr^2), sr = range_factor *
    max(sigma_est, 0.5) and delta the tap value minus the centre value; the
    weight and weighted-value sums accumulate in float32 in tap order. The
    quotient is rounded half up and clamped to [0, 255].
    """
    h, w = plane.shape
    sigma_r = range_factor * max(sigma_est, 0.5)
    a = np.float32(1.0 / (2.0 * spatial_sigma ** 2))
    b = np.float32(1.0 / (2.0 * sigma_r ** 2))
    offsets = [(dy, dx) for dy in range(-radius, radius + 1) for dx in range(-radius, radius + 1)]
    spatial = np.array([np.float32(-(dy * dy + dx * dx)) * a for dy, dx in offsets], dtype=np.float32)
    out = np.empty((h, w), dtype=np.uint8)
    for i in range(h):
        for j in range(w):
            values = np.array([_clamped(plane, i + dy, j + dx) for dy, dx in offsets],
                              dtype=np.float32)
            delta = values - np.float32(plane[i, j])
            weights = np.exp(spatial - delta * delta * b)
            weight_sum = np.float32(0.0)
            value_sum = np.float32(0.0)
            for weight, value in zip(weights, values):
                weight_sum = np.float32(weight_sum + weight)
                value_sum = np.float32(value_sum + weight * value)
            mean = float(np.float32(value_sum / weight_sum))
            out[i, j] = min(max(math.floor(mean + 0.5), 0), 255)
    return out


def correlate_nearest(values: np.ndarray, kernel: np.ndarray, axis: int = -1) -> np.ndarray:
    """scipy's correlate1d in float64 along one axis, edges replicated."""
    return correlate1d(values.astype(np.float64), kernel, axis=axis, mode="nearest")


def smooth(plane: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """stage_smooth of a uint8 plane: correlate_nearest down the whole plane,
    then across it, rounded half up and clamped to [0, 255]."""
    out = correlate_nearest(correlate_nearest(plane, kernel, axis=0), kernel, axis=1)
    return np.clip(np.floor(out + 0.5), 0, 255).astype(np.uint8)


def median3x3(plane: np.ndarray) -> np.ndarray:
    """median_filter_3x3 of a uint8 plane: scipy's median_filter(size=3, mode="nearest")."""
    return median_filter(plane, size=3, mode="nearest")


def fuse(detail: np.ndarray, smooth: np.ndarray, tau: float) -> np.ndarray:
    """stage_fuse of two uint8 planes, one pixel at a time, in float64.

    g is hypot(gx, gy) of the half central differences of detail, edges
    replicated; the weight is g / (g + tau), or 0 where g + tau is not
    positive; the blend weight * detail + (1 - weight) * smooth is rounded
    half up and clamped to [0, 255].
    """
    h, w = detail.shape
    out = np.empty((h, w), dtype=np.uint8)
    for i in range(h):
        for j in range(w):
            gx = 0.5 * (float(_clamped(detail, i, j + 1)) - float(_clamped(detail, i, j - 1)))
            gy = 0.5 * (float(_clamped(detail, i + 1, j)) - float(_clamped(detail, i - 1, j)))
            g = float(np.hypot(gx, gy))
            denom = g + tau
            weight = g / denom if denom > 0 else 0.0
            blend = weight * float(detail[i, j]) + (1.0 - weight) * float(smooth[i, j])
            out[i, j] = min(max(math.floor(blend + 0.5), 0), 255)
    return out


def classical_block(a: np.ndarray, b: np.ndarray, c: np.ndarray, sigma: float,
                    k_temporal: float, spatial_enabled: bool) -> np.ndarray:
    """CLASSICAL denoise_block of three uint8 planes, one pixel at a time.

    In float32: each neighbour n of (a, c) gets w_n = exp(d * d * m) with
    d = n - b and m = -float32(1 / (2 (k_temporal max(sigma, 0.5))^2)); the
    centre is (w_a a + b + w_c c) / (w_a + 1 + w_c), each sum taken left to
    right, then rounded half up and clamped. With spatial_enabled and sigma
    at least 0.5, the radius-1 bilateral of that plane follows.
    """
    neg_inv = -np.float32(1.0 / (2.0 * (k_temporal * max(sigma, 0.5)) ** 2))
    h, w = b.shape
    out = np.empty((h, w), dtype=np.uint8)
    for i in range(h):
        for j in range(w):
            va, vb, vc = np.float32(a[i, j]), np.float32(b[i, j]), np.float32(c[i, j])
            w_a = np.exp((va - vb) * (va - vb) * neg_inv)
            w_c = np.exp((vc - vb) * (vc - vb) * neg_inv)
            value = float((w_a * va + vb + w_c * vc) / (w_a + np.float32(1.0) + w_c))
            out[i, j] = min(max(math.floor(value + 0.5), 0), 255)
    if spatial_enabled and sigma >= 0.5:
        out = bilateral(out, sigma, 2.0, 2.0, 1)
    return out


def gradient_magnitude(plane: np.ndarray) -> np.ndarray:
    """hypot of the half central differences of the edge-padded float64 plane."""
    padded = np.pad(plane.astype(np.float64), 1, mode="edge")
    gx = 0.5 * (padded[1:-1, 2:] - padded[1:-1, :-2])
    gy = 0.5 * (padded[2:, 1:-1] - padded[:-2, 1:-1])
    return np.hypot(gx, gy)


def detail_retention(x: np.ndarray, y: np.ndarray) -> float:
    c = 1e-4 * 255.0 ** 2
    gx = gradient_magnitude(x)
    gy = gradient_magnitude(y)
    return float(np.mean((2.0 * gx * gy + c) / (gx * gx + gy * gy + c)))


def estimate_sigma(plane: np.ndarray) -> float:
    """Immerkaer estimate from the full 3x3 kernel, summed in float64."""
    y = plane.astype(np.float64)
    h, w = y.shape
    kernel = np.array([[1, -2, 1], [-2, 4, -2], [1, -2, 1]], dtype=np.float64)
    resp = np.einsum("ijkl,kl->ij", sliding_window_view(y, (3, 3)), kernel)
    return math.sqrt(math.pi / 2.0) * float(np.abs(resp).sum()) / (6.0 * (w - 2) * (h - 2))


def blockiness_ratio(plane: np.ndarray) -> float:
    """Mean |horizontal diff| at columns divisible by 8 over the mean elsewhere."""
    y = plane.astype(np.float64)
    diffs = np.abs(y[:, 1:] - y[:, :-1])
    at_boundary = np.arange(1, y.shape[1]) % 8 == 0
    if not at_boundary.any():
        return 0.0
    other = float(diffs[:, ~at_boundary].mean())
    return float(diffs[:, at_boundary].mean()) / max(other, 1e-6)


def mean_var_correlation(plane: np.ndarray) -> float:
    """Pearson correlation of per-tile float64 mean and variance, 8x8 tiles."""
    th, tw = plane.shape[0] // 8, plane.shape[1] // 8
    if th * tw < 2:
        return 0.0
    tiles = [plane[8 * i : 8 * i + 8, 8 * j : 8 * j + 8].astype(np.float64).ravel()
             for i in range(th) for j in range(tw)]
    means = np.array([t.mean() for t in tiles])
    variances = np.array([t.var() for t in tiles])
    if means.std() == 0 or variances.std() == 0:
        return 0.0
    return float(np.corrcoef(means, variances)[0, 1])


def denoise_stream(frames, keyframe_outputs, sigma_per_keyframe, plan, params=BlockParams()):
    """Assemble the output sequence: keyframes verbatim, temporal frames denoised.

    Window positions that land on a keyframe index use the keyframe's denoised
    output; other positions use the received frames. Each temporal frame uses
    the sigma inherited from its most recent keyframe. Every window is
    denoised from scratch, without the pipeline's per-cohort block cache.
    """
    if plan.n_frames != len(frames):
        raise ValueError(f"plan covers {plan.n_frames} frames, sequence has {len(frames)}")
    for k in plan.keyframe_indices:
        if k not in keyframe_outputs:
            raise ValueError(f"missing keyframe output for index {k}")
        if k not in sigma_per_keyframe:
            raise ValueError(f"missing keyframe sigma for index {k}")
    out = []
    for t in range(plan.n_frames):
        if plan.role(t) is FrameRole.KEYFRAME:
            out.append(keyframe_outputs[t])
        else:
            sigma = sigma_per_keyframe[plan.last_keyframe_at_or_before(t)]
            window = [keyframe_outputs.get(i, frames[i]) for i in plan.window(t)]
            out.append(denoise_window(window, sigma, params))
    if isinstance(frames, VideoSequence):
        return VideoSequence(frames=tuple(out), frame_rate=frames.frame_rate)
    return VideoSequence(frames=tuple(out))


# --- separable metrics, the bit-exact reference for build_report ---------------

def _separable_taps(size: int, sigma: float) -> np.ndarray:
    xs = np.arange(size, dtype=np.float64) - (size - 1) / 2.0
    taps = np.exp(-(xs * xs) / (2.0 * sigma * sigma))
    return taps / taps.sum()


def _separable_filter(plane: np.ndarray, taps: np.ndarray) -> np.ndarray:
    r = (len(taps) - 1) // 2
    out = correlate1d(plane, taps, axis=0, mode="constant")
    out = correlate1d(out, taps, axis=1, mode="constant")
    return out[r : plane.shape[0] - r, r : plane.shape[1] - r]


def _separable_ssim_maps(a: np.ndarray, b: np.ndarray, taps: np.ndarray):
    mu_a = _separable_filter(a, taps)
    mu_b = _separable_filter(b, taps)
    var_a = _separable_filter(a * a, taps) - mu_a * mu_a
    var_b = _separable_filter(b * b, taps) - mu_b * mu_b
    cov = _separable_filter(a * b, taps) - mu_a * mu_b
    luminance = (2.0 * mu_a * mu_b + C1) / (mu_a * mu_a + mu_b * mu_b + C1)
    cs = (2.0 * cov + C2) / (var_a + var_b + C2)
    return luminance, cs


def separable_psnr(a: np.ndarray, b: np.ndarray) -> float:
    mse = float(np.mean((a - b) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(255.0 ** 2 / mse)


def separable_ssim(a: np.ndarray, b: np.ndarray) -> float:
    luminance, cs = _separable_ssim_maps(a, b, _separable_taps(11, 1.5))
    return float(np.mean(luminance * cs))


def _separable_halve(plane: np.ndarray) -> np.ndarray:
    h2, w2 = plane.shape[0] // 2, plane.shape[1] // 2
    return plane[: 2 * h2, : 2 * w2].reshape(h2, 2, w2, 2).mean(axis=(1, 3))


def separable_ms_ssim(a: np.ndarray, b: np.ndarray) -> float:
    levels = 0
    dim = min(a.shape)
    while dim >= 11 and levels < len(MS_WEIGHTS):
        levels += 1
        dim //= 2
    weights = np.array(MS_WEIGHTS[:levels], dtype=np.float64)
    weights /= weights.sum()
    taps = _separable_taps(11, 1.5)
    score = 1.0
    for level in range(levels):
        luminance, cs = _separable_ssim_maps(a, b, taps)
        if level == levels - 1:
            term = float(np.mean(luminance * cs))
        else:
            term = float(np.mean(cs))
            a = _separable_halve(a)
            b = _separable_halve(b)
        score *= max(term, 0.0) ** weights[level]
    return float(score)


def separable_vifp(a: np.ndarray, b: np.ndarray) -> float:
    num = 0.0
    den = 0.0
    for scale in range(1, 5):
        size = 2 ** (5 - scale) + 1
        taps = _separable_taps(size, size / 5.0)
        if scale > 1:
            if min(a.shape) < size:
                break
            a = _separable_filter(a, taps)[::2, ::2]
            b = _separable_filter(b, taps)[::2, ::2]
        if min(a.shape) < size:
            break
        mu_a = _separable_filter(a, taps)
        mu_b = _separable_filter(b, taps)
        var_a = _separable_filter(a * a, taps) - mu_a * mu_a
        var_b = _separable_filter(b * b, taps) - mu_b * mu_b
        cov = _separable_filter(a * b, taps) - mu_a * mu_b
        np.maximum(var_a, 0.0, out=var_a)
        np.maximum(var_b, 0.0, out=var_b)

        g = cov / (var_a + VIF_EPS)
        sv_sq = var_b - g * cov

        weak_ref = var_a < VIF_EPS
        g[weak_ref] = 0.0
        sv_sq[weak_ref] = var_b[weak_ref]
        var_a[weak_ref] = 0.0

        weak_test = var_b < VIF_EPS
        g[weak_test] = 0.0
        sv_sq[weak_test] = 0.0

        negative_gain = g < 0.0
        sv_sq[negative_gain] = var_b[negative_gain]
        g[negative_gain] = 0.0
        np.maximum(sv_sq, VIF_EPS, out=sv_sq)

        num += float(np.log10(1.0 + g * g * var_a / (sv_sq + VIF_SIGMA_NSQ)).sum())
        den += float(np.log10(1.0 + var_a / VIF_SIGMA_NSQ).sum())
    return num / max(den, VIF_EPS)


def full_reference_report(frame_index, reference, noisy, denoised, sigma, runtime_ms,
                          budget_ms, weights) -> AnalyzerReport:
    """build_report from one standalone separable call per metric and frame."""
    ref = reference.luma_f64()

    def scores(frame):
        test = frame.luma_f64()
        return (separable_psnr(ref, test), separable_ssim(ref, test),
                separable_ms_ssim(ref, test), separable_vifp(ref, test))

    psnr_n, ssim_n, ms_n, vif_n = scores(noisy)
    psnr_d, ssim_d, ms_d, vif_d = scores(denoised)
    delta_psnr = 0.0 if math.isinf(psnr_d) and math.isinf(psnr_n) else psnr_d - psnr_n
    delta_ssim = ssim_d - ssim_n
    return AnalyzerReport(
        frame_index=frame_index,
        reference_mode="full",
        psnr_noisy=psnr_n,
        psnr_denoised=psnr_d,
        ssim_noisy=ssim_n,
        ssim_denoised=ssim_d,
        ms_ssim_noisy=ms_n,
        ms_ssim_denoised=ms_d,
        vifp_noisy=vif_n,
        vifp_denoised=vif_d,
        detail_retention=detail_retention(reference.y, denoised.y),
        delta_psnr=delta_psnr,
        delta_ssim=delta_ssim,
        delta_sigma=None,
        sigma=sigma,
        runtime_ms=runtime_ms,
        score=performance_score(delta_psnr, delta_ssim, runtime_ms, budget_ms, weights),
    )
