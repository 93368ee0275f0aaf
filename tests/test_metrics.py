import contextlib
import math
import sys
import threading
import time

import numpy as np
import pytest

from rtcdenoise import (
    INFINITE,
    MS_SSIM_WEIGHTS,
    Frame,
    add_gaussian_noise,
    detail_retention,
    make_frame,
    ms_ssim,
    psnr,
    ssim,
    stage_smooth,
    vifp,
)
from rtcdenoise import analyzer, lanes, metrics
from rtcdenoise.analyzer import build_report
from rtcdenoise.metrics import gradient_magnitude

import oracles
from util import helpers_blocked, helpers_claim_every_fork, traced_peak


def _const(value, h=32, w=32):
    return Frame(y=np.full((h, w), value, dtype=np.uint8))


def _crop(frame, h, w):
    return Frame(y=frame.y[:h, :w].copy())


@pytest.fixture(scope="module")
def metric_pairs(natural_frames):
    """Mixed clean/degraded pairs at sizes that exercise every scale."""
    pairs = []
    for i, frame in enumerate(natural_frames):
        ref = _crop(frame, 128, 128)
        pairs.append((ref, add_gaussian_noise(ref, 10.0 + 5 * i, seed=i)))
        pairs.append((ref, stage_smooth(ref, 30.0)))
    ref = _crop(natural_frames[0], 96, 160)
    pairs.append((ref, add_gaussian_noise(ref, 25.0, seed=9)))
    return pairs


# --- the streaming sum ---------------------------------------------------------

SUM_LENGTHS = (1, 7, 8, 9, 127, 128, 129, 8191, 8192, 8193, 39_100, 164_500, 172_800)
# the shipped limit; numpy's unrolled block, and a limit below it, which acts
# as it; a limit that is no multiple of 8; one longer than every length
SUM_LEAVES = (metrics._SUM_LEAF, 128, 1, 1000, 1 << 18)


def _bits(value) -> bytes:
    return np.float64(value).tobytes()


def _sum_inputs(rng, n):
    wide = rng.standard_normal(n) * 10.0 ** rng.uniform(-8.0, 8.0, n)
    inputs = {"wide": wide, "negative zeros": np.full(n, -0.0)}
    for name, specials in (("inf", (np.inf,)), ("nan", (np.nan,)), ("both infs", (np.inf, -np.inf))):
        values = wide.copy()
        values[rng.integers(0, n, len(specials))] = specials
        inputs[name] = values
    return inputs


def _two_d_shape(n):
    rows = max(d for d in range(1, math.isqrt(n) + 1) if n % d == 0)
    return (rows, n // rows)


@pytest.mark.parametrize("leaf", SUM_LEAVES)
@pytest.mark.parametrize("n", SUM_LENGTHS)
def test_pairwise_sum_equals_numpy_over_the_whole_sequence(monkeypatch, n, leaf):
    monkeypatch.setattr(metrics, "_SUM_LEAF", leaf)
    rng = np.random.default_rng(n * 7 + leaf)
    shape = _two_d_shape(n)
    for name, values in _sum_inputs(rng, n).items():
        plane = values.reshape(shape)
        flat, bands = metrics._PairwiseSum(n), metrics._PairwiseSum(n)
        with np.errstate(invalid="ignore"):  # inf - inf
            # random seams; some pieces are empty
            for piece in np.split(values, np.sort(rng.integers(0, n + 1, rng.integers(0, 12)))):
                flat.add(piece)
            for band in np.split(plane, np.sort(rng.integers(0, shape[0] + 1, 5))):
                bands.add(band)
            expected = [_bits(np.add.reduce(values)), _bits(np.mean(values)), _bits(np.mean(plane))]
        for stream in (flat, bands):
            total, mean = _bits(stream.total()), _bits(stream.mean())
            assert [total, mean, mean] == expected, name


# --- psnr ---------------------------------------------------------------------

def test_psnr_identical_is_infinite():
    frame = make_frame(32, 32, seed=1)
    assert psnr(frame, frame) is INFINITE


def test_psnr_full_range_error_is_zero_db():
    assert psnr(_const(0), _const(255)) == pytest.approx(0.0, abs=1e-12)


def test_psnr_uniform_offset_closed_form():
    # mse = 16^2 = 256 everywhere
    value = psnr(_const(0), _const(16))
    assert abs(value - 10.0 * math.log10(255.0 ** 2 / 256.0)) <= 1e-4


def test_psnr_symmetry_and_noise_monotonicity(natural_frames):
    ref = natural_frames[0]
    lo = add_gaussian_noise(ref, 5.0, seed=1)
    hi = add_gaussian_noise(ref, 25.0, seed=1)
    assert psnr(ref, lo) == psnr(lo, ref)
    assert psnr(ref, lo) > psnr(ref, hi)


def test_psnr_matches_oracle(metric_pairs):
    for ref, test in metric_pairs:
        assert psnr(ref, test) == pytest.approx(
            oracles.psnr(ref.luma_f64(), test.luma_f64()), abs=1e-12
        )


# --- ssim ---------------------------------------------------------------------

def test_ssim_identical_is_one():
    frame = make_frame(48, 48, seed=2)
    assert abs(ssim(frame, frame) - 1.0) <= 1e-9


def test_ssim_constant_pair_closed_form():
    # flat frames: c1-stabilized luminance term only
    mu_x, mu_y = 100.0, 110.0
    c1 = (0.01 * 255.0) ** 2
    expected = (2 * mu_x * mu_y + c1) / (mu_x ** 2 + mu_y ** 2 + c1)
    assert abs(ssim(_const(100), _const(110)) - expected) <= 1e-5


def test_ssim_symmetry_is_exact(natural_frames):
    ref = _crop(natural_frames[1], 64, 64)
    noisy = add_gaussian_noise(ref, 15.0, seed=3)
    assert ssim(ref, noisy) == ssim(noisy, ref)


def test_ssim_degrades_with_noise(natural_frames):
    ref = natural_frames[2]
    lo = ssim(ref, add_gaussian_noise(ref, 5.0, seed=4))
    hi = ssim(ref, add_gaussian_noise(ref, 30.0, seed=4))
    assert 0.0 < hi < lo < 1.0


def test_ssim_matches_oracle(metric_pairs):
    for ref, test in metric_pairs:
        assert ssim(ref, test) == pytest.approx(
            oracles.ssim(ref.luma_f64(), test.luma_f64()), abs=1e-9
        )


def test_ssim_rejects_small_frames():
    with pytest.raises(ValueError):
        ssim(_const(0, 10, 64), _const(0, 10, 64))


# --- ms-ssim ------------------------------------------------------------------

def test_ms_ssim_identical_is_one():
    frame = make_frame(64, 64, seed=5)
    assert abs(ms_ssim(frame, frame) - 1.0) <= 1e-9


def test_ms_ssim_weights_are_published_set():
    assert MS_SSIM_WEIGHTS == (0.0448, 0.2856, 0.3001, 0.2363, 0.1333)


def test_ms_ssim_single_level_equals_ssim():
    # a 16-pixel side halves below the window once, so only one scale runs
    ref = make_frame(16, 16, seed=6)
    noisy = add_gaussian_noise(ref, 12.0, seed=6)
    assert ms_ssim(ref, noisy) == pytest.approx(ssim(ref, noisy), abs=1e-12)


def test_ms_ssim_matches_oracle(metric_pairs):
    for ref, test in metric_pairs:
        assert ms_ssim(ref, test) == pytest.approx(
            oracles.ms_ssim(ref.luma_f64(), test.luma_f64()), abs=1e-9
        )


def test_ms_ssim_rejects_small_frames():
    with pytest.raises(ValueError):
        ms_ssim(_const(0, 10, 10), _const(0, 10, 10))


def test_ms_ssim_symmetry_is_exact(natural_frames):
    ref = _crop(natural_frames[0], 96, 96)
    noisy = add_gaussian_noise(ref, 20.0, seed=7)
    assert ms_ssim(ref, noisy) == ms_ssim(noisy, ref)


# --- vifp ---------------------------------------------------------------------

def test_vifp_identical_is_one(natural_frames):
    ref = _crop(natural_frames[1], 64, 64)
    assert abs(vifp(ref, ref) - 1.0) <= 1e-6


def test_vifp_blur_loses_information(natural_frames):
    ref = _crop(natural_frames[2], 128, 128)
    blurred = stage_smooth(ref, 40.0)
    assert vifp(ref, blurred) < 1.0
    assert vifp(ref, add_gaussian_noise(ref, 20.0, seed=8)) < 1.0


def test_vifp_matches_oracle(metric_pairs):
    for ref, test in metric_pairs:
        assert vifp(ref, test) == pytest.approx(
            oracles.vifp(ref.luma_f64(), test.luma_f64()), abs=1e-9
        )


def test_vifp_rejects_small_frames():
    with pytest.raises(ValueError):
        vifp(_const(0, 16, 64), _const(0, 16, 64))


def test_standalone_metrics_equal_separable_reference_exactly(metric_pairs):
    for ref, test in metric_pairs:
        a, b = ref.luma_f64(), test.luma_f64()
        assert psnr(ref, test) == oracles.separable_psnr(a, b)
        assert ssim(ref, test) == oracles.separable_ssim(a, b)
        assert ms_ssim(ref, test) == oracles.separable_ms_ssim(a, b)
        assert vifp(ref, test) == oracles.separable_vifp(a, b)


# --- detail retention -----------------------------------------------------------

def test_detail_retention_identical_is_one(natural_frames):
    frame = natural_frames[0]
    copy = Frame(y=frame.y.copy())
    # the same object takes a shortcut; an equal copy is scored pixel by pixel
    assert detail_retention(frame, frame) == detail_retention(frame, copy) == 1.0


def test_detail_retention_blur_and_flattening(natural_frames):
    ref = natural_frames[2]
    assert detail_retention(ref, stage_smooth(ref, 40.0)) < 1.0
    # flattening a strongly textured frame destroys nearly all gradient energy
    textured = add_gaussian_noise(ref, 30.0, seed=10)
    assert detail_retention(textured, _const(128, ref.height, ref.width)) < 0.5


def _every_difference_pair() -> np.ndarray:
    """768x768 plane whose 3x3 blocks centre every (dx, dy) pair in 0..255."""
    dx, dy = np.meshgrid(np.arange(256), np.arange(256), indexing="ij")
    blocks = np.zeros((256, 256, 3, 3), dtype=np.uint8)
    blocks[:, :, 1, 2] = dx  # right neighbour of the centre; left is 0
    blocks[:, :, 2, 1] = dy  # neighbour below the centre; above is 0
    return blocks.swapaxes(1, 2).reshape(768, 768)


def test_gradient_magnitude_equals_hypot_formula_on_every_difference():
    plane = _every_difference_pair()
    half = np.arange(256) / 2.0
    centres = oracles.gradient_magnitude(plane)[1::3, 1::3]
    assert np.array_equal(centres, np.hypot(half[:, None], half[None, :]))
    # negated and mirrored copies flip the signs of the differences
    for variant in (plane, 255 - plane, plane[:, ::-1], plane[::-1], 255 - plane[::-1, ::-1]):
        got = gradient_magnitude(variant)
        assert got.dtype == np.float64
        assert np.array_equal(got, oracles.gradient_magnitude(variant))


@pytest.mark.parametrize("shape", [(1, 1), (1, 17), (23, 1), (2, 2), (31, 47)])
def test_gradient_magnitude_equals_hypot_formula_on_thin_frames(shape):
    rng = np.random.default_rng(sum(shape))
    plane = rng.integers(0, 256, size=shape, dtype=np.uint8)
    assert np.array_equal(gradient_magnitude(plane), oracles.gradient_magnitude(plane))


def test_detail_retention_matches_oracle(natural_frames):
    ref = natural_frames[2]
    for test in (add_gaussian_noise(ref, 25.0, seed=3), stage_smooth(ref, 40.0),
                 Frame(y=255 - ref.y)):
        assert detail_retention(ref, test) == oracles.detail_retention(ref.y, test.y)
    thin = Frame(y=ref.y[:1, :64].copy())
    assert detail_retention(thin, Frame(y=thin.y[:, ::-1].copy())) == oracles.detail_retention(
        thin.y, thin.y[:, ::-1])


# --- shared input validation -----------------------------------------------------

@pytest.mark.parametrize("metric", [psnr, ssim, ms_ssim, vifp, detail_retention])
def test_metrics_reject_dimension_mismatch(metric):
    with pytest.raises(ValueError):
        metric(_const(0, 64, 64), _const(0, 64, 60))


# --- full-reference scores on the caller and the helper thread -------------------

def _report_frames(natural_frames):
    ref = _crop(natural_frames[1], 120, 160)
    return ref, [add_gaussian_noise(ref, 25.0, seed=4), stage_smooth(ref, 30.0)]


def _halving_inputs(shape, seed):
    """A plane of each dtype VIFp halves or might: uint8, uint16, float32 and float64."""
    rng = np.random.default_rng(seed)
    levels = rng.integers(0, 256, shape)
    fraction = rng.random(shape)
    return [levels.astype(np.uint8), (levels * 257).astype(np.uint16),
            (levels + fraction).astype(np.float32), levels + fraction]


@pytest.mark.parametrize("shape", [(360, 480), (37, 53), (18, 17), (9, 26), (25, 9)])
def test_filter_halve_equals_whole_plane_filter_cropped(shape):
    for plane in _halving_inputs(shape, sum(shape)):
        for taps in metrics._VIF_TAPS[1:]:
            if min(shape) < len(taps):
                continue
            expected = metrics._filter_valid(plane, taps, metrics._Scratch(), "whole")[::2, ::2]
            got = metrics._filter_halve(plane, taps, metrics._Scratch())
            assert got.shape == expected.shape and np.array_equal(got, expected), (plane.dtype, len(taps))


@pytest.mark.parametrize("shape", [(360, 480), (37, 53), (3, 2)])
def test_downsample_equals_float64_two_by_two_means(shape):
    plane = np.random.default_rng(shape[1]).integers(0, 256, shape, dtype=np.uint8)
    expected = plane.astype(np.float64)
    for _ in range(5):  # MS-SSIM's levels, and beyond
        plane, expected = metrics._downsample2(plane), oracles._halve(expected)
        assert plane.dtype == np.float32
        assert np.array_equal(plane.astype(np.float64), expected)


def test_concurrent_full_reference_scores_equal_serial(metric_pairs):
    jobs = [(ref, [test, ref]) for ref, test in metric_pairs[:4]]
    serial = [metrics.full_reference_scores(ref, tests) for ref, tests in jobs]
    results = [None] * len(jobs)

    def score(i):
        results[i] = metrics.full_reference_scores(*jobs[i])

    threads = [threading.Thread(target=score, args=(i,)) for i in range(len(jobs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert results == serial
    helpers = [t for t in threading.enumerate() if t.name.startswith("rtcdenoise-helper")]
    assert len(helpers) <= lanes._HELPERS


@pytest.mark.parametrize("side", [10, 16])
def test_full_reference_scores_name_the_side_they_need(side):
    frame = _const(0, side, side)
    with pytest.raises(ValueError, match=f"at least {metrics.MIN_METRIC_SIDE} pixels"):
        metrics.full_reference_scores(frame, [frame])


def test_report_completes_while_helper_is_busy(natural_frames):
    ref, tests = _report_frames(natural_frames)
    expected = metrics.full_reference_scores(ref, tests)
    results = []
    with helpers_blocked():
        caller = threading.Thread(target=lambda: results.append(
            metrics.full_reference_scores(ref, tests)))
        caller.start()
        caller.join(timeout=10)
        assert not caller.is_alive()
        assert results == [expected]


# traced peak of one build_report on these 480x360 frames when the report
# built whole-frame float64 maps
WHOLE_FRAME_REPORT_PEAK = 15_019_192


def test_build_report_traces_a_third_of_the_whole_frame_peak():
    ref = make_frame(480, 360, seed=3)
    noisy = add_gaussian_noise(ref, 25.0, seed=4)
    denoised = stage_smooth(noisy, 25.0)
    args = (0, ref, noisy, denoised, 25.0, 10.0)
    expected = build_report(*args)  # scipy.ndimage's import and the helper pool
    report, peak = traced_peak(build_report, *args)
    assert report == expected
    assert peak <= WHOLE_FRAME_REPORT_PEAK / 3, f"traced peak {peak} B"


# each piece of a full-reference report, named by the function it calls and
# the first level or scale it scores; the first is the helper's first claim
REPORT_PIECES = ("vifp scales 1", "ms-ssim levels 1", "retention", "psnr", "vifp scales 2",
                 "ms-ssim levels 0")


class _PieceWatch:
    """Wraps each piece of a report: counts the pieces running, and those started after a raise.

    before(piece, on_helper) runs as each piece starts, on its lane.
    """

    def __init__(self, monkeypatch, before):
        self.running = 0
        self.started_after_raise = 0
        self.raised = threading.Event()
        self._lock = threading.Lock()
        self._before = before
        sites = ((metrics, "_psnr", lambda args: "psnr"),
                 (metrics, "_vif_scales", lambda args: f"vifp scales {args[2]}"),
                 (metrics, "_ms_ssim_levels", lambda args: f"ms-ssim levels {args[2]}"),
                 (analyzer, "detail_retention", lambda args: "retention"))
        for module, name, piece in sites:
            monkeypatch.setattr(module, name, self._wrap(getattr(module, name), piece))

    def _wrap(self, fn, piece):
        def watched(*args):
            with self._lock:
                self.running += 1
                self.started_after_raise += self.raised.is_set()
            try:
                on_helper = threading.current_thread().name.startswith("rtcdenoise-helper")
                self._before(piece(args), on_helper)
                return fn(*args)
            finally:
                with self._lock:
                    self.running -= 1
        return watched

    def raises(self, run, match):
        """run() must raise RuntimeError(match) with no piece running then, and none started after."""
        with pytest.raises(RuntimeError, match=match):
            try:
                run()
            finally:
                with self._lock:
                    running_at_raise = self.running
                self.raised.set()
        assert running_at_raise == 0
        time.sleep(0.1)
        assert self.started_after_raise == 0


def test_helper_error_reaches_build_report_caller(natural_frames, monkeypatch):
    ref, (noisy, denoised) = _report_frames(natural_frames)
    # a fault in any piece, wherever it runs: on either lane, all on the
    # caller, or every forked piece on the helper
    for placed in (contextlib.nullcontext, helpers_blocked, helpers_claim_every_fork):
        for failing in REPORT_PIECES:
            def before(piece, on_helper):
                if piece == failing:
                    raise RuntimeError(f"injected fault in {piece}")

            watch = _PieceWatch(monkeypatch, before)
            with placed():
                watch.raises(lambda: build_report(0, ref, noisy, denoised, 25.0, 10.0),
                             f"injected fault in {failing}")
            monkeypatch.undo()


def test_caller_error_leaves_no_helper_task_running(natural_frames, monkeypatch):
    if lanes._HELPER is None:
        pytest.skip("one usable CPU: every piece runs on the caller")
    ref, (noisy, denoised) = _report_frames(natural_frames)
    # the helper's first piece runs until the caller is about to raise, so
    # the caller scores every other piece, and the helper is inside a piece
    # when the caller's piece raises
    for failing in REPORT_PIECES[1:]:
        inside, failed = threading.Event(), threading.Event()

        def before(piece, on_helper):
            if on_helper:
                inside.set()
                assert failed.wait(timeout=10)
                time.sleep(0.05)  # still running as the caller raises
            elif piece == failing:
                assert inside.wait(timeout=10)
                failed.set()
                raise RuntimeError(f"injected fault in {piece}")

        watch = _PieceWatch(monkeypatch, before)
        watch.raises(lambda: build_report(0, ref, noisy, denoised, 25.0, 10.0),
                     f"injected fault in {failing}")
        monkeypatch.undo()
