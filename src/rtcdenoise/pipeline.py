"""Receiver pipeline orchestration: detect, fork, denoise, analyze, feed back.

The receiver works in keyframe cohorts (a keyframe plus the cadence-1 frames
after it). The detector runs once per keyframe; the whole cohort follows its
BYPASS/DENOISE routing. A cohort's temporal windows may reach two frames past
the cohort end, so a cohort completes only once received index
min(cohort_end + 2, n - 1) has arrived; window positions landing on keyframe
indices use the keyframe's finished output (denoised or passed through,
whatever its own cohort decided).

The work splits into pure units: a keyframe unit (detect, fork, keyframe
cascade) per keyframe, and a cohort unit (the cohort's temporal windows, then
one report per frame) per cohort. One driver loop produces frames, submits
each unit as soon as its inputs have arrived, and collects the results in
order. The execution mode only decides how a unit runs: `sequential` runs it
inline, `threaded` on a thread pool sized to the CPUs the process may use.
Either way the units do the exact same arithmetic, so both modes produce
bit-identical videos, reports, and feedback logs, and an exception raised in
a unit reaches the caller.

Determinism versus timing: reports and the feedback policy carry a *modeled*
runtime (a fixed cost in nanoseconds per pixel per unit of work, calibrated
once against a desktop core), because measured wall time can never be
bit-identical across runs or execution modes. Bypassed frames report zero
runtime and zero sigma delta by definition: no work was performed. Measured
wall-clock latencies are reported separately in PipelineStats, which carries
no cross-run determinism promise.

Feedback timing is likewise plan-derived: the message aggregating the window
that ends at frame w becomes visible to the sender right after the received
index that completes w's cohort, so the sender applies it at the same frame
position in both execution modes.
"""

from __future__ import annotations

import os
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .analyzer import (
    AnalyzerReport,
    FeedbackMessage,
    FeedbackPolicy,
    build_report,
    build_report_noref,
    make_feedback,
)
from .channel import SenderConfig, add_gaussian_noise, encode_decode, sender_step, transmit
from .config import PipelineConfig, fresh_loss_model
from .detector import (
    ForkDecision,
    NoiseCategory,
    Route,
    analyze_frame,
    estimate_sigma,
    fork_decision,
    median_filter_3x3,
)
from .frame import Frame, VideoSequence
from .image_denoiser import PASSTHROUGH_SIGMA, denoise_keyframe
from .rng import NoiseRng
from .video_denoiser import BlockMode, FrameRole, WindowPlan, denoise_window, schedule_windows

_CAPTURE_STREAM = 1  # rng substream tags under the pipeline seed
_LOSS_STREAM = 2

# Modeled per-pixel work costs (nanoseconds) for the deterministic runtime
# carried by reports; see the module docstring.
_NS_DETECT = 15.0
_NS_MEDIAN = 30.0
_NS_BILATERAL_TAP = 2.0
_NS_GAUSSIAN_TAP = 1.0
_NS_FUSE = 10.0
_NS_TEMPORAL_BLOCK = 8.0
_NS_CONV_MAC = 1.0
_CONV_MACS_PER_PX = 4 * 16 * 9 + 16 * 16 * 9 + 16 * 1 * 9


def _virtual_image_ms(pixels: int, sigma_work: float, config: PipelineConfig) -> float:
    cascade = config.cascade
    taps = 2 * max(1, int(3.0 * cascade.gaussian_sigma(sigma_work) + 0.999)) + 1
    per_px = (
        (2 * cascade.window_radius + 1) ** 2 * _NS_BILATERAL_TAP
        + 2 * taps * _NS_GAUSSIAN_TAP
        + _NS_FUSE
    )
    return pixels * per_px * 1e-6


def _virtual_window_ms(pixels: int, sigma: float, config: PipelineConfig) -> float:
    block = config.block
    if block.mode is BlockMode.CONV:
        per_px = _CONV_MACS_PER_PX * _NS_CONV_MAC
    else:
        per_px = _NS_TEMPORAL_BLOCK
        if block.spatial_enabled and sigma >= PASSTHROUGH_SIGMA:
            per_px += 9 * _NS_BILATERAL_TAP
    return 4 * pixels * per_px * 1e-6


@dataclass(frozen=True)
class PipelineStats:
    """Measured accounting for one run; no cross-run determinism promise."""

    frame_count: int
    frames_bypassed: int
    frames_denoised: int
    detect_ms: tuple
    image_denoise_ms: tuple
    video_denoise_ms: tuple
    analyze_ms: tuple
    mean_latency_ms: float
    p95_latency_ms: float
    achieved_fps: float
    wall_ms: float

    def to_json_dict(self) -> dict:
        return {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(self).items()}


@dataclass(frozen=True)
class SenderTraceEntry:
    frame_index: int
    q: int
    resolution_scale: Fraction
    framerate_divisor: int

    def to_json_dict(self) -> dict:
        return {
            "frame_index": self.frame_index,
            "q": self.q,
            "resolution_scale": float(self.resolution_scale),
            "framerate_divisor": self.framerate_divisor,
        }


class SimulationResult(NamedTuple):
    received: VideoSequence
    denoised: VideoSequence
    reports: List[AnalyzerReport]
    feedback_log: List[FeedbackMessage]
    sender_trace: List[SenderTraceEntry]
    stats: PipelineStats


@dataclass(frozen=True)
class _KeyframeRecord:
    decision: ForkDecision
    sigma_work: float        # post-prefilter sigma driving the filters
    output: Frame
    detect_ms: float         # measured
    image_ms: Optional[float]
    virtual_ms: float        # modeled runtime for the report
    span_ms: float           # measured wall time of the whole keyframe unit


@dataclass(frozen=True)
class _Emitted:
    index: int
    received: Frame
    output: Frame
    virtual_ms: float
    video_ms: Optional[float]  # measured, temporal DENOISE frames only
    span_ms: float             # measured window span (keyframe span on keyframes)


def _cohort_end(start: int, cadence: int, n: int) -> int:
    return min(start + cadence, n) - 1


def _cohort_ready_at(start: int, cadence: int, n: int) -> int:
    return min(_cohort_end(start, cadence, n) + 2, n - 1)


def _feedback_apply_points(n: int, cadence: int, window: int) -> List[int]:
    """Sender frame index at which each feedback window's message applies."""
    if window <= 0:
        return []
    points = []
    for w_end in range(window - 1, n, window):
        cohort_start = (w_end // cadence) * cadence
        points.append(_cohort_ready_at(cohort_start, cadence, n) + 1)
    return points


def _keyframe(frame: Frame, config: PipelineConfig) -> _KeyframeRecord:
    """Keyframe unit: detect noise, fork, and (on DENOISE) run the cascade."""
    t0 = time.perf_counter()
    estimate = analyze_frame(frame)
    work = frame
    sigma_work = estimate.sigma
    prefiltered = estimate.category is NoiseCategory.SALT_PEPPER
    if prefiltered:
        work = median_filter_3x3(frame)
        sigma_work = estimate_sigma(work)
    decision = fork_decision(estimate, config.threshold)
    t1 = time.perf_counter()

    pixels = frame.width * frame.height
    virtual = pixels * _NS_DETECT * 1e-6
    if prefiltered:
        virtual += pixels * _NS_MEDIAN * 1e-6
    image_ms = None
    if decision.route is Route.DENOISE:
        output = denoise_keyframe(work, sigma_work, config.cascade)
        image_ms = (time.perf_counter() - t1) * 1e3
        if sigma_work >= PASSTHROUGH_SIGMA:
            virtual += _virtual_image_ms(pixels, sigma_work, config)
    else:
        output = frame  # bypass: bit-identical passthrough
    return _KeyframeRecord(
        decision=decision,
        sigma_work=sigma_work,
        output=output,
        detect_ms=(t1 - t0) * 1e3,
        image_ms=image_ms,
        virtual_ms=virtual,
        span_ms=(time.perf_counter() - t0) * 1e3,
    )


def _report(item: _Emitted, record: _KeyframeRecord, reference: Optional[Frame],
            config: PipelineConfig) -> AnalyzerReport:
    """Report unit: full-reference when a reference frame exists, else no-reference."""
    if reference is not None:
        return build_report(
            frame_index=item.index,
            reference=reference,
            noisy=item.received,
            denoised=item.output,
            sigma=record.decision.estimate.sigma,
            runtime_ms=item.virtual_ms,
            budget_ms=config.budget_ms,
            weights=config.analyzer_weights,
        )
    if record.decision.route is Route.DENOISE:
        return build_report_noref(
            frame_index=item.index,
            noisy=item.received,
            denoised=item.output,
            sigma_before=record.decision.estimate.sigma,
            sigma_after=estimate_sigma(item.output),
            runtime_ms=item.virtual_ms,
            budget_ms=config.budget_ms,
            weights=config.analyzer_weights,
        )
    # bypass: no work performed, so no improvement is claimed; the values
    # below are what build_report_noref would compute for an untouched
    # frame, skipping the redundant metric evaluation
    return AnalyzerReport(
        frame_index=item.index,
        reference_mode="noref",
        psnr_noisy=None, psnr_denoised=None,
        ssim_noisy=None, ssim_denoised=None,
        ms_ssim_noisy=None, ms_ssim_denoised=None,
        vifp_noisy=None, vifp_denoised=None,
        detail_retention=1.0,
        delta_psnr=None, delta_ssim=None, delta_sigma=0.0,
        sigma=record.decision.estimate.sigma,
        runtime_ms=0.0,
        score=0.0,
    )


def _cohort(
    start: int,
    frames: Sequence[Frame],
    first: int,
    keyframes: Dict[int, Future],
    plan: WindowPlan,
    config: PipelineConfig,
    reference: Optional[VideoSequence],
) -> Tuple[_KeyframeRecord, List[Tuple[_Emitted, AnalyzerReport, float]]]:
    """Cohort unit: the cohort's temporal windows, then one report per frame.

    frames holds the received frames from index first on, through the frame
    that completes the cohort. keyframes maps every keyframe index the
    windows reach to its keyframe unit's future. Each frame comes back with
    its report and the measured report span.
    """
    record = keyframes[start].result()
    denoise = record.decision.route is Route.DENOISE

    def window_source(idx: int) -> Frame:
        future = keyframes.get(idx)
        return future.result().output if future is not None else frames[idx - first]

    blocks: dict = {}  # first-level temporal blocks shared by the cohort's windows
    emitted: List[_Emitted] = []
    for t in range(start, _cohort_end(start, plan.cadence, plan.n_frames) + 1):
        t0 = time.perf_counter()
        received = frames[t - first]
        video_ms = None
        if t == start:
            output, virtual = record.output, record.virtual_ms
        elif denoise:
            window = [window_source(i) for i in plan.window(t)]
            v0 = time.perf_counter()
            output = denoise_window(window, record.sigma_work, config.block, blocks)
            video_ms = (time.perf_counter() - v0) * 1e3
            virtual = _virtual_window_ms(received.width * received.height,
                                         record.sigma_work, config)
        else:
            output, virtual = received, 0.0
        span_ms = (time.perf_counter() - t0) * 1e3
        if t == start:
            span_ms += record.span_ms
        emitted.append(_Emitted(t, received, output, virtual, video_ms, span_ms))

    results = []
    for item in emitted:
        t0 = time.perf_counter()
        report = _report(item, record, None if reference is None else reference[item.index],
                         config)
        results.append((item, report, (time.perf_counter() - t0) * 1e3))
    return record, results


def _run_inline(unit: Callable, *args) -> Future:
    future: Future = Future()
    future.set_result(unit(*args))
    return future


@contextmanager
def _unit_runner(execution: str) -> Iterator[Callable[..., Future]]:
    """Yield submit(unit, *args) -> Future for the execution mode.

    The pool runs units in submission order, and a unit waits only on units
    submitted before it, so the waits cannot deadlock.
    """
    if execution == "sequential":
        yield _run_inline
        return
    # one worker per usable CPU: more workers only contend for the same cores
    workers = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    pool = ThreadPoolExecutor(max_workers=workers or 1)
    try:
        yield pool.submit
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


class _Sender:
    """Simulated sender: capture noise, codec, channel, feedback application."""

    def __init__(self, clean: VideoSequence, config: PipelineConfig):
        self._clean = clean
        self._capture = NoiseRng(config.seed).derive(_CAPTURE_STREAM)
        self._noise_sigma = config.sender.noise_sigma
        self.config: SenderConfig = config.sender
        self.loss = fresh_loss_model(config)
        self._next_encode_at = 0
        self._prev: Optional[Frame] = None
        self.trace: List[SenderTraceEntry] = [self._entry(0)]

    def _entry(self, index: int) -> SenderTraceEntry:
        return SenderTraceEntry(
            frame_index=index,
            q=self.config.q,
            resolution_scale=self.config.resolution_scale,
            framerate_divisor=self.config.framerate_divisor,
        )

    def apply(self, message: FeedbackMessage, at_index: int) -> None:
        updated = sender_step(self.config, message)
        if updated != self.config:
            self.config = updated
            self.trace.append(self._entry(at_index))

    def produce(self, index: int) -> Frame:
        if index >= self._next_encode_at:
            frame = self._clean[index]
            if self._noise_sigma > 0:
                seed = int(self._capture.derive(index).seed)
                frame = add_gaussian_noise(frame, self._noise_sigma, seed=seed)
            encoded = encode_decode(frame, self.config)
            received, _ = transmit(encoded, self._prev, self.loss)
            self._next_encode_at = index + self.config.framerate_divisor
        else:
            received = self._prev  # frame dropped by the sender; repeat last
        self._prev = received
        return received


def _execute(
    config: PipelineConfig,
    n: int,
    produce: Callable[[int], Frame],
    reference: Optional[VideoSequence],
    on_feedback: Optional[Callable[[FeedbackMessage, int], None]],
) -> Tuple[List[Frame], List[AnalyzerReport], List[FeedbackMessage], PipelineStats]:
    """Drive the keyframe and cohort units over n frames; collect in order.

    With a reference, every feedback window's reports make a message;
    on_feedback, when given, is invoked with (message, apply_index) at the
    plan-derived apply point, before frame apply_index is produced.
    """
    cadence = config.cadence
    plan = schedule_windows(n, cadence)
    window = config.feedback_window
    policy = FeedbackPolicy(
        sigma_threshold=config.threshold, budget_ms=config.budget_ms, window=max(window, 1)
    )
    apply_points = _feedback_apply_points(n, cadence, window) if on_feedback else []

    received: List[Frame] = []
    keyframes: Dict[int, Future] = {}
    cohorts: deque = deque()  # cohort futures, in cohort order
    outputs: List[Frame] = []
    reports: List[AnalyzerReport] = []
    feedback_log: List[FeedbackMessage] = []
    latency_ms: List[float] = []
    detect_ms: List[float] = []
    image_ms: List[float] = []
    video_ms: List[float] = []
    analyze_ms: List[float] = []
    denoised = 0

    def collect() -> None:
        nonlocal denoised
        record, results = cohorts.popleft().result()
        detect_ms.append(record.detect_ms)
        if record.image_ms is not None:
            image_ms.append(record.image_ms)
        if record.decision.route is Route.DENOISE:
            denoised += len(results)
        for item, report, report_ms in results:
            outputs.append(item.output)
            reports.append(report)
            if item.video_ms is not None:
                video_ms.append(item.video_ms)
            analyze_ms.append(report_ms)
            latency_ms.append(item.span_ms + report_ms)  # keyframe + window + report
            if window > 0 and reference is not None and len(reports) % window == 0:
                feedback_log.append(make_feedback(reports[-window:], policy))

    wall_start = time.perf_counter()
    with _unit_runner(config.execution) as submit:
        next_cohort = applied = 0
        for t in range(n):
            while applied < len(apply_points) and apply_points[applied] <= t:
                while len(feedback_log) <= applied:
                    collect()
                on_feedback(feedback_log[applied], t)
                applied += 1
            frame = produce(t)
            received.append(frame)
            if plan.role(t) is FrameRole.KEYFRAME:
                keyframes[t] = submit(_keyframe, frame, config)
            while next_cohort < n and t >= _cohort_ready_at(next_cohort, cadence, n):
                first = max(next_cohort - 1, 0)  # the first window reaches one frame back
                reach = {k: keyframes[k] for k in range(next_cohort, t + 1, cadence)}
                cohorts.append(submit(_cohort, next_cohort, received[first:t + 1], first,
                                      reach, plan, config, reference))
                next_cohort += cadence
        while cohorts:
            collect()
    wall_ms = (time.perf_counter() - wall_start) * 1e3

    ordered = sorted(latency_ms)
    stats = PipelineStats(
        frame_count=n,
        frames_bypassed=n - denoised,
        frames_denoised=denoised,
        detect_ms=tuple(detect_ms),
        image_denoise_ms=tuple(image_ms),
        video_denoise_ms=tuple(video_ms),
        analyze_ms=tuple(analyze_ms),
        mean_latency_ms=sum(ordered) / n,
        p95_latency_ms=ordered[max(0, -(-n * 95 // 100) - 1)],
        achieved_fps=n / (wall_ms / 1e3) if wall_ms > 0 else 0.0,
        wall_ms=wall_ms,
    )
    return outputs, reports, feedback_log, stats


def run_denoise(
    video: VideoSequence,
    config: PipelineConfig = PipelineConfig(),
) -> Tuple[VideoSequence, List[AnalyzerReport], PipelineStats]:
    """Receiver-only pipeline: detect, fork, denoise. Reports are no-reference."""
    if len(video) == 0:
        raise ValueError("input sequence is empty")
    outputs, reports, _, stats = _execute(
        config=config,
        n=len(video),
        produce=lambda t: video[t],
        reference=None,
        on_feedback=None,
    )
    return video.replace_frames(outputs), reports, stats


def run_simulate(
    clean: VideoSequence,
    config: PipelineConfig = PipelineConfig(),
) -> SimulationResult:
    """Closed loop: sender/codec/channel, receiver pipeline, analyzer feedback."""
    if len(clean) == 0:
        raise ValueError("input sequence is empty")
    sender = _Sender(clean, config)
    received: List[Frame] = []

    def produce(t: int) -> Frame:
        frame = sender.produce(t)
        received.append(frame)
        return frame

    outputs, reports, feedback_log, stats = _execute(
        config=config,
        n=len(clean),
        produce=produce,
        reference=clean,
        on_feedback=sender.apply,
    )
    return SimulationResult(
        received=clean.replace_frames(received),
        denoised=clean.replace_frames(outputs),
        reports=reports,
        feedback_log=feedback_log,
        sender_trace=sender.trace,
        stats=stats,
    )
