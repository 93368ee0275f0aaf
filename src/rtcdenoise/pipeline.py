"""Receiver pipeline orchestration: detect, fork, denoise, analyze, feed back.

The receiver works in keyframe cohorts (a keyframe plus the cadence-1 frames
after it). The detector runs once per keyframe; the whole cohort follows its
BYPASS/DENOISE routing. WindowPlan owns the schedule: a cohort's temporal
windows read the frames in WindowPlan.reach (up to two past the cohort end),
and window positions landing on keyframe indices use the keyframe's finished
output (denoised or passed through, whatever its own cohort decided).

The work splits into pure units: a keyframe unit (detect, fork, keyframe
cascade) per keyframe, and a cohort unit per cohort (for each frame, its
temporal window, then its report). One driver loop produces frames, submits
each unit once every frame it reads has arrived, and collects the results in
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
that ends at frame w becomes visible to the sender right after the last frame
w's cohort reads, so the sender applies it at the same frame position in both
execution modes.
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
from .config import _CAPTURE_STREAM, PipelineConfig, fresh_loss_model
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
from .image_denoiser import PASSTHROUGH_SIGMA, CascadeParams, denoise_keyframe, gaussian_kernel
from .rng import NoiseRng
from .video_denoiser import (
    _LAYER_SHAPES,
    _SPATIAL_PARAMS,
    BlockMode,
    FrameRole,
    WindowPlan,
    denoise_window,
)

# Modeled per-pixel work costs (nanoseconds) for the deterministic runtime
# carried by reports; see the module docstring.
_NS_DETECT = 15.0
_NS_MEDIAN = 30.0
_NS_BILATERAL_TAP = 2.0
_NS_GAUSSIAN_TAP = 1.0
_NS_FUSE = 10.0
_NS_TEMPORAL_BLOCK = 8.0
_NS_CONV_MAC = 1.0
_CONV_MACS_PER_PX = sum(in_ch * out_ch * 9 for in_ch, out_ch in _LAYER_SHAPES)  # 3x3 kernels


def _bilateral_taps(params: CascadeParams) -> int:
    return (2 * params.window_radius + 1) ** 2


def _virtual_image_ms(pixels: int, sigma_work: float, config: PipelineConfig) -> float:
    cascade = config.cascade
    per_px = (
        _bilateral_taps(cascade) * _NS_BILATERAL_TAP
        + 2 * len(gaussian_kernel(cascade.gaussian_sigma(sigma_work))) * _NS_GAUSSIAN_TAP
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
            per_px += _bilateral_taps(_SPATIAL_PARAMS) * _NS_BILATERAL_TAP
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
    output: Frame
    report: AnalyzerReport
    video_ms: Optional[float]  # measured, temporal DENOISE frames only
    span_ms: float             # measured window span (keyframe span on keyframes)
    report_ms: float           # measured report span


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


def _report(t: int, received: Frame, output: Frame, virtual_ms: float,
            record: _KeyframeRecord, reference: Optional[VideoSequence],
            config: PipelineConfig) -> AnalyzerReport:
    """Report unit: full-reference when a reference frame exists, else no-reference."""
    sigma = record.decision.estimate.sigma
    if reference is not None:
        return build_report(
            frame_index=t,
            reference=reference[t],
            noisy=received,
            denoised=output,
            sigma=sigma,
            runtime_ms=virtual_ms,
            budget_ms=config.budget_ms,
            weights=config.analyzer_weights,
        )
    if record.decision.route is Route.DENOISE:
        sigma_after, runtime_ms = estimate_sigma(output), virtual_ms
    else:
        # bypass: no work performed, so neither a sigma drop nor a runtime is claimed
        sigma_after, runtime_ms = sigma, 0.0
    return build_report_noref(
        frame_index=t,
        noisy=received,
        denoised=output,
        sigma_before=sigma,
        sigma_after=sigma_after,
        runtime_ms=runtime_ms,
        budget_ms=config.budget_ms,
        weights=config.analyzer_weights,
    )


def _cohort(
    start: int,
    frames: Sequence[Frame],
    keyframes: Dict[int, Future],
    plan: WindowPlan,
    config: PipelineConfig,
    reference: Optional[VideoSequence],
) -> Tuple[_KeyframeRecord, List[_Emitted]]:
    """Cohort unit: per frame of the cohort, its temporal window, then its report.

    frames holds the received frames over plan.reach(start). keyframes maps
    every keyframe index the windows reach to its keyframe unit's future.
    """
    record = keyframes[start].result()
    denoise = record.decision.route is Route.DENOISE
    first = plan.reach(start).start

    def window_source(idx: int) -> Frame:
        future = keyframes.get(idx)
        return future.result().output if future is not None else frames[idx - first]

    blocks: dict = {}  # first-level temporal blocks shared by the cohort's windows
    emitted: List[_Emitted] = []
    for t in plan.cohort(start):
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
        t1 = time.perf_counter()
        report = _report(t, received, output, virtual, record, reference, config)
        span_ms = (t1 - t0) * 1e3
        if t == start:
            span_ms += record.span_ms
        emitted.append(_Emitted(output, report, video_ms, span_ms,
                                (time.perf_counter() - t1) * 1e3))
    return record, emitted


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
        updated = sender_step(self.config, message.recommendation)
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
) -> Tuple[List[Frame], List[Frame], List[AnalyzerReport], List[FeedbackMessage], PipelineStats]:
    """Drive the keyframe and cohort units over n frames; collect in order.

    Returns the received frames, the output frames, the reports, the feedback
    log, and the run's stats.

    With a reference, every feedback window's reports make a message;
    on_feedback, when given, is invoked with (message, apply_index) at the
    plan-derived apply point, before frame apply_index is produced.
    """
    plan = WindowPlan(n, config.cadence)
    window = config.feedback_window
    policy = FeedbackPolicy(sigma_threshold=config.threshold, budget_ms=config.budget_ms)
    # each feedback message applies right after the last frame read by the
    # cohort that holds its window's final frame
    apply_points = [plan.reach(plan.last_keyframe_at_or_before(w)).stop
                    for w in range(window - 1, n, window)] if on_feedback and window > 0 else []

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
        record, emitted = cohorts.popleft().result()
        detect_ms.append(record.detect_ms)
        if record.image_ms is not None:
            image_ms.append(record.image_ms)
        if record.decision.route is Route.DENOISE:
            denoised += len(emitted)
        for item in emitted:
            outputs.append(item.output)
            reports.append(item.report)
            if item.video_ms is not None:
                video_ms.append(item.video_ms)
            analyze_ms.append(item.report_ms)
            latency_ms.append(item.span_ms + item.report_ms)  # keyframe + window + report
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
            while next_cohort < n and t + 1 >= plan.reach(next_cohort).stop:
                reach = plan.reach(next_cohort)
                cohorts.append(submit(_cohort, next_cohort, received[reach.start:reach.stop],
                                      {k: keyframes[k] for k in reach if k in keyframes},
                                      plan, config, reference))
                next_cohort = plan.cohort(next_cohort).stop
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
    return received, outputs, reports, feedback_log, stats


def run_denoise(
    video: VideoSequence,
    config: PipelineConfig = PipelineConfig(),
) -> Tuple[VideoSequence, List[AnalyzerReport], PipelineStats]:
    """Receiver-only pipeline: detect, fork, denoise. Reports are no-reference."""
    if len(video) == 0:
        raise ValueError("input sequence is empty")
    _, outputs, reports, _, stats = _execute(
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
    received, outputs, reports, feedback_log, stats = _execute(
        config=config,
        n=len(clean),
        produce=sender.produce,
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
