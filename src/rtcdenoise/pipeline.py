"""Receiver pipeline orchestration: detect, fork, denoise, analyze, feed back.

The receiver works in keyframe cohorts (a keyframe plus the cadence-1 frames
after it). The detector runs once per keyframe; the whole cohort follows its
BYPASS/DENOISE routing. WindowPlan owns the schedule: a cohort's temporal
windows read the frames in WindowPlan.reach (up to two past the cohort end),
and window positions landing on keyframe indices use the keyframe's finished
output (denoised or passed through, whatever its own cohort decided).

The work splits into pure units: a keyframe unit (detect, fork, keyframe
cascade) per keyframe, and a cohort unit per cohort (for each frame, its
temporal window, then its report). One driver loop reads each frame, beside
its reference, forward once; it runs each unit on the calling thread once
every frame it reads has arrived, and hands each frame on in order once its
cohort and the reports that trail it are done, so a run holds O(cadence)
frames however long the clip (see _execute). A unit forks work to the helper
lane (lanes.Fork): a no-reference cohort forks its first-level temporal
blocks when it starts, and each temporal frame's report as a background fork
that trails the frame until the driver collects the cohort (see _cohort).
Whichever lane runs a fork does the exact same arithmetic, so videos,
reports, and feedback logs are bit-identical however the forks fall, and an
exception raised in a unit or a fork reaches the caller.

Determinism versus timing: reports and the feedback policy carry a *modeled*
runtime (a fixed cost in nanoseconds per pixel per unit of work, calibrated
once against a desktop core), because measured wall time can never be
bit-identical across runs. Bypassed frames report zero runtime and zero
sigma delta by definition: no work was performed. Measured wall-clock
latencies are reported separately in PipelineStats, which carries no
cross-run determinism promise.

The simulated sender (_Sender) owns its run state and derives both of its
random streams, capture noise and slice loss, from [pipeline] seed.

Feedback timing is likewise plan-derived: the message aggregating the window
that ends at frame w becomes visible to the sender right after the last frame
w's cohort reads, so the sender applies it at the same frame position however
the work is placed on the lanes.
"""

from __future__ import annotations

import itertools
import sys
import time
from collections import deque
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

from .analyzer import (
    AnalyzerReport,
    FeedbackMessage,
    build_report,
    build_report_noref,
    make_feedback,
)
from .channel import LossState, SenderConfig, add_gaussian_noise, encode_decode, sender_step, transmit
from .config import PipelineConfig
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
from .lanes import Fork
from .rng import NoiseRng
from .video_denoiser import (
    _LAYER_SHAPES,
    _SPATIAL_PARAMS,
    BlockMode,
    FrameRole,
    WindowPlan,
    denoise_window,
    fork_blocks,
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
    """Measured accounting for one run; no cross-run determinism promise.

    A frame's latency span is the wall time to get its output (for a keyframe,
    its unit's too) plus its report's; work a helper did ahead makes it shorter.
    """

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


class SimulationResult(NamedTuple):
    received: Optional[VideoSequence]  # these three are None for a run with a sink
    denoised: Optional[VideoSequence]
    reports: Optional[List[AnalyzerReport]]
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
    received: Frame
    output: Frame
    report: Union[Tuple[AnalyzerReport, float], Fork]  # _report's value, or a Fork trailing the frame
    video_ms: Optional[float]  # measured, temporal DENOISE frames only
    span_ms: float             # measured window span (keyframe span on keyframes)


def _trailing(emitted: List[_Emitted]) -> List[Fork]:
    """The report forks that trail a cohort's frames."""
    return [item.report for item in emitted if isinstance(item.report, Fork)]


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
            record: _KeyframeRecord, reference: Optional[Frame],
            config: PipelineConfig) -> Tuple[AnalyzerReport, float]:
    """Report unit and the ms it took: full-reference with a reference frame, else no-reference."""
    t0 = time.perf_counter()
    sigma = record.decision.estimate.sigma
    if reference is not None:
        report = build_report(
            frame_index=t,
            reference=reference,
            noisy=received,
            denoised=output,
            sigma=sigma,
            runtime_ms=virtual_ms,
            budget_ms=config.budget_ms,
            weights=config.analyzer_weights,
        )
    else:
        if record.decision.route is Route.DENOISE:
            sigma_after, runtime_ms = estimate_sigma(output), virtual_ms
        else:
            # bypass: no work performed, so neither a sigma drop nor a runtime is claimed
            sigma_after, runtime_ms = sigma, 0.0
        report = build_report_noref(
            frame_index=t,
            noisy=received,
            denoised=output,
            sigma_before=sigma,
            sigma_after=sigma_after,
            runtime_ms=runtime_ms,
            budget_ms=config.budget_ms,
            weights=config.analyzer_weights,
        )
    return report, (time.perf_counter() - t0) * 1e3


def _cohort(
    start: int,
    pairs: Sequence[Tuple[Frame, Optional[Frame]]],
    keyframes: Dict[int, _KeyframeRecord],
    plan: WindowPlan,
    config: PipelineConfig,
) -> Tuple[_KeyframeRecord, List[_Emitted]]:
    """Cohort unit: per frame of the cohort, its temporal window, then its report.

    pairs holds the (received, reference) frames over plan.reach(start);
    keyframes maps every keyframe index the windows reach to its record.

    A no-reference DENOISE cohort forks (lanes.Fork) each distinct
    first-level block of its windows once, when it starts; each
    window then joins its blocks and runs its second-level block in frame
    order. Each temporal frame's report is then a background fork, made once
    its window is done, which the helper takes only when no block waits: the
    reports trail their frames, and the driver joins them when it collects
    the cohort (see _execute). The keyframe's own report, on the latency
    path of the cohort's first frame, runs here. A full-reference report
    keeps both lanes busy, so those windows and reports run in order. With
    no helper lane, every fork runs when it is joined.
    """
    record = keyframes[start]
    denoise = record.decision.route is Route.DENOISE
    first = plan.reach(start).start
    sigma, params = record.sigma_work, config.block
    forking = denoise and pairs[0][1] is None

    def window(t: int) -> List[Frame]:
        """Window t's frames; a position on a keyframe reads the keyframe's output."""
        return [keyframes[i].output if i in keyframes else pairs[i - first][0]
                for i in plan.window(t)]

    blocks: dict = {}  # first-level block forks shared by the cohort's windows
    emitted: List[_Emitted] = []
    try:
        if forking:
            for t in plan.cohort(start)[1:]:
                fork_blocks(window(t), sigma, params, blocks)
        for t in plan.cohort(start):
            t0 = time.perf_counter()
            received, reference = pairs[t - first]
            video_ms = None
            if t == start:
                output, virtual = record.output, record.virtual_ms
            elif denoise:
                v0 = time.perf_counter()
                output = denoise_window(window(t), sigma, params, blocks)
                video_ms = (time.perf_counter() - v0) * 1e3
                virtual = _virtual_window_ms(received.width * received.height, sigma, config)
            else:
                output, virtual = received, 0.0
            span_ms = (time.perf_counter() - t0) * 1e3
            if t == start:
                span_ms += record.span_ms
            task = (t, received, output, virtual, record, reference, config)
            report = (Fork(_report, *task, background=True) if forking and t != start
                      else _report(*task))
            emitted.append(_Emitted(received, output, report, video_ms, span_ms))
    except BaseException:
        for fork in _trailing(emitted):
            fork.cancel()
        raise
    finally:
        for fork in blocks.values():
            fork.cancel()
    return record, emitted


class _Sender:
    """Simulated sender and its run state: capture noise, codec, channel, feedback application."""

    def __init__(self, config: PipelineConfig):
        root = NoiseRng(config.seed)  # [loss] seed picks the loss process's substream
        self._capture = root.derive(1)
        self.config: SenderConfig = config.sender
        self.loss = config.loss
        self.loss_state = LossState(root.derive(2).derive(config.loss.seed))
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

    def produce(self, index: int, clean: Frame) -> Tuple[Frame, Frame]:
        """(received, clean): frame index as the receiver gets it, and its reference."""
        if index >= self._next_encode_at:
            frame = clean
            if self.config.noise_sigma > 0:
                seed = int(self._capture.derive(index).seed)
                frame = add_gaussian_noise(frame, self.config.noise_sigma, seed=seed)
            encoded = encode_decode(frame, self.config)
            received, _ = transmit(encoded, self._prev, self.loss, self.loss_state)
            self._next_encode_at = index + self.config.framerate_divisor
        else:
            received = self._prev  # frame dropped by the sender; repeat last
        self._prev = received
        return received, clean


def _execute(
    config: PipelineConfig,
    pairs: Iterable[Tuple[Frame, Optional[Frame]]],
    emit: Callable[[Frame, Frame, AnalyzerReport], None],
    on_feedback: Optional[Callable[[FeedbackMessage, int], None]],
) -> Tuple[List[FeedbackMessage], PipelineStats]:
    """Drive the keyframe and cohort units over pairs, read forward once, streaming.

    pairs yields (received, reference) frames, reference None for a
    no-reference report. The plan has no end until pairs runs out after n
    frames. A cohort runs once the last frame it reads has arrived, so until
    then none of its windows reaches the clip end; the rest run under
    WindowPlan(n).

    Each frame goes to emit(received, output, report) in frame order when its
    cohort is collected, which joins the reports that trail its frames. A
    cohort is collected before the next one runs, so its reports trail it
    through the next keyframe unit and no further; at the source's end; or
    between frames once its reports are done. A pair and a keyframe record
    are dropped once the last cohort that reads them has run, so the driver
    holds O(cadence) frames whatever n is. A run that raises leaves no report
    running. Returns the feedback log and the run's stats.

    With on_feedback, every feedback window's reports make a message, and
    on_feedback(message, apply_index) is invoked at the plan-derived apply
    point, before frame apply_index is read, so also at a point equal to n.
    """
    unbounded = plan = WindowPlan(sys.maxsize, config.cadence)
    window = config.feedback_window if on_feedback else 0

    # feedback message k applies right after the last frame read by the
    # cohort that holds its window's final frame
    def apply_point(k: int) -> int:
        return unbounded.reach(unbounded.last_keyframe_at_or_before((k + 1) * window - 1)).stop

    arrived: Dict[int, Tuple[Frame, Optional[Frame]]] = {}
    keyframes: Dict[int, _KeyframeRecord] = {}
    pending: Optional[Tuple[_KeyframeRecord, List[_Emitted]]] = None  # the cohort not yet collected
    recent: deque = deque(maxlen=max(window, 1))  # the current feedback window's reports
    feedback_log: List[FeedbackMessage] = []
    latency_ms: List[float] = []
    detect_ms: List[float] = []
    image_ms: List[float] = []
    video_ms: List[float] = []
    analyze_ms: List[float] = []
    denoised = 0

    def collect() -> None:
        nonlocal denoised, pending
        record, emitted = pending
        # a report that raises leaves the cohort pending, and the run cancels its other reports
        reports = [item.report.join() if isinstance(item.report, Fork) else item.report
                   for item in emitted]
        pending = None
        detect_ms.append(record.detect_ms)
        if record.image_ms is not None:
            image_ms.append(record.image_ms)
        if record.decision.route is Route.DENOISE:
            denoised += len(emitted)
        for item, (report, report_ms) in zip(emitted, reports):
            emit(item.received, item.output, report)
            recent.append(report)
            if item.video_ms is not None:
                video_ms.append(item.video_ms)
            analyze_ms.append(report_ms)
            latency_ms.append(item.span_ms + report_ms)  # keyframe + window + report
            if window and len(latency_ms) % window == 0:
                feedback_log.append(make_feedback(list(recent), config.threshold, config.budget_ms))

    wall_start = time.perf_counter()
    try:
        next_cohort = applied = 0
        source = iter(pairs)
        for t in itertools.count():
            while window and apply_point(applied) <= t:
                if len(feedback_log) <= applied:
                    collect()
                on_feedback(feedback_log[applied], t)
                applied += 1
            pair = next(source, None)
            if pair is None:  # the source has ended after t frames
                if t == 0:
                    raise ValueError("input sequence is empty")
                plan = WindowPlan(t, config.cadence)
            else:
                arrived[t] = pair
                if plan.role(t) is FrameRole.KEYFRAME:
                    keyframes[t] = _keyframe(pair[0], config)
            while next_cohort < plan.n_frames and t + 1 >= plan.reach(next_cohort).stop:
                if pending is not None:
                    collect()
                reach = plan.reach(next_cohort)
                pending = _cohort(next_cohort, [arrived[i] for i in reach],
                                  {k: keyframes[k] for k in reach if k in keyframes}, plan, config)
                next_cohort = plan.cohort(next_cohort).stop
                # no later cohort reads below the next one's reach
                for i in range(reach.start, next_cohort - 1):
                    del arrived[i]
                    keyframes.pop(i, None)
            # after every frame: a source that blocks must not hold back a
            # cohort whose reports finished meanwhile until the next one runs
            if pending is not None and all(fork.done() for fork in _trailing(pending[1])):
                collect()
            if pair is None:
                break
        if pending is not None:
            collect()
    finally:
        if pending is not None:  # a raise left the reports that trail it running
            for fork in _trailing(pending[1]):
                fork.cancel()
    n = plan.n_frames
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
    return feedback_log, stats


def run_denoise(
    video: Iterable[Frame],
    config: PipelineConfig = PipelineConfig(),
    sink: Optional[Callable[[Frame, AnalyzerReport], None]] = None,
) -> Tuple[Optional[VideoSequence], Optional[List[AnalyzerReport]], PipelineStats]:
    """Receiver-only pipeline: detect, fork, denoise. Reports are no-reference.

    video is any iterable of frames with a frame_rate, such as a
    VideoSequence or a frameio.Y4MReader; it is read forward once, as the run
    reaches each frame. With a sink, each output frame and its report go to
    sink(frame, report) in frame order as they finish, and the run keeps
    neither: it returns (None, None, stats), and video needs no frame_rate.
    """
    kept: List[tuple] = []
    _, stats = _execute(config, pairs=((frame, None) for frame in video),
                        emit=lambda _, *item: sink(*item) if sink else kept.append(item),
                        on_feedback=None)
    if sink is not None:
        return None, None, stats
    outputs, reports = zip(*kept)
    return VideoSequence(frames=outputs, frame_rate=video.frame_rate), list(reports), stats


def run_simulate(
    clean: Iterable[Frame],
    config: PipelineConfig = PipelineConfig(),
    sink: Optional[Callable[[Frame, Frame, AnalyzerReport], None]] = None,
) -> SimulationResult:
    """Closed loop: sender/codec/channel, receiver pipeline, analyzer feedback.

    clean is any iterable of frames with a frame_rate, read forward once as
    the sender produces each frame. With a sink, each frame goes to
    sink(received, denoised, report) in frame order as it finishes, and the
    result holds None for those three; clean then needs no frame_rate.
    """
    # the codec and the full-reference metrics import scipy on first use;
    # import it before _execute starts its clock, so no span pays for it
    import scipy.fft  # noqa: F401
    import scipy.ndimage  # noqa: F401

    sender = _Sender(config)
    kept: List[tuple] = []
    feedback_log, stats = _execute(
        config, pairs=(sender.produce(t, frame) for t, frame in enumerate(clean)),
        emit=sink or (lambda *item: kept.append(item)), on_feedback=sender.apply)
    # a message applied at the clip's end changes no frame
    trace = [entry for entry in sender.trace if entry.frame_index < stats.frame_count]
    if sink is not None:
        return SimulationResult(None, None, None, feedback_log, trace, stats)
    received, denoised, reports = zip(*kept)
    return SimulationResult(VideoSequence(received, clean.frame_rate),
                            VideoSequence(denoised, clean.frame_rate),
                            list(reports), feedback_log, trace, stats)
