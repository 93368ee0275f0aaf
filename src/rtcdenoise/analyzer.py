"""Per-frame quality reports, the runtime-weighted score, and sender feedback.

Reports come in two flavors. With a reference (simulation mode, where the
pre-encode sender frame is known) all metrics are full-reference. Without one
(denoise-only mode) the PSNR/SSIM columns are None and the improvement proxy
is delta_sigma, the drop in estimated noise level.

Feedback aggregates a window of reports into one recommendation:
  RAISE_BITRATE    denoising is not helping (mean dPSNR < 0.5 dB) while the
                   stream is still noisy (mean sigma at or above the threshold)
  LOWER_FRAMERATE  mean runtime above twice the budget
  LOWER_RESOLUTION mean runtime above the budget
  NONE             otherwise
The two runtime rules overlap; the more drastic one is checked first.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from enum import Enum
from typing import Optional, Sequence

from .detector import DEFAULT_FORK_THRESHOLD
from .frame import Frame, require_finite
from .metrics import detail_retention, full_reference_scores
# bench/tracing.py looks these up on this module; build_report scores
# through full_reference_scores instead of calling them
from .metrics import ms_ssim, psnr, ssim, vifp  # noqa: F401

DEFAULT_BUDGET_MS = 40.0
DEFAULT_FEEDBACK_WINDOW = 25
DEFAULT_WEIGHTS = (0.4, 0.4, 0.2)


class Recommendation(Enum):
    NONE = "none"
    RAISE_BITRATE = "raise-bitrate"
    LOWER_RESOLUTION = "lower-resolution"
    LOWER_FRAMERATE = "lower-framerate"


@dataclass(frozen=True)
class AnalyzerReport:
    frame_index: int
    reference_mode: str  # "full" or "noref"
    psnr_noisy: Optional[float]
    psnr_denoised: Optional[float]
    ssim_noisy: Optional[float]
    ssim_denoised: Optional[float]
    ms_ssim_noisy: Optional[float]
    ms_ssim_denoised: Optional[float]
    vifp_noisy: Optional[float]
    vifp_denoised: Optional[float]
    detail_retention: Optional[float]
    delta_psnr: Optional[float]
    delta_ssim: Optional[float]
    delta_sigma: Optional[float]
    sigma: float
    runtime_ms: float
    score: float


@dataclass(frozen=True)
class FeedbackMessage:
    window_start: int
    window_end: int
    mean_delta_psnr: float
    mean_delta_ssim: float
    mean_runtime_ms: float
    mean_sigma: float
    recommendation: Recommendation

    def __post_init__(self):
        if self.window_end < self.window_start:
            raise ValueError("window_end must be >= window_start")


@dataclass(frozen=True)
class FeedbackPolicy:
    min_delta_psnr: float = 0.5
    sigma_threshold: float = DEFAULT_FORK_THRESHOLD
    budget_ms: float = DEFAULT_BUDGET_MS

    def __post_init__(self):
        if self.budget_ms <= 0:
            raise ValueError("budget_ms must be positive")
        require_finite(**vars(self))  # every field is a number


def performance_score(
    delta_psnr: float,
    delta_ssim: float,
    runtime_ms: float,
    budget_ms: float = DEFAULT_BUDGET_MS,
    weights: tuple = DEFAULT_WEIGHTS,
) -> float:
    """S = w_p clamp(dPSNR/10) + w_s clamp(dSSIM/0.1) - w_t runtime/budget."""
    if budget_ms <= 0:
        raise ValueError("budget_ms must be positive")
    w_p, w_s, w_t = weights
    if w_p < 0 or w_s < 0 or w_t < 0:
        raise ValueError("weights must be non-negative")
    gain_p = min(max(delta_psnr / 10.0, 0.0), 1.0)
    gain_s = min(max(delta_ssim / 0.1, 0.0), 1.0)
    return w_p * gain_p + w_s * gain_s - w_t * (runtime_ms / budget_ms)


def _delta(after: float, before: float) -> float:
    if math.isinf(after) and math.isinf(before):
        return 0.0
    return after - before


def build_report(
    frame_index: int,
    reference: Frame,
    noisy: Frame,
    denoised: Frame,
    sigma: float,
    runtime_ms: float,
    budget_ms: float = DEFAULT_BUDGET_MS,
    weights: tuple = DEFAULT_WEIGHTS,
) -> AnalyzerReport:
    """Full-reference report: metrics for noisy and denoised versus reference.

    The reference side of every metric is computed once for both frames; a
    denoised frame that is the noisy one (a bypassed frame) is scored once.
    """
    scores = full_reference_scores(reference, [noisy] if denoised is noisy else [noisy, denoised])
    noisy_scores, denoised_scores = scores[0], scores[-1]
    delta_psnr = _delta(denoised_scores.psnr, noisy_scores.psnr)
    delta_ssim = denoised_scores.ssim - noisy_scores.ssim
    return AnalyzerReport(
        frame_index=frame_index,
        reference_mode="full",
        psnr_noisy=noisy_scores.psnr,
        psnr_denoised=denoised_scores.psnr,
        ssim_noisy=noisy_scores.ssim,
        ssim_denoised=denoised_scores.ssim,
        ms_ssim_noisy=noisy_scores.ms_ssim,
        ms_ssim_denoised=denoised_scores.ms_ssim,
        vifp_noisy=noisy_scores.vifp,
        vifp_denoised=denoised_scores.vifp,
        detail_retention=detail_retention(reference, denoised),
        delta_psnr=delta_psnr,
        delta_ssim=delta_ssim,
        delta_sigma=None,
        sigma=sigma,
        runtime_ms=runtime_ms,
        score=performance_score(delta_psnr, delta_ssim, runtime_ms, budget_ms, weights),
    )


def build_report_noref(
    frame_index: int,
    noisy: Frame,
    denoised: Frame,
    sigma_before: float,
    sigma_after: float,
    runtime_ms: float,
    budget_ms: float = DEFAULT_BUDGET_MS,
    weights: tuple = DEFAULT_WEIGHTS,
) -> AnalyzerReport:
    """No-reference report: the drop in estimated sigma stands in for dPSNR, with no dSSIM."""
    delta_sigma = sigma_before - sigma_after
    return AnalyzerReport(
        frame_index=frame_index,
        reference_mode="noref",
        psnr_noisy=None,
        psnr_denoised=None,
        ssim_noisy=None,
        ssim_denoised=None,
        ms_ssim_noisy=None,
        ms_ssim_denoised=None,
        vifp_noisy=None,
        vifp_denoised=None,
        detail_retention=detail_retention(noisy, denoised),
        delta_psnr=None,
        delta_ssim=None,
        delta_sigma=delta_sigma,
        sigma=sigma_before,
        runtime_ms=runtime_ms,
        score=performance_score(delta_sigma, 0.0, runtime_ms, budget_ms, weights),
    )


def _mean_improvement(reports: Sequence[AnalyzerReport]) -> float:
    """Mean dPSNR over the window, falling back to the delta_sigma proxy."""
    values = []
    for r in reports:
        v = r.delta_psnr if r.delta_psnr is not None else r.delta_sigma
        if v is not None and math.isfinite(v):
            values.append(v)
    return sum(values) / len(values) if values else 0.0


def make_feedback(
    reports: Sequence[AnalyzerReport],
    policy: FeedbackPolicy = FeedbackPolicy(),
) -> FeedbackMessage:
    """Aggregate a window of reports into one sender recommendation."""
    if not reports:
        raise ValueError("make_feedback needs at least one report")
    mean_delta_psnr = _mean_improvement(reports)
    finite_ssim = [r.delta_ssim for r in reports if r.delta_ssim is not None]
    mean_delta_ssim = sum(finite_ssim) / len(finite_ssim) if finite_ssim else 0.0
    mean_runtime = sum(r.runtime_ms for r in reports) / len(reports)
    mean_sigma = sum(r.sigma for r in reports) / len(reports)

    if mean_delta_psnr < policy.min_delta_psnr and mean_sigma >= policy.sigma_threshold:
        rec = Recommendation.RAISE_BITRATE
    elif mean_runtime > 2.0 * policy.budget_ms:
        rec = Recommendation.LOWER_FRAMERATE
    elif mean_runtime > policy.budget_ms:
        rec = Recommendation.LOWER_RESOLUTION
    else:
        rec = Recommendation.NONE
    return FeedbackMessage(
        window_start=reports[0].frame_index,
        window_end=reports[-1].frame_index,
        mean_delta_psnr=mean_delta_psnr,
        mean_delta_ssim=mean_delta_ssim,
        mean_runtime_ms=mean_runtime,
        mean_sigma=mean_sigma,
        recommendation=rec,
    )


def _jsonable(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None  # JSON has no inf/nan
    if isinstance(value, Enum):
        return value.name
    return value


def report_to_json(report: AnalyzerReport) -> str:
    return json.dumps({k: _jsonable(v) for k, v in asdict(report).items()})


def feedback_to_json(message: FeedbackMessage) -> str:
    return json.dumps({k: _jsonable(v) for k, v in asdict(message).items()})
