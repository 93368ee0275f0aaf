"""Outside-in tracing: wrap the package's functions where they are imported.

Each wrapped call records one span (name, start, end, parent, thread) in
memory. Parents come from a per-thread stack, so spans nest correctly in the
threaded pipeline, whose stage threads each start their own stack. Nothing in
the package changes: the wrappers replace module attributes for the life of
one run process and are removed afterwards.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import statistics
import threading
import time
from typing import Callable, Dict, List, Optional

# (module the function is looked up in, attribute name, span name). The
# module is the caller's, so the span covers the call as that caller makes it.
SITES = (
    ("rtcdenoise.pipeline", "analyze_frame", "detector.analyze_frame"),
    ("rtcdenoise.pipeline", "estimate_sigma", "detector.estimate_sigma"),
    ("rtcdenoise.pipeline", "median_filter_3x3", "detector.median_filter_3x3"),
    ("rtcdenoise.pipeline", "denoise_keyframe", "image_denoiser.denoise_keyframe"),
    ("rtcdenoise.image_denoiser", "stage_detail", "image_denoiser.stage_detail"),
    ("rtcdenoise.image_denoiser", "stage_smooth", "image_denoiser.stage_smooth"),
    ("rtcdenoise.image_denoiser", "stage_fuse", "image_denoiser.stage_fuse"),
    ("rtcdenoise.pipeline", "denoise_window", "video_denoiser.denoise_window"),
    ("rtcdenoise.video_denoiser", "denoise_block", "video_denoiser.denoise_block"),
    ("rtcdenoise.video_denoiser", "stage_detail", "video_denoiser.spatial_bilateral"),
    ("rtcdenoise.analyzer", "psnr", "metrics.psnr"),
    ("rtcdenoise.analyzer", "ssim", "metrics.ssim"),
    ("rtcdenoise.analyzer", "ms_ssim", "metrics.ms_ssim"),
    ("rtcdenoise.analyzer", "vifp", "metrics.vifp"),
    ("rtcdenoise.analyzer", "detail_retention", "metrics.detail_retention"),
    ("rtcdenoise.pipeline", "build_report", "analyzer.build_report"),
    ("rtcdenoise.pipeline", "build_report_noref", "analyzer.build_report_noref"),
    ("rtcdenoise.pipeline", "make_feedback", "analyzer.make_feedback"),
    ("rtcdenoise.pipeline", "add_gaussian_noise", "channel.add_gaussian_noise"),
    ("rtcdenoise.pipeline", "encode_decode", "channel.encode_decode"),
    ("rtcdenoise.pipeline", "transmit", "channel.transmit"),
    ("rtcdenoise.pipeline", "sender_step", "channel.sender_step"),
    ("rtcdenoise.cli", "read_y4m_file", "frameio.read_y4m_file"),
    ("rtcdenoise.cli", "write_y4m_file", "frameio.write_y4m_file"),
    ("rtcdenoise.cli", "report_to_json", "cli.report_to_json"),
)
SPAN_NAMES = tuple(name for _, _, name in SITES)

# Ratios and counts measured at the same boundaries as the spans.
RATIO_METRICS = {
    "detector.fork.denoise_ratio": "ratio",
    "video_denoiser.blocks_per_window": "count",
    "channel.transmit.lost_slice_ratio": "ratio",
    "frameio.bytes_read": "bytes",
    "frameio.bytes_written": "bytes",
    "pipeline.self_ms_per_frame": "ms",
    "pipeline.parallelism": "ratio",
}


def layer_metric_units() -> Dict[str, str]:
    """Every metric aggregate() returns, with its unit."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.ms"] = "ms"
        units[f"{name}.share"] = "ratio"
    units.update(RATIO_METRICS)
    return units


class Tracer:
    """In-memory span recorder plus the counters the ratio metrics need."""

    def __init__(self):
        self.spans: List[tuple] = []   # (id, name, start, end, parent, thread)
        self.counts: Dict[str, float] = {
            "keyframes": 0, "keyframes_denoised": 0, "slices": 0, "slices_lost": 0,
            "bytes_read": 0, "bytes_written": 0,
        }
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: List[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, observe: Optional[Callable] = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((span_id, name, start, end, parent, threading.get_ident()))
            if observe is not None:
                observe(args, kwargs, result)
            return result
        return traced

    def _count(self, **deltas) -> None:
        with self._lock:
            for key, delta in deltas.items():
                self.counts[key] += delta

    def _observers(self) -> Dict[str, Callable]:
        def transmit(args, kwargs, result):
            frame, loss = args[0], args[2]
            slices = -(-frame.height // loss.slice_height)
            self._count(slices=slices, slices_lost=len(result[1]))

        def read(args, kwargs, result):
            self._count(bytes_read=os.path.getsize(args[0]))

        def write(args, kwargs, written):
            self._count(bytes_written=written)

        return {
            "channel.transmit": transmit,
            "frameio.read_y4m_file": read,
            "frameio.write_y4m_file": write,
        }

    def install(self) -> None:
        observers = self._observers()
        for module_name, attr, name in SITES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._restore.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, observers.get(name)))
        # routing is counted, not timed: fork_decision is a comparison
        pipeline = importlib.import_module("rtcdenoise.pipeline")
        original = pipeline.fork_decision
        self._restore.append((pipeline, "fork_decision", original))

        def fork_decision(*args, **kwargs):
            decision = original(*args, **kwargs)
            self._count(keyframes=1, keyframes_denoised=int(decision.route.name == "DENOISE"))
            return decision
        pipeline.fork_decision = fork_decision

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, thread in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start, "end": end,
                                     "parent": parent, "thread": thread}) + "\n")

    def aggregate(self, run_start: float, run_end: float, frames: int) -> Dict[str, float]:
        """Per-layer metrics for one traced run of wall time run_end - run_start."""
        wall = run_end - run_start
        child_time: Dict[int, float] = {}
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        durations: Dict[str, List[float]] = {name: [] for name in SPAN_NAMES}
        self_time = dict.fromkeys(SPAN_NAMES, 0.0)
        top_level = []
        for span_id, name, start, end, parent, _ in self.spans:
            durations[name].append(end - start)
            self_time[name] += (end - start) - child_time.get(span_id, 0.0)
            if parent is None:
                top_level.append((start, end))

        metrics: Dict[str, float] = {}
        for name in SPAN_NAMES:
            metrics[f"{name}.calls"] = len(durations[name])
            metrics[f"{name}.ms"] = statistics.median(durations[name]) * 1e3 if durations[name] else 0.0
            metrics[f"{name}.share"] = self_time[name] / wall

        c = self.counts
        windows = len(durations["video_denoiser.denoise_window"])
        metrics["detector.fork.denoise_ratio"] = (
            c["keyframes_denoised"] / c["keyframes"] if c["keyframes"] else 0.0)
        metrics["video_denoiser.blocks_per_window"] = (
            len(durations["video_denoiser.denoise_block"]) / windows if windows else 0.0)
        metrics["channel.transmit.lost_slice_ratio"] = (
            c["slices_lost"] / c["slices"] if c["slices"] else 0.0)
        metrics["frameio.bytes_read"] = c["bytes_read"]
        metrics["frameio.bytes_written"] = c["bytes_written"]
        # glue time: the part of the run wall that no top-level span covers,
        # in any thread (a union, so overlapping stage threads are not
        # subtracted twice)
        covered, reach = 0.0, run_start
        for start, end in sorted(top_level):
            start, end = max(start, reach), min(end, run_end)
            if end > start:
                covered += end - start
                reach = end
        metrics["pipeline.self_ms_per_frame"] = (wall - covered) * 1e3 / frames
        metrics["pipeline.parallelism"] = sum(e - s for s, e in top_level) / wall
        return metrics
