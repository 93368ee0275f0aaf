"""One run process: set up, make one timed call, then check and describe it.

run.py starts this file in a fresh interpreter for every run and
reads the JSON object on the last line of its standard output:

    python3 bench/worker.py '<json spec>'

Set-up (interpreter start, importing rtcdenoise, one warm-up call on the
workload's first cohort) is timed apart from the measured call. The inputs
were written by run.py into spec["workdir"].
"""

from __future__ import annotations

import dataclasses
import importlib
import itertools
import json
import os
import resource
import sys
import time

import numpy as np

import inputs
import tracing

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")


def _records(items) -> list:
    return [dataclasses.asdict(item) for item in items]


def _luma_stack(frames) -> np.ndarray:
    return np.stack([f.y for f in frames])


class _LibraryRun:
    """run_denoise / run_simulate called in-process on frames from input.npy."""

    def __init__(self, spec, workload):
        import rtcdenoise as rd

        self._rd = rd
        self.workload = workload
        self.workdir = spec["workdir"]
        if workload.name == "simulate-lossy":
            self.config = rd.PipelineConfig(
                seed=spec["seed"],
                sender=rd.SenderConfig(noise_sigma=25.0),
                loss=rd.LossModel(kind=rd.LossKind.GILBERT_ELLIOTT),
            )
        else:
            self.config = rd.PipelineConfig()  # sequential

    def _sequence(self, name: str):
        planes = np.load(os.path.join(self.workdir, name))
        return self._rd.VideoSequence(tuple(self._rd.Frame(y=p) for p in planes))

    def _call(self, seq):
        if self.workload.name == "simulate-lossy":
            return self._rd.run_simulate(seq, self.config)
        return self._rd.run_denoise(seq, self.config)

    def warm_up(self) -> None:
        self._call(self._sequence("warmup.npy"))

    def load(self) -> None:
        self.input = self._sequence("input.npy")

    def run(self) -> None:
        self.result = self._call(self.input)

    def describe(self, problems: list) -> dict:
        clean = np.load(os.path.join(self.workdir, "clean.npy"))
        digest = inputs.Digest()
        if self.workload.name == "simulate-lossy":
            r = self.result
            stats, received, output = r.stats, _luma_stack(r.received), _luma_stack(r.denoised)
            digest.planes(received, output)
            digest.record([_records(r.reports), _records(r.feedback_log),
                           _records(r.sender_trace)])
            if len(r.feedback_log) < 2:
                problems.append(f"expected >= 2 feedback messages, got {len(r.feedback_log)}")
        else:
            seq, reports, stats = self.result
            received, output = _luma_stack(self.input), _luma_stack(seq)
            digest.planes(output)
            digest.record(_records(reports))
        if output.shape != clean.shape:
            problems.append(f"output shape {output.shape} != input shape {clean.shape}")
            return {}
        return {
            "stats": stats,
            "digest": digest.hexdigest(),
            "psnr_gain_db": inputs.mean_psnr_gain_db(clean, received, output),
        }


class _CliRun:
    """rtcdenoise.cli.main(["denoise", ...]) in-process on input.y4m."""

    def __init__(self, spec, workload):
        import rtcdenoise.cli as cli

        self._cli = cli
        self.workload = workload
        self.workdir = spec["workdir"]
        self.config_path = os.path.join(self.workdir, f"{spec.get('mode') or 'threaded'}.cfg")
        self.tag = f"run{spec['index']}"
        self.stats = None
        # `denoise` has no --stats flag: keep the PipelineStats that cli's
        # run_denoise returns, so latency is read from the same public fields
        # as in the library workloads
        run_denoise = cli.run_denoise

        def keep_stats(*args, **kwargs):
            result = run_denoise(*args, **kwargs)
            self.stats = result[2]
            return result
        cli.run_denoise = keep_stats

    def _main(self, clip: str, tag: str) -> None:
        out = os.path.join(self.workdir, f"{tag}-out.y4m")
        report = os.path.join(self.workdir, f"{tag}-reports.jsonl")
        code = self._cli.main(["denoise", "--in", os.path.join(self.workdir, clip),
                               "--config", self.config_path, "--out", out, "--report", report])
        if code != 0:
            raise RuntimeError(f"rtcdenoise denoise exited with {code}")
        self.out_path, self.report_path = out, report

    def warm_up(self) -> None:
        self._main("warmup.y4m", f"{self.tag}-warmup")

    def load(self) -> None:
        pass  # the program reads the clip itself, inside the timed call

    def run(self) -> None:
        self._main("input.y4m", self.tag)

    def describe(self, problems: list) -> dict:
        clean = np.load(os.path.join(self.workdir, "clean.npy"))
        received, _, _ = inputs.read_y4m(os.path.join(self.workdir, "input.y4m"))
        output, u, v = inputs.read_y4m(self.out_path)
        digest = inputs.Digest()
        digest.planes(output, u, v)
        with open(self.report_path, "rb") as fh:
            digest.raw(fh.read())
        for path in (self.out_path, self.report_path):
            os.remove(path)
        if output.shape != clean.shape or u is None:
            problems.append(f"output {output.shape} (chroma {u is not None}) != input {clean.shape}")
            return {}
        return {
            "stats": self.stats,
            "digest": digest.hexdigest(),
            "psnr_gain_db": inputs.mean_psnr_gain_db(clean, received, output),
        }


def _inject_fault(module_name: str, attr: str, after: int) -> None:
    """Make module.attr raise on every call after the first `after` calls."""
    module = importlib.import_module(module_name)
    original = getattr(module, attr)
    calls = itertools.count(1)

    def failing(*args, **kwargs):
        if next(calls) > after:
            raise RuntimeError(f"injected fault in {module_name}.{attr}")
        return original(*args, **kwargs)
    setattr(module, attr, failing)


def _shape_problems(workload, stats) -> list:
    """The routing each workload is built to exercise."""
    n = workload.frames
    if stats.frame_count != n:
        return [f"frame_count {stats.frame_count} != {n}"]
    if workload.name == "denoise-noisy" and stats.frames_denoised != n:
        return [f"expected every frame denoised, got {stats.frames_denoised} of {n}"]
    if workload.name == "cli-mixed-threaded" and not 0 < stats.frames_bypassed < n:
        return [f"expected a mix of routes, got {stats.frames_bypassed} of {n} bypassed"]
    return []


def main(spec: dict) -> dict:
    sys.path.insert(0, SRC_DIR)
    import rtcdenoise

    if not os.path.abspath(rtcdenoise.__file__).startswith(SRC_DIR + os.sep):
        raise RuntimeError(f"imported rtcdenoise from {rtcdenoise.__file__}, not {SRC_DIR}")

    workload = inputs.WORKLOADS[spec["workload"]]
    runner = (_CliRun if workload.name == "cli-mixed-threaded" else _LibraryRun)(spec, workload)
    runner.warm_up()
    setup_s = time.time() - spec["spawned_at"]
    if spec.get("setup_only"):
        return {"setup_s": setup_s, "problems": []}
    runner.load()

    tracer = tracing.Tracer() if spec["trace"] else None
    if tracer is not None:
        tracer.install()
    if spec.get("fault"):
        _inject_fault(**spec["fault"])
    start = time.perf_counter()
    runner.run()
    end = time.perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    problems: list = []
    described = runner.describe(problems)
    result = {
        "fps": workload.frames / (end - start),
        "wall_s": end - start,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "problems": problems,
    }
    if described:
        stats = described.pop("stats")
        problems.extend(_shape_problems(workload, stats))
        result.update(described)
        result.update(
            latency_mean_ms=stats.mean_latency_ms,
            latency_p95_ms=stats.p95_latency_ms,
            bypassed=stats.frames_bypassed,
            denoised=stats.frames_denoised,
        )
        if result["psnr_gain_db"] < inputs.PSNR_GAIN_FLOOR_DB:
            problems.append(f"psnr_gain_db {result['psnr_gain_db']:.3f} below the "
                            f"criterion-4 floor of {inputs.PSNR_GAIN_FLOOR_DB} dB")
    if tracer is not None:
        tracer.write_jsonl(spec["spans_path"])
        result["layers"] = tracer.aggregate(start, end, workload.frames)
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
