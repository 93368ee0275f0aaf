"""rtcdenoise benchmark: the parent process that runs and checks the runs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. run.py writes the workload's inputs
for the seed (bench/inputs.py), then starts one run process (bench/worker.py)
at a time, each in a fresh interpreter, until S seconds have passed and at
least two timed runs are done. Every run is checked; see README.md in this
directory for the workloads, the metrics and the checks.

--trace 0 prints the end-to-end metrics (medians over the runs). --trace 1
alternates untraced and traced runs on the same inputs and prints the
per-layer metrics (medians over the traced runs) and the tracing overhead.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import compileall
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from typing import List, Optional

import numpy as np

import inputs
import tracing

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".bench_work")
WORKER = os.path.join(BENCH_DIR, "worker.py")

# A run that takes longer is killed and counted as failed; a healthy run of
# the slowest workload takes about a quarter of this on a 2-vCPU host.
RUN_TIMEOUT_S = 60.0
# setup_s is the median of at least this many fresh-interpreter set-ups;
# set-up-only runs make up the number when the timed runs are fewer
SETUP_SAMPLES = 5

# end-to-end metric -> (per-run field, unit)
END_TO_END = {
    "fps": ("fps", "frames/s"),
    "frame_latency_mean_ms": ("latency_mean_ms", "ms"),
    "frame_latency_p95_ms": ("latency_p95_ms", "ms"),
    "peak_rss_mb": ("peak_rss_mb", "MB"),
    "setup_s": ("setup_s", "s"),
    "psnr_gain_db": ("psnr_gain_db", "dB"),
}
TRACE_METRICS = {
    "trace.fps_untraced": "frames/s",
    "trace.fps_traced": "frames/s",
    "trace.fps_ratio": "ratio",
    "failed_run_share": "ratio",
}


def host_facts() -> dict:
    try:
        from numpy._core._multiarray_umath import (
            __cpu_baseline__, __cpu_dispatch__, __cpu_features__)
        simd = {
            "baseline": list(__cpu_baseline__),
            "dispatch": list(__cpu_dispatch__),
            "enabled": sorted(k for k, on in __cpu_features__.items() if on),
        }
    except ImportError:
        simd = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "numpy_simd": simd,
    }


def run_process(spec: dict, timeout: float = RUN_TIMEOUT_S) -> dict:
    """Start one worker, wait at most `timeout` seconds, return its result.

    A run that exits non-zero, prints no result, reports a failed check or
    outlives the timeout (it is then killed) comes back with ok False.
    """
    spec = dict(spec, spawned_at=time.time())
    # no BLAS thread pools: the only threads are the pipeline's own stages
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    started = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, WORKER, json.dumps(spec)], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        # subprocess.run has killed the worker and waited for it
        return {"ok": False, "error": f"timed out after {timeout:.0f} s",
                "elapsed_s": time.monotonic() - started}
    elapsed = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"ok": False, "error": f"exit code {proc.returncode}: {tail[0]}",
                "elapsed_s": elapsed}
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return {"ok": False, "error": f"no result line: {lines[-1][:200]}", "elapsed_s": elapsed}
    result["ok"] = True
    result["elapsed_s"] = elapsed
    for problem in result["problems"]:
        _fail(result, problem)
    return result


def _fail(run: dict, problem: str) -> None:
    run["ok"] = False
    run["error"] = "; ".join(filter(None, (run.get("error"), problem)))


def _check_against_first(runs: List[dict], verify: Optional[dict]) -> None:
    """Fail each run whose digest or routing differs from the first run's."""
    good = [r for r in runs if r["ok"]]
    if not good:
        return
    first = good[0]
    for r in good[1:]:
        if r["digest"] != first["digest"]:
            _fail(r, "output digest differs from the first run")
        if (r["bypassed"], r["denoised"]) != (first["bypassed"], first["denoised"]):
            _fail(r, "routing differs from the first run")
    if verify is not None and verify["ok"] and verify["digest"] != first["digest"]:
        _fail(verify, "sequential output differs from the threaded runs (criterion 7)")


def _describe(i: int, run: dict) -> str:
    if not run["ok"]:
        return f"run {i}: FAILED ({run['error']}) after {run['elapsed_s']:.1f} s"
    return (f"run {i}: fps={run['fps']:.3f} setup_s={run['setup_s']:.3f} "
            f"rss_mb={run['peak_rss_mb']:.1f} mean_ms={run['latency_mean_ms']:.2f} "
            f"p95_ms={run['latency_p95_ms']:.2f} psnr_gain_db={run['psnr_gain_db']:.4f} "
            f"bypassed={run['bypassed']} denoised={run['denoised']}"
            + (" traced" if "layers" in run else ""))


def measure(workload: inputs.Workload, seed: int, seconds: float, trace: bool,
            workdir: str) -> dict:
    """All runs of one invocation; stops early at the first failed run."""
    base = {"workload": workload.name, "seed": seed, "workdir": workdir, "trace": False}
    os.makedirs(os.path.join(WORK_DIR, "spans"), exist_ok=True)
    spans_path = os.path.join(WORK_DIR, "spans", f"{workload.name}-seed{seed}-run%d.jsonl")
    verify = None
    if workload.name == "cli-mixed-threaded":
        # criterion 7, once per invocation and untimed: the same clip in
        # sequential mode must give the same bits as the threaded runs
        verify = run_process(dict(base, index=0, mode="sequential"))
    runs: List[dict] = []
    started = time.monotonic()
    while verify is None or verify["ok"]:
        index = len(runs) + 1
        # traced runs alternate with untraced ones, each pair starting with
        # the other kind than the pair before
        traced = trace and (index % 4 in (2, 3))
        spec = dict(base, index=index, trace=traced, spans_path=spans_path % index)
        runs.append(run_process(spec))
        if not runs[-1]["ok"]:
            break
        # at least two timed runs, so every invocation compares output digests
        if index % 2 == 0 and time.monotonic() - started >= seconds:
            break
    setups: List[dict] = []
    while (not trace and len(runs) + len(setups) < SETUP_SAMPLES
           and all(r["ok"] for r in runs + setups) and (verify is None or verify["ok"])):
        setups.append(run_process(dict(base, index=len(runs + setups) + 1, setup_only=True)))
    _check_against_first(runs, verify)
    return {"runs": runs, "setups": setups, "verify": verify}


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def summarise(measured: dict, trace: bool) -> dict:
    runs, setups, verify = measured["runs"], measured["setups"], measured["verify"]
    processes = runs + setups + ([verify] if verify is not None else [])
    attempted = len(processes)
    failed = sum(not r["ok"] for r in processes)
    good = [r for r in runs if r["ok"]]
    metrics = {}
    if not trace:
        for name, (field, unit) in END_TO_END.items():
            sample = good + [r for r in setups if r["ok"]] if field == "setup_s" else good
            metrics[name] = {"value": _median([r[field] for r in sample]), "unit": unit}
    else:
        traced = [r for r in good if "layers" in r]
        untraced = [r for r in good if "layers" not in r]
        for name, unit in tracing.layer_metric_units().items():
            metrics[name] = {"value": _median([r["layers"][name] for r in traced]), "unit": unit}
        fps_untraced = _median([r["fps"] for r in untraced])
        fps_traced = _median([r["fps"] for r in traced])
        for name, value in (
            ("trace.fps_untraced", fps_untraced),
            ("trace.fps_traced", fps_traced),
            ("trace.fps_ratio", fps_traced / fps_untraced if fps_untraced else 0.0),
            ("failed_run_share", failed / attempted),
        ):
            metrics[name] = {"value": value, "unit": TRACE_METRICS[name]}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC_DIR, "rtcdenoise", "__init__.py")):
        print(f"error: no rtcdenoise sources under {SRC_DIR}; run from a source checkout",
              file=sys.stderr)
        return 2
    workload = inputs.WORKLOADS[args.workload]
    host = host_facts()
    host["loadavg_before"] = os.getloadavg()
    # byte-compile once so no run's set-up time includes compiling the package
    compileall.compile_dir(SRC_DIR, quiet=1)
    workdir = os.path.join(WORK_DIR, f"inputs-{os.getpid()}")
    try:
        inputs.prepare(workload, args.seed, workdir)
        measured = measure(workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    host["loadavg_after"] = os.getloadavg()
    summary = summarise(measured, bool(args.trace))

    print("host " + json.dumps(host))
    if measured["verify"] is not None:
        print(_describe(0, measured["verify"]) + " (sequential, untimed)")
    for i, run in enumerate(measured["runs"], start=1):
        print(_describe(i, run))
    for run in measured["setups"]:
        print(f"set-up only: setup_s={run['setup_s']:.3f}" if run["ok"]
              else f"set-up only: FAILED ({run['error']})")
    digests = sorted({r["digest"] for r in measured["runs"] if "digest" in r})
    print(f"digest {workload.name} seed={args.seed} " + " ".join(digests))
    for name, m in summary["metrics"].items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")

    os.makedirs(os.path.join(WORK_DIR, "results"), exist_ok=True)
    path = os.path.join(WORK_DIR, "results",
                        f"{workload.name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"host": host, **measured, **summary}, fh, indent=1)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
