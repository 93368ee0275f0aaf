"""Command-line front end.

Subcommands: simulate (closed sender/channel/receiver loop), denoise
(receiver only), inject (add synthetic noise to a clip), detect (per-frame
noise report), metrics (full-reference quality between two clips).

Exit codes: 0 success, 1 usage error, 2 data or format error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace
from typing import List, Optional

from .analyzer import _jsonable, feedback_to_json, report_to_json
from .channel import add_gaussian_noise, add_salt_pepper, add_speckle
from .config import ConfigError, PipelineConfig, dump_config, parse_config
from .detector import MIN_DETECT_SIDE, analyze_frame
from .frame import FormatError, VideoSequence
from .frameio import read_y4m_file, write_y4m_file
from .metrics import MIN_METRIC_SIDE, full_reference_scores
from .pipeline import run_denoise, run_simulate
from .rng import NoiseRng

# every NoiseRng normal has |n| <= sqrt(-2 ln 2**-53) < 8.6, so below this cap
# a speckle value x * (1 + m * n) stays finite for any 8-bit x
MAX_SPECKLE_MULT = 1e300

# kind -> (injector, name of its value, largest accepted value)
_INJECTORS = {
    "gaussian": (add_gaussian_noise, "sigma", math.inf),
    "saltpepper": (add_salt_pepper, "density", 1.0),
    "speckle": (add_speckle, "sigma multiplier", MAX_SPECKLE_MULT),
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as exit code 1, not 2."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _noise_spec(text: str):
    kind, sep, value = text.partition(":")
    if not sep or kind not in _INJECTORS:
        raise argparse.ArgumentTypeError(
            f"expected kind:value with kind one of {', '.join(sorted(_INJECTORS))}, got {text!r}"
        )
    _, name, limit = _INJECTORS[kind]
    try:
        strength = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad {name} in {text!r}")
    if not math.isfinite(strength):
        raise argparse.ArgumentTypeError(f"{name} must be finite, got {value!r}")
    if strength < 0:
        raise argparse.ArgumentTypeError(f"{name} must be non-negative")
    if strength > limit:
        raise argparse.ArgumentTypeError(f"{name} must be at most {limit:g}, got {value!r}")
    return kind, strength


def _build_parser() -> _Parser:
    parser = _Parser(prog="rtcdenoise", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sim = sub.add_parser("simulate", help="sender, channel, and receiver loop")
    sim.add_argument("--in", dest="input", required=True, metavar="CLEAN.y4m")
    sim.add_argument("--config", metavar="CFG.ini")
    sim.add_argument("--out-received", metavar="OUT.y4m")
    sim.add_argument("--out-denoised", metavar="OUT.y4m")
    sim.add_argument("--report", metavar="OUT.jsonl")
    sim.add_argument("--feedback", metavar="OUT.jsonl")
    sim.add_argument("--stats", metavar="OUT.json")
    sim.add_argument("--seed", type=int, metavar="N")
    sim.add_argument("--dump-config", action="store_true",
                     help="print the resolved configuration and exit")

    den = sub.add_parser("denoise", help="receiver-side denoising only")
    den.add_argument("--in", dest="input", required=True, metavar="NOISY.y4m")
    den.add_argument("--config", metavar="CFG.ini")
    den.add_argument("--out", metavar="OUT.y4m")
    den.add_argument("--report", metavar="OUT.jsonl")
    den.add_argument("--dump-config", action="store_true",
                     help="print the resolved configuration and exit")

    inj = sub.add_parser("inject", help="add synthetic noise to a clip")
    inj.add_argument("--in", dest="input", required=True, metavar="CLEAN.y4m")
    inj.add_argument("--noise", action="append", required=True, type=_noise_spec,
                     metavar="KIND:VALUE",
                     help="gaussian:SIGMA, saltpepper:DENSITY, or speckle:MULT; repeatable")
    inj.add_argument("--seed", type=int, default=0, metavar="N")
    inj.add_argument("--out", required=True, metavar="NOISY.y4m")

    det = sub.add_parser("detect", help="per-frame noise estimate and category")
    det.add_argument("--in", dest="input", required=True, metavar="CLIP.y4m")
    det.add_argument("--histogram", metavar="DIR",
                     help="also write per-frame 256-line luma histograms here")

    met = sub.add_parser("metrics", help="full-reference quality between two clips")
    met.add_argument("--ref", required=True, metavar="REF.y4m")
    met.add_argument("--test", required=True, metavar="TEST.y4m")
    met.add_argument("--json", dest="json_path", metavar="OUT.jsonl")
    return parser


def _load_config(path: Optional[str], seed: Optional[int] = None) -> PipelineConfig:
    config = parse_config(path) if path is not None else PipelineConfig()
    if seed is not None:
        config = replace(config, seed=seed)
    return config


def _write_lines(path: str, lines) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")


def _read_clip(path: str) -> VideoSequence:
    clip = read_y4m_file(path)
    if not len(clip):
        raise FormatError(f"{path}: no frames after the Y4M header")
    return clip


def _check_frame_size(clip: VideoSequence, path: str, minimum: int, user: str) -> None:
    if min(clip.width, clip.height) < minimum:
        raise FormatError(
            f"{path}: frames are {clip.width}x{clip.height}; {user} "
            f"need at least {minimum} pixels on each side"
        )


def _check_metric_size(clip: VideoSequence, path: str) -> None:
    _check_frame_size(clip, path, MIN_METRIC_SIDE, "the quality metrics")


def _fmt(value: float) -> str:
    if value is None or math.isnan(value):
        return "nan"
    if math.isinf(value):
        return "inf"
    return f"{value:.4f}"


def _cmd_simulate(args) -> int:
    config = _load_config(args.config, args.seed)
    if args.dump_config:
        print(dump_config(config))
        return 0
    clean = _read_clip(args.input)
    _check_metric_size(clean, args.input)
    result = run_simulate(clean, config)
    if args.out_received:
        write_y4m_file(result.received, args.out_received)
    if args.out_denoised:
        write_y4m_file(result.denoised, args.out_denoised)
    if args.report:
        _write_lines(args.report, (report_to_json(r) for r in result.reports))
    if args.feedback:
        _write_lines(args.feedback, (feedback_to_json(m) for m in result.feedback_log))
    if args.stats:
        with open(args.stats, "w", encoding="utf-8") as fh:
            json.dump(result.stats.to_json_dict(), fh, indent=2)
            fh.write("\n")
    stats = result.stats
    print(
        f"frames={stats.frame_count} bypassed={stats.frames_bypassed} "
        f"denoised={stats.frames_denoised} feedback={len(result.feedback_log)} "
        f"fps={stats.achieved_fps:.1f}"
    )
    return 0


def _cmd_denoise(args) -> int:
    config = _load_config(args.config)
    if args.dump_config:
        print(dump_config(config))
        return 0
    noisy = _read_clip(args.input)
    _check_frame_size(noisy, args.input, MIN_DETECT_SIDE, "the noise estimates")
    output, reports, stats = run_denoise(noisy, config)
    if args.out:
        write_y4m_file(output, args.out)
    if args.report:
        _write_lines(args.report, (report_to_json(r) for r in reports))
    print(
        f"frames={stats.frame_count} bypassed={stats.frames_bypassed} "
        f"denoised={stats.frames_denoised} fps={stats.achieved_fps:.1f}"
    )
    return 0


def _cmd_inject(args) -> int:
    clean = _read_clip(args.input)
    root = NoiseRng(args.seed)
    frames = list(clean)
    for op_index, (kind, strength) in enumerate(args.noise):
        injector = _INJECTORS[kind][0]
        stream = root.derive(op_index)
        frames = [
            injector(frame, strength, seed=int(stream.derive(t).seed))
            for t, frame in enumerate(frames)
        ]
    write_y4m_file(VideoSequence(tuple(frames), clean.frame_rate), args.out)
    print(f"wrote {len(frames)} frames to {args.out}")
    return 0


def _cmd_detect(args) -> int:
    clip = _read_clip(args.input)
    _check_frame_size(clip, args.input, MIN_DETECT_SIDE, "the noise estimates")
    if args.histogram:
        os.makedirs(args.histogram, exist_ok=True)
    for t, frame in enumerate(clip):
        est = analyze_frame(frame)
        print(
            f"frame={t} sigma={est.sigma:.4f} category={est.category.value} "
            f"impulse={est.impulse_fraction:.4f} blockiness={est.blockiness_ratio:.4f} "
            f"corr={est.mean_var_correlation:.4f}"
        )
        if args.histogram:
            path = os.path.join(args.histogram, f"hist_{t:05d}.txt")
            _write_lines(path, (str(int(count)) for count in est.histogram))
    return 0


def _cmd_metrics(args) -> int:
    ref = _read_clip(args.ref)
    test = _read_clip(args.test)
    _check_metric_size(ref, args.ref)
    _check_metric_size(test, args.test)
    if len(ref) != len(test):
        raise FormatError(f"frame count mismatch: ref has {len(ref)}, test has {len(test)}")
    if (ref.width, ref.height) != (test.width, test.height):
        raise FormatError(
            f"frame size mismatch: {args.ref} is {ref.width}x{ref.height}, "
            f"{args.test} is {test.width}x{test.height}"
        )
    rows = []
    for t, (a, b) in enumerate(zip(ref, test)):
        (scores,) = full_reference_scores(a, [b])
        rows.append({"frame": t, **scores._asdict()})
    means = {
        key: sum(row[key] for row in rows) / len(rows)
        for key in ("psnr", "ssim", "ms_ssim", "vifp")
    }
    print(f"{'frame':>5}  {'psnr':>9}  {'ssim':>7}  {'ms_ssim':>7}  {'vifp':>7}")
    for row in rows:
        print(
            f"{row['frame']:>5}  {_fmt(row['psnr']):>9}  {_fmt(row['ssim']):>7}  "
            f"{_fmt(row['ms_ssim']):>7}  {_fmt(row['vifp']):>7}"
        )
    print(
        f"{'mean':>5}  {_fmt(means['psnr']):>9}  {_fmt(means['ssim']):>7}  "
        f"{_fmt(means['ms_ssim']):>7}  {_fmt(means['vifp']):>7}"
    )
    if args.json_path:
        _write_lines(
            args.json_path,
            (json.dumps({k: _jsonable(v) for k, v in row.items()}) for row in rows),
        )
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "denoise": _cmd_denoise,
    "inject": _cmd_inject,
    "detect": _cmd_detect,
    "metrics": _cmd_metrics,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except (FormatError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
