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
import stat
import sys
from contextlib import ExitStack, contextmanager
from dataclasses import replace
from itertools import zip_longest
from typing import Callable, Iterator, List, Optional

from .analyzer import _jsonable, feedback_to_json, report_to_json
from .channel import MAX_NOISE_STRENGTH, add_gaussian_noise, add_salt_pepper, add_speckle
from .config import ConfigError, PipelineConfig, dump_config, parse_config
from .detector import MIN_DETECT_SIDE, analyze_frame, luma_histogram
from .frame import FormatError, Frame
from .frameio import Y4MReader, Y4MWriter, open_y4m
# bench/tracing.py SITES wraps these on this module; no subcommand calls them
from .frameio import read_y4m_file, write_y4m_file  # noqa: F401
from .metrics import MIN_METRIC_SIDE, full_reference_scores
from .pipeline import run_denoise, run_simulate
from .rng import SEED_RANGE, NoiseRng

# kind -> (injector, name of its value, largest accepted value)
_INJECTORS = {
    "gaussian": (add_gaussian_noise, "sigma", MAX_NOISE_STRENGTH),
    "saltpepper": (add_salt_pepper, "density", 1.0),
    "speckle": (add_speckle, "sigma multiplier", MAX_NOISE_STRENGTH),
}


_OUT_BUFFER = 1 << 22  # bytes an output file buffers between writes


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


def _seed(text: str) -> int:
    """A --seed value: an integer in SEED_RANGE, as [pipeline] seed takes."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if seed not in SEED_RANGE:
        raise argparse.ArgumentTypeError(f"must be in {SEED_RANGE}, got {seed}")
    return seed


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
    sim.add_argument("--seed", type=_seed, metavar="N")
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
    inj.add_argument("--seed", type=_seed, default=0, metavar="N")
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


@contextmanager
def _replacing(path: Optional[str], mode: str = "w", buffering: int = _OUT_BUFFER) -> Iterator:
    """A file for path's new contents, which replace path only if the block completes.

    The file is a temporary beside the file path names (through any symlink),
    renamed over it at the end, so an output naming an input leaves the input
    whole while it is read, and a failed run leaves no partial file. It takes
    the mode of the file it replaces, or the one open() would give a new file.
    A path in /dev or /proc (/dev/null, /dev/stdout, /dev/fd/N) and a target
    that is not a regular file (a FIFO) are written directly. Yields None
    for no path.
    """
    if not path:
        yield None
        return
    # a large buffer: each write that reaches the file gives up the
    # interpreter lock, and taking it back can wait behind the helper lane
    options = dict(buffering=buffering, encoding=None if "b" in mode else "utf-8")
    try:
        old = os.stat(path)
    except FileNotFoundError:
        old = None
    system = os.path.realpath(os.path.dirname(os.path.abspath(path))).split(os.sep)[1]
    if system in ("dev", "proc") or old is not None and not stat.S_ISREG(old.st_mode):
        with open(path, mode, **options) as fh:
            yield fh
        return
    target = os.path.realpath(path)
    folder, name = os.path.split(target)
    tmp = os.path.join(folder, f".{name}.{os.urandom(4).hex()}.part")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:  # name the path given, not the hidden temporary
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with open(fd, mode, **options) as fh:
            if old is not None:
                os.fchmod(fd, stat.S_IMODE(old.st_mode))
            yield fh
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


@contextmanager
def _streaming(clip: Y4MReader, clip_paths: List[Optional[str]],
               report_path: Optional[str]) -> Iterator[Callable]:
    """sink(*frames, report): frame i to clip_paths[i], the report's line to report_path.

    Each is a _replacing file, renamed in that order: of two that name one path, the later stays.
    Each buffers up to 16 of clip's frames, so a short clip of small frames holds little.
    """
    size = min(_OUT_BUFFER, 16 * clip.frame_size)
    with ExitStack() as stack:  # exits, so renames, in the reverse of entering
        report_file = stack.enter_context(_replacing(report_path, "w", size))
        outs = [stack.enter_context(_replacing(path, "wb", size)) for path in clip_paths[::-1]]
        writers = [Y4MWriter(out, clip.frame_rate) if out else None for out in outs[::-1]]

        def sink(*items) -> None:
            for writer, frame in zip(writers, items):
                if writer:
                    writer.write(frame)
            if report_file:
                report_file.write(report_to_json(items[-1]) + "\n")

        yield sink


def _write_lines(path: str, lines) -> None:
    with _replacing(path) as fh:
        for line in lines:
            fh.write(line + "\n")


def _frames(clip, path: str) -> Iterator[Frame]:
    """clip's frames in order; once it ends, FormatError if it had none."""
    empty = True
    for frame in clip:
        empty = False
        yield frame
    if empty:
        raise FormatError(f"{path}: no frames after the Y4M header")


def _check_frame_size(clip: Y4MReader, path: str, minimum: int = MIN_METRIC_SIDE,
                      user: str = "the quality metrics") -> None:
    if min(clip.width, clip.height) < minimum:
        raise FormatError(
            f"{path}: frames are {clip.width}x{clip.height}; {user} "
            f"need at least {minimum} pixels on each side"
        )


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
    with open_y4m(args.input) as clean:
        _check_frame_size(clean, args.input)
        outputs = [args.out_received, args.out_denoised]
        with _streaming(clean, outputs, args.report) as sink:
            result = run_simulate(_frames(clean, args.input), config, sink=sink)
    if args.feedback:
        _write_lines(args.feedback, (feedback_to_json(m) for m in result.feedback_log))
    if args.stats:
        _write_lines(args.stats, [json.dumps(result.stats.to_json_dict(), indent=2)])
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
    with open_y4m(args.input) as noisy:
        _check_frame_size(noisy, args.input, MIN_DETECT_SIDE, "the noise estimates")
        with _streaming(noisy, [args.out], args.report) as sink:
            _, _, stats = run_denoise(_frames(noisy, args.input), config, sink=sink)
    print(
        f"frames={stats.frame_count} bypassed={stats.frames_bypassed} "
        f"denoised={stats.frames_denoised} fps={stats.achieved_fps:.1f}"
    )
    return 0


def _cmd_inject(args) -> int:
    root = NoiseRng(args.seed)
    ops = [(_INJECTORS[kind][0], strength, root.derive(op_index))
           for op_index, (kind, strength) in enumerate(args.noise)]
    with open_y4m(args.input) as clean, _replacing(args.out, "wb") as out:
        writer = Y4MWriter(out, clean.frame_rate)
        for t, frame in enumerate(_frames(clean, args.input)):
            for injector, strength, stream in ops:
                frame = injector(frame, strength, seed=int(stream.derive(t).seed))
            writer.write(frame)
    print(f"wrote {t + 1} frames to {args.out}")
    return 0


def _cmd_detect(args) -> int:
    with open_y4m(args.input) as clip:
        _check_frame_size(clip, args.input, MIN_DETECT_SIDE, "the noise estimates")
        if args.histogram:
            os.makedirs(args.histogram, exist_ok=True)
        for t, frame in enumerate(_frames(clip, args.input)):
            est = analyze_frame(frame)
            print(
                f"frame={t} sigma={est.sigma:.4f} category={est.category.value} "
                f"impulse={est.impulse_fraction:.4f} blockiness={est.blockiness_ratio:.4f} "
                f"corr={est.mean_var_correlation:.4f}"
            )
            if args.histogram:
                path = os.path.join(args.histogram, f"hist_{t:05d}.txt")
                _write_lines(path, (str(int(count)) for count in luma_histogram(frame)))
    return 0


def _cmd_metrics(args) -> int:
    with open_y4m(args.ref) as ref, open_y4m(args.test) as test:
        _check_frame_size(ref, args.ref)
        _check_frame_size(test, args.test)
        if (ref.width, ref.height) != (test.width, test.height):
            raise FormatError(
                f"frame size mismatch: {args.ref} is {ref.width}x{ref.height}, "
                f"{args.test} is {test.width}x{test.height}"
            )
        rows = []
        pairs = zip_longest(_frames(ref, args.ref), _frames(test, args.test))
        for t, (a, b) in enumerate(pairs):
            if a is None or b is None:
                ended, other = (args.ref, args.test) if a is None else (args.test, args.ref)
                raise FormatError(
                    f"frame count mismatch: {ended} ends after {t} frames, {other} has more")
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
    except (FormatError, ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
