import io
import json
import os
import re
import stat
import threading
import warnings

import numpy as np
import pytest

from rtcdenoise import (
    ConvWeightSet,
    Frame,
    NoiseRng,
    PipelineConfig,
    VideoSequence,
    add_gaussian_noise,
    add_speckle,
    dump_config,
    feedback_to_json,
    make_sequence,
    parse_config,
    parse_config_text,
    random_weights,
    read_y4m,
    read_y4m_file,
    report_to_json,
    run_denoise,
    run_simulate,
    write_y4m,
    write_weights_file,
    write_y4m_file,
)
from rtcdenoise.cli import main
from rtcdenoise.frameio import Y4MWriter
import rtcdenoise.cli
import rtcdenoise.pipeline

import oracles
from util import PLACEMENTS, frames_equal, on_single_lane, pipe_feeding, sequences_equal, traced_peak


@pytest.fixture()
def clean_clip(tmp_path):
    path = tmp_path / "clean.y4m"
    write_y4m_file(make_sequence(8, 64, 48, seed=1, motion=(1.0, 0.0)), path)
    return path


@pytest.fixture()
def noisy_clip(tmp_path):
    clean = make_sequence(8, 64, 48, seed=2)
    noisy = VideoSequence(
        frames=tuple(add_gaussian_noise(f, 25.0, seed=t) for t, f in enumerate(clean)),
        frame_rate=clean.frame_rate,
    )
    path = tmp_path / "noisy.y4m"
    write_y4m_file(noisy, path)
    return path


# --- simulate ----------------------------------------------------------------

def test_simulate_full_output_set(tmp_path, clean_clip, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[sender]\nnoise_sigma = 25\n[analyzer]\nfeedback_window = 4\n")
    received = tmp_path / "received.y4m"
    denoised = tmp_path / "denoised.y4m"
    report = tmp_path / "report.jsonl"
    feedback = tmp_path / "feedback.jsonl"
    stats = tmp_path / "stats.json"
    code = main([
        "simulate", "--in", str(clean_clip), "--config", str(cfg),
        "--out-received", str(received), "--out-denoised", str(denoised),
        "--report", str(report), "--feedback", str(feedback), "--stats", str(stats),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert re.search(r"frames=8 bypassed=\d+ denoised=\d+ feedback=2 fps=\d", out)

    assert len(read_y4m_file(received)) == 8
    assert len(read_y4m_file(denoised)) == 8
    report_rows = [json.loads(line) for line in report.read_text().splitlines()]
    assert len(report_rows) == 8
    assert [row["frame_index"] for row in report_rows] == list(range(8))
    assert all(row["reference_mode"] == "full" for row in report_rows)
    feedback_rows = [json.loads(line) for line in feedback.read_text().splitlines()]
    assert len(feedback_rows) == 2
    assert {row["window_start"] for row in feedback_rows} == {0, 4}
    payload = json.loads(stats.read_text())
    assert payload["frame_count"] == 8
    assert len(payload["analyze_ms"]) == 8


def test_simulate_dump_config_round_trips(clean_clip, capsys):
    code = main(["simulate", "--in", str(clean_clip), "--seed", "9", "--dump-config"])
    assert code == 0
    printed = capsys.readouterr().out
    config = parse_config_text(printed)
    assert config.seed == 9
    assert dump_config(config) in printed + "\n"


def test_simulate_deterministic_outputs(tmp_path, clean_clip):
    outs = []
    for name in ("a.y4m", "b.y4m"):
        out = tmp_path / name
        assert main(["simulate", "--in", str(clean_clip), "--out-received", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("fault", ["clip", "report"])
def test_simulate_write_failure_keeps_the_old_output(tmp_path, clean_clip, monkeypatch, fault):
    # the three streamed outputs are written while the run goes on: a fault in
    # any of them leaves every one as it was
    flags = ["--out-received", "--out-denoised", "--report"]
    for flag in flags:
        (tmp_path / f"old{flag}").write_bytes(b"old contents")
    owner, name = (Y4MWriter, "write") if fault == "clip" else (rtcdenoise.cli, "report_to_json")
    original = getattr(owner, name)
    calls = []

    def failing(*args):
        calls.append(None)
        if len(calls) > 2:
            raise RuntimeError("injected write fault")
        return original(*args)

    monkeypatch.setattr(owner, name, failing)
    with pytest.raises(RuntimeError, match="injected write fault"):
        main(["simulate", "--in", str(clean_clip), *_output_args(tmp_path, flags, "old")])
    assert [(tmp_path / f"old{flag}").read_bytes() for flag in flags] == [b"old contents"] * 3
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["clean.y4m"] + [f"old{flag}" for flag in flags])


def test_two_outputs_naming_one_path_end_as_if_written_in_turn(tmp_path, clean_clip, capsys):
    # the outputs are renamed in the order of their flags, so the later stays
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[sender]\nnoise_sigma = 25\n")
    result = run_simulate(read_y4m_file(clean_clip), parse_config(cfg))
    denoised = io.BytesIO()
    write_y4m(result.denoised, denoised)
    reports = "".join(report_to_json(r) + "\n" for r in result.reports)
    same = tmp_path / "same"
    for flags, expected in [(["--out-received", "--out-denoised"], denoised.getvalue()),
                            (["--out-denoised", "--report"], reports.encode()),
                            (["--out-received", "--report"], reports.encode())]:
        assert main(["simulate", "--in", str(clean_clip), "--config", str(cfg),
                     *(arg for flag in flags for arg in (flag, str(same)))]) == 0
        assert same.read_bytes() == expected, flags
    _, noref, _ = run_denoise(read_y4m_file(clean_clip))
    assert main(["denoise", "--in", str(clean_clip), "--out", str(same), "--report", str(same)]) == 0
    assert same.read_text() == "".join(report_to_json(r) + "\n" for r in noref)
    capsys.readouterr()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["clean.y4m", "run.cfg", "same"]


@pytest.mark.parametrize("command, flag", [("denoise", "--out"), ("denoise", "--report"),
                                           ("simulate", "--out-received"), ("simulate", "--report"),
                                           ("simulate", "--feedback"), ("inject", "--out")])
def test_an_output_in_a_missing_folder_is_named_as_given(tmp_path, clean_clip, command, flag, capsys):
    missing = tmp_path / "missing" / "o.y4m"
    options = ["--noise", "gaussian:5"] if command == "inject" else []
    assert main([command, "--in", str(clean_clip), *options, flag, str(missing)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: [Errno 2] No such file or directory: '{missing}'\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["clean.y4m"]


# --- denoise -----------------------------------------------------------------

def test_denoise_round_trip(tmp_path, noisy_clip, capsys):
    out = tmp_path / "out.y4m"
    report = tmp_path / "report.jsonl"
    code = main(["denoise", "--in", str(noisy_clip), "--out", str(out), "--report", str(report)])
    assert code == 0
    assert "frames=8" in capsys.readouterr().out
    assert len(read_y4m_file(out)) == 8
    rows = [json.loads(line) for line in report.read_text().splitlines()]
    assert all(row["reference_mode"] == "noref" for row in rows)
    assert all(row["psnr_noisy"] is None for row in rows)


def test_denoise_dump_config_defaults(capsys, noisy_clip):
    assert main(["denoise", "--in", str(noisy_clip), "--dump-config"]) == 0
    assert parse_config_text(capsys.readouterr().out) == PipelineConfig()


# --- inject ------------------------------------------------------------------

def test_inject_deterministic_and_composable(tmp_path, clean_clip):
    out1 = tmp_path / "n1.y4m"
    out2 = tmp_path / "n2.y4m"
    other_seed = tmp_path / "n3.y4m"
    argv = ["inject", "--in", str(clean_clip), "--noise", "gaussian:10",
            "--noise", "saltpepper:0.02"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert main(argv + ["--seed", "5", "--out", str(other_seed)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_bytes() != other_seed.read_bytes()

    injected = read_y4m_file(out1)
    clean = read_y4m_file(clean_clip)
    assert len(injected) == len(clean)
    assert injected[0].y.shape == clean[0].y.shape


def test_inject_rejects_bad_spec(clean_clip, tmp_path, capsys):
    out = str(tmp_path / "x.y4m")
    assert main(["inject", "--in", str(clean_clip), "--noise", "sparkle:3", "--out", out]) == 1
    assert main(["inject", "--in", str(clean_clip), "--noise", "gaussian:lots", "--out", out]) == 1
    assert main(["inject", "--in", str(clean_clip), "--noise", "gaussian:-4", "--out", out]) == 1
    assert "sparkle" in capsys.readouterr().err


@pytest.mark.parametrize("spec, problem", [
    ("gaussian:nan", "finite"),
    ("gaussian:1e309", "finite"),
    ("speckle:inf", "finite"),
    ("saltpepper:2", "at most 1"),
    ("saltpepper:1.5", "at most 1"),
    ("speckle:1e308", "at most 1e+300"),
    ("speckle:1.1e300", "at most 1e+300"),
])
def test_inject_rejects_out_of_range_values(clean_clip, tmp_path, spec, problem, capsys):
    out = tmp_path / "x.y4m"
    assert main(["inject", "--in", str(clean_clip), "--noise", spec, "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert problem in err[0] and spec.partition(":")[2] in err[0]
    assert not out.exists()


_SEED_OUT = {"simulate": ["--out-received"], "inject": ["--noise", "gaussian:5", "--out"]}


@pytest.mark.parametrize("command", ["simulate", "inject"])
@pytest.mark.parametrize("seed, problem", [
    ("-1", "must be in [0, 18446744073709551615], got -1"),
    (str(2 ** 64), "must be in [0, 18446744073709551615], got 18446744073709551616"),
    ("1.5", "expected an integer, got '1.5'"),
])
def test_a_seed_outside_the_streams_is_a_usage_error(clean_clip, tmp_path, command, seed, problem,
                                                      capsys):
    # a stream keeps its seed mod 2**64, so -1 would give the run that 2**64 - 1 gives
    out = tmp_path / "x.y4m"
    assert main([command, "--in", str(clean_clip), "--seed", seed, *_SEED_OUT[command], str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].endswith(f"argument --seed: {problem}"), err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "inject"])
def test_seeds_at_both_bounds_run(clean_clip, tmp_path, command, capsys):
    noisy = tmp_path / "noisy.cfg"  # capture noise, so the seed shows in the received clip
    noisy.write_text("[sender]\nnoise_sigma = 10\n")
    options = ["--config", str(noisy)] if command == "simulate" else []
    outs = []
    for seed in ("0", str(2 ** 64 - 1)):
        out = tmp_path / f"{seed}.y4m"
        assert main([command, "--in", str(clean_clip), "--seed", seed, *_SEED_OUT[command], str(out),
                     *options]) == 0
        outs.append(out.read_bytes())
    assert outs[0] != outs[1]


def test_an_out_of_range_config_seed_is_a_data_error(tmp_path, clean_clip, capsys):
    cfg = tmp_path / "seed.cfg"
    cfg.write_text("[pipeline]\nseed = -1\n")
    assert main(["simulate", "--in", str(clean_clip), "--config", str(cfg)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {cfg}:2: pipeline.seed: must be in [0, 18446744073709551615], got -1"]


def test_inject_speckle_at_cap_stays_finite(tmp_path, capsys):
    dark = tmp_path / "dark.y4m"
    write_y4m_file(VideoSequence((Frame(y=np.array([[0, 1], [128, 255]], dtype=np.uint8)),) * 2), dark)
    out = tmp_path / "x.y4m"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["inject", "--in", str(dark), "--noise", "speckle:1e300", "--out", str(out)]) == 0
    capsys.readouterr()
    assert read_y4m_file(out)[0].y[0, 0] == 0


@pytest.mark.parametrize("shape", [(360, 480), (37, 53), (1, 5)])
def test_inject_equals_its_single_lane_output(tmp_path, shape, capsys):
    clip = tmp_path / "clip.y4m"
    write_y4m_file(make_sequence(2, shape[1], shape[0], seed=shape[1], with_chroma=True), clip)

    def inject(out):
        args = ["inject", "--in", str(clip), "--noise", "gaussian:25", "--noise", "speckle:0.2",
                "--seed", "5", "--out", str(out)]
        return main(args)

    assert on_single_lane(inject, tmp_path / "single.y4m") == 0
    assert inject(tmp_path / "split.y4m") == 0
    capsys.readouterr()
    assert (tmp_path / "split.y4m").read_bytes() == (tmp_path / "single.y4m").read_bytes()


def test_simulate_rejects_noise_sigma_past_its_cap(tmp_path, clean_clip, capsys):
    cfg = tmp_path / "sender.cfg"
    cfg.write_text("[sender]\nnoise_sigma = 1e308\n")
    report = tmp_path / "r.jsonl"
    assert main(["simulate", "--in", str(clean_clip), "--config", str(cfg),
                 "--report", str(report)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {cfg}:2: sender.noise_sigma: must be in [0, 1e+300], got 1e+308"]
    assert not report.exists()


def test_inject_accepts_full_density(clean_clip, tmp_path, capsys):
    out = tmp_path / "x.y4m"
    assert main(["inject", "--in", str(clean_clip), "--noise", "saltpepper:1", "--out", str(out)]) == 0
    capsys.readouterr()
    assert set(np.unique(read_y4m_file(out)[0].y)) <= {0, 255}


# --- detect ------------------------------------------------------------------

def test_detect_reports_every_frame(noisy_clip, capsys):
    assert main(["detect", "--in", str(noisy_clip)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 8
    pattern = re.compile(
        r"^frame=(\d+) sigma=\d+\.\d{4} category=[a-z-]+ "
        r"impulse=\d+\.\d{4} blockiness=\d+\.\d{4} corr=-?\d+\.\d{4}$"
    )
    for t, line in enumerate(lines):
        match = pattern.match(line)
        assert match, line
        assert int(match.group(1)) == t
    assert "category=gaussian" in lines[0]


@pytest.mark.parametrize("shape", [(2, 2), (2, 40), (40, 1)])
def test_detect_rejects_frames_below_3x3(tmp_path, shape, capsys):
    tiny = tmp_path / "tiny.y4m"
    write_y4m_file(VideoSequence((Frame(y=np.zeros(shape, dtype=np.uint8)),) * 2), tiny)
    assert main(["detect", "--in", str(tiny)]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == ""
    assert len(err) == 1
    assert f"{shape[1]}x{shape[0]}" in err[0] and "at least 3 pixels" in err[0]


# each subcommand's arguments, reading {clip}, and the flags of its regular-file
# outputs (detect's histograms are per-frame files, written like its lines)
_COMMANDS = {
    "denoise": (["--in", "{clip}"], ["--out", "--report"]),
    "simulate": (["--in", "{clip}"],
                 ["--out-received", "--out-denoised", "--report", "--feedback", "--stats"]),
    "metrics": (["--ref", "{clip}", "--test", "{clip}"], ["--json"]),
    "inject": (["--in", "{clip}", "--noise", "gaussian:4"], ["--out"]),
    "detect": (["--in", "{clip}"], []),
}


def _output_args(folder, flags, prefix="out"):
    """Each output flag, followed by the path folder / f"{prefix}{flag}"."""
    return [arg for flag in flags for arg in (flag, str(folder / f"{prefix}{flag}"))]


def _run_checked(tmp_path, command, clip, capsys, options=(), detect_lines=False):
    """(exit code, stderr) of command on clip, every output in tmp_path; checks a rejection.

    A rejection (exit 2) prints one stderr line, no traceback and nothing on
    stdout, and leaves no output file and no temporary in tmp_path. With
    detect_lines, detect may have printed the lines of frames before a fault.
    """
    before = set(tmp_path.iterdir())
    inputs, outputs = _COMMANDS[command]
    code = main([command, *(arg.format(clip=clip) for arg in inputs), *options,
                 *_output_args(tmp_path, outputs)])
    captured = capsys.readouterr()
    if code == 2:
        err = captured.err.splitlines()
        if not (detect_lines and command == "detect"):
            assert captured.out == ""
        assert len(err) == 1 and err[0].startswith("error: "), captured.err
        assert "Traceback" not in captured.err
        assert set(tmp_path.iterdir()) == before  # no output and no temporary
    return code, captured.err


def _assert_rejects(tmp_path, command, clip, problem, capsys, options=()):
    """command exits 2, its one stderr line naming problem, and leaves no file; returns the line."""
    code, err = _run_checked(tmp_path, command, clip, capsys, options)
    assert code == 2 and problem in err, err
    return err.rstrip("\n")


def test_denoise_rejects_frames_below_3x3(tmp_path, capsys):
    for shape in [(2, 2), (2, 8), (8, 2)]:
        tiny = tmp_path / "tiny.y4m"
        write_y4m_file(VideoSequence((Frame(y=np.zeros(shape, dtype=np.uint8)),) * 6), tiny)
        _assert_rejects(
            tmp_path, "denoise", tiny,
            f"frames are {shape[1]}x{shape[0]}; the noise estimates need at least 3 pixels",
            capsys)


def _clip_bytes(n, width=16, height=12, **kwargs):
    sink = io.BytesIO()
    write_y4m(make_sequence(n, width, height, seed=9, **kwargs), sink)
    return sink.getvalue()


@pytest.mark.parametrize("command", ["denoise", "simulate"])
@pytest.mark.parametrize("placement", ["free", "claimed"])
def test_a_truncated_last_frame_is_rejected(tmp_path, placement, command, capsys):
    # the error comes while an earlier cohort's reports trail, on either lane;
    # the run still leaves no file and no thread but the helpers behind
    clip = tmp_path / "cut.y4m"
    clip.write_bytes(_clip_bytes(13, 24, 20, with_chroma=True)[:-5])
    cfg = _config_file(tmp_path / "run.cfg", cadence=2)
    threads = set(threading.enumerate())
    with PLACEMENTS[placement]():
        _assert_rejects(tmp_path, command, clip, "truncated frame 12", capsys, ["--config", str(cfg)])
    assert [t.name for t in set(threading.enumerate()) - threads
            if not t.name.startswith("rtcdenoise-helper")] == []


def test_denoise_rejects_a_bad_frame_marker_mid_clip(tmp_path, capsys):
    data = _clip_bytes(7)
    third = data.index(b"FRAME\n", data.index(b"FRAME\n", data.index(b"FRAME\n") + 1) + 1)
    clip = tmp_path / "marker.y4m"
    clip.write_bytes(data[:third] + b"FRAMX\n" + data[third + 6:])
    _assert_rejects(tmp_path, "denoise", clip, f"expected FRAME marker (byte offset {third})", capsys)


@pytest.mark.parametrize("command", ["denoise", "simulate"])
@pytest.mark.parametrize("line", ["marker", "header"])
def test_a_line_without_its_newline_is_not_read_on(tmp_path, command, line, capsys):
    # a damaged FRAME marker or header followed by 16 MB with no newline: the
    # reader gives up after a bounded line, not at the next newline
    import scipy.fft  # noqa: F401  (as run_simulate does, outside the traced call)
    import scipy.ndimage  # noqa: F401

    header = _clip_bytes(1, 20, 18).split(b"\n")[0]
    if line == "marker":
        data, problem = header + b"\nFRAM", f"expected FRAME marker (byte offset {len(header) + 1})"
    else:
        data, problem = header + b" X" + bytes(1 << 16), "unterminated stream header (byte offset 65536)"
    clip = tmp_path / "damaged.y4m"
    clip.write_bytes(data + bytes(1 << 24))
    peak = traced_peak(_assert_rejects, tmp_path, command, clip, problem, capsys)[1]
    assert peak < 1 << 20, f"traced {peak} B"


@pytest.mark.parametrize("command", list(_COMMANDS))
@pytest.mark.parametrize("byte", [b"\x0b", b"\x1d", b"\r"], ids=["vt", "gs", "cr"])
def test_a_line_breaking_colorspace_token_gives_one_error_line(tmp_path, command, byte, capsys):
    clip = tmp_path / "cs.y4m"
    clip.write_bytes(_clip_bytes(2).replace(b"Cmono", b"C4" + byte + b"20", 1))
    line = _assert_rejects(tmp_path, command, clip, "unsupported colorspace", capsys)
    assert line.startswith("error: unsupported colorspace C'4")


def test_non_finite_conv_weights_are_a_config_error(tmp_path, capsys):
    weights = random_weights(seed=1)
    kernels = (np.full_like(weights.kernels[0], np.nan),) + weights.kernels[1:]
    path = tmp_path / "nan.cwb"
    write_weights_file(ConvWeightSet(kernels=kernels, biases=weights.biases), path)
    cfg = tmp_path / "conv.cfg"
    cfg.write_text(f"[video_denoiser]\nmode = conv\nweights = {path}\n")
    clip = tmp_path / "in.y4m"
    _mixed_clip(clip, 4, True)
    _assert_rejects(tmp_path, "denoise", clip, "cannot load weights: layer 1 holds a non-finite weight",
                    capsys, ["--config", str(cfg)])


@pytest.mark.parametrize("rate", ["F0:1", "F-25:1", "F0"])
def test_denoise_rejects_non_positive_frame_rate(tmp_path, rate, capsys):
    clip = tmp_path / "rate.y4m"
    clip.write_bytes(_clip_bytes(4).replace(b"F25:1", rate.encode(), 1))
    _assert_rejects(tmp_path, "denoise", clip, "frame rate must be positive", capsys)


@pytest.mark.parametrize("rate", ["F0:1", "F-25:1"])
def test_detect_rejects_non_positive_frame_rate(tmp_path, rate, capsys):
    clip = tmp_path / "rate.y4m"
    clip.write_bytes(f"YUV4MPEG2 W8 H8 {rate} Cmono\nFRAME\n".encode() + bytes(64))
    assert main(["detect", "--in", str(clip)]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == ""
    assert len(err) == 1
    assert "frame rate must be positive" in err[0]


def test_detect_accepts_3x3_frames(tmp_path, capsys):
    small = tmp_path / "small.y4m"
    write_y4m_file(VideoSequence((Frame(y=np.full((3, 3), 9, dtype=np.uint8)),)), small)
    assert main(["detect", "--in", str(small)]) == 0
    assert capsys.readouterr().out.startswith("frame=0 sigma=0.0000")


def test_detect_writes_histograms(noisy_clip, tmp_path, capsys):
    hist_dir = tmp_path / "hists"
    assert main(["detect", "--in", str(noisy_clip), "--histogram", str(hist_dir)]) == 0
    capsys.readouterr()
    files = sorted(hist_dir.iterdir())
    assert [f.name for f in files] == [f"hist_{t:05d}.txt" for t in range(8)]
    counts = [int(line) for line in files[0].read_text().splitlines()]
    assert len(counts) == 256
    assert sum(counts) == 64 * 48


# --- metrics -----------------------------------------------------------------

def test_metrics_table_and_json(tmp_path, clean_clip, noisy_clip, capsys):
    json_path = tmp_path / "metrics.jsonl"
    code = main(["metrics", "--ref", str(clean_clip), "--test", str(clean_clip),
                 "--json", str(json_path)])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["frame", "psnr", "ssim", "ms_ssim", "vifp"]
    assert len(lines) == 1 + 8 + 1  # header, per-frame rows, mean row
    assert lines[1].split()[:2] == ["0", "inf"]
    assert lines[-1].split()[0] == "mean"
    assert lines[-1].split()[1] == "inf"
    assert lines[-1].split()[2] == "1.0000"
    rows = [json.loads(line) for line in json_path.read_text().splitlines()]
    assert len(rows) == 8  # json holds per-frame rows only
    assert rows[0]["psnr"] is None  # inf maps to null
    assert rows[0]["ssim"] == pytest.approx(1.0)


def test_metrics_finite_for_degraded_pair(clean_clip, noisy_clip, capsys):
    # different content entirely, still a valid comparison pair
    assert main(["metrics", "--ref", str(clean_clip), "--test", str(noisy_clip)]) == 0
    mean_row = capsys.readouterr().out.splitlines()[-1].split()
    assert mean_row[0] == "mean"
    assert 0.0 < float(mean_row[1]) < 60.0
    assert 0.0 < float(mean_row[2]) <= 1.0


def test_metrics_frame_count_mismatch_is_data_error(tmp_path, clean_clip, capsys):
    short = tmp_path / "short.y4m"
    write_y4m_file(make_sequence(3, 64, 48, seed=4), short)
    assert main(["metrics", "--ref", str(clean_clip), "--test", str(short)]) == 2
    assert "frame count mismatch" in capsys.readouterr().err


def test_metrics_count_mismatch_names_the_clip_that_ends_first(tmp_path, clean_clip, capsys):
    short = tmp_path / "short.y4m"
    write_y4m_file(make_sequence(3, 64, 48, seed=4), short)
    for ref, test in ((clean_clip, short), (short, clean_clip)):
        assert main(["metrics", "--ref", str(ref), "--test", str(test)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: frame count mismatch: {short} ends after 3 frames, {clean_clip} has more"]


def test_metrics_rows_equal_separable_reference(tmp_path, clean_clip, noisy_clip, capsys):
    json_path = tmp_path / "metrics.jsonl"
    assert main(["metrics", "--ref", str(clean_clip), "--test", str(noisy_clip),
                 "--json", str(json_path)]) == 0
    capsys.readouterr()
    rows = [json.loads(line) for line in json_path.read_text().splitlines()]
    for row, ref, test in zip(rows, read_y4m_file(clean_clip), read_y4m_file(noisy_clip)):
        a, b = ref.luma_f64(), test.luma_f64()
        assert row == {
            "frame": row["frame"],
            "psnr": oracles.separable_psnr(a, b),
            "ssim": oracles.separable_ssim(a, b),
            "ms_ssim": oracles.separable_ms_ssim(a, b),
            "vifp": oracles.separable_vifp(a, b),
        }


def test_metrics_frame_size_mismatch_is_data_error(tmp_path, capsys):
    wide, tall = tmp_path / "wide.y4m", tmp_path / "tall.y4m"
    write_y4m_file(make_sequence(3, 64, 48, seed=4), wide)
    write_y4m_file(make_sequence(3, 48, 64, seed=4), tall)
    assert main(["metrics", "--ref", str(wide), "--test", str(tall)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert "64x48" in err[0] and "48x64" in err[0]


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_header_only_input_is_data_error(tmp_path, command, capsys):
    empty = tmp_path / "empty.y4m"
    empty.write_bytes(b"YUV4MPEG2 W64 H48 F25:1 Ip A1:1 Cmono\n")
    line = _assert_rejects(tmp_path, command, empty, "no frames", capsys)
    assert "empty.y4m" in line


@pytest.mark.parametrize("side", [8, 16])
def test_frames_below_metric_minimum_are_data_errors(tmp_path, side, capsys):
    tiny = tmp_path / "tiny.y4m"
    write_y4m_file(make_sequence(4, side, side, seed=5), tiny)
    assert main(["simulate", "--in", str(tiny)]) == 2
    assert main(["metrics", "--ref", str(tiny), "--test", str(tiny)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    assert all(f"{side}x{side}" in line and "at least 17 pixels" in line for line in err)


def test_frames_at_metric_minimum_are_accepted(tmp_path, capsys):
    small = tmp_path / "small.y4m"
    write_y4m_file(make_sequence(4, 17, 17, seed=5), small)
    assert main(["simulate", "--in", str(small)]) == 0
    assert main(["metrics", "--ref", str(small), "--test", str(small)]) == 0
    capsys.readouterr()


# --- exit codes -----------------------------------------------------------------

def test_usage_errors_exit_1(capsys):
    assert main([]) == 1
    assert main(["simulate"]) == 1          # missing --in
    assert main(["transcode", "--in", "x"]) == 1
    capsys.readouterr()


def test_data_errors_exit_2(tmp_path, clean_clip, capsys):
    missing = str(tmp_path / "missing.y4m")
    assert main(["denoise", "--in", missing]) == 2

    garbage = tmp_path / "garbage.y4m"
    garbage.write_bytes(b"not a y4m stream")
    assert main(["denoise", "--in", str(garbage)]) == 2

    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text("[pipeline]\nthreshold = -2\n")
    assert main(["denoise", "--in", str(clean_clip), "--config", str(bad_cfg)]) == 2
    err = capsys.readouterr().err
    assert "threshold" in err


def test_non_finite_config_value_is_data_error(tmp_path, noisy_clip, capsys):
    cfg = tmp_path / "nan.cfg"
    cfg.write_text("[video_denoiser]\nk_temporal = nan\n")
    out = tmp_path / "out.y4m"
    assert main(["denoise", "--in", str(noisy_clip), "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {cfg}:2: video_denoiser.k_temporal: must be in [1e-06, 1000], got nan"]
    assert not out.exists()


@pytest.mark.parametrize("key, value", [
    ("bilateral_range_factor", "1e-300"),
    ("bilateral_range_factor", "1e-20"),
    ("bilateral_spatial_sigma", "1e-300"),
    ("gaussian_sigma_max", "1e300"),
])
def test_out_of_range_cascade_sigma_is_data_error(tmp_path, noisy_clip, key, value, capsys):
    cfg = tmp_path / "c.ini"
    cfg.write_text(f"[image_denoiser]\n{key} = {value}\n")
    out = tmp_path / "out.y4m"
    assert main(["denoise", "--in", str(noisy_clip), "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {cfg}:2: image_denoiser.{key}: must be in ")
    assert not out.exists()


@pytest.mark.parametrize("section, key, value", [
    ("image_denoiser", "window_radius", "16"),
    ("image_denoiser", "window_radius", "1000000000"),
    ("image_denoiser", "window_radius", "9" * 400),  # past float range: no OverflowError
    ("video_denoiser", "k_temporal", "1e200"),
    ("video_denoiser", "k_temporal", "1e-30"),
])
def test_out_of_range_window_radius_or_k_temporal_is_data_error(
        tmp_path, noisy_clip, section, key, value, capsys):
    cfg = tmp_path / "c.ini"
    cfg.write_text(f"[{section}]\n{key} = {value}\n")
    out = tmp_path / "out.y4m"
    assert main(["denoise", "--in", str(noisy_clip), "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {cfg}:2: {section}.{key}: must be in ")
    assert not out.exists()


@pytest.mark.parametrize("command", ["denoise", "simulate"])
@pytest.mark.parametrize("newline", [b"\n", b"\r\n"], ids=["lf", "crlf"])
def test_a_config_that_is_not_utf8_names_the_line_of_its_first_bad_byte(
        tmp_path, clean_clip, command, newline, capsys):
    cfg = tmp_path / "c.ini"
    cfg.write_bytes(newline.join([b"[pipeline]", b"seed = 1", b"execution = a\x85b", b"x = \xff", b""]))
    line = _assert_rejects(tmp_path, command, clean_clip, "not UTF-8", capsys, ["--config", str(cfg)])
    assert line == f"error: {cfg}:3: not UTF-8 text: byte 0x85"


# --- streaming -------------------------------------------------------------------

def _mixed_clip(path, n, with_chroma, width=40, height=36):
    """A clip whose sigma switches between 4 and 30 every 4 frames, so both routes run."""
    clean = make_sequence(n, width, height, seed=n, motion=(1.0, 0.5), with_chroma=with_chroma)
    noisy = VideoSequence(tuple(add_gaussian_noise(f, 30.0 if (t // 4) % 2 else 4.0, seed=t)
                                for t, f in enumerate(clean)))
    write_y4m_file(noisy, path)
    return noisy


def _config_file(path, cadence=5, extra=""):
    path.write_text(f"[video_denoiser]\ncadence = {cadence}\n" + extra)
    return path


@pytest.mark.parametrize("with_chroma", [False, True], ids=["mono", "c420"])
@pytest.mark.parametrize("n", [1, 4, 7, 13])
@pytest.mark.parametrize("cadence", [2, 3, 5])
@pytest.mark.parametrize("placement", ["free", "claimed"])
def test_streamed_denoise_matches_the_whole_clip_run(tmp_path, placement, cadence, n, with_chroma, capsys):
    # the streamed run places its forks as they fall, or every offered one on the helper
    noisy = _mixed_clip(tmp_path / "in.y4m", n, with_chroma)
    cfg = _config_file(tmp_path / "run.cfg", cadence)
    out, report = tmp_path / "out.y4m", tmp_path / "report.jsonl"
    with PLACEMENTS[placement]():
        assert main(["denoise", "--in", str(tmp_path / "in.y4m"), "--config", str(cfg),
                     "--out", str(out), "--report", str(report)]) == 0
    assert capsys.readouterr().out.startswith(f"frames={n} ")

    output, reports, _ = run_denoise(noisy, PipelineConfig(cadence=cadence))
    expected = io.BytesIO()
    write_y4m(output, expected)
    assert out.read_bytes() == expected.getvalue()
    assert report.read_text() == "".join(report_to_json(r) + "\n" for r in reports)


def test_the_execution_key_is_accepted_and_ignored(tmp_path, capsys):
    # it chose between two drivers once; files that set it still run, on the one driver
    clip = tmp_path / "in.y4m"
    _mixed_clip(clip, 13, True)
    outputs = {}
    for name, line in [("unset", ""), ("sequential", "execution = sequential\n"),
                       ("threaded", "execution = threaded\n")]:
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(f"[pipeline]\nseed = 3\n{line}[video_denoiser]\ncadence = 3\n")
        out, report = tmp_path / f"{name}.y4m", tmp_path / f"{name}.jsonl"
        assert main(["denoise", "--in", str(clip), "--config", str(cfg),
                     "--out", str(out), "--report", str(report)]) == 0
        outputs[name] = (out.read_bytes(), report.read_bytes())
        config = parse_config(cfg)
        assert parse_config_text(dump_config(config)) == config == parse_config(tmp_path / "unset.cfg")
    capsys.readouterr()
    assert outputs["sequential"] == outputs["unset"] == outputs["threaded"]
    turbo = tmp_path / "turbo.cfg"
    turbo.write_text("[pipeline]\nexecution = turbo\n")
    line = _assert_rejects(tmp_path, "denoise", clip, "pipeline.execution", capsys,
                           ["--config", str(turbo)])
    assert line == f"error: {turbo}:2: pipeline.execution: expected one of sequential, threaded, got 'turbo'"


# feedback every 4 frames, at a budget that makes the sender lower its rate,
# resolution or quality; at cadence 5 the first message applies at frame 7,
# which on the 7-frame clip is its end
_FEEDBACK = "[analyzer]\nfeedback_window = 4\nbudget_ms = 0.05\n[sender]\nnoise_sigma = 25\n"


@pytest.mark.parametrize("with_chroma", [False, True], ids=["mono", "c420"])
@pytest.mark.parametrize("n", [1, 4, 7, 13])
@pytest.mark.parametrize("cadence", [2, 3, 5])
@pytest.mark.parametrize("placement", ["free", "claimed"])
def test_streamed_simulate_matches_the_whole_clip_run(tmp_path, placement, cadence, n, with_chroma, capsys):
    clean = make_sequence(n, 40, 36, seed=n, motion=(1.0, 0.5), with_chroma=with_chroma)
    write_y4m_file(clean, tmp_path / "in.y4m")
    cfg = _config_file(tmp_path / "run.cfg", cadence, _FEEDBACK)
    flags = ("--out-received", "--out-denoised", "--report", "--feedback")
    outs = {flag: tmp_path / f"out{flag}" for flag in flags}
    with PLACEMENTS[placement]():
        assert main(["simulate", "--in", str(tmp_path / "in.y4m"), "--config", str(cfg),
                     *_output_args(tmp_path, flags)]) == 0

    result = run_simulate(clean, parse_config(cfg))
    assert capsys.readouterr().out.startswith(
        f"frames={n} bypassed={result.stats.frames_bypassed} "
        f"denoised={result.stats.frames_denoised} feedback={len(result.feedback_log)} ")
    for flag, clip in (("--out-received", result.received), ("--out-denoised", result.denoised)):
        expected = io.BytesIO()
        write_y4m(clip, expected)
        assert outs[flag].read_bytes() == expected.getvalue(), flag
    assert outs["--report"].read_text() == "".join(report_to_json(r) + "\n" for r in result.reports)
    assert outs["--feedback"].read_text() == "".join(
        feedback_to_json(m) + "\n" for m in result.feedback_log)


def test_run_denoise_sink_gets_every_frame_in_order_and_keeps_none(tmp_path):
    noisy = _mixed_clip(tmp_path / "in.y4m", 13, True)
    config = PipelineConfig(cadence=3)
    output, reports, stats = run_denoise(noisy, config)
    seen = []
    streamed = run_denoise(noisy, config, sink=lambda frame, report: seen.append((frame, report)))
    assert streamed[:2] == (None, None)
    assert streamed[2].frame_count == 13 and streamed[2].frames_denoised == stats.frames_denoised
    assert [r for _, r in seen] == reports
    assert all(frames_equal(f, g) for (f, _), g in zip(seen, output))


def test_denoise_out_may_name_its_input(tmp_path, capsys):
    clip = tmp_path / "clip.y4m"
    noisy = _mixed_clip(clip, 13, True)
    assert main(["denoise", "--in", str(clip), "--out", str(clip)]) == 0
    capsys.readouterr()
    expected = io.BytesIO()
    write_y4m(run_denoise(noisy)[0], expected)
    assert clip.read_bytes() == expected.getvalue()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["clip.y4m"]


def test_inject_out_may_name_its_input(tmp_path, clean_clip, capsys):
    copy = tmp_path / "copy.y4m"
    copy.write_bytes(clean_clip.read_bytes())
    argv = ["--noise", "gaussian:10", "--noise", "saltpepper:0.02", "--seed", "3"]
    assert main(["inject", "--in", str(clean_clip), "--out", str(tmp_path / "want.y4m")] + argv) == 0
    assert main(["inject", "--in", str(copy), "--out", str(copy)] + argv) == 0
    capsys.readouterr()
    assert copy.read_bytes() == (tmp_path / "want.y4m").read_bytes()


def test_inject_applies_each_noise_stage_to_every_frame(tmp_path, clean_clip, capsys):
    out = tmp_path / "noisy.y4m"
    assert main(["inject", "--in", str(clean_clip), "--noise", "speckle:0.2",
                 "--noise", "gaussian:6", "--seed", "11", "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote 8 frames to {out}\n"
    frames = list(read_y4m_file(clean_clip))
    root = NoiseRng(11)
    for op_index, (inject, strength) in enumerate([(add_speckle, 0.2), (add_gaussian_noise, 6.0)]):
        stream = root.derive(op_index)
        frames = [inject(f, strength, seed=int(stream.derive(t).seed)) for t, f in enumerate(frames)]
    assert sequences_equal(read_y4m_file(out), VideoSequence(tuple(frames)))


def test_failing_run_leaves_no_output_file(tmp_path, monkeypatch, capsys):
    clip = tmp_path / "in.y4m"
    _mixed_clip(clip, 13, True)
    calls = []

    def failing(*args, **kwargs):
        calls.append(None)
        if len(calls) > 2:
            raise RuntimeError("injected fault")
        return original(*args, **kwargs)

    original = rtcdenoise.pipeline.build_report_noref
    monkeypatch.setattr(rtcdenoise.pipeline, "build_report_noref", failing)
    out, report = tmp_path / "out.y4m", tmp_path / "report.jsonl"
    cfg = _config_file(tmp_path / "run.cfg", cadence=2)
    with pytest.raises(RuntimeError, match="injected fault"):
        main(["denoise", "--in", str(clip), "--config", str(cfg),
              "--out", str(out), "--report", str(report)])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.y4m", "run.cfg"]
    capsys.readouterr()


def _denoise_bytes(clip):
    expected = io.BytesIO()
    write_y4m(run_denoise(read_y4m_file(clip))[0], expected)
    return expected.getvalue()


def test_out_through_a_symlink_replaces_the_file_it_names(tmp_path, capsys):
    clip = tmp_path / "in.y4m"
    _mixed_clip(clip, 4, True)
    (tmp_path / "real.y4m").write_bytes(b"old")
    link = tmp_path / "link.y4m"
    link.symlink_to("real.y4m")
    assert main(["denoise", "--in", str(clip), "--out", str(link)]) == 0
    capsys.readouterr()
    assert os.readlink(link) == "real.y4m"
    assert (tmp_path / "real.y4m").read_bytes() == _denoise_bytes(clip)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.y4m", "link.y4m", "real.y4m"]


def test_outputs_keep_an_existing_mode_and_take_the_umask_when_new(tmp_path, capsys):
    clip = tmp_path / "in.y4m"
    _mixed_clip(clip, 4, True)
    out, report = tmp_path / "out.y4m", tmp_path / "report.jsonl"
    out.write_bytes(b"old")
    out.chmod(0o600)
    umask = os.umask(0o027)
    try:
        assert main(["denoise", "--in", str(clip), "--out", str(out), "--report", str(report)]) == 0
    finally:
        os.umask(umask)
    capsys.readouterr()
    assert out.stat().st_mode & 0o777 == 0o600
    assert report.stat().st_mode & 0o777 == 0o640
    assert out.read_bytes() == _denoise_bytes(clip)


def test_out_that_is_not_a_regular_file_is_written_directly(tmp_path, capsys):
    clip = tmp_path / "in.y4m"
    _mixed_clip(clip, 4, True)
    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    try:
        assert main(["denoise", "--in", str(clip), "--out", str(fifo)]) == 0
    finally:
        reader.join(timeout=30)
    capsys.readouterr()
    assert received == [_denoise_bytes(clip)]
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.y4m", "out.fifo"]

    # /dev/fd/N names a pipe here, as /dev/stdout does in a shell pipeline
    read_end, write_end = os.pipe()
    try:
        assert main(["denoise", "--in", str(clip), "--report", f"/dev/fd/{write_end}"]) == 0
        os.close(write_end)
        with open(read_end, "rb", closefd=False) as fh:
            lines = fh.read().decode().splitlines()
    finally:
        os.close(read_end)
    capsys.readouterr()
    assert [json.loads(line)["frame_index"] for line in lines] == [0, 1, 2, 3]


def test_out_naming_an_open_descriptor_writes_through_it(tmp_path, capsys):
    # as /dev/stdout does when a shell redirects the output to a file: the
    # file must not be replaced behind the descriptor that has it open
    clip = tmp_path / "in.y4m"
    _mixed_clip(clip, 4, True)
    out = tmp_path / "out.y4m"
    with open(out, "wb") as fh:
        inode = os.fstat(fh.fileno()).st_ino
        assert main(["denoise", "--in", str(clip), "--out", f"/dev/fd/{fh.fileno()}"]) == 0
    capsys.readouterr()
    assert out.stat().st_ino == inode
    assert out.read_bytes() == _denoise_bytes(clip)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.y4m", "out.y4m"]


def _long_clips(tmp_path, width, height):
    """Clips of 100 and 400 frames repeating 26 (sigma 30 on 4 of every 16, else 4), by length."""
    clean = make_sequence(26, width, height, seed=5, motion=(1.0, 0.5), with_chroma=True)
    noisy = [add_gaussian_noise(f, 30.0 if (t // 4) % 4 == 1 else 4.0, seed=t)
             for t, f in enumerate(clean)]
    clips = {n: tmp_path / f"in{n}.y4m" for n in (26, 100, 400)}
    for n, path in clips.items():
        write_y4m_file(VideoSequence(tuple(noisy[t % len(noisy)] for t in range(n))), path)
    return clips


@pytest.mark.parametrize("source", ["file", "pipe"])
def test_denoise_memory_does_not_grow_with_clip_length(tmp_path, source, capsys):
    # at 320x240 a whole-clip run holds every input and output frame, about
    # 3x as much at 400 frames as at 100 (18.6 against 61.7 MB). The reader
    # reads forward, a pipe as a file, so a streamed run peaks near 10 MB:
    # the frames in flight plus the two outputs' buffers of 16 frames each.
    # What still grows with length is small objects (per-frame timings, freed
    # tuples the interpreter keeps for reuse), a few hundred kB; the ratio
    # read 1.02-1.05. The pipe's writer thread reads the clip file 64 kB at a
    # time. The clips repeat 26 frames (sigma 30 on 4 of every 16, else 4) to
    # save time making them; the pipeline reads each frame afresh all the same.
    clips = _long_clips(tmp_path, 320, 240)

    def denoise(clip):
        return main(["denoise", "--in", clip, "--out", str(tmp_path / "out.y4m"),
                     "--report", str(tmp_path / "report.jsonl")])

    def peak(n):
        if source == "file":
            code, traced = traced_peak(denoise, str(clips[n]))
        else:
            with pipe_feeding(clips[n]) as fd:
                code, traced = traced_peak(denoise, f"/dev/fd/{fd}")
        assert code == 0
        return traced

    short, long = peak(100), peak(400)
    capsys.readouterr()
    assert long <= 1.1 * short, f"traced peak {short} B at 100 frames, {long} B at 400"


def test_simulate_memory_does_not_grow_with_clip_length(tmp_path, capsys):
    # a whole-clip run holds every clean, received and denoised frame: at
    # 160x120 it traced 9.3 MB at 100 frames and 25.4 MB at 400. Streamed,
    # the run peaks near 4.7 MB either way, below the three 100-frame clips
    # alone. What grows with length is small
    # objects, about 0.2 MB over 300 frames. A first run imports scipy and
    # fills the caches the metrics keep, so neither traced run pays for them.
    clips = _long_clips(tmp_path, 160, 120)

    def simulate(clip):
        return main(["simulate", "--in", str(clip),
                     *_output_args(tmp_path, ("--out-received", "--out-denoised", "--report"))])

    assert simulate(clips[26]) == 0
    (short_code, short), (long_code, long) = (traced_peak(simulate, clips[n]) for n in (100, 400))
    capsys.readouterr()
    assert short_code == long_code == 0
    assert long <= 1.1 * short, f"traced peak {short} B at 100 frames, {long} B at 400"
    assert short < 3 * 100 * 160 * 120 * 3 // 2, f"traced peak {short} B at 100 frames"


def test_denoise_streams_a_pipe(tmp_path, capsys):
    data = _clip_bytes(7, with_chroma=True)
    out = tmp_path / "out.y4m"
    with pipe_feeding(data, chunk=100) as fd:
        assert main(["denoise", "--in", f"/dev/fd/{fd}", "--out", str(out)]) == 0
    capsys.readouterr()
    expected = io.BytesIO()
    write_y4m(run_denoise(read_y4m(data))[0], expected)
    assert out.read_bytes() == expected.getvalue()


def test_simulate_streams_a_pipe(tmp_path, capsys):
    data = _clip_bytes(7, 24, 20, with_chroma=True)
    cfg = _config_file(tmp_path / "run.cfg", 3, _FEEDBACK)
    (tmp_path / "in.y4m").write_bytes(data)
    flags = ("--out-received", "--out-denoised", "--report", "--feedback")
    outputs = {}
    for source in ("file", "pipe"):
        argv = ["simulate", "--config", str(cfg), *_output_args(tmp_path, flags, source)]
        if source == "file":
            assert main(argv + ["--in", str(tmp_path / "in.y4m")]) == 0
        else:
            with pipe_feeding(data, chunk=100) as fd:
                assert main(argv + ["--in", f"/dev/fd/{fd}"]) == 0
        outputs[source] = [(tmp_path / f"{source}{flag}").read_bytes() for flag in flags]
    capsys.readouterr()
    assert outputs["pipe"] == outputs["file"]
