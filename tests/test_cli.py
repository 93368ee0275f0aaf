import json
import re
import warnings

import numpy as np
import pytest

from rtcdenoise import (
    Frame,
    PipelineConfig,
    VideoSequence,
    add_gaussian_noise,
    dump_config,
    make_sequence,
    parse_config_text,
    read_y4m_file,
    write_y4m_file,
)
from rtcdenoise.cli import main

import oracles


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


def test_inject_speckle_at_cap_stays_finite(tmp_path, capsys):
    dark = tmp_path / "dark.y4m"
    write_y4m_file(VideoSequence((Frame(y=np.array([[0, 1], [128, 255]], dtype=np.uint8)),) * 2), dark)
    out = tmp_path / "x.y4m"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["inject", "--in", str(dark), "--noise", "speckle:1e300", "--out", str(out)]) == 0
    capsys.readouterr()
    assert read_y4m_file(out)[0].y[0, 0] == 0


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


def test_denoise_rejects_frames_below_3x3(tmp_path, capsys):
    tiny = tmp_path / "tiny.y4m"
    write_y4m_file(VideoSequence((Frame(y=np.zeros((2, 2), dtype=np.uint8)),) * 6), tiny)
    out = tmp_path / "out.y4m"
    assert main(["denoise", "--in", str(tiny), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == ""
    assert len(err) == 1
    assert "2x2" in err[0] and "at least 3 pixels" in err[0]
    assert not out.exists()


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


@pytest.mark.parametrize("command", [
    ["denoise", "--in", "{clip}"],
    ["simulate", "--in", "{clip}"],
    ["metrics", "--ref", "{clip}", "--test", "{clip}"],
    ["inject", "--in", "{clip}", "--noise", "gaussian:4", "--out", "{out}"],
    ["detect", "--in", "{clip}"],
])
def test_header_only_input_is_data_error(tmp_path, command, capsys):
    empty = tmp_path / "empty.y4m"
    empty.write_bytes(b"YUV4MPEG2 W64 H48 F25:1 Ip A1:1 Cmono\n")
    argv = [arg.format(clip=empty, out=tmp_path / "out.y4m") for arg in command]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert "no frames" in err[0] and "empty.y4m" in err[0]


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
    assert err == [f"error: {cfg}:2: video_denoiser.k_temporal: must be finite, got nan"]
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
    assert len(err) == 1 and err[0].startswith(f"error: {cfg}:2: [image_denoiser]: {key} must be in ")
    assert not out.exists()


@pytest.mark.parametrize("section, key, value", [
    ("image_denoiser", "window_radius", "16"),
    ("image_denoiser", "window_radius", "1000000000"),
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
    assert len(err) == 1 and err[0].startswith(f"error: {cfg}:2: [{section}]: {key} must be in ")
    assert not out.exists()
