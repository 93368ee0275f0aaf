import io
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from rtcdenoise import (
    BlockMode,
    BlockParams,
    CascadeParams,
    ConfigError,
    FeedbackPolicy,
    LossKind,
    NoiseRng,
    PipelineConfig,
    SenderConfig,
    dump_config,
    fresh_loss_model,
    parse_config,
    parse_config_text,
    random_weights,
    write_weights_file,
    zero_weights,
)

FULL_SAMPLE = """
# full configuration exercising every key
[pipeline]
threshold = 18.5
seed = 42
execution = threaded

[image_denoiser]
bilateral_spatial_sigma = 1.5
bilateral_range_factor = 2.5
gaussian_sigma_divisor = 18
gaussian_sigma_min = 0.6
gaussian_sigma_max = 2.0
fusion_tau = 12.5
window_radius = 2

[video_denoiser]
mode = classical
k_temporal = 1.2
spatial_enabled = false
cadence = 4

[analyzer]
weight_psnr = 0.5
weight_ssim = 0.3
weight_runtime = 0.2
budget_ms = 30
feedback_window = 10

[sender]
q = 24
resolution_scale = 3/4
framerate_divisor = 2
q_min = 2
q_max = 50
noise_sigma = 7.5

[loss]
model = gilbert-elliott
p_loss = 0.1
p_enter_bad = 0.02
p_exit_bad = 0.4
p_loss_bad = 0.9
slice_height = 8
seed = 7
"""


# the exact bytes of dump_config(parse_config_text(FULL_SAMPLE)): a numeric
# fusion_tau, a fractional scale, a false boolean and the gilbert-elliott model
FULL_SAMPLE_DUMP = """\
[pipeline]
threshold = 18.5
seed = 42
execution = threaded

[image_denoiser]
bilateral_spatial_sigma = 1.5
bilateral_range_factor = 2.5
gaussian_sigma_divisor = 18.0
gaussian_sigma_min = 0.6
gaussian_sigma_max = 2.0
fusion_tau = 12.5
window_radius = 2

[video_denoiser]
mode = classical
k_temporal = 1.2
spatial_enabled = false
cadence = 4

[analyzer]
weight_psnr = 0.5
weight_ssim = 0.3
weight_runtime = 0.2
budget_ms = 30.0
feedback_window = 10

[sender]
q = 24
resolution_scale = 3/4
framerate_divisor = 2
q_min = 2
q_max = 50
noise_sigma = 7.5

[loss]
model = gilbert-elliott
p_loss = 0.1
p_enter_bad = 0.02
p_exit_bad = 0.4
p_loss_bad = 0.9
slice_height = 8
seed = 7
"""

# the [video_denoiser] section dumped for mode = conv with a weights file
CONV_VIDEO_SECTION = """\
[video_denoiser]
mode = conv
k_temporal = 1.0
spatial_enabled = true
cadence = 5
weights = {path}

[analyzer]
"""

def test_empty_text_gives_defaults():
    config = parse_config_text("")
    assert config == PipelineConfig()
    assert config.threshold == 20.0
    assert config.execution == "sequential"
    assert config.cadence == 5
    assert config.sender.q == 16
    assert config.loss.p_loss == 0.0


def test_full_sample_sets_every_key():
    config = parse_config_text(FULL_SAMPLE)
    assert config.threshold == 18.5
    assert config.seed == 42
    assert config.execution == "threaded"
    assert config.cascade.bilateral_spatial_sigma == 1.5
    assert config.cascade.bilateral_range_factor == 2.5
    assert config.cascade.gaussian_sigma_divisor == 18.0
    assert config.cascade.gaussian_sigma_min == 0.6
    assert config.cascade.gaussian_sigma_max == 2.0
    assert config.cascade.fusion_tau == 12.5
    assert config.cascade.window_radius == 2
    assert config.block.mode is BlockMode.CLASSICAL
    assert config.block.k_temporal == 1.2
    assert config.block.spatial_enabled is False
    assert config.cadence == 4
    assert config.analyzer_weights == (0.5, 0.3, 0.2)
    assert config.budget_ms == 30.0
    assert config.feedback_window == 10
    assert config.sender.q == 24
    assert config.sender.resolution_scale == Fraction(3, 4)
    assert config.sender.framerate_divisor == 2
    assert config.sender.q_min == 2
    assert config.sender.q_max == 50
    assert config.sender.noise_sigma == 7.5
    assert config.loss.kind is LossKind.GILBERT_ELLIOTT
    assert config.loss.p_loss == 0.1
    assert config.loss.p_enter_bad == 0.02
    assert config.loss.p_exit_bad == 0.4
    assert config.loss.p_loss_bad == 0.9
    assert config.loss.slice_height == 8
    assert config.loss.seed == 7


def test_comments_blanks_and_whitespace_tolerated():
    config = parse_config_text("\n# leading comment\n[pipeline]\n  seed   =  5  \n\n")
    assert config.seed == 5


@pytest.mark.parametrize(
    "text,fragment,line",
    [
        ("[nosuch]\n", "unknown section [nosuch]", 1),
        ("[pipeline]\nbogus = 1\n", "unknown key 'bogus'", 2),
        ("seed = 1\n", "key before any [section]", 1),
        ("[pipeline]\nseed 1\n", "expected 'key = value'", 2),
        ("[pipeline]\nseed = 1\nseed = 2\n", "duplicate key 'seed'", 3),
        ("[pipeline]\nthreshold = -5\n", "pipeline.threshold: must be non-negative", 2),
        ("[pipeline]\nexecution = turbo\n", "pipeline.execution", 2),
        ("[sender]\nresolution_scale = 2/3\n", "resolution_scale must be 1, 3/4, or 1/2", 2),
        ("[loss]\np_loss = 1.5\n", "loss.p_loss: must be in [0, 1]", 2),
        ("[loss]\nmodel = lossy\n", "loss.model: expected one of", 2),
        ("[video_denoiser]\ncadence = 1\n", "video_denoiser.cadence: must be >= 2", 2),
        ("[video_denoiser]\nmode = conv\n", "mode = conv requires a weights path", 2),
        ("[image_denoiser]\nfusion_tau = -1\n", "fusion_tau must be non-negative", 2),
        ("[pipeline]\nthreshold = nan\n", "pipeline.threshold: must be finite, got nan", 2),
        ("[video_denoiser]\nk_temporal = nan\n", "video_denoiser.k_temporal: must be finite", 2),
        ("[image_denoiser]\nfusion_tau = nan\n", "image_denoiser.fusion_tau: must be finite", 2),
        ("[sender]\nnoise_sigma = inf\n", "sender.noise_sigma: must be finite, got inf", 2),
        ("[loss]\n\np_loss = -inf\n", "loss.p_loss: must be finite", 3),
        ("[analyzer]\nbudget_ms = 1e999\n", "analyzer.budget_ms: must be finite", 2),
    ],
)
def test_errors_carry_source_and_line(text, fragment, line):
    with pytest.raises(ConfigError) as excinfo:
        parse_config_text(text, source="test.cfg")
    assert str(excinfo.value).startswith(f"test.cfg:{line}: ")
    assert fragment in str(excinfo.value)


def test_cross_field_range_errors_located():
    bad = "[sender]\nq = 55\nq_max = 50\n"
    with pytest.raises(ConfigError) as excinfo:
        parse_config_text(bad, source="s.cfg")
    assert "q=55 outside" in str(excinfo.value)
    bad_cascade = "[image_denoiser]\ngaussian_sigma_min = 3.0\n"
    with pytest.raises(ConfigError, match="gaussian_sigma_min"):
        parse_config_text(bad_cascade)


@pytest.mark.parametrize(
    "text,fragment,line",
    [
        ("# divisor\n[sender]\n\nframerate_divisor = 9\n", "sender.framerate_divisor: must be in 1..4", 4),
        ("[pipeline]\nseed = 1\n[image_denoiser]\ngaussian_sigma_max = 0.1\n",
         "[image_denoiser]: require 0 < gaussian_sigma_min <= gaussian_sigma_max", 4),
        ("[sender]\n# range\nq_min = 40\nq_max = 30\n", "[sender]: require 1 <= q_min <= q_max", 3),
    ],
)
def test_cross_field_errors_name_first_key_of_section(text, fragment, line):
    with pytest.raises(ConfigError) as excinfo:
        parse_config_text(text, source="t.cfg")
    assert str(excinfo.value).startswith(f"t.cfg:{line}: ")
    assert fragment in str(excinfo.value)


def test_dump_config_roundtrip_defaults_and_custom(tmp_path):
    default = PipelineConfig()
    assert parse_config_text(dump_config(default)) == default

    custom = parse_config_text(FULL_SAMPLE)
    assert parse_config_text(dump_config(custom)) == custom


def test_dump_config_bytes_pinned(tmp_path):
    assert dump_config(parse_config_text(FULL_SAMPLE)) == FULL_SAMPLE_DUMP

    path = tmp_path / "w.cwb"
    write_weights_file(random_weights(seed=5), path)
    conv = dump_config(parse_config_text(f"[video_denoiser]\nmode = conv\nweights = {path}\n"))
    default = dump_config(PipelineConfig())
    video = default[default.index("[video_denoiser]"):default.index("[analyzer]") + len("[analyzer]\n")]
    assert conv == default.replace(video, CONV_VIDEO_SECTION.format(path=path))


def test_readme_config_block_is_the_default_dump():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("## Configuration"):]
    block = section.split("```\n")[1]
    uncommented = "".join(line for line in block.splitlines(keepends=True) if not line.startswith("#"))
    assert uncommented == dump_config(PipelineConfig())

def test_parse_config_reads_file_and_names_it(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("[pipeline]\nseed = 3\n")
    assert parse_config(path).seed == 3
    bad = tmp_path / "bad.cfg"
    bad.write_text("[pipeline]\nthreshold = -1\n")
    with pytest.raises(ConfigError) as excinfo:
        parse_config(bad)
    assert str(excinfo.value).startswith(f"{bad}:2:")


def test_conv_weights_loaded_via_config(tmp_path):
    weights = random_weights(seed=5)
    path = tmp_path / "w.cwb"
    write_weights_file(weights, path)
    config = parse_config_text(f"[video_denoiser]\nmode = conv\nweights = {path}\n")
    assert config.block.mode is BlockMode.CONV
    assert config.weights_path == str(path)
    assert np.array_equal(config.block.conv_weights.kernels[0], weights.kernels[0])
    # round-trips through dump_config with the weights line intact
    again = parse_config_text(dump_config(config))
    assert again.weights_path == config.weights_path
    assert again.block.mode is BlockMode.CONV
    for k1, k2 in zip(again.block.conv_weights.kernels, config.block.conv_weights.kernels):
        assert np.array_equal(k1, k2)


def test_conv_weights_file_errors_become_config_errors(tmp_path):
    missing = tmp_path / "nope.cwb"
    with pytest.raises(ConfigError, match="cannot load weights"):
        parse_config_text(f"[video_denoiser]\nweights = {missing}\n")
    corrupt = tmp_path / "corrupt.cwb"
    corrupt.write_bytes(b"CWB1garbage")
    with pytest.raises(ConfigError, match="cannot load weights"):
        parse_config_text(f"[video_denoiser]\nweights = {corrupt}\n")


def test_fusion_tau_auto_maps_to_none():
    config = parse_config_text("[image_denoiser]\nfusion_tau = auto\n")
    assert config.cascade.fusion_tau is None
    assert "fusion_tau = auto" in dump_config(config)


def test_fresh_loss_model_zeroes_state_and_mixes_seed():
    config = parse_config_text("[pipeline]\nseed = 11\n[loss]\np_loss = 0.3\nseed = 4\n")
    dirty = fresh_loss_model(config)
    assert dirty.draws == 0 and dirty.in_bad is False
    assert dirty.p_loss == 0.3
    expected = NoiseRng(seed=11).derive(2).derive(4).seed
    assert dirty.seed == int(expected)
    # distinct pipeline seeds give distinct channel streams for the same template
    other = fresh_loss_model(parse_config_text("[pipeline]\nseed = 12\n[loss]\nseed = 4\n"))
    assert other.seed != dirty.seed


_NAN = float("nan")


@pytest.mark.parametrize(
    "build",
    [
        lambda: PipelineConfig(threshold=_NAN),
        lambda: PipelineConfig(threshold=float("inf")),
        lambda: PipelineConfig(budget_ms=_NAN),
        lambda: PipelineConfig(analyzer_weights=(0.4, _NAN, 0.2)),
        lambda: SenderConfig(noise_sigma=_NAN),
        lambda: CascadeParams(bilateral_spatial_sigma=_NAN),
        lambda: CascadeParams(gaussian_sigma_divisor=_NAN),
        lambda: CascadeParams(fusion_tau=_NAN),
        lambda: BlockParams(k_temporal=_NAN),
        lambda: FeedbackPolicy(budget_ms=_NAN),
    ],
    ids=["threshold-nan", "threshold-inf", "budget-nan", "weight-nan", "noise-sigma-nan",
         "bilateral-sigma-nan", "gaussian-divisor-nan", "fusion-tau-nan", "k-temporal-nan",
         "policy-budget-nan"],
)
def test_direct_api_rejects_non_finite_values(build):
    with pytest.raises(ValueError, match="must be finite"):
        build()


def test_dump_config_refuses_conv_weights_without_a_path():
    config = PipelineConfig(block=BlockParams(mode=BlockMode.CONV, conv_weights=zero_weights()))
    with pytest.raises(ValueError, match="weights path"):
        dump_config(config)


@pytest.mark.parametrize("with_file", [False, True])
def test_dump_config_refuses_a_weights_path_without_its_weights(tmp_path, with_file):
    path = tmp_path / "w.cwb"
    if with_file:
        write_weights_file(random_weights(seed=5), path)
    with pytest.raises(ValueError, match="set together"):
        dump_config(PipelineConfig(weights_path=str(path)))
    with pytest.raises(ValueError, match="set together"):
        dump_config(PipelineConfig(block=BlockParams(conv_weights=zero_weights())))


def test_pipeline_config_direct_validation():
    with pytest.raises(ValueError):
        PipelineConfig(threshold=-1.0)
    with pytest.raises(ValueError):
        PipelineConfig(execution="parallel")
    with pytest.raises(ValueError):
        PipelineConfig(cadence=1)
    with pytest.raises(ValueError):
        PipelineConfig(budget_ms=0.0)
    with pytest.raises(ValueError):
        PipelineConfig(feedback_window=-1)
    with pytest.raises(ValueError):
        PipelineConfig(analyzer_weights=(0.5, 0.5))
