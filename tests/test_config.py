import io
import math
import random
import time
from dataclasses import FrozenInstanceError, fields
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from rtcdenoise import (
    BlockMode,
    BlockParams,
    CascadeParams,
    ConfigError,
    LossKind,
    LossModel,
    PipelineConfig,
    SenderConfig,
    dump_config,
    make_feedback,
    parse_config,
    parse_config_text,
    random_weights,
    write_weights_file,
    zero_weights,
)
from rtcdenoise.config import _KEYS, _SCHEMA, _split
from rtcdenoise.frame import range_of
from rtcdenoise.image_denoiser import MAX_WINDOW_RADIUS

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
# fusion_tau, a fractional scale, a false boolean and the gilbert-elliott
# model; the ignored execution key is not written
FULL_SAMPLE_DUMP = """\
[pipeline]
threshold = 18.5
seed = 42

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
    assert config.cadence == 5
    assert config.sender.q == 16
    assert config.loss.p_loss == 0.0


def test_full_sample_sets_every_key():
    config = parse_config_text(FULL_SAMPLE)
    assert config.threshold == 18.5
    assert config.seed == 42
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
        ("[pipeline]\nthreshold = -5\n", "pipeline.threshold: must be in [0, inf), got -5.0", 2),
        ("[pipeline]\nexecution = turbo\n", "pipeline.execution", 2),
        ("[sender]\nresolution_scale = 2/3\n", "resolution_scale must be 1, 3/4, or 1/2", 2),
        ("[loss]\np_loss = 1.5\n", "loss.p_loss: must be in [0, 1]", 2),
        ("[loss]\nmodel = lossy\n", "loss.model: expected one of", 2),
        ("[video_denoiser]\ncadence = 1\n", "video_denoiser.cadence: must be in [2, inf), got 1", 2),
        ("[video_denoiser]\nmode = conv\n", "mode = conv requires a weights path", 2),
        ("[image_denoiser]\nfusion_tau = -1\n", "fusion_tau: must be in [0, inf), got -1.0", 2),
        ("[pipeline]\nthreshold = nan\n", "pipeline.threshold: must be in [0, inf), got nan", 2),
        ("[video_denoiser]\nk_temporal = nan\n", "video_denoiser.k_temporal: must be in [1e-06, 1000], got nan", 2),
        ("[image_denoiser]\nfusion_tau = nan\n", "image_denoiser.fusion_tau: must be in [0, inf), got nan", 2),
        ("[sender]\nnoise_sigma = inf\n", "sender.noise_sigma: must be in [0, 1e+300], got inf", 2),
        ("[loss]\n\np_loss = -inf\n", "loss.p_loss: must be in [0, 1], got -inf", 3),
        ("[analyzer]\nbudget_ms = 1e999\n", "analyzer.budget_ms: must be in (0, inf), got inf", 2),
        # only a line feed ends a line: str.splitlines would read "more" as a key line
        ("[pipeline]\n# note\x0cmore\nseed = x\n", "pipeline.seed: ", 3),
        ("[pipeline]\n# note\x85more\nseed = x\n", "pipeline.seed: ", 3),
    ],
)
def test_errors_carry_source_and_line(text, fragment, line):
    with pytest.raises(ConfigError) as excinfo:
        parse_config_text(text, source="test.cfg")
    assert str(excinfo.value).startswith(f"test.cfg:{line}: ")
    assert fragment in str(excinfo.value)


def test_a_bad_byte_is_numbered_at_the_line_an_editor_shows(tmp_path):
    path = tmp_path / "ff.cfg"
    path.write_bytes(b"[pipeline]\n# a\x0cb\x0bc\nseed = \xff\n")
    with pytest.raises(ConfigError, match=r"ff\.cfg:3: not UTF-8 text: byte 0xff"):
        parse_config(path)


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
        ("# divisor\n[sender]\n\nframerate_divisor = 9\n", "sender.framerate_divisor: must be in [1, 4], got 9", 4),
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


def _ranged_keys():
    """(row, Range) for every config key whose target field declares a Range."""
    defaults = PipelineConfig()
    for row in _KEYS:
        if row.target is None:
            continue
        part, name, _ = _split(row.target)
        valid = range_of(getattr(defaults, part) if part else defaults, name)
        if valid is not None:
            yield row, valid


def _just_outside(valid, integer: bool) -> list:
    """The nearest rejected value past each finite end of valid, as config text."""
    def step(end, is_open, outward):
        if is_open:
            return end
        return end + outward if integer else math.nextafter(end, outward * math.inf)
    ends = [step(valid.lo, valid.open_lo, -1) if valid.lo is not None else None,
            step(valid.hi, valid.open_hi, +1) if valid.hi is not None else None]
    return [repr(float(v)) if not integer else str(int(v)) for v in ends if v is not None]


def _default_lines(section: str) -> list:
    """The `key = value` lines dump_config writes for section at the defaults."""
    dump = dump_config(PipelineConfig())
    return dump[dump.index(f"[{section}]\n"):].split("\n\n")[0].splitlines()[1:]


def _out_of_range_cases():
    for row, valid in _ranged_keys():
        for value in _just_outside(valid, row.cast is int) + ["nan"]:
            yield pytest.param(row, value, id=f"{row.section}.{row.key}={value}")


@pytest.mark.parametrize("row, value", _out_of_range_cases())
def test_out_of_range_value_is_reported_at_its_own_line(row, value):
    other = next(line for line in _default_lines(row.section) if not line.startswith(f"{row.key} = "))
    text = f"# a config\n[{row.section}]\n{other}\n\n{row.key} = {value}\n"
    with pytest.raises(ConfigError) as excinfo:
        parse_config_text(text, source="r.cfg")
    assert excinfo.value.line == 5
    assert str(excinfo.value).startswith(f"r.cfg:5: {row.section}.{row.key}: ")


def test_every_ranged_key_is_table_tested():
    # each declared range has a finite end, so each key gets a case besides nan
    assert all(_just_outside(valid, row.cast is int) for row, valid in _ranged_keys())
    assert {row.key for row, _ in _ranged_keys()} >= {
        "threshold", "window_radius", "k_temporal", "cadence", "budget_ms", "q", "q_max",
        "framerate_divisor", "p_loss", "slice_height"}


def test_readme_states_every_declared_bound():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme[readme.index("## Configuration"):].split("```\n")[1]
    comments: dict = {}
    section = None
    for line in block.splitlines():
        if line.startswith("["):
            section = line[1:-1]
        elif line.startswith("#"):
            comments[section] = f"{comments.get(section, '')} {line[1:].strip()}"
    for row, valid in _ranged_keys():
        assert row.key in comments[row.section], row.key
        assert str(valid) in comments[row.section], (row.key, str(valid))


def _fuzz_values(row, valid, rng) -> tuple:
    """Candidate texts for one key: (mostly valid, mostly invalid).

    The first list holds in-range, boundary and alternative spellings; the
    second out-of-range, non-finite and malformed ones.
    """
    if valid is None:
        spellings = {
            "execution": (["sequential", "threaded"], ["Threaded", "turbo"]),
            "mode": (["classical", "CLASSICAL"], ["conv", "neural"]),
            "spatial_enabled": (["true", "Yes", "on", "1", "false", "NO", "off", "0"], ["maybe"]),
            "resolution_scale": (["1", "1/1", "3/4", "0.75", "1/2", "0.5"], ["2/3", "1.0"]),
            "model": (["bernoulli", "Gilbert-Elliott"], ["markov"]),
            "weights": ([], ["/nonexistent/weights.cwb"]),
        }
        return spellings[row.key]
    integer = row.cast is int
    good, bad = [], _just_outside(valid, integer) + ["nan", "inf", "-inf", "1e400", "abc", "", "-0.0"]
    for end in (valid.lo, valid.hi):
        if end is not None:
            good += [str(int(end))] if integer else [repr(float(end)), repr(math.nextafter(end, 1.0))]
    lo = valid.lo if valid.lo is not None else -1e3
    hi = valid.hi if valid.hi is not None else lo + 1e3
    if integer:
        good += [str(rng.randint(int(lo), int(hi)))]
        bad += ["2.5", "1e3", "9" * 40]
    else:
        good += [repr(rng.uniform(lo, hi)), f"{rng.uniform(lo, hi):.3g}", f"{rng.uniform(lo, hi):.2e}"]
        bad += ["1_0"]
    return good, bad


def test_generated_configs_parse_or_raise_config_error_and_round_trip():
    rng = random.Random(2024)
    ranges = dict(_ranged_keys())
    pools = {(row.section, row.key): _fuzz_values(row, ranges.get(row), rng) for row in _KEYS}
    start = time.perf_counter()
    accepted = 0
    for _ in range(400):
        lines = []
        for section in rng.sample(list(_SCHEMA), rng.randint(1, len(_SCHEMA))):
            lines.append(f"[{section}]")
            for key in rng.sample(list(_SCHEMA[section]), rng.randint(0, len(_SCHEMA[section]))):
                if rng.random() < 0.2:
                    lines.append(rng.choice(["# comment", "", "   # indented comment"]))
                good, bad = pools[section, key]
                value = rng.choice(good if good and rng.random() < 0.95 else bad)
                lines.append(rng.choice([f"{key} = {value}", f"{key}={value}", f"  {key}  =  {value}  "]))
            if rng.random() < 0.02:
                lines.append(rng.choice(["bogus = 1", "[nosuch]", "no equals sign"]))
        try:
            config = parse_config_text("\n".join(lines))
        except ConfigError:
            continue
        accepted += 1
        assert parse_config_text(dump_config(config)) == config
    assert 40 <= accepted <= 360, accepted  # both outcomes are well exercised
    assert time.perf_counter() - start < 2.0


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


def test_a_conv_config_round_trips_equal(tmp_path):
    path = tmp_path / "w.cwb"
    write_weights_file(random_weights(seed=5), path)
    config = parse_config_text(f"[video_denoiser]\nmode = conv\nweights = {path}\n")
    again = parse_config_text(dump_config(config))
    assert again.block.conv_weights is not config.block.conv_weights  # read afresh
    assert again == config and hash(again) == hash(config)
    write_weights_file(random_weights(seed=6), path)
    assert parse_config_text(dump_config(config)) != config


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


def test_loss_settings_are_frozen():
    # a PipelineConfig holds settings only; the sender owns the loss process's state
    config = PipelineConfig()
    with pytest.raises(FrozenInstanceError):
        config.loss.p_loss = 0.5
    assert [spec.name for spec in fields(LossModel)] == [
        "kind", "p_loss", "p_enter_bad", "p_exit_bad", "p_loss_bad", "slice_height", "seed"]


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
        lambda: make_feedback([], budget_ms=_NAN),  # the limits are checked before the reports
        lambda: make_feedback([], sigma_threshold=_NAN),
        lambda: PipelineConfig(cadence=_NAN),
        lambda: PipelineConfig(cadence=float("inf")),
        lambda: PipelineConfig(feedback_window=_NAN),
        lambda: PipelineConfig(feedback_window=float("inf")),
        lambda: LossModel(slice_height=_NAN),
        lambda: LossModel(slice_height=float("inf")),
    ],
    ids=["threshold-nan", "threshold-inf", "budget-nan", "weight-nan", "noise-sigma-nan",
         "bilateral-sigma-nan", "gaussian-divisor-nan", "fusion-tau-nan", "k-temporal-nan",
         "policy-budget-nan", "policy-threshold-nan", "cadence-nan", "cadence-inf", "feedback-window-nan",
         "feedback-window-inf", "slice-height-nan", "slice-height-inf"],
)
def test_direct_api_rejects_non_finite_values(build):
    with pytest.raises(ValueError, match="must be in .*, got (nan|inf)"):
        build()


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: LossModel(kind="burst"), "is not a valid LossKind"),
        (lambda: BlockParams(mode="fast"), "is not a valid BlockMode"),
        (lambda: PipelineConfig(cadence=2.5), "cadence: must be an integer, got 2.5"),
        (lambda: PipelineConfig(feedback_window=2.5), "feedback_window: must be an integer, got 2.5"),
        (lambda: PipelineConfig(seed=2.5), "seed: must be an integer, got 2.5"),
        (lambda: CascadeParams(window_radius=2.5), "window_radius: must be an integer, got 2.5"),
        (lambda: CascadeParams(window_radius=True), "window_radius: must be an integer, got True"),
        (lambda: LossModel(slice_height=2.5), "slice_height: must be an integer, got 2.5"),
        (lambda: LossModel(seed=np.float64(3)), "seed: must be an integer, got 3.0"),
        (lambda: SenderConfig(q=16.5), "q: must be an integer, got 16.5"),
        (lambda: SenderConfig(framerate_divisor=1.5), "framerate_divisor: must be an integer, got 1.5"),
    ],
    ids=["loss-kind", "block-mode", "cadence", "feedback-window", "seed", "window-radius",
         "window-radius-bool", "slice-height", "loss-seed-float", "q", "framerate-divisor"],
)
def test_direct_api_rejects_values_no_config_file_can_state(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_enum_fields_take_their_value():
    assert LossModel(kind="gilbert-elliott").kind is LossKind.GILBERT_ELLIOTT
    assert BlockParams(mode="conv").mode is BlockMode.CONV
    # in any case, as a config file spells it
    assert LossModel(kind="Gilbert-Elliott") == LossModel(kind=LossKind.GILBERT_ELLIOTT)
    assert BlockParams(mode="CONV").mode is BlockMode.CONV


@pytest.mark.parametrize("build", [
    lambda seed: PipelineConfig(seed=seed),
    lambda seed: LossModel(seed=seed),
], ids=["pipeline", "loss"])
@pytest.mark.parametrize("seed", [-1, 2 ** 64], ids=["minus-one", "two-to-the-64"])
def test_seeds_are_the_ones_a_stream_keeps(build, seed):
    # NoiseRng keeps a seed mod 2**64, so a seed outside [0, 2**64 - 1] would alias another run
    with pytest.raises(ValueError, match=f"seed: must be in \\[0, 18446744073709551615\\], got {seed}"):
        build(seed)
    assert build(0) != build(2 ** 64 - 1)


@pytest.mark.parametrize(
    "config",
    [
        PipelineConfig(loss=LossModel(kind="gilbert-elliott", slice_height=1, seed=2 ** 64 - 1),
                       block=BlockParams(mode="classical")),
        PipelineConfig(seed=np.int64(7), cadence=np.int32(2), feedback_window=np.int64(0),
                       cascade=CascadeParams(window_radius=np.int64(MAX_WINDOW_RADIUS)),
                       sender=SenderConfig(q=np.int64(64), q_min=np.uint8(64), q_max=64,
                                           framerate_divisor=np.int16(4)),
                       loss=LossModel(slice_height=np.uint8(1), seed=np.uint64(2 ** 64 - 1))),
        PipelineConfig(seed=0, cadence=2, feedback_window=0, loss=LossModel(seed=0),
                       cascade=CascadeParams(window_radius=1),
                       sender=SenderConfig(q=1, q_min=1, q_max=1, framerate_divisor=1)),
    ],
    ids=["enum-values", "numpy-ints-at-bounds", "ints-at-lower-bounds"],
)
def test_api_configs_round_trip(config):
    assert parse_config_text(dump_config(config)) == config


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
    with pytest.raises(TypeError):  # one driver: the field is gone
        PipelineConfig(execution="threaded")
    with pytest.raises(ValueError):
        PipelineConfig(cadence=1)
    with pytest.raises(ValueError):
        PipelineConfig(budget_ms=0.0)
    with pytest.raises(ValueError):
        PipelineConfig(feedback_window=-1)
    with pytest.raises(ValueError):
        PipelineConfig(analyzer_weights=(0.5, 0.5))


def test_integer_past_float_range_is_finite():
    # math.isfinite overflows on such an int; an open upper end accepts it
    config = parse_config_text("[video_denoiser]\ncadence = " + "9" * 400 + "\n")
    assert config.cadence == int("9" * 400)
    with pytest.raises(ConfigError, match="window_radius: must be in"):
        parse_config_text("[image_denoiser]\nwindow_radius = " + "9" * 400 + "\n")
