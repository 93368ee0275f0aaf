"""Pipeline configuration: `[section] key = value` text files.

The grammar is deliberately tiny: section headers in brackets, one key per
line, `#`-prefixed comment lines, blank lines ignored. Unknown sections or
keys are rejected, and every parse or range error carries file:line. A value
is checked against the Range its target field declares (frame.ranged) at its
own line; a rule between fields names the first line of its section. A config
produced by dump_config() parses back to an identical configuration.

[pipeline] execution = sequential | threaded is accepted and ignored: the
pipeline has one driver, and files written for an older version still parse.

A PipelineConfig holds settings only; a run keeps its state elsewhere. The
[loss] seed is a sub-stream id, not an absolute seed: the simulated sender
(pipeline._Sender) mixes it with [pipeline] seed into its loss stream, so one
seed knob reproduces an entire run.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from fractions import Fraction
from operator import attrgetter
from typing import Any, Callable, NamedTuple, Optional

from .analyzer import BUDGET_MS_RANGE, DEFAULT_BUDGET_MS, DEFAULT_FEEDBACK_WINDOW, DEFAULT_WEIGHTS
from .channel import SCALE_LADDER, LossKind, LossModel, SenderConfig
from .detector import DEFAULT_FORK_THRESHOLD
from .frame import Range, check_range, check_ranges, range_of, ranged
from .image_denoiser import CascadeParams
from .video_denoiser import DEFAULT_CADENCE, BlockMode, BlockParams, read_weights_file

_SECTION_RE = re.compile(r"^\[([A-Za-z_][A-Za-z0-9_]*)\]$")


class ConfigError(ValueError):
    """Configuration syntax, type, or range problem, located at source:line."""

    def __init__(self, source: str, line: int, message: str):
        super().__init__(f"{source}:{line}: {message}")
        self.source = source
        self.line = line


@dataclass(frozen=True)
class PipelineConfig:
    threshold: float = ranged(DEFAULT_FORK_THRESHOLD, Range(0))
    seed: int = 0
    cascade: CascadeParams = field(default_factory=CascadeParams)
    cadence: int = ranged(DEFAULT_CADENCE, Range(2))
    block: BlockParams = field(default_factory=BlockParams)
    weights_path: Optional[str] = None
    analyzer_weights: tuple = ranged(DEFAULT_WEIGHTS, Range(0))
    budget_ms: float = ranged(DEFAULT_BUDGET_MS, BUDGET_MS_RANGE)
    feedback_window: int = ranged(DEFAULT_FEEDBACK_WINDOW, Range(0))  # 0 disables feedback
    sender: SenderConfig = field(default_factory=SenderConfig)
    loss: LossModel = field(default_factory=LossModel)

    def __post_init__(self):
        check_ranges(self)
        if len(self.analyzer_weights) != 3:
            raise ValueError("analyzer weights must be three non-negative numbers")


def _format_scale(scale: Fraction) -> str:
    return "1" if scale == 1 else f"{scale.numerator}/{scale.denominator}"


def _parse_scale(raw: str) -> Fraction:
    for scale in SCALE_LADDER:  # as a fraction, in short form or as a decimal: 1/1, 1, 0.75, ...
        if raw in (f"{scale.numerator}/{scale.denominator}", _format_scale(scale), f"{float(scale):g}"):
            return scale
    names = [_format_scale(scale) for scale in reversed(SCALE_LADDER)]
    raise ValueError(f"resolution_scale must be {', '.join(names[:-1])}, or {names[-1]}, got {raw!r}")


def _parse_tau(raw: str) -> Optional[float]:
    return None if raw.lower() == "auto" else float(raw)


def _one_of(choices: dict, fold=lambda raw: raw):
    """Cast a spelling (after fold) to its value in choices."""
    def cast(raw: str):
        if fold(raw) in choices:
            return choices[fold(raw)]
        raise ValueError(f"expected one of {', '.join(choices)}, got {raw!r}")
    return cast


class _Key(NamedTuple):
    """One config key. target names the PipelineConfig field it sets, through a
    sub-config or a tuple index ("cascade.window_radius", "analyzer_weights[0]"),
    or is None for a key that is checked and ignored; cast parses the text to
    that field's type, whose Range parse_config_text checks next; show renders
    the field for dump_config, and a None result omits the line."""

    section: str
    key: str
    target: Optional[str]
    cast: Callable[[str], Any]
    show: Callable[[Any], Any] = lambda value: value


_enum_name = attrgetter("value")
_parse_bool = _one_of({"true": True, "yes": True, "on": True, "1": True,
                       "false": False, "no": False, "off": False, "0": False}, str.lower)


_KEYS = (
    _Key("pipeline", "threshold", "threshold", float),
    _Key("pipeline", "seed", "seed", int),
    _Key("pipeline", "execution", None, _one_of({"sequential": None, "threaded": None})),
    _Key("image_denoiser", "bilateral_spatial_sigma", "cascade.bilateral_spatial_sigma", float),
    _Key("image_denoiser", "bilateral_range_factor", "cascade.bilateral_range_factor", float),
    _Key("image_denoiser", "gaussian_sigma_divisor", "cascade.gaussian_sigma_divisor", float),
    _Key("image_denoiser", "gaussian_sigma_min", "cascade.gaussian_sigma_min", float),
    _Key("image_denoiser", "gaussian_sigma_max", "cascade.gaussian_sigma_max", float),
    _Key("image_denoiser", "fusion_tau", "cascade.fusion_tau", _parse_tau,
         lambda tau: "auto" if tau is None else tau),
    _Key("image_denoiser", "window_radius", "cascade.window_radius", int),
    _Key("video_denoiser", "mode", "block.mode", _one_of({m.value: m for m in BlockMode}, str.lower),
         _enum_name),
    _Key("video_denoiser", "k_temporal", "block.k_temporal", float),
    _Key("video_denoiser", "spatial_enabled", "block.spatial_enabled", _parse_bool,
         lambda on: "true" if on else "false"),
    _Key("video_denoiser", "cadence", "cadence", int),
    _Key("video_denoiser", "weights", "weights_path", str),
    _Key("analyzer", "weight_psnr", "analyzer_weights[0]", float),
    _Key("analyzer", "weight_ssim", "analyzer_weights[1]", float),
    _Key("analyzer", "weight_runtime", "analyzer_weights[2]", float),
    _Key("analyzer", "budget_ms", "budget_ms", float),
    _Key("analyzer", "feedback_window", "feedback_window", int),
    _Key("sender", "q", "sender.q", int),
    _Key("sender", "resolution_scale", "sender.resolution_scale", _parse_scale, _format_scale),
    _Key("sender", "framerate_divisor", "sender.framerate_divisor", int),
    _Key("sender", "q_min", "sender.q_min", int),
    _Key("sender", "q_max", "sender.q_max", int),
    _Key("sender", "noise_sigma", "sender.noise_sigma", float),
    _Key("loss", "model", "loss.kind", _one_of({m.value: m for m in LossKind}, str.lower),
         _enum_name),
    _Key("loss", "p_loss", "loss.p_loss", float),
    _Key("loss", "p_enter_bad", "loss.p_enter_bad", float),
    _Key("loss", "p_exit_bad", "loss.p_exit_bad", float),
    _Key("loss", "p_loss_bad", "loss.p_loss_bad", float),
    _Key("loss", "slice_height", "loss.slice_height", int),
    _Key("loss", "seed", "loss.seed", int),
)

# section -> key -> _Key, in table order
_SCHEMA: dict = {}
for _row in _KEYS:
    _SCHEMA.setdefault(_row.section, {})[_row.key] = _row


def _split(target: str):
    """"cascade.q" -> ("cascade", "q", None); "analyzer_weights[0]" -> ("", "analyzer_weights", 0)."""
    part, _, name = target.rpartition(".")
    name, bracket, index = name.partition("[")
    return part, name, int(index[:-1]) if bracket else None


def _lines(text: str) -> list:
    """The lines of text as an editor numbers them: split at each line feed, a trailing CR dropped.

    str.splitlines would also break at form feeds, NEL and other separators.
    """
    return [line.removesuffix("\r") for line in text.split("\n")]


def _scan(text: str, source: str) -> dict:
    """Tokenize into {section: {key: (value, line)}} with strict validation."""
    staged: dict = {name: {} for name in _SCHEMA}
    section = None
    for lineno, raw_line in enumerate(_lines(text), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        header = _SECTION_RE.match(line)
        if header:
            section = header.group(1)
            if section not in _SCHEMA:
                raise ConfigError(source, lineno, f"unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(source, lineno, f"expected 'key = value', got {line!r}")
        if section is None:
            raise ConfigError(source, lineno, "key before any [section] header")
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in _SCHEMA[section]:
            raise ConfigError(source, lineno, f"unknown key {key!r} in section [{section}]")
        if key in staged[section]:
            first = staged[section][key][1]
            raise ConfigError(source, lineno, f"duplicate key {key!r} (first set on line {first})")
        staged[section][key] = (value, lineno)
    return staged


def parse_config_text(text: str, source: str = "<config>") -> PipelineConfig:
    staged = _scan(text, source)
    defaults = PipelineConfig()
    fields: dict = {}    # PipelineConfig field -> value
    parts: dict = {}     # sub-config field -> {its field: value}
    for section, entries in staged.items():
        for key, (raw, lineno) in entries.items():
            row = _SCHEMA[section][key]
            label = f"{section}.{key}"
            try:
                value = row.cast(raw)
            except ValueError as exc:
                raise ConfigError(source, lineno, f"{label}: {exc}") from exc
            if row.target is None:
                continue
            part, name, index = _split(row.target)
            try:
                check_range(label, value, range_of(getattr(defaults, part) if part else defaults, name))
            except ValueError as exc:
                raise ConfigError(source, lineno, str(exc)) from exc
            if index is not None:
                items = fields.get(name, getattr(defaults, name))
                value = tuple(value if i == index else item for i, item in enumerate(items))
            (parts.setdefault(part, {}) if part else fields)[name] = value

    video = staged["video_denoiser"]
    block = parts.setdefault("block", {})
    if "weights_path" in fields:
        try:
            block["conv_weights"] = read_weights_file(fields["weights_path"])
        except (OSError, ValueError) as exc:
            raise ConfigError(source, video["weights"][1], f"cannot load weights: {exc}") from exc
    elif block.get("mode") is BlockMode.CONV:
        raise ConfigError(source, video["mode"][1], "mode = conv requires a weights path")

    for part, values in parts.items():
        try:
            fields[part] = replace(getattr(defaults, part), **values)
        except ValueError as exc:
            # a cross-field check: point at the first key this file sets in the section
            section = next(row.section for row in _KEYS if (row.target or "").startswith(part + "."))
            first_line = next(iter(staged[section].values()))[1]
            raise ConfigError(source, first_line, f"[{section}]: {exc}") from exc
    return replace(defaults, **fields)


def parse_config(path) -> PipelineConfig:
    """parse_config_text of the UTF-8 file at path; other bytes are a ConfigError at their line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the bytes before the bad one decode; number the lines as _scan does
        line = len(_lines(data[:exc.start].decode("utf-8")))
        raise ConfigError(str(path), line, f"not UTF-8 text: byte 0x{data[exc.start]:02x}") from exc
    return parse_config_text(text, source=str(path))


def dump_config(config: PipelineConfig) -> str:
    """Render the full configuration; parse_config_text() round-trips it.

    A config no file can express raises ValueError: conv mode without a
    weights path, or a weights path without the weights read from it.
    """
    if config.block.mode is BlockMode.CONV and config.weights_path is None:
        raise ValueError("mode = conv needs the weights path its weights were read from")
    if (config.weights_path is None) != (config.block.conv_weights is None):
        raise ValueError("weights_path and block.conv_weights must be set together "
                         "(parsing a weights line loads that file)")
    lines = []
    for section, rows in _SCHEMA.items():
        lines.append(f"[{section}]")
        for row in rows.values():
            if row.target is None:
                continue
            part, name, index = _split(row.target)
            value = getattr(getattr(config, part) if part else config, name)
            shown = row.show(value if index is None else value[index])
            if shown is not None:
                lines.append(f"{row.key} = {shown}")
        lines.append("")
    return "\n".join(lines)
