"""Static checks on where the package decides how work is placed and cut.

lanes alone decides whether a fork is offered to a helper lane, and a run or
band size that more than one module reads lives in frame, which each reader
reads at call time (frame.NAME): a size bound by ``from .x import NAME`` keeps
its value when a test shrinks it, so the seams it sizes would go untested.
The denoisers weigh by range in one kernel, image_denoiser._bilateral_runs,
whose one exponential is _tap_weight's. A PipelineConfig holds settings
only: every dataclass in it is frozen, and a run keeps its state elsewhere.
Each exported dataclass has one equality: frames (and so the sequences of
them) by identity, every other value by value. The package exports exactly
the public names its __init__ imports.
"""

import ast
from dataclasses import fields, is_dataclass
from fractions import Fraction
from pathlib import Path

import pytest

import rtcdenoise
from rtcdenoise import (
    AnalyzerReport,
    BlockParams,
    CascadeParams,
    ConvWeightSet,
    FeedbackMessage,
    ForkDecision,
    Frame,
    LossModel,
    LossState,
    NoiseEstimate,
    NoiseRng,
    PipelineConfig,
    PipelineStats,
    SenderConfig,
    SenderTraceEntry,
    VideoSequence,
    WindowPlan,
    analyze_frame,
    build_report_noref,
    fork_decision,
    make_feedback,
    make_frame,
    random_weights,
    zero_weights,
)

_PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rtcdenoise"
_MODULES = sorted(_PACKAGE.glob("*.py"))


def _tree(path: Path) -> ast.AST:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_the_package_has_modules():
    assert {"lanes.py", "frame.py", "metrics.py"} <= {path.name for path in _MODULES}


@pytest.mark.parametrize("path", _MODULES, ids=lambda path: path.name)
def test_no_module_imports_a_size_by_value(path):
    imported = [(node.lineno, alias.name)
                for node in ast.walk(_tree(path)) if isinstance(node, ast.ImportFrom)
                for alias in node.names if alias.name.endswith("_PIXELS")]
    assert imported == [], f"{path.name} binds sizes at import; read them as frame.NAME"


@pytest.mark.parametrize("path", [p for p in _MODULES if p.name != "lanes.py"],
                         ids=lambda path: path.name)
def test_only_lanes_names_offered(path):
    named = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Name) and node.id == "offered":
            named.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr == "offered":
            named.append(node.lineno)
        elif isinstance(node, ast.ImportFrom):
            named += [node.lineno for alias in node.names if alias.name == "offered"]
    assert named == [], f"{path.name} decides placement; leave it to lanes"


def _exp_calls(path: Path) -> list:
    """(module, enclosing function) of each np.exp(...) call in path."""
    calls = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            func = getattr(child, "func", None)
            if (isinstance(child, ast.Call) and isinstance(func, ast.Attribute) and func.attr == "exp"
                    and isinstance(func.value, ast.Name) and func.value.id == "np"):
                calls.append((path.name, owner))
            visit(child, owner)

    visit(_tree(path), None)
    return calls


def test_the_denoisers_have_one_exp_site():
    # the keyframe bilateral and the temporal motion gate both run on _bilateral_runs
    calls = [call for name in ("image_denoiser.py", "video_denoiser.py")
             for call in _exp_calls(_PACKAGE / name)]
    assert calls == [("image_denoiser.py", "_tap_weight")], \
        "range weights are _tap_weight's; run them through image_denoiser._bilateral_runs"


def _dataclasses_in(value):
    """value, if it is a dataclass instance, and every one reachable through its fields."""
    if is_dataclass(value) and not isinstance(value, type):
        yield value
        for spec in fields(value):
            yield from _dataclasses_in(getattr(value, spec.name))


def test_every_dataclass_in_a_config_is_frozen():
    config = PipelineConfig(block=BlockParams(conv_weights=zero_weights()))
    found = {type(part).__name__: type(part).__dataclass_params__.frozen
             for part in _dataclasses_in(config)}
    assert {"PipelineConfig", "LossModel", "ConvWeightSet"} <= set(found)
    assert [name for name, frozen in found.items() if not frozen] == [], \
        "a config holds settings only; keep run state in an object the run owns"


def _frame() -> Frame:
    return make_frame(24, 16, seed=3, with_chroma=True)


_FRAME = _frame()


def _report() -> AnalyzerReport:
    return build_report_noref(2, _FRAME, _FRAME, 30.0, 30.0, 1.5)


def _conv() -> BlockParams:
    return BlockParams(mode="conv", conv_weights=random_weights(seed=1))


# Each exported dataclass: a function that builds a sample afresh. Frames and
# sequences compare by identity, so their rebuild is a pixel-equal copy.
_SAMPLES = {
    AnalyzerReport: _report,
    BlockParams: _conv,
    CascadeParams: lambda: CascadeParams(window_radius=2, fusion_tau=None),
    ConvWeightSet: lambda: random_weights(seed=1),
    FeedbackMessage: lambda: make_feedback([_report()]),
    ForkDecision: lambda: fork_decision(analyze_frame(_FRAME)),
    Frame: _frame,
    LossModel: lambda: LossModel(kind="gilbert-elliott", seed=2 ** 64 - 1),
    LossState: lambda: LossState(NoiseRng(7, counter=3), in_bad=True),
    NoiseEstimate: lambda: analyze_frame(_FRAME),
    PipelineConfig: lambda: PipelineConfig(block=_conv(), weights_path="w.cwb"),
    PipelineStats: lambda: PipelineStats(1, 0, 1, (0.5,), (), (1.0,), (2.0,), 3.5, 3.5, 20.0, 50.0),
    SenderConfig: lambda: SenderConfig(q=20, resolution_scale=Fraction(3, 4)),
    SenderTraceEntry: lambda: SenderTraceEntry(0, 16, Fraction(1, 2), 2),
    VideoSequence: lambda: VideoSequence((_frame(), _frame()), Fraction(30, 1)),
    WindowPlan: lambda: WindowPlan(12, 3),
}
_BY_IDENTITY = (Frame, VideoSequence)


def test_every_exported_dataclass_has_a_sample():
    exported = {value for value in (getattr(rtcdenoise, name) for name in rtcdenoise.__all__)
                if isinstance(value, type) and is_dataclass(value)}
    assert set(_SAMPLES) == exported, "a new exported dataclass must choose its equality here"


@pytest.mark.parametrize("kind", list(_SAMPLES), ids=lambda kind: kind.__name__)
def test_equality_never_raises(kind):
    sample, rebuilt = _SAMPLES[kind](), _SAMPLES[kind]()
    assert sample == sample
    if kind in _BY_IDENTITY:
        assert sample != rebuilt and not sample == rebuilt
    else:
        assert sample is not rebuilt and sample == rebuilt and not sample != rebuilt
    if kind.__dataclass_params__.frozen:
        assert hash(sample) == hash(sample)
        if kind not in _BY_IDENTITY:
            assert hash(sample) == hash(rebuilt)


def test_a_sequence_equals_one_of_the_same_frames():
    sequence = _SAMPLES[VideoSequence]()
    assert VideoSequence(sequence.frames, sequence.frame_rate) == sequence


def _imported_public_names(path: Path) -> list:
    return [alias.asname or alias.name for node in ast.walk(_tree(path))
            if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names
            if not (alias.asname or alias.name).startswith("_")]


def test_all_lists_exactly_what_the_package_imports():
    imported = _imported_public_names(_PACKAGE / "__init__.py")
    assert len(set(rtcdenoise.__all__)) == len(rtcdenoise.__all__)
    assert sorted(rtcdenoise.__all__) == sorted(imported)
    namespace: dict = {}
    exec("from rtcdenoise import *", namespace)
    assert set(rtcdenoise.__all__) <= set(namespace)
