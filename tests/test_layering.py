"""Static checks on where the package decides how work is placed and cut.

lanes alone decides whether a fork is offered to a helper lane, and a run or
band size that more than one module reads lives in frame, which each reader
reads at call time (frame.NAME): a size bound by ``from .x import NAME`` keeps
its value when a test shrinks it, so the seams it sizes would go untested.
The denoisers weigh by range in one kernel, image_denoiser._bilateral_runs,
whose one exponential is _tap_weight's. A PipelineConfig holds settings
only: every dataclass in it is frozen, and a run keeps its state elsewhere.
"""

import ast
from dataclasses import fields, is_dataclass
from pathlib import Path

import pytest

from rtcdenoise import BlockParams, PipelineConfig, zero_weights

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
