"""Every call site the benchmark's tracer wraps must still exist.

`bench/tracing.py` replaces `module.attribute` for each entry of its SITES
table; a renamed or no-longer-imported function makes a traced run fail.
The table is read from that file, which this test does not change.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _sites():
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.SITES


@pytest.mark.parametrize("module, attribute, span", _sites())
def test_traced_site_resolves(module, attribute, span):
    assert callable(getattr(importlib.import_module(module), attribute)), span
