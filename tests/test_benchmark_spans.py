"""The benchmark's span targets name functions that exist.

``benchmarks/spans.py`` wraps package functions by name; a renamed one is
reported missing only when a traced run installs the tracer.  This reads the
target list without installing anything.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_FILE = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS_FILE)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TARGETS


@pytest.mark.parametrize("module_name,attr", [(t[1], t[2]) for t in _targets()])
def test_span_target_resolves(module_name, attr):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
