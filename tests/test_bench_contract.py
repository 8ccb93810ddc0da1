"""The names bench/child.py traces must exist, or every traced benchmark process fails."""

import importlib
import importlib.util
from pathlib import Path

import pytest

CHILD = Path(__file__).resolve().parent.parent / "bench" / "child.py"


def trace_points():
    spec = importlib.util.spec_from_file_location("bench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    return child.TRACE_POINTS


TRACE_POINTS = trace_points()


@pytest.mark.parametrize("module, attr", [(m, a) for _, m, a, _ in TRACE_POINTS], ids=[f"{m}.{a}" for _, m, a, _ in TRACE_POINTS])
def test_trace_point_resolves(module, attr):
    # federation keeps importing data.shard_batches, which it no longer calls, for this reason
    assert callable(getattr(importlib.import_module(module), attr))
