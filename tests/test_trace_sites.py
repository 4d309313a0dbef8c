"""Every import site the benchmark tracer wraps must exist.

``bench/tracing.py`` replaces attributes of tverlab modules by name; one that
a refactor removed would otherwise show only in the slow traced bench run.
"""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()
SITES = sorted(
    {(path, attr) for path, attr, *_ in tracing.SPANS + tracing.COUNTED_CALLS
     + tracing.COUNTED_YIELDS}
)


@pytest.mark.parametrize("path, attr", SITES)
def test_trace_site_resolves(path, attr):
    assert callable(getattr(tracing._resolve(path), attr))
