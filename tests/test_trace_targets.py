"""Every function the benchmark tracer wraps still exists.

``bench/tracing.py`` replaces ``(module, attribute)`` pairs with timing
wrappers.  If one of those functions is renamed or removed, its span would
silently read zero; this test fails instead.  It only reads ``bench/``.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("module_name, attr", [(m, a) for m, a, _ in _targets()])
def test_trace_target_resolves(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr, None))
