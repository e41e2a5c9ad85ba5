"""Every function the benchmark tracer wraps still exists, and is called as its selftest expects.

``bench/tracing.py`` replaces ``(module, attribute)`` pairs with timing
wrappers.  If one of those functions is renamed or removed, its span would
silently read zero; this test fails instead.  ``bench/selftest.py`` also pins
which of those calls the construction and ``tp_to_pce`` make; the call-log
tests below hold the same structure here, where the tests under ``tests/``
run.  This file only reads ``bench/``.
"""
import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

from tradepost import CurveFamily, Rho, equilibrium, five_by_seven_instance

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("module_name, attr", [(m, a) for m, a, _ in _targets()])
def test_trace_target_resolves(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr, None))


@pytest.fixture()
def calls(monkeypatch):
    """Calls through ``tradepost.equilibrium``'s wrapped names, as (name, depth) in call order.

    The depth counts the logged calls still open, so depth 0 is a direct call.
    """
    log, depth = [], [0]
    for name in ("solve_ces", "pce_to_tp", "verify_tp_ne", "atp_allocate"):

        def logged(*args, _name=name, _fn=getattr(equilibrium, name), **kwargs):
            log.append((_name, depth[0]))
            depth[0] += 1
            try:
                return _fn(*args, **kwargs)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(equilibrium, name, logged)
    return log


def test_construction_allocates_once_and_verifies_through_pce_to_tp(calls):
    equilibrium.construct_atp_rho_equilibrium(five_by_seven_instance(), Rho.finite(0.5))
    assert Counter(name for name, _ in calls) == {"solve_ces": 1, "pce_to_tp": 1, "atp_allocate": 1}


def test_tp_to_pce_verifies_then_allocates(calls):
    inst = five_by_seven_instance()
    bids, _ = equilibrium.construct_atp_rho_equilibrium(inst, Rho.finite(0.5))
    calls.clear()
    equilibrium.tp_to_pce(inst, CurveFamily.atp(0.5, inst.m), bids)
    assert [name for name, depth in calls if depth == 0] == ["verify_tp_ne", "atp_allocate"]
