"""Spans recorded around calls into the program's public functions.

The tracer replaces a module attribute with a wrapper while it is active, so
a span is recorded exactly where a caller looks the function up: wrapping
``tradepost.cli.solve_ces`` times the CLI's calls, wrapping
``tradepost.solver.solve_ces`` times calls made through the solver module.
Spans stay in memory until the run ends.
"""
from __future__ import annotations

import importlib
import json
from pathlib import Path
from time import perf_counter
from typing import Callable


def _solve_name(inst, rho, *args, **kwargs) -> str:
    return "solver.solve_ces_sum" if rho.is_one else "solver.solve_ces_finite"


def _cli_name(argv, *args, **kwargs) -> str:
    return "cli." + argv[0]


#: (module, attribute, span name or a function of the call's arguments).
#: Each public function is wrapped under every name its callers use.
TARGETS: list[tuple[str, str, str | Callable[..., str]]] = [
    ("tradepost.solver", "solve_ces", _solve_name),
    ("tradepost.cli", "solve_ces", _solve_name),
    ("tradepost.equilibrium", "solve_ces", _solve_name),
    ("tradepost.cli", "construct_atp_rho_equilibrium", "equilibrium.construct"),
    ("tradepost.cli", "pce_to_tp", "equilibrium.pce_to_tp"),
    ("tradepost.equilibrium", "pce_to_tp", "equilibrium.pce_to_tp"),
    ("tradepost.cli", "tp_to_pce", "equilibrium.tp_to_pce"),
    ("tradepost.cli", "verify_tp_ne", "equilibrium.verify_tp_ne"),
    ("tradepost.equilibrium", "verify_tp_ne", "equilibrium.verify_tp_ne"),
    ("tradepost.equilibrium", "deviation_sweep", "equilibrium.deviation_sweep"),
    ("tradepost.cli", "best_response", "trading_post.best_response"),
    ("tradepost.equilibrium", "best_response", "trading_post.best_response"),
    ("tradepost.cli", "atp_allocate", "trading_post.atp_allocate"),
    ("tradepost.equilibrium", "atp_allocate", "trading_post.atp_allocate"),
    ("tradepost.files", "load_instance", "files.load_instance"),
    ("tradepost.files", "load_bids", "files.load_bids"),
    ("tradepost.files", "dumps", "files.dumps"),
    ("tradepost.cli", "main", _cli_name),
]


class Tracer:
    """Records (name, start, end, parent, op) spans; parent is a span index or -1."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.report_bytes: dict[int, int] = {}
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn: Callable, name: str | Callable[..., str]) -> Callable:
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(*args, **kwargs)
            index = len(spans)
            span = [label, perf_counter(), 0.0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if label == "files.dumps":
                self.report_bytes[self.op] = self.report_bytes.get(self.op, 0) + len(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self) -> "Tracer":
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def summary(self, ops: set[int] | None = None) -> dict[str, dict[str, float]]:
        """Per span name: calls, total time and self time (minus direct children)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for k, (name, start, end, parent, op) in enumerate(self.spans):
            if ops is not None and op not in ops:
                continue
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[k]
        return out

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op}))
                fh.write("\n")
