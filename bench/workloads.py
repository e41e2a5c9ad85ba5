"""The closed-loop workloads: set-up, the fixed operation list, checks.

One client runs the operations back to back in one process.  Each
operation returns the program's output; its check, run outside the timed
region, returns ``None`` or a reason.  All inputs come from the seed, except
the one known-fault operation of ``market_cli`` (see ``SUM_FAULT``).
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
from instances import Spec, make_spec, spec_stream, write_json

import tradepost
from tradepost import cli as tp_cli
from tradepost import equilibrium as tp_equilibrium
from tradepost import solver as tp_solver


@dataclass
class Op:
    name: str
    kind: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    #: The failure reason this operation gives on every run, because of a
    #: known fault in the program; any other failure is unexpected.
    known_fault: str | None = None


def _instance(spec: Spec) -> tradepost.Instance:
    return tradepost.Instance(spec.supplies, spec.desired)


def _first(*reasons: str | None) -> str | None:
    return next((r for r in reasons if r), None)


# --------------------------------------------------------------------------
# market_cli

#: (tag, n, m, count, rho) of the instances whose files the CLI reads.
MARKET_INSTANCES = ((3, 1000, 200, 1, 0.5), (2, 500, 100, 3, 0.5))

#: A fixed 200x50 instance on which ``tradepost solve --rho 1`` exits 3
#: (NonConvergence, residual 5.9e-7 against 1e-7) on every run.  It does not
#: depend on --seed: 1-2% of seeded instances of every size fail the same
#: way, so seeded rho = 1 solves would fail on some seeds only.
SUM_FAULT = (113, 200, 50)


def _read(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _certified_solve(spec: Spec, rho: float) -> tradepost.SolveResult:
    """A set-up solve, checked by its KKT certificate before anything uses it."""
    res = tp_solver.solve_ces(_instance(spec), tradepost.Rho.finite(rho))
    bad = checks.kkt_certificate(spec, rho, res.u_star, res.q)
    if bad:
        raise RuntimeError(f"set-up solve failed its certificate: {bad}")
    return res


def _cli_op(name: str, kind: str, argv: list[str], out: Path, check: Callable[[dict], str | None]) -> Op:
    """``cli.main(argv + ["-o", out])``; the report is read back outside the timed call."""
    argv = argv + ["-o", str(out)]

    def checked(code) -> str | None:
        return f"exit code {code}" if code != 0 else check(_read(out))

    return Op(name, kind, lambda: tp_cli.main(argv), checked)


class MarketCli:
    def __init__(self, seed: int, workdir: Path):
        self.ops: list[Op] = []
        for tag, n, m, count, rho in MARKET_INSTANCES:
            for k, spec in enumerate(spec_stream(seed, tag, count, n, m)):
                self.ops += self._instance_ops(workdir / f"{n}x{m}-{k}", spec, rho)
        self.ops.append(self._sum_fault_op(workdir))

    def _sum_fault_op(self, workdir: Path) -> Op:
        fault_seed, n, m = SUM_FAULT
        spec = make_spec(np.random.default_rng(fault_seed), n, m)
        inst_file = workdir / "sum-fault.json"
        write_json(inst_file, spec.to_json())

        def check(report: dict) -> str | None:
            return _first(
                checks.lp_duality(spec, report["utilities"], report["duals"]),
                checks.objective_matches(1.0, report["utilities"], report["objective"]),
            )

        op = _cli_op("sum-fault solve", "cli solve rho=1", ["solve", "--rho", "1", str(inst_file)],
                     workdir / "out-sum-fault.json", check)
        op.known_fault = "exit code 3"
        return op

    def _instance_ops(self, base: Path, spec: Spec, rho: float) -> list[Op]:
        """Write the instance, bid, allocation and curve files; return the five CLI calls."""
        base.mkdir(parents=True, exist_ok=True)
        res = _certified_solve(spec, rho)
        rho_obj = tradepost.Rho.finite(rho)
        bids, _ = tp_equilibrium.construct_atp_rho_equilibrium(_instance(spec), rho_obj, solve=res)
        bid_lists = bids.to_lists()
        q = np.where(res.q > tradepost.TOL_DUAL, res.q, 0.0)
        curves = [[float(v), 1.0 - rho] for v in q]
        allocation = res.x_star.x.tolist()
        files = {name: base / f"{name}.json" for name in ("instance", "bids", "allocation", "curves")}
        write_json(files["instance"], spec.to_json())
        write_json(files["bids"], bid_lists)
        write_json(files["allocation"], allocation)
        write_json(files["curves"], curves)
        inst_file, bids_file = str(files["instance"]), str(files["bids"])
        out = {c: base / f"out-{c}.json" for c in ("solve", "equilibrium", "verify", "tp2pc", "pc2tp")}
        atp = f"atp_rho:{rho!r}"

        def check_solve(report: dict) -> str | None:
            return _first(
                checks.kkt_certificate(spec, rho, report["utilities"], report["duals"]),
                checks.objective_matches(rho, report["utilities"], report["objective"]),
            )

        def check_equilibrium(report: dict) -> str | None:
            # Compared with the solve report of the same pass, which runs first.
            solved = _read(out["solve"])
            return _first(
                checks.is_true(report, "is_ne"),
                checks.unit_budgets(report["bids"], rho),
                checks.shares_match(spec, report["bids"], solved["utilities"]),
                checks.close("equilibrium welfare", report["welfare"], solved["objective"]),
            )

        commands = {
            "solve": (["solve", "--rho", repr(rho), inst_file], check_solve),
            "equilibrium": (["equilibrium", "--rho", repr(rho), inst_file], check_equilibrium),
            "verify": (
                ["verify", "--curves", atp, "--bids", bids_file, inst_file],
                lambda report: checks.is_true(report, "is_ne"),
            ),
            "tp2pc": (
                ["reduce", "--direction", "tp2pc", "--curves", atp, "--bids", bids_file, inst_file],
                lambda report: checks.tp2pc_curves(spec, bid_lists, rho, report["price_curves"]),
            ),
            "pc2tp": (
                [
                    "reduce", "--direction", "pc2tp", "--curves", f"file:{files['curves']}",
                    "--allocation", str(files["allocation"]), "--h-degree", repr(1.0 - rho), inst_file,
                ],
                lambda report: checks.pc2tp_bids(spec, curves, allocation, report["bids"]),
            ),
        }
        return [
            _cli_op(f"{base.name} {c}", f"cli {c} {spec.n}x{spec.m}", argv, out[c], check)
            for c, (argv, check) in commands.items()
        ]


# --------------------------------------------------------------------------
# strategic_play

#: Deviation sweeps on constructed equilibria of 200x50 instances, and
#: best-response dynamics on 40x12 instances, each cycling through these rho.
STRATEGIC_RHOS = (-2.0, 0.0, 0.5)
N_SWEEP, N_DYNAMICS = 6, 6
#: Rounds of best-response dynamics per run of the command.
DYNAMICS_ROUNDS = 10


class StrategicPlay:
    def __init__(self, seed: int, workdir: Path):
        workdir.mkdir(parents=True, exist_ok=True)
        self.ops: list[Op] = []
        for k, spec in enumerate(spec_stream(seed, 4, N_SWEEP, 200, 50)):
            self.ops.append(self._sweep_op(f"sweep#{k}", spec, STRATEGIC_RHOS[k % len(STRATEGIC_RHOS)]))
        for k, spec in enumerate(spec_stream(seed, 5, N_DYNAMICS, 40, 12)):
            rho = STRATEGIC_RHOS[k % len(STRATEGIC_RHOS)]
            self.ops.append(self._dynamics_op(workdir, k, spec, rho, seed * 1000 + k))

    def _sweep_op(self, name: str, spec: Spec, rho: float) -> Op:
        inst = _instance(spec)
        bids, _ = tp_equilibrium.construct_atp_rho_equilibrium(inst, tradepost.Rho.finite(rho))
        unit = tradepost.CurveFamily.atp(rho, inst.m)

        def run():
            return tp_equilibrium.deviation_sweep(inst, unit, bids)

        return Op(name, "deviation_sweep 200x50", run, lambda result: checks.sweep_gain(spec, result[0]))

    def _dynamics_op(self, workdir: Path, k: int, spec: Spec, rho: float, start_seed: int) -> Op:
        inst_file = workdir / f"dynamics-{k}.json"
        write_json(inst_file, spec.to_json())
        optimum = checks.ces_welfare(rho, np.asarray(_certified_solve(spec, rho).u_star))
        argv = [
            "dynamics", "--rho", repr(rho), "--seed", str(start_seed),
            "--rounds", str(DYNAMICS_ROUNDS), str(inst_file),
        ]

        def check(report: dict) -> str | None:
            return _first(
                checks.close("reported optimum", report["optimum"], optimum),
                checks.at_most("final welfare", report["welfare_per_round"][-1], optimum),
            )

        return _cli_op(f"dynamics#{k}", "cli dynamics 40x12", argv, workdir / f"out-dynamics-{k}.json", check)


WORKLOADS = {"market_cli": MarketCli, "strategic_play": StrategicPlay}
