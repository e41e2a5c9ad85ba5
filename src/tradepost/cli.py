"""Batch command-line front end.

Exit codes: 0 success, 2 parse/usage error, 3 solver failure, 4 verification
failed in assert mode.
"""
from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path
import numpy as np

from . import files
from .core import Rho, ces_welfare, utilities
from .equilibrium import (
    TOL_EQ,
    _random_row,
    construct_atp_rho_equilibrium,
    pce_to_tp,
    tp_to_pce,
    verify_pce,
    verify_tp_ne,
)
from .maxmin import (
    check_strategyproof_m1,
    demo_bad_ne_m1,
    demo_m2_truthful_ne,
    demo_not_strategyproof_ces,
)
from .solver import TOL_KKT, NonConvergence, solve_ces, solve_maxmin
from .trading_post import (
    BidMatrix,
    CurveFamily,
    PowerCurve,
    _incumbent_utility,
    atp_allocate,
    best_response,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_SOLVER = 3
EXIT_VERIFY = 4

DEFAULT_SEED = 1234567
MIN_TOL = 1e-12


def _emit(args: argparse.Namespace, payload: dict) -> None:
    payload = dict(payload)
    payload["tolerances"] = {"tol_eq": args.tol_eq, "tol_kkt": args.tol_kkt}
    text = files.dumps(payload)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def cmd_solve(args: argparse.Namespace) -> int:
    inst = files.load_instance(args.instance)
    if args.rho.is_maxmin:
        res = solve_maxmin(inst)
    else:
        res = solve_ces(inst, args.rho, tol_kkt=args.tol_kkt)
    _emit(
        args,
        {
            "command": "solve",
            "rho": str(args.rho),
            "utilities": res.u_star,
            "allocation": res.x_star.x,
            "duals": res.q,
            "objective": res.objective,
            "kkt_residual": res.kkt_residual,
        },
    )
    return EXIT_OK


def cmd_equilibrium(args: argparse.Namespace) -> int:
    inst = files.load_instance(args.instance)
    res = solve_ces(inst, args.rho, tol_kkt=args.tol_kkt)
    # Construction verifies its bids with the unit family and raises otherwise.
    bids, alloc = construct_atp_rho_equilibrium(inst, args.rho, tol=args.tol_eq, solve=res)
    welfare = ces_welfare(args.rho, utilities(inst, alloc))
    _emit(
        args,
        {
            "command": "equilibrium",
            "rho": str(args.rho),
            "bids": bids,
            "allocation": alloc.x,
            "is_ne": True,
            "welfare": welfare,
            "optimum": res.objective,
            "welfare_gap": abs(welfare - res.objective) / max(1.0, abs(res.objective)),
        },
    )
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    if (args.bids is None) == (args.allocation is None):
        raise files.ParseError("verify needs exactly one of --bids or --allocation")
    inst = files.load_instance(args.instance)
    family = files.parse_curve_spec(args.curves, inst.m)
    if args.bids is not None:
        bids = files.load_bids(args.bids)
        report = verify_tp_ne(inst, family, bids, tol=args.tol_eq)
        ok = report.is_ne
        payload = {
            "command": "verify",
            "mode": "trading_post",
            "is_ne": report.is_ne,
            "violated_condition": report.violated_condition,
        }
    else:
        alloc = files.load_allocation(args.allocation)
        report = verify_pce(inst, family, alloc, tol=args.tol_eq)
        ok = report.is_pce
        payload = {
            "command": "verify",
            "mode": "price_curves",
            "is_pce": report.is_pce,
            "violated_condition": report.violated_condition,
        }
    _emit(args, payload)
    if args.assert_mode and not ok:
        return EXIT_VERIFY
    return EXIT_OK


def cmd_reduce(args: argparse.Namespace) -> int:
    if args.direction == "tp2pc" and args.bids is None:
        raise files.ParseError("reduce tp2pc needs --bids")
    if args.direction == "pc2tp" and args.allocation is None:
        raise files.ParseError("reduce pc2tp needs --allocation")
    inst = files.load_instance(args.instance)
    if args.direction == "tp2pc":
        family = files.parse_curve_spec(args.curves, inst.m)
        bids = files.load_bids(args.bids)
        alloc, g = tp_to_pce(inst, family, bids, tol=args.tol_eq)
        payload = {
            "command": "reduce",
            "direction": args.direction,
            "allocation": alloc.x,
            "price_curves": np.stack([g.coeffs, g.degrees], axis=1),
        }
    else:
        g = files.parse_curve_spec(args.curves, inst.m)
        alloc = files.load_allocation(args.allocation)
        f, bids = pce_to_tp(inst, g, alloc, PowerCurve(1.0, args.h_degree), tol=args.tol_eq)
        payload = {
            "command": "reduce",
            "direction": args.direction,
            "constraint_curves": np.stack([f.coeffs, f.degrees], axis=1),
            "bids": bids,
        }
    _emit(args, payload)
    return EXIT_OK


def cmd_dynamics(args: argparse.Namespace) -> int:
    inst = files.load_instance(args.instance)
    family = CurveFamily.atp(args.rho.value, inst.m)
    rng = np.random.default_rng(args.seed)
    start = [_random_row(inst, family, i, rng) for i in range(inst.n)]
    # This matrix is the command's own, so play overwrites its rows in place.
    bids = BidMatrix(np.array([a for a, _ in start]), np.array([b for _, b in start]))
    trajectory = []
    converged = False
    for _ in range(args.rounds):
        moved = 0.0
        for i in range(inst.n):
            # Cached on the matrix: best_response reads the same value.
            before = _incumbent_utility(inst, bids, i)
            row, after = best_response(inst, family, bids, i)
            bids._overwrite_row(i, *row)
            moved = max(moved, after - before)
        welfare = ces_welfare(args.rho, utilities(inst, atp_allocate(inst, family, bids)))
        trajectory.append(welfare)
        if moved <= args.move_tol:
            converged = True
            break
    report = verify_tp_ne(inst, family, bids, tol=args.tol_eq)
    res = solve_ces(inst, args.rho, tol_kkt=args.tol_kkt)
    _emit(
        args,
        {
            "command": "dynamics",
            "rho": str(args.rho),
            "seed": args.seed,
            "rounds_run": len(trajectory),
            "converged": converged,
            "welfare_per_round": trajectory,
            "is_ne": report.is_ne,
            "final_bids": bids,
            "optimum": res.objective,
        },
    )
    return EXIT_OK


def cmd_demos(args: argparse.Namespace) -> int:
    topic = args.topic
    if topic in ("m2-truthful", "strategyproof-m1") and args.instance is None:
        raise files.ParseError(f"demos {topic} needs --instance")
    if topic == "not-strategyproof":
        if args.rho is None:
            raise files.ParseError("demos not-strategyproof needs --rho")
        if args.rho.is_maxmin:
            raise files.ParseError("demos not-strategyproof needs rho > -inf")
        report = demo_not_strategyproof_ces(args.rho, tol=args.tol_eq)
    elif topic == "bad-ne":
        report = demo_bad_ne_m1(args.n, tol=args.tol_eq)
    elif topic == "m2-truthful":
        inst = files.load_instance(args.instance)
        report = demo_m2_truthful_ne(
            list(inst.supplies),
            [sorted(r) for r in inst.desired],
            rng=np.random.default_rng(args.seed),
            tol=args.tol_eq,
        )
    else:  # strategyproof-m1
        inst = files.load_instance(args.instance)
        witnesses = {}
        for i in range(inst.n):
            found = check_strategyproof_m1(
                inst.m, list(inst.supplies), [sorted(r) for r in inst.desired], i, tol=args.tol_eq
            )
            if found is not None:
                witnesses[str(i)] = found
        report = {"beneficial_deviations": witnesses, "strategyproof": not witnesses}
    payload = {"command": f"demos {topic}"}
    payload.update(report)
    _emit(args, payload)
    return EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing never changes it."""
    parser = argparse.ArgumentParser(prog="tradepost", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, instance=True):
        if instance:
            p.add_argument("instance", help="instance JSON file")
        p.add_argument("-o", "--output", default=None, help="report file (default: stdout)")
        p.add_argument("--tol-eq", type=float, default=TOL_EQ)
        p.add_argument("--tol-kkt", type=float, default=TOL_KKT)

    p = sub.add_parser("solve", help="maximize welfare; report utilities, duals, residual")
    p.add_argument("--rho", required=True, help="-inf, a real < 1, or 1")
    common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("equilibrium", help="construct and verify an optimal bid profile")
    p.add_argument("--rho", required=True, help="a real < 1")
    common(p)
    p.set_defaults(func=cmd_equilibrium)

    p = sub.add_parser("verify", help="verify a bid profile or priced allocation")
    p.add_argument("--curves", required=True, help="atp_rho:<v>, linear, or file:<path>")
    p.add_argument("--bids", default=None, help="bids JSON (trading-post mode)")
    p.add_argument("--allocation", default=None, help="allocation JSON (price-curve mode)")
    p.add_argument("--assert", dest="assert_mode", action="store_true", help="exit 4 on failure")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("reduce", help="convert between bid profiles and priced allocations")
    p.add_argument("--direction", choices=("tp2pc", "pc2tp"), required=True)
    p.add_argument("--curves", required=True)
    p.add_argument("--bids", default=None)
    p.add_argument("--allocation", default=None)
    p.add_argument("--h-degree", type=float, default=1.0, help="fallback curve degree (pc2tp), > 0")
    common(p)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("dynamics", help="iterated best response from a seeded random profile")
    p.add_argument("--rho", required=True, help="a real < 1")
    p.add_argument("--rounds", type=int, default=50)
    p.add_argument("--move-tol", type=float, default=1e-9)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    common(p)
    p.set_defaults(func=cmd_dynamics)

    p = sub.add_parser("demos", help="run a built-in demonstration")
    p.add_argument("topic", choices=("not-strategyproof", "bad-ne", "m2-truthful", "strategyproof-m1"))
    p.add_argument("--rho", default=None, help="for not-strategyproof: -inf excluded, 1 allowed")
    p.add_argument("--n", type=int, default=3, help="for bad-ne")
    p.add_argument("--instance", default=None, help="for m2-truthful / strategyproof-m1")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="for m2-truthful's sampled mode")
    common(p, instance=False)
    p.set_defaults(func=cmd_demos)

    return parser


#: Commands that take only a finite rho < 1; the others also accept 1 and -inf.
_FINITE_RHO_COMMANDS = ("equilibrium", "dynamics")


def _parse_rho(text: str, *, finite: bool) -> Rho:
    try:
        rho = Rho.parse(text)
    except ValueError as exc:
        raise files.ParseError(f"bad rho {text!r}: {exc}") from exc
    if finite and not rho.is_finite:
        raise files.ParseError(f"rho = {rho} is accepted only by 'solve' and 'demos'")
    return rho


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else EXIT_OK

    try:
        if getattr(args, "rho", None) is not None:
            args.rho = _parse_rho(args.rho, finite=args.command in _FINITE_RHO_COMMANDS)
        for flag, tol in (("--tol-eq", args.tol_eq), ("--tol-kkt", args.tol_kkt)):
            if not (math.isfinite(tol) and tol >= MIN_TOL):
                raise files.ParseError(f"{flag} must be finite and >= {MIN_TOL}, got {tol}")
        if getattr(args, "rounds", 1) < 1:
            raise files.ParseError(f"--rounds must be >= 1, got {args.rounds}")
        move_tol = getattr(args, "move_tol", 0.0)
        if not (math.isfinite(move_tol) and move_tol >= 0):
            raise files.ParseError(f"--move-tol must be finite and >= 0, got {move_tol}")
        return args.func(args)
    except files.ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except NonConvergence as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
