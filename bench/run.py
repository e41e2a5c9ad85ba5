"""Benchmark of tradepost: closed-loop workloads run in one process.

    python3 bench/run.py --workload market_cli --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory, never from an installed copy.  With ``--trace 0`` the last
line of standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of the traced passes.  See
README.md in this directory for the workloads, the metrics and their spread.
"""
from time import perf_counter

_T0 = perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS/OpenMP thread, set before numpy is first imported, so that a numpy
# call never waits on a second core that other processes share.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOAD_NAMES = ("market_cli", "strategic_play")

#: Set-up is repeated this many times per run; setup_s takes the median.
SETUP_ROUNDS = 3

#: Per-layer time metrics: (span name, "total_s" or "self_s"), per traced pass.
LAYER_TIMES = {
    "solver.solve_ces_finite_s": ("solver.solve_ces_finite", "total_s"),
    "solver.solve_ces_sum_s": ("solver.solve_ces_sum", "total_s"),
    "equilibrium.construct_s": ("equilibrium.construct", "total_s"),
    "equilibrium.pce_to_tp_s": ("equilibrium.pce_to_tp", "total_s"),
    "equilibrium.tp_to_pce_s": ("equilibrium.tp_to_pce", "total_s"),
    "equilibrium.verify_tp_ne_s": ("equilibrium.verify_tp_ne", "total_s"),
    "equilibrium.deviation_sweep_s": ("equilibrium.deviation_sweep", "total_s"),
    "trading_post.best_response_s": ("trading_post.best_response", "total_s"),
    "trading_post.atp_allocate_s": ("trading_post.atp_allocate", "total_s"),
    "files.load_bids_s": ("files.load_bids", "total_s"),
    "files.load_instance_s": ("files.load_instance", "total_s"),
    "files.dumps_s": ("files.dumps", "total_s"),
    "cli.solve_self_s": ("cli.solve", "self_s"),
    "cli.equilibrium_self_s": ("cli.equilibrium", "self_s"),
    "cli.verify_self_s": ("cli.verify", "self_s"),
    "cli.reduce_self_s": ("cli.reduce", "self_s"),
    "cli.dynamics_self_s": ("cli.dynamics", "self_s"),
}
#: Per-layer call counts, per traced pass.
LAYER_CALLS = {
    "trading_post.best_response_calls": "trading_post.best_response",
    "trading_post.atp_allocate_calls": "trading_post.atp_allocate",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measured time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def run_op(op, tracer, index):
    """Time one operation; return (seconds, failure reason or None, unexpected)."""
    if tracer is not None:
        tracer.op = index
    start = perf_counter()
    try:
        output = op.run()
    except Exception as exc:  # any error is a failed operation, reported below
        return perf_counter() - start, f"raised {type(exc).__name__}: {exc}", True
    elapsed = perf_counter() - start
    try:
        reason = op.check(output)
    except Exception as exc:  # a malformed report fails its check
        reason = f"check raised {type(exc).__name__}: {exc}"
    return elapsed, reason, reason is not None and reason != op.known_fault


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "tradepost" / "__init__.py").is_file():
        print(f"error: {src} holds no tradepost package; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import tradepost

    if Path(tradepost.__file__).resolve().parent != (src / "tradepost").resolve():
        print(f"error: tradepost imported from {tradepost.__file__}, not {src}", file=sys.stderr)
        return 2
    from tracing import Tracer
    from workloads import WORKLOADS

    import_s = perf_counter() - _T0
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    workdir = BENCH / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return measure(args, WORKLOADS[args.workload], Tracer, workdir, out_dir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workload_cls, tracer_cls, workdir, out_dir, import_s) -> int:
    setup_times = []
    for _ in range(SETUP_ROUNDS):
        shutil.rmtree(workdir, ignore_errors=True)
        start = perf_counter()
        workload = workload_cls(args.seed, workdir)
        setup_times.append(perf_counter() - start)
    ops = workload.ops

    # Warm-up: the first operation of each kind, once.
    kinds = set()
    start = perf_counter()
    for op in ops:
        if op.kind not in kinds:
            kinds.add(op.kind)
            run_op(op, None, -1)
    warmup_s = perf_counter() - start
    setup_s = import_s + statistics.median(setup_times) + warmup_s

    # Whole passes over the operation list until the time is used up.  With
    # tracing, passes alternate untraced/traced and the run ends on a traced one.
    tracer = tracer_cls() if args.trace else None
    passes = []
    failures = Counter()
    start = perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        times, ok, unexpected = [], [], 0
        first = len(passes) * len(ops)
        with tracer if traced else contextlib.nullcontext():
            for k, op in enumerate(ops):
                elapsed, reason, bad = run_op(op, tracer if traced else None, first + k)
                times.append(elapsed)
                ok.append(reason is None)
                if reason is not None:
                    unexpected += bad
                    failures[f"{op.name}: {reason}"] += 1
        passes.append({"traced": traced, "times": times, "ok": ok, "unexpected": unexpected})
        wall = perf_counter() - start
        done = wall + 0.5 * wall / len(passes) >= args.seconds
        if done and (not args.trace or (len(passes) >= 2 and traced)):
            break

    attempted = sum(len(p["times"]) for p in passes)
    failed = sum(p["ok"].count(False) for p in passes)
    correct = not any(p["unexpected"] for p in passes)
    for text, count in sorted(failures.items()):
        print(f"failed x{count}: {text}", file=sys.stderr)

    if args.trace:
        metrics, spans_per_pass = layer_metrics(ops, passes, tracer)
        tracer.write(out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl")
    else:
        metrics = end_to_end_metrics(passes, setup_s)
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    by_kind = {}
    for p in passes:
        for op, t in zip(ops, p["times"]):
            by_kind.setdefault(op.kind, []).append(t)
    detail = dict(
        result,
        passes=len(passes),
        setup_rounds_s=setup_times,
        import_s=import_s,
        warmup_s=warmup_s,
        op_seconds_by_kind={
            kind: {"count": len(ts), "median": statistics.median(ts), "mean": statistics.fmean(ts)}
            for kind, ts in sorted(by_kind.items())
        },
        op_seconds=[p["times"] for p in passes],
    )
    if args.trace:
        detail["spans_per_pass"] = spans_per_pass
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1), encoding="utf-8"
    )
    print(json.dumps(result))
    return 0


def end_to_end_metrics(passes, setup_s) -> dict:
    # Each pass's throughput counts the operations that did not fail against
    # the time of all of them; the run reports the median pass, so one pass
    # slowed by a noisy neighbour does not move it.  Latency is taken over
    # the operations that did not fail.
    throughput = [p["ok"].count(True) / sum(p["times"]) for p in passes]
    ok_times = [t for p in passes for t, good in zip(p["times"], p["ok"]) if good]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "ops_per_s": {"value": statistics.median(throughput), "unit": "1/s"},
        "op_p50_s": {"value": statistics.median(ok_times), "unit": "s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }


def layer_metrics(ops, passes, tracer) -> tuple[dict, dict]:
    """Per-layer metrics per traced pass, and every span's calls, total and self time."""
    n_ops = len(ops)
    traced_ops = set()
    traced_time = untraced_time = 0.0
    n_traced = n_untraced = 0
    for index, p in enumerate(passes):
        if p["traced"]:
            traced_ops.update(range(index * n_ops, (index + 1) * n_ops))
            traced_time += sum(p["times"])
            n_traced += 1
        else:
            untraced_time += sum(p["times"])
            n_untraced += 1
    summary = tracer.summary(traced_ops)
    metrics = {}
    for metric, (span, field) in LAYER_TIMES.items():
        metrics[metric] = {"value": summary.get(span, {}).get(field, 0.0) / n_traced, "unit": "s"}

    def count_per_pass(total: int) -> int | float:
        # Counts repeat exactly from pass to pass, so this is a whole number.
        return total // n_traced if total % n_traced == 0 else total / n_traced

    for metric, span in LAYER_CALLS.items():
        metrics[metric] = {"value": count_per_pass(summary.get(span, {}).get("calls", 0)), "unit": "count"}
    report_bytes = sum(v for k, v in tracer.report_bytes.items() if k in traced_ops)
    metrics["files.report_bytes"] = {"value": count_per_pass(report_bytes), "unit": "B"}
    overhead = (traced_time / n_traced) / (untraced_time / n_untraced) - 1.0
    metrics["trace.overhead_pct"] = {"value": 100.0 * overhead, "unit": "%"}
    per_pass = {name: {k: v / n_traced for k, v in row.items()} for name, row in sorted(summary.items())}
    print(f"{'span':34} {'calls/pass':>10} {'total s/pass':>12} {'self s/pass':>11}", file=sys.stderr)
    for name, row in per_pass.items():
        print(f"{name:34} {row['calls']:10.1f} {row['total_s']:12.4f} {row['self_s']:11.4f}", file=sys.stderr)
    return metrics, per_pass


if __name__ == "__main__":
    sys.exit(main())
