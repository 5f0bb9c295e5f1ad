"""martkit benchmark: trial throughput, latency, memory and set-up time on
four workloads, with a traced run for per-layer timings.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload suite-mixed --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py for why each was chosen): suite-mixed,
walk-lepingle, deep-tree, demos.  The metrics printed are those that
BENCHMARK.json lists: its ``end_to_end`` metrics with ``--trace 0`` and its
``per_layer`` metrics with ``--trace 1``.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
A readable summary comes before it, and the full record of the run is
written to ``.bench_out/`` in the checkout.

Every measurement runs in a fresh worker process (worker.py) with the
OpenBLAS, OpenMP and MKL thread counts pinned to 1, so that peak RSS is per
workload and no BLAS thread competes with the single client.

``--trace 0``: one timed worker, plus further set-up-only workers; setup_s is
the median set-up time (process start to first timed operation) over
SETUP_SAMPLES processes.  Throughput and latency come from each operation's
fastest repetition within the timed worker (workloads.round_statistics).
``--trace 1``: one traced worker, then one worker per depth of the memory
sweep.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
OUT_DIR = ROOT / ".bench_out"

WORKLOADS = ("suite-mixed", "walk-lepingle", "deep-tree", "demos")
SETUP_SAMPLES = 5
SWEEP_DEPTHS = (14, 16, 18)
# Every worker must end within this many seconds of the launcher's start.
BUDGET_S = 170.0
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def spawn(args: list[str], deadline: float) -> tuple[float, dict]:
    """Run one worker to completion; returns (monotonic start, its JSON)."""
    env = dict(os.environ, **PINNED_THREADS)
    started = time.monotonic()
    with subprocess.Popen(
        [sys.executable, str(WORKER), *args], stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True
    ) as proc:
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"worker {args} ran past the time budget") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"worker {args} printed no result")
    return started, json.loads(lines[-1])


def timed_run(args, deadline: float) -> tuple[dict, dict]:
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    started, res = spawn(["--mode", "timed", "--seconds", str(args.seconds), *common], deadline)
    setups = [res["ready_at"] - started]
    for _ in range(SETUP_SAMPLES - 1):
        started, probe = spawn(["--mode", "setup", *common], deadline)
        setups.append(probe["ready_at"] - started)
    metrics = {
        "ops_per_s": res["ops_per_s"],
        "op_ms_p50": res["op_s_p50"] * 1e3,
        "op_ms_tail": res["op_s_tail"] * 1e3,
        "peak_rss_mb": res["peak_rss_mb"],
        "setup_s": statistics.median(setups),
    }
    res["setup_samples_s"] = setups
    return metrics, res


def traced_run(args, deadline: float) -> tuple[dict, dict]:
    spans = OUT_DIR / f"spans_{args.workload}_seed{args.seed}.json"
    _, res = spawn(
        ["--mode", "trace", "--workload", args.workload, "--seed", str(args.seed), "--spans", str(spans)], deadline
    )
    metrics = dict(res.pop("metrics"))
    res["sweep"] = {}
    for depth in SWEEP_DEPTHS:
        _, sweep = spawn(["--mode", "sweep", "--seed", str(args.seed), "--depth", str(depth)], deadline)
        metrics[f"tree.peak_rss_mb.d{depth}"] = sweep["peak_rss_mb"]
        metrics[f"tree.path_bytes.d{depth}"] = sweep["path_bytes"]
        res["sweep"][depth] = sweep
        res["attempted"] += sweep["attempted"]
        res["failed"] += sweep["failed"]
        res["failures"] += sweep["failures"]
    return metrics, res


def summary_lines(args, metrics: dict, units: dict, res: dict) -> list[str]:
    env = res["env"]
    lines = [
        f"martkit benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}",
        f"python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, threads {env['threads']}",
        f"operations attempted {res['attempted']}, failed {res['failed']}, "
        f"fail_share {res['failed'] / max(1, res['attempted']):.6g}",
    ]
    if args.trace:
        lines.append(
            f"traced pass: {res['ops']} ops, untraced {['%.3f' % t for t in res['untraced_s']]} s, "
            f"traced {['%.3f' % t for t in res['traced_s']]} s, "
            f"{res['spans']} spans in {res['spans_file']}; micro-benchmark samples {res['micro_samples']}"
        )
    else:
        lines.append(
            f"timed: {res['ops']} ops in {res['rounds']} rounds of {res['round_ops']}, {res['elapsed_s']:.3f} s; "
            f"metrics from each operation's fastest of {res['clean_rounds']} repetitions; "
            f"op_ms_tail is p{res['tail_pct']:g}; setup samples {['%.4f' % s for s in res['setup_samples_s']]} s"
        )
    lines += [f"  {name:42s} {metrics[name]:>16.6g} {units[name]}" for name in units]
    lines += [f"  FAILURE: {f}" for f in res["failures"]] + [f"  PROBLEM: {p}" for p in res.get("problems", [])]
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + BUDGET_S

    if not (ROOT / "src" / "martkit" / "__init__.py").is_file():
        print(f"error: no martkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not args.seconds > 0 or args.seed < 0:
        print("error: --seconds must be positive and --seed non-negative", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        listed = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    OUT_DIR.mkdir(exist_ok=True)

    try:
        metrics, res = (traced_run if args.trace else timed_run)(args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    record.update(res, metrics=metrics)
    with open(OUT_DIR / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    for line in summary_lines(args, metrics, units, res):
        print(line)
    result = {
        "correct": res["failed"] == 0 and not res.get("problems"),
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
