"""One benchmark process; run.py starts a fresh one per measurement.

Modes:

- ``timed``: set up, then repeat the workload's round until ``--seconds``
  have passed, then run the round at the reference seed and compare its
  outputs with the recorded ones.
- ``setup``: set up and exit; run.py times several of these for ``setup_s``.
- ``trace``: time a fixed pass six times, alternately untraced and traced;
  compare the outputs of all six and the exact counts of the traced ones;
  run the layer micro-benchmarks and the reference round.
- ``sweep``: doob and davis_decomposition on one ``backprop`` trial at
  ``--depth``, for peak memory against depth.

The last line of standard output is one JSON object.  ``ready_at`` is
``time.monotonic()`` when set-up finished; the clock is system-wide, so
run.py subtracts its own reading taken before it started the process.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import numpy as np

import tracing
import workloads
from run import PINNED_THREADS

ROOT = Path(__file__).resolve().parent.parent
MICRO_SEED = 7
TRACE_PASSES = 3
MODULES = ("bellman", "checks", "functionals", "generators", "ito", "report", "rough", "tree")


def import_martkit() -> dict:
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    mk = {name: importlib.import_module(f"martkit.{name}") for name in MODULES}
    origin = Path(mk["tree"].__file__).resolve()
    if src not in origin.parents:
        raise SystemExit(f"martkit imported from {origin}, not from {src}")
    return mk


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in PINNED_THREADS},
    }


def outcome_fields(*outs) -> dict:
    return {
        "attempted": sum(o.attempted for o in outs),
        "failed": sum(o.failed for o in outs),
        "failures": [f for o in outs for f in o.failures][:20],
    }


def run_timed(wl, seed: int, seconds: float) -> dict:
    out = workloads.Outcome()
    clock = time.perf_counter
    start = clock()
    rounds = []
    first_round = None
    while clock() - start < seconds:
        first, mark, t0 = out.ops, len(out.outputs), clock()
        wl.run_round(seed, out)
        rounds.append((first, out.ops, clock() - t0))
        # every round repeats the same inputs, so it must repeat the outputs
        produced = workloads.canonical(out.outputs[mark:])
        del out.outputs[mark:]
        if first_round is None:
            first_round = produced
        elif produced != first_round:
            out.fail(out.ops - first, f"round {len(rounds)} outputs differ from the first round's")
    peak = peak_rss_mb()
    ref = workloads.Outcome()
    wl.run_reference(ref)
    return {
        "rounds": len(rounds),
        "ops": out.ops,
        "elapsed_s": sum(wall for *_, wall in rounds),
        "round_s": [wall for *_, wall in rounds],
        **workloads.round_statistics(wl.name, out.latencies, rounds),
        "peak_rss_mb": peak,
        **outcome_fields(out, ref),
    }


def micro_benchmarks(mk: dict) -> dict:
    """Median time of single layer calls after warm-up, in microseconds."""
    gen, tree = mk["generators"], mk["tree"]
    t8 = tree.FiltrationTree.dyadic(8)
    leaves = np.random.default_rng(MICRO_SEED).normal(size=t8.n_leaves)
    values = tree.Martingale.from_leaf_values(t8, leaves).values
    cases = {
        "generators.rng_for_us": (400, lambda i: gen.rng_for(MICRO_SEED, i)),
        "tree.dyadic8_us": (200, lambda i: tree.FiltrationTree.dyadic(8)),
        "tree.backprop_d8_us": (400, lambda i: tree.Martingale.from_leaf_values(t8, leaves)),
        "tree.validate_d8_us": (400, lambda i: tree.Martingale(t8, values, validate=True)),
    }
    clock = time.perf_counter
    out = {}
    for name, (samples, call) in cases.items():
        for i in range(10):
            call(i)
        times = []
        for i in range(samples):
            start = clock()
            call(i)
            times.append(clock() - start)
        out[name] = {"value": float(np.median(times)) * 1e6, "samples": samples}
    return out


def run_trace(wl, mk: dict, seed: int, spans_path: Path) -> dict:
    rounds = workloads.TRACE_ROUNDS[wl.name]
    clock = time.perf_counter

    def one_pass(tracer):
        out = workloads.Outcome()
        if tracer is not None:
            tracer.install(mk)
        try:
            start = clock()
            for _ in range(rounds):
                wl.run_round(seed, out, tracer)
            wall = clock() - start
        finally:
            if tracer is not None:
                tracer.uninstall()
        return out, wall

    # untraced and traced passes alternate after a full-size warm-up round,
    # and costs are taken from each operation's fastest pass of each kind, so
    # that slow stretches caused by other load on the machine cancel
    warm = workloads.Outcome()
    wl.run_round(seed, warm)
    plain, traced, tracers = [], [], []
    for _ in range(TRACE_PASSES):
        plain.append(one_pass(None))
        tracers.append(tracing.Tracer())
        traced.append(one_pass(tracers[-1]))
    problems = []
    if len({workloads.canonical(o.outputs) for o, _ in plain + traced}) != 1:
        problems.append("traced outputs differ from untraced outputs")
    counts = [tracer.exact_counts() for tracer in tracers]
    if any(c != counts[0] for c in counts):
        problems.append(f"exact counts differ between traced passes: {counts}")
    best = min(range(TRACE_PASSES), key=lambda i: traced[i][1])
    tracer, (out, wall) = tracers[best], traced[best]
    metrics = tracer.summary(out.ops, wall)

    def fastest(passes):
        return np.minimum.reduce([o.latencies for o, _ in passes]).sum()

    metrics["trace.overhead_share"] = fastest(traced) / fastest(plain) - 1.0
    # per-check cost from the untraced passes, so tracing does not inflate it
    for check in tracing.CHECK_NAMES:
        trials = out.trials_by_check[check]
        check_s = min(o.check_s[check] for o, _ in plain)
        metrics[f"checks.{check}.us_per_trial"] = check_s * 1e6 / trials if trials else 0.0
    micro = micro_benchmarks(mk)
    metrics.update({name: m["value"] for name, m in micro.items()})
    ref = workloads.Outcome()
    wl.run_reference(ref)
    tracer.dump(str(spans_path))
    return {
        "ops": out.ops,
        "untraced_s": [wall for _, wall in plain],
        "traced_s": [wall for _, wall in traced],
        "metrics": metrics,
        "micro_samples": {name: m["samples"] for name, m in micro.items()},
        "exact_counts": counts[best],
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "problems": problems,
        **outcome_fields(warm, *(o for o, _ in plain + traced), ref),
    }


def run_sweep(mk: dict, seed: int, depth: int) -> dict:
    spec = mk["report"].CorpusSpec(kind="backprop", depth=depth, trials=1, seed=seed)
    out = workloads.Outcome()
    tracer = tracing.Tracer()
    tracer.install(mk)
    try:
        for check in ("doob", "davis_decomposition"):
            out.attempted += 1
            rep = mk["checks"].run_check(check, spec)
            if rep.violations:
                out.fail(1, f"{check} depth={depth}: violation")
    finally:
        tracer.uninstall()
    return {"peak_rss_mb": peak_rss_mb(), "path_bytes": tracer.counts["tree.path_bytes"], **outcome_fields(out)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mode", choices=("timed", "setup", "trace", "sweep"), required=True)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--depth", type=int)
    ap.add_argument("--spans")
    args = ap.parse_args(argv)

    mk = import_martkit()
    if args.mode == "sweep":
        result = run_sweep(mk, args.seed, args.depth)
    else:
        wl = workloads.make(args.workload, mk, workloads.load_reference())
        wl.warm_up()
        ready_at = time.monotonic()
        if args.mode == "setup":
            result = {}
        elif args.mode == "timed":
            result = run_timed(wl, args.seed, args.seconds)
        else:
            result = run_trace(wl, mk, args.seed, Path(args.spans))
        result["ready_at"] = ready_at
    result["env"] = environment()
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
