"""The four benchmark workloads and their correctness checks.

Each workload is a closed loop with one client on one thread: it issues the
next operation only when the previous one has returned.  A round is a fixed
list of operations whose inputs come from the run's seed; a run repeats the
same round, so the same seed always gives the same inputs and every
operation of the round is timed several times over identical work.

Why these four (each ROADMAP optimisation has one workload that exercises
it and one that bypasses it):

- ``suite-mixed``: every ``default_suite`` entry except lepingle at its
  default kind, depth, params and seed offset, trials scaled by
  ``SUITE_SCALE``.  Short trees (depth 2-8), so fixed per-trial costs
  dominate: corpus generation and tree construction.  Exercises shape
  caching and the generator and tree layers.
- ``walk-lepingle``: lepingle on the ``walk`` corpus at depth 10.  Long
  paths on one fixed shape make it a kernel workload dominated by
  ``functionals.lepingle_pathwise_bound``; it mostly bypasses shape caching.
- ``deep-tree``: doob, square_weak, davis_decomposition and sharp_davis on
  the ``backprop`` corpus at depth 16 (65,536 leaves).  Each path matrix is
  about 8.9 MB and several are live at once, so this is the workload where
  peak memory and the path-matrix layout show.
- ``demos``: the rough, Ito and Bellman demos at CLI sizes.  It builds no
  corpus, so it is the bypass for every generator and corpus change, and the
  only workload that measures ``rough`` and ``ito``.

An operation is one corpus trial in a check workload and one solver or demo
call in ``demos``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
import traceback
from collections import Counter
from pathlib import Path

import numpy as np

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# Seed of the recorded reference outputs: the `martkit suite --default` seed.
REF_SEED = 20240
# Inputs of the untimed warm-up, one small trial per chunk.
WARM_SEED = 7

SUITE_SCALE = 0.025
LEPINGLE_WALKS = 40
DEEP_DEPTH = 16
# (check, trials per round, seed offset in default_suite).  Two trials of each
# of the two cheaper checks put the median on one check's trials rather than
# halfway between two checks of different cost.
DEEP_MIX = (("doob", 2, 0), ("square_weak", 1, 0), ("davis_decomposition", 1, 1), ("sharp_davis", 2, 8))

# Rounds of the fixed pass that the traced run times with and without tracing.
TRACE_ROUNDS = {"suite-mixed": 2, "walk-lepingle": 1, "deep-tree": 2, "demos": 1}

# Tail percentile per workload: the highest of TAIL_LADDER with at least ten
# of a round's operations beyond it.  deep-tree and demos have fewer than
# ten operations in a round, so their tail is the slowest operation.
TAIL_PCT = {"suite-mixed": 99.0, "walk-lepingle": 75.0, "deep-tree": 100.0, "demos": 100.0}
TAIL_LADDER = (50.0, 75.0, 80.0, 90.0, 95.0, 98.0, 99.0, 99.5, 99.9)

IDENTITY_TOL = 1e-12


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def report_record(report) -> dict:
    """Every report field except the timing field."""
    rec = report.to_dict()
    rec.pop("runtime_ms")
    return rec


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def _percentile(lat: np.ndarray, pct: float) -> tuple[float, float]:
    """Latency at ``pct`` (the maximum for 100), stepping down TAIL_LADDER
    while fewer than ten samples lie beyond it; returns (value, pct)."""
    if pct >= 100.0:
        return float(lat.max()), 100.0
    while pct > TAIL_LADDER[0] and lat.size * (100.0 - pct) < 1000.0:
        pct = max(p for p in TAIL_LADDER if p < pct)
    return float(np.percentile(lat, pct)), pct


def round_statistics(name: str, latencies: list, rounds: list) -> dict:
    """Throughput and latency of a timed run from its cleanest repetitions.

    ``rounds`` holds (first op, end op, wall seconds) per round.  Every round
    repeats the same operations on the same inputs, so each operation's
    fastest repetition is its cost without interference from other load on
    the machine, which slows whole stretches of a run by up to a half.  The
    clean round is the per-operation minimum plus the smallest time spent
    between operations; throughput, median and tail are taken over it.
    """
    lat = np.asarray(latencies, dtype=np.float64)
    slots = max(end - first for first, end, _ in rounds)
    # a round in which an operation raised may have fewer timed operations
    full = [(first, wall) for first, end, wall in rounds if end - first == slots]
    per_op = np.stack([lat[first : first + slots] for first, _ in full])
    clean = per_op.min(axis=0)
    between = min(wall - per_op[i].sum() for i, (_, wall) in enumerate(full))
    tail, pct = _percentile(clean, TAIL_PCT[name])
    return {
        "ops_per_s": slots / (clean.sum() + max(between, 0.0)),
        "op_s_p50": float(np.median(clean)),
        "op_s_tail": tail,
        "tail_pct": pct,
        "round_ops": slots,
        "clean_rounds": len(full),
        "clean_op_s": clean.tolist(),
    }


class Outcome:
    """Operations attempted and failed, per-operation latencies and the
    outputs that two passes over the same inputs must reproduce."""

    def __init__(self):
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.outputs: list = []
        self.trials_by_check: Counter = Counter()
        self.check_s: Counter = Counter()

    @property
    def ops(self) -> int:
        return len(self.latencies)

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        if len(self.failures) < 20:
            self.failures.append(why)


class TimedCorpus:
    """Corpus with CorpusSpec's interface that delegates to the real spec and
    timestamps each trial from outside the check.

    Trial i runs from the check's request for it (which generates it) to the
    check's request for trial i+1, so its time covers generation and the
    check's work on it.  The operation id of the tracer advances with it.
    """

    def __init__(self, spec, latencies: list, tracer=None):
        self._spec = spec
        self._latencies = latencies
        self._tracer = tracer
        self.trials = spec.trials
        self.seed = spec.seed
        self.width = spec.width

    def rng(self, index: int):
        return self._spec.rng(index)

    def martingales(self):
        clock = time.perf_counter
        start = clock()
        for mart in self._spec.martingales():
            yield mart
            now = clock()
            self._latencies.append(now - start)
            start = now
            if self._tracer is not None:
                self._tracer.op += 1


class CheckWorkload:
    """A workload whose operations are corpus trials of registry checks."""

    def __init__(self, name: str, mk: dict, reference: dict):
        self.name = name
        self.mk = mk
        self.reference = reference

    def chunks(self, seed: int) -> list:
        CorpusSpec = self.mk["report"].CorpusSpec
        if self.name == "suite-mixed":
            return [
                (e["check"], e["params"], CorpusSpec.from_dict(e["corpus"]))
                for e in self.mk["checks"].default_suite(seed=seed, trials_scale=SUITE_SCALE)
                if e["check"] != "lepingle"
            ]
        if self.name == "walk-lepingle":
            spec = CorpusSpec(kind="walk", depth=10, trials=LEPINGLE_WALKS, seed=seed + 5)
            return [("lepingle", {"r": [2.5, 3.0, 4.0], "p": 1.0}, spec)]
        return [
            (check, {}, CorpusSpec(kind="backprop", depth=DEEP_DEPTH, trials=n, seed=seed + off))
            for check, n, off in DEEP_MIX
        ]

    def warm_up(self) -> None:
        for check, params, spec in self.chunks(WARM_SEED):
            small = dataclasses.replace(spec, trials=1, depth=min(spec.depth, 8))
            self.mk["checks"].run_check(check, small, **params)

    def run_round(self, seed: int, out: Outcome, tracer=None) -> None:
        for check, params, spec in self.chunks(seed):
            self._run_chunk(check, params, spec, out, tracer)

    def _run_chunk(self, check, params, spec, out: Outcome, tracer=None):
        out.attempted += spec.trials
        corpus = TimedCorpus(spec, out.latencies, tracer)
        start = time.perf_counter()
        try:
            rep = self.mk["checks"].run_check(check, corpus, **params)
        except Exception:
            out.fail(spec.trials, f"{check} seed={spec.seed}: {traceback.format_exc(limit=3)}")
            return None
        out.check_s[check] += time.perf_counter() - start
        out.trials_by_check[check] += spec.trials
        rec = report_record(rep)
        out.outputs.append(rec)
        if rep.trials != spec.trials:
            out.fail(spec.trials, f"{check} seed={spec.seed}: reported {rep.trials} of {spec.trials} trials")
        elif rep.violations:
            out.fail(rep.violations, f"{check} seed={spec.seed}: {rep.violations} violating trials")
        return rec

    def record_reference(self) -> list:
        checks = self.mk["checks"]
        return [report_record(checks.run_check(c, spec, **p)) for c, p, spec in self.chunks(REF_SEED)]

    def run_reference(self, out: Outcome) -> None:
        """Re-run the reference round and compare each report byte for byte."""
        expected = self.reference["workloads"][self.name]
        for i, (check, params, spec) in enumerate(self.chunks(REF_SEED)):
            failed_before = out.failed
            rec = self._run_chunk(check, params, spec, out)
            if rec is not None and out.failed == failed_before and canonical(rec) != canonical(expected[i]):
                out.fail(spec.trials, f"{check} seed={spec.seed}: report differs from the reference")


class DemoWorkload:
    """rough, ito and bellman calls at the CLI-demo sizes, on no corpus; only
    the extremal search builds (depth-8) trees.

    The benchmark makes the random inputs (walk increments) itself from the
    run's seed, so that the program receives only generated inputs.  Demos
    that take no random input must reproduce the recorded reference exactly
    in every round; the seeded ones are checked against the identities they
    certify, and against the reference at REF_SEED.
    """

    FIXED = ("rde_line", "sew_young", "bellman_grid", "extremal")
    SEEDED = ("rde_walk", "ito_walk")
    ORDER = ("rde_line", "rde_walk", "sew_young", "ito_walk", "bellman_grid", "extremal")

    RDE_N = 256
    RDE_T = 0.3
    WALK_AMPLITUDE = 0.2
    ITO_STEPS = 256
    ITO_PATHS = 64
    GRID_SIDE = 46  # max(11, round(100000 ** (1/3))), the CLI default grid
    SEW_POINTS = 2**12

    def __init__(self, name: str, mk: dict, reference: dict):
        self.name = name
        self.mk = mk
        self.reference = reference
        rough = mk["rough"]
        self.phi_line = rough.linear_coefficient(1.0, box=8.0)
        self.phi_sin = rough.scalar_coefficient(np.sin, np.cos, lambda y: -np.sin(y), box=8.0)
        self.line = rough.rough_line(self.RDE_T, self.RDE_N, r=2.5)
        self.sew_path = rough.SampledPath.line(1.0, self.SEW_POINTS)

    # -- inputs ------------------------------------------------------------

    def inputs(self, seed: int) -> dict:
        rough, ito = self.mk["rough"], self.mk["ito"]
        rng = np.random.default_rng(seed)
        step = self.WALK_AMPLITUDE / math.sqrt(self.RDE_N)
        vals = np.concatenate([[0.0], np.cumsum(rng.choice([-step, step], size=self.RDE_N))])
        walk = rough.SampledPath(np.linspace(0.0, self.RDE_T, self.RDE_N + 1), vals, "step")
        steps = rng.choice([-1.0, 1.0], size=(self.ITO_STEPS, self.ITO_PATHS)) / math.sqrt(self.ITO_STEPS)
        bundle = np.vstack([np.zeros(self.ITO_PATHS), np.cumsum(steps, axis=0)])
        return {
            "driver": rough.lift(walk, r=2.5),
            "bundle": ito.GridCadlagPath(bundle, np.full(self.ITO_PATHS, 1.0 / self.ITO_PATHS), 1.0, None, True),
        }

    # -- operations ----------------------------------------------------------

    @staticmethod
    def _rde_diag(sol) -> dict:
        return {
            "iterations": sol.iterations,
            "subdivisions": sol.subdivisions,
            "final_metric": sol.final_metric,
            "strictly_decreasing": sol.strictly_decreasing(),
            "y_T": float(sol.path.values[-1]),
        }

    def rde_line(self, inp) -> dict:
        sol = self.mk["rough"].rde_solve(self.phi_line, self.line, 1.0)
        diag = self._rde_diag(sol)
        diag["sup_error_vs_oracle"] = float(np.abs(sol.path.values - np.exp(self.line.times)).max())
        return diag

    def rde_walk(self, inp) -> dict:
        return self._rde_diag(self.mk["rough"].rde_solve(self.phi_sin, inp["driver"], 1.0))

    def sew_young(self, inp) -> dict:
        rough = self.mk["rough"]
        a = self.sew_path
        omega = rough.variation_control(a, 1.0) + rough.variation_control(a, 1.0)
        res = rough.sew(rough.young_germ(a, a), omega, theta=2.0, T=1.0, tol=1e-6)
        return {
            "value": res.value,
            "germ_value": res.germ_value,
            "error_bound": res.error_bound,
            "levels": res.levels,
            "converged": res.converged,
            "hypothesis_ok": res.hypothesis_ok,
        }

    def ito_walk(self, inp) -> dict:
        ito = self.mk["ito"]
        g = inp["bundle"]
        n = g.n_steps
        cov = ito.covariation_sum(g, g, ito.AdaptedGridPartition.full(g), 0, n)
        base = ito.AdaptedGridPartition.from_oscillation(g, 0.5)
        diag = ito.refine_converge(g, g, base, levels=4)
        return {
            "covariation_minus_one_max": float(np.abs(cov - 1.0).max()),
            "integration_by_parts_residual": ito.integration_by_parts_residual(g, g, base, 0, n),
            "chen_residual": ito.chen_residual(g, g, base, max_points=12),
            "pi_distances": diag.pi_distances,
            "discretization_errors": diag.discretization_errors,
            "nonincreasing": diag.nonincreasing,
        }

    def bellman_grid(self, inp) -> dict:
        side = self.GRID_SIDE
        worst, arg = self.mk["bellman"].concavity_grid_min(3.0, x_pts=side, h_pts=side * 3, y_vals=(0.0, 1.0, 10.0))
        return {"worst_concavity_residual": worst, "argmin": arg}

    def extremal(self, inp) -> dict:
        return self.mk["bellman"].extremal_search(8, tuple(float(r) for r in range(1, 9)))

    # -- correctness -----------------------------------------------------------

    def problem(self, op: str, diag: dict, at_reference: bool) -> str | None:
        """Why an output is wrong, or None."""
        ref = self.reference["workloads"][self.name]
        if (op in self.FIXED or at_reference) and canonical(diag) != canonical(ref[op]):
            return "differs from the reference"
        if op.startswith("rde") and not (diag["strictly_decreasing"] and math.isfinite(diag["y_T"])):
            return "Picard metric not strictly decreasing"
        if op == "rde_line" and not diag["sup_error_vs_oracle"] <= 1e-4:
            return "sup-error against exp(t) above 1e-4"
        if op == "sew_young" and not abs(diag["value"] - 0.5) <= 1e-6:
            return "Young integral off 1/2 by more than 1e-6"
        if op == "ito_walk":
            if diag["covariation_minus_one_max"] != 0.0:
                return "[g, g] over [0, T] differs from 1"
            if not max(diag["integration_by_parts_residual"], diag["chen_residual"]) <= IDENTITY_TOL:
                return "identity residual above 1e-12"
            if not diag["nonincreasing"]:
                return "refinement distances increase"
        if op == "bellman_grid" and not diag["worst_concavity_residual"] >= -IDENTITY_TOL:
            return "concavity residual below -1e-12"
        if op == "extremal" and not diag["best_ratio"] < math.sqrt(3.0):
            return "extremal ratio reaches sqrt(3)"
        return None

    # -- driving ------------------------------------------------------------

    def warm_up(self) -> None:
        rough, ito, bellman = self.mk["rough"], self.mk["ito"], self.mk["bellman"]
        rough.rde_solve(self.phi_line, rough.rough_line(self.RDE_T, 16, r=2.5), 1.0)
        small = self.inputs(WARM_SEED)
        a = rough.SampledPath.line(1.0, 64)
        rough.sew(rough.young_germ(a, a), rough.variation_control(a, 1.0), theta=2.0, T=1.0, tol=1e-3)
        g = ito.GridCadlagPath(small["bundle"].values[:17, :4], np.full(4, 0.25), 1.0, None, True)
        ito.refine_converge(g, g, ito.AdaptedGridPartition.from_oscillation(g, 0.5), levels=2)
        ito.chen_residual(g, g, ito.AdaptedGridPartition.full(g), max_points=4)
        bellman.concavity_grid_min(3.0, x_pts=5, h_pts=5)
        bellman.extremal_search(3, (1.0, 2.0))

    def _run_ops(self, names, seed: int, out: Outcome, tracer, at_reference: bool) -> None:
        inp = self.inputs(seed)
        clock = time.perf_counter
        for op in names:
            out.attempted += 1
            start = clock()
            try:
                diag = getattr(self, op)(inp)
            except Exception:
                diag = None
                why = traceback.format_exc(limit=3)
            out.latencies.append(clock() - start)
            if tracer is not None:
                tracer.op += 1
            if diag is None:
                out.fail(1, f"{op} seed={seed}: {why}")
                continue
            out.outputs.append({op: diag})
            why = self.problem(op, diag, at_reference)
            if why:
                out.fail(1, f"{op} seed={seed}: {why}")

    def run_round(self, seed: int, out: Outcome, tracer=None) -> None:
        self._run_ops(self.ORDER, seed, out, tracer, at_reference=False)

    def record_reference(self) -> dict:
        inp = self.inputs(REF_SEED)
        return {op: getattr(self, op)(inp) for op in self.ORDER}

    def run_reference(self, out: Outcome) -> None:
        # the fixed demos are compared with the reference in every round
        self._run_ops(self.SEEDED, REF_SEED, out, None, at_reference=True)


WORKLOADS = {
    "suite-mixed": CheckWorkload,
    "walk-lepingle": CheckWorkload,
    "deep-tree": CheckWorkload,
    "demos": DemoWorkload,
}


def make(name: str, mk: dict, reference: dict):
    return WORKLOADS[name](name, mk, reference)
