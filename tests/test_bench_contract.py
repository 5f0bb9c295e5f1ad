"""The traced benchmark run substitutes package attributes by name, so every
name it wraps must still exist where it looks it up."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

from martkit import bellman, checks
from martkit import functionals as fn
from martkit import generators as G
from martkit import ito, report
from martkit import rough as R
from martkit.report import CorpusSpec
from martkit.tree import FiltrationTree, TreeProcess

ROOT = Path(__file__).resolve().parents[1]


def load_bench(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "benchmarks" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BENCH_RUN = load_bench("run")


def test_traced_attributes_resolve():
    tracing = load_bench("tracing")
    missing = []
    for mod_name, owner_name, attr, _bucket in tracing.INSTRUMENTS:
        module = importlib.import_module(f"martkit.{mod_name}")
        owner = module if owner_name is None else getattr(module, owner_name, None)
        if owner is None or attr not in vars(owner):
            missing.append(f"{mod_name}.{owner_name or ''}.{attr}")
    assert missing == []


def test_traced_checks_are_registered():
    assert set(load_bench("tracing").CHECK_NAMES) <= set(checks.REGISTRY)


def count_calls(monkeypatch, calls: Counter, owner, names) -> None:
    """Add one to ``calls[name]`` at every later call of ``owner.name``."""

    def counting(name):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(owner, name, counting(name))


def test_lepingle_check_calls_its_kernels_once_per_trial(monkeypatch):
    # keeps the traced lepingle and variation buckets one call per unit of work
    calls = Counter()
    count_calls(monkeypatch, calls, fn, ("lepingle_pathwise_bound", "variation_paths"))
    checks.check_lepingle(CorpusSpec(kind="walk", depth=5, trials=4, seed=3), r=(2.5, 3.0, 4.0))
    assert calls == {"lepingle_pathwise_bound": 4, "variation_paths": 12}


def test_davis_decomposition_check_decomposes_once_per_trial(monkeypatch):
    # keeps the traced davis bucket one call per trial, with no path round trip
    calls = Counter()
    count_calls(monkeypatch, calls, fn, ("davis_decompose",))
    count_calls(monkeypatch, calls, TreeProcess, ("from_paths",))
    checks.check_davis_decomposition(CorpusSpec(kind="mixed", depth=5, trials=6, seed=3))
    assert calls == {"davis_decompose": 6}


def test_sharp_davis_check_forms_path_functionals_once_per_trial(monkeypatch):
    # the sqrt(3) clause and the pathwise clause share one node recursion,
    # with one f* and one df, and no path matrix
    calls = Counter()
    count_calls(monkeypatch, calls, fn, ("maximal_paths", "increments", "square_function_paths"))
    count_calls(monkeypatch, calls, bellman, ("pathwise_sharp_sides",))
    count_calls(monkeypatch, calls, TreeProcess, ("paths",))
    bellman.sharp_davis_check(CorpusSpec(kind="mixed", depth=5, trials=6, seed=3))
    assert calls == {"pathwise_sharp_sides": 6, "maximal_paths": 6, "increments": 6}


def test_aux_lemmas_check_evaluates_few_lambdas_exactly(monkeypatch):
    # the sorted cumulative sums leave only the lambda that can attain each sup
    # to the dot products, not every one of the ~4L scan candidates
    calls = Counter()
    count_calls(monkeypatch, calls, report, ("truncation_ratio_at", "good_lambda_ratio_at"))
    spec = CorpusSpec(kind="mixed", depth=7, trials=100, seed=20244)
    checks.check_aux_lemmas(spec)
    assert calls["truncation_ratio_at"] < 5 * spec.trials
    assert calls["good_lambda_ratio_at"] < 5 * spec.trials


def test_aux_lemmas_check_forms_path_functionals_once_per_trial(monkeypatch):
    calls = Counter()
    count_calls(monkeypatch, calls, fn, ("maximal_paths", "square_function_paths", "predictable_square_paths"))
    checks.check_aux_lemmas(CorpusSpec(kind="mixed", depth=5, trials=6, seed=3))
    assert calls == {"maximal_paths": 6, "square_function_paths": 6}


def test_mixed_corpus_builds_each_dyadic_shape_once(monkeypatch):
    # keeps the traced tree.build_* numbers a count of irregular trees
    calls = Counter()
    real_init, real_increment = FiltrationTree.__init__, G.gen_increment

    def counting_init(self, *args, **kwargs):
        calls["init"] += 1
        real_init(self, *args, **kwargs)

    def counting_increment(*args, **kwargs):
        calls["increment"] += 1
        return real_increment(*args, **kwargs)

    monkeypatch.setattr(FiltrationTree, "__init__", counting_init)
    monkeypatch.setattr(G, "gen_increment", counting_increment)
    spec = CorpusSpec(kind="mixed", depth=8, trials=100, seed=5)
    for _ in spec.martingales():
        pass
    assert calls["increment"] == 30
    assert calls["increment"] <= calls["init"] <= calls["increment"] + 7
    calls.clear()
    for _ in spec.martingales():
        pass
    assert calls == {"init": 30, "increment": 30}


def test_rde_solve_reads_driver_norms_once_per_solver_node(monkeypatch):
    # the Picard loop computes no remainder diagnostics, so no driver norms
    calls = Counter()
    count_calls(monkeypatch, calls, R, ("rde_solve",))
    count_calls(monkeypatch, calls, R.RoughPath, ("variation_norms",))
    sol = R.rde_solve(R.linear_coefficient(1.0), R.rough_line(0.3, 64), 1.0)
    assert calls["variation_norms"] == calls["rde_solve"] == 2 * sol.subdivisions + 1
    assert sol.iterations > calls["rde_solve"]


def test_ito_pairs_forms_the_floors_once(monkeypatch):
    calls = Counter()
    count_calls(monkeypatch, calls, ito.AdaptedGridPartition, ("floor_indices",))
    walk = ito.GridCadlagPath.sampled_walk(64, 8, seed=1)
    ito.ito_pairs(walk, walk, ito.AdaptedGridPartition.from_oscillation(walk, 0.5))
    assert calls == {"floor_indices": 1}


def test_variation_control_holds_no_distance_matrix():
    # the dense (4097, 4097) distance matrix would take 134 MB
    omega = R.variation_control(R.SampledPath.line(1.0, 4096), 1.0)
    tracemalloc.start()
    try:
        omega(0.0, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_time_scans_hold_one_path_matrix():
    # both kernels scan in their output array: the strided numpy scans held
    # 2.00 (maximal) and 3.82 (square function) times the path matrix
    pm = next(CorpusSpec(kind="backprop", depth=16, trials=1, seed=3).martingales()).paths()
    for kernel in (fn.maximal_paths, fn.square_function_paths):
        tracemalloc.start()
        try:
            kernel(pm)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * pm.nbytes, kernel.__name__


@pytest.mark.parametrize("workload", BENCH_RUN.WORKLOADS)
def test_timed_worker_completes_each_workload(workload):
    # one round at least, then the reference round, in a worker as run.py starts it
    cmd = [sys.executable, str(BENCH_RUN.WORKER), "--mode", "timed", "--seconds", "0.01"]
    cmd += ["--workload", workload, "--seed", "1"]
    env = dict(os.environ, **BENCH_RUN.PINNED_THREADS)
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert res["attempted"] > 0
    assert res["failed"] == 0, res["failures"]
