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

import numpy as np
import pytest

from martkit import bellman, checks
from martkit import functionals as fn
from martkit import generators as G
from martkit import ito, report
from martkit import rough as R
from martkit.cli import main
from martkit.report import CorpusSpec
from martkit.tree import MAX_VECTOR_DIM, FiltrationTree, Martingale, TreeError, TreeProcess
from notes_statements import variation_norms

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
    # keeps the traced lepingle and variation buckets one call per unit of
    # work: one variation_paths call serves every exponent of a trial, and
    # a trial makes its ancestor gaps twice, for the DPs and the smallest jump
    calls = Counter()
    count_calls(monkeypatch, calls, fn, ("lepingle_pathwise_bound", "variation_paths", "_ancestor_gaps"))
    checks.check_lepingle(CorpusSpec(kind="walk", depth=5, trials=4, seed=3), r=(2.5, 3.0, 4.0))
    assert calls == {"lepingle_pathwise_bound": 4, "variation_paths": 4, "_ancestor_gaps": 8}


def test_lepingle_check_builds_no_path_gaps(monkeypatch):
    # its chain DPs run on the tree's nodes, not on the columns of a path matrix
    calls = Counter()
    count_calls(monkeypatch, calls, fn.DistColumns, ("__init__",))
    count_calls(monkeypatch, calls, fn, ("chain_dp",))
    checks.check_lepingle(CorpusSpec(kind="walk", depth=5, trials=4, seed=3), r=(2.5, 3.0, 4.0))
    assert calls == {}


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


@pytest.mark.parametrize("width", [0, 4])
def test_backprop_builds_one_process_per_trial(monkeypatch, width):
    # the leaves are back-propagated and centered in one flat node array,
    # which becomes the trial's only process
    calls = Counter()
    count_calls(monkeypatch, calls, TreeProcess, ("_adopt",))
    for depth in (2, 5, 8):
        mart = G.gen_leaf_backprop("normal", depth, seed=depth, width=width)
        assert type(mart) is Martingale and mart.flat.shape[0] == mart.tree.n_nodes
    assert calls == {"_adopt": 3}


def test_from_flat_keeps_the_class_and_the_vector_guard():
    tree = FiltrationTree.dyadic(3)
    assert type(Martingale.from_flat(tree, np.zeros(tree.n_nodes))) is Martingale
    assert type(TreeProcess.from_flat(tree, np.zeros((tree.n_nodes, MAX_VECTOR_DIM)))) is TreeProcess
    with pytest.raises(TreeError, match=f"vector dimension exceeds guard {MAX_VECTOR_DIM}"):
        Martingale.from_flat(tree, np.zeros((tree.n_nodes, MAX_VECTOR_DIM + 1)))


def test_rde_solve_reads_driver_norms_once_per_solver_node(monkeypatch):
    # the Picard loop reads no driver norms, and each solver node returns
    # those it computed: one forward DP per node, one reversed DP per split
    calls = Counter()
    count_calls(monkeypatch, calls, R, ("rde_solve", "_prefix_controls"))
    sol = R.rde_solve(R.linear_coefficient(1.0), R.rough_line(0.3, 64), 1.0)
    assert calls["rde_solve"] == 2 * sol.subdivisions + 1
    assert calls["_prefix_controls"] == calls["rde_solve"] + sol.subdivisions
    assert sol.iterations > calls["rde_solve"]


def test_rde_solve_runs_each_driver_dp_once(monkeypatch):
    # V^r X of a window and the prefix controls of its split come from one
    # forward chain DP, so no DP over a window's values runs twice
    runs = Counter()
    real = R.chain_dp

    def spy(pairs, r):
        if isinstance(pairs, fn.DistColumns) and pairs.values.ndim == 2:  # the (n, 1) driver, not a Picard stack
            runs[pairs.values.tobytes()] += 1
        return real(pairs, r)

    monkeypatch.setattr(R, "chain_dp", spy)
    rng = np.random.default_rng(5)
    vals = np.concatenate([[0.0], np.cumsum(rng.choice([-0.0125, 0.0125], size=256))])
    X = R.lift(R.SampledPath(np.linspace(0.0, 0.3, 257), vals, "step"), r=2.5)
    sol = R.rde_solve(R.scalar_coefficient(np.sin, np.cos, lambda y: -np.sin(y), box=8.0), X, 1.0)
    assert sol.subdivisions >= 3
    assert sum(runs.values()) == (2 * sol.subdivisions + 1) + sol.subdivisions  # forward per node, reversed per split
    assert max(runs.values()) == 1


def test_rde_solve_builds_one_remainder_and_one_path_per_iterate(monkeypatch):
    # an iterate's norms and the two contraction metrics it enters read one
    # remainder, and each remainder build calls RoughPath.increments once;
    # each leaf window also builds its starting path's remainder
    calls = Counter()
    count_calls(monkeypatch, calls, R.RoughPath, ("increments",))
    count_calls(monkeypatch, calls, R.ControlledPath, ("__post_init__",))
    sol = R.rde_solve(R.linear_coefficient(1.0), R.rough_line(0.3, 256), 1.0)
    leaves = sol.subdivisions + 1
    assert (sol.iterations, leaves) == (36, 4)
    assert calls["increments"] == sol.iterations + leaves
    assert calls["__post_init__"] == sol.iterations + leaves + sol.subdivisions


def test_rde_solve_runs_two_dps_per_picard_iterate(monkeypatch):
    # an iterate's four r-variations are one stacked DP and its two
    # r/2-variations another; besides them each solver node runs its forward
    # DP and the one of its XX, and each split its reversed DP.  The spy
    # counts the DPs that ``fn.variation`` runs too, which the tracer misses
    rng = np.random.default_rng(5)
    vals = np.concatenate([[0.0], np.cumsum(rng.choice([-0.0125, 0.0125], size=256))])
    cases = (
        (R.linear_coefficient(1.0), R.rough_line(0.3, 256)),
        (R.scalar_coefficient(np.sin, np.cos, lambda y: -np.sin(y), box=8.0), R.lift(R.SampledPath(np.linspace(0.0, 0.3, 257), vals, "step"))),
    )
    for phi, X in cases:
        calls = Counter()
        count_calls(monkeypatch, calls, R, ("chain_dp",))
        count_calls(monkeypatch, calls, fn, ("chain_dp",))
        sol = R.rde_solve(phi, X, 1.0)
        monkeypatch.undo()
        assert calls["chain_dp"] == 2 * sol.iterations + 2 * (2 * sol.subdivisions + 1) + sol.subdivisions
        assert sol.subdivisions >= 1


def test_rde_command_runs_two_dps_over_the_driver(monkeypatch, tmp_path):
    # the error bound reads the solver's driver norms: the top window's
    # forward and reversed DPs, and one two-parameter variation of its XX
    runs = Counter()
    real_prefix, real_two_param = R._prefix_controls, R.two_param_variation

    def prefix(values, r):
        runs["prefix", values.shape[0]] += 1
        return real_prefix(values, r)

    def two_param(xi, rho):
        runs["two_param", xi.shape] += 1
        return real_two_param(xi, rho)

    monkeypatch.setattr(R, "_prefix_controls", prefix)
    monkeypatch.setattr(R, "two_param_variation", two_param)
    assert main(["rde", "--out", str(tmp_path / "rde.json")]) == 0
    assert runs["prefix", 257] == 2
    assert runs["two_param", (257, 257, 1, 1)] == 1


def test_rde_solution_carries_the_driver_norms(tmp_path):
    rng = np.random.default_rng(5)
    vals = np.concatenate([[0.0], np.cumsum(rng.choice([-0.0125, 0.0125], size=256))])
    walk = R.lift(R.SampledPath(np.linspace(0.0, 0.3, 257), vals, "step"), r=2.5)
    csv = tmp_path / "driver.csv"
    np.savetxt(csv, np.column_stack([np.linspace(0.0, 0.3, 41), vals[:41]]), delimiter=",", header="t,x", comments="")
    sin = R.scalar_coefficient(np.sin, np.cos, lambda y: -np.sin(y), box=8.0)
    for X in (R.rough_line(0.3, 256), walk, R.lift(R.read_driver_csv(str(csv)), r=2.5)):
        assert R.rde_solve(sin, X, 1.0).driver_norms == variation_norms(X)


def test_ito_pairs_forms_the_floors_once(monkeypatch):
    calls = Counter()
    count_calls(monkeypatch, calls, ito.AdaptedGridPartition, ("floor_indices",))
    walk = ito.GridCadlagPath.sampled_walk(64, 8, seed=1)
    ito.ito_pairs(walk, walk, ito.AdaptedGridPartition.from_oscillation(walk, 0.5))
    assert calls == {"floor_indices": 1}


def test_integration_by_parts_residual_forms_the_floors_once(monkeypatch):
    # the two Ito sums and the covariation read one discretization
    calls = Counter()
    count_calls(monkeypatch, calls, ito.AdaptedGridPartition, ("floor_indices",))
    walk = ito.GridCadlagPath.sampled_walk(64, 8, seed=1)
    ito.integration_by_parts_residual(walk, walk, ito.AdaptedGridPartition.from_oscillation(walk, 0.5), 0, 64)
    assert calls == {"floor_indices": 1}


def test_short_variation_reads_its_costs_in_blocks(monkeypatch):
    # a Picard step's short variations pay a few numpy calls per block, not
    # per column
    calls = Counter()
    count_calls(monkeypatch, calls, fn.DistColumns, ("magnitudes",))
    fn.variation(np.random.default_rng(5).normal(size=(65, 1)), 2.5)
    width = fn.CHAIN_BLOCK_ELEMENTS // 65
    assert width >= 2 and calls["magnitudes"] <= -(-64 // width)


def test_long_and_wide_sources_read_one_column_blocks(monkeypatch):
    # inputs whose block width is 1 read their costs through the same slice
    # path as any other block, never through a separate column loop
    seen = []
    real = fn._costs

    def spy(pairs, cols, r, out, table=None, index=None):
        seen.append(cols)
        return real(pairs, cols, r, out, table, index)

    monkeypatch.setattr(fn, "_costs", spy)
    rng = np.random.default_rng(35)
    g = ito.GridCadlagPath.sampled_walk(256, 64, seed=11)  # the ito demo's shapes
    ito.refine_converge(g, g, ito.AdaptedGridPartition.from_oscillation(g, 0.5), levels=4)
    fn.chain_dp(fn.DistColumns(rng.normal(size=(65, 64))), 2.5)
    fn.chain_dp(fn.DistColumns(rng.normal(size=2049)), 2.5)
    fn.chain_dp(rng.normal(size=(65, 65, 64)), 2.5)
    assert len(seen) == 2 * 256 + 64 + 2048 + 64
    assert all(isinstance(cols, slice) and cols.stop - cols.start == 1 for cols in seen)


def test_halving_index_holds_no_table():
    # two chain DPs hold a few (n,) arrays and one block of costs; the
    # (513, 513) float64 table they replaced took 2.1 MB
    X = R.rough_line(0.3, 512, r=2.5)
    table_bytes = 513 * 513 * 8
    tracemalloc.start()
    try:
        R._halving_index(X, R._prefix_controls(X.path.values, X.r))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= table_bytes / 8


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


def test_refinement_diagnostics_hold_no_pair_tensor():
    # one (257, 257, 64) pair tensor takes 34 MB; the tensors of two levels
    # and their difference took 65 MB
    g = ito.GridCadlagPath.sampled_walk(256, 64, seed=11)
    base = ito.AdaptedGridPartition.from_oscillation(g, 0.5)
    tracemalloc.start()
    try:
        ito.refine_converge(g, g, base, levels=4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


class PowerInput(np.ndarray):
    """A view of chain-DP costs that records the exponent of each in-place
    power it takes."""

    seen: list = []

    def __ipow__(self, r):
        PowerInput.seen.append(r)
        return super().__ipow__(r)


def record_tables(monkeypatch) -> list:
    """(source type, r, whether a table was made) for each ``_power_table``
    call from now on."""
    real = fn._power_table
    tables = []

    def spy(pairs, r):
        table = real(pairs, r)
        tables.append((type(pairs).__name__, r, table is not None))
        return table

    monkeypatch.setattr(fn, "_power_table", spy)
    return tables


@pytest.mark.parametrize("seed", [1, 2, 3, 57, 20240])
def test_demo_refinement_takes_power_tables(monkeypatch, seed):
    # the demos' ito_walk bundle (256 steps of 64 +-1/16 paths) is dyadic at
    # every seed, and its ranges stay within the span bound of both DPs, so
    # both refinement DPs read their costs from power tables and raise no
    # column
    demos = load_bench("workloads").DemoWorkload("demos", {"rough": R, "ito": ito, "bellman": bellman}, {})
    g = demos.inputs(seed)["bundle"]
    real = fn._costs

    def spy(pairs, cols, r, out, table=None, index=None):
        real(pairs, cols, r, out.view(PowerInput), table, index)
        return out

    monkeypatch.setattr(fn, "_costs", spy)
    monkeypatch.setattr(PowerInput, "seen", [])
    tables = record_tables(monkeypatch)
    ito.refine_converge(g, g, ito.AdaptedGridPartition.from_oscillation(g, 0.5), levels=4)
    assert tables == [("ParaproductGaps", 2.5, True), ("DistColumns", 3.0, True)]
    assert PowerInput.seen == []


def test_refinement_runs_no_dp_on_the_full_grid_error(monkeypatch):
    # the last level is the full grid, where f - f^(pi) is identically 0
    shapes = []
    real = fn.chain_dp

    def spy(pairs, r):
        if isinstance(pairs, fn.DistColumns):
            shapes.append((pairs.values.shape, r))
        return real(pairs, r)

    monkeypatch.setattr(fn, "chain_dp", spy)
    g = ito.GridCadlagPath.sampled_walk(256, 64, seed=11)  # the ito demo's shapes: 64 +-1/16 lattice paths
    diag = ito.refine_converge(g, g, ito.AdaptedGridPartition.from_oscillation(g, 0.5), levels=4)
    assert shapes == [((257, 4, 64, 1), 3.0)]
    assert diag.discretization_errors[-1] == 0.0 and len(diag.discretization_errors) == 5


def test_refinement_and_chen_residual_build_no_pair_tensor(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an (N+1, N+1, P) pair tensor was built")

    monkeypatch.setattr(fn, "paraproduct_deltaf_pairs", refuse)
    monkeypatch.setattr(ito, "ito_pairs", refuse)
    g = ito.GridCadlagPath.sampled_walk(64, 8, seed=2)
    base = ito.AdaptedGridPartition.from_oscillation(g, 0.5)
    assert len(ito.refine_converge(g, g, base, levels=3).pi_distances) == 3
    assert ito.chen_residual(g, g, base, max_points=12) <= 1e-12


def test_sew_young_runs_only_the_bound_dps(monkeypatch):
    # the lower bounds pass all 16 spot checks, so only the two summands of
    # omega(0, T) run a chain DP; each spot check ran two more.  The line's
    # r = 1 chain sums are certified exact, so neither DP makes a cost
    # column: the column loop made 2 x 4,096
    calls = Counter()
    count_calls(monkeypatch, calls, R, ("chain_dp",))
    real = fn._cost_columns

    def counting_columns(pairs, r):
        for column in real(pairs, r):
            calls["cost column"] += 1
            yield column

    monkeypatch.setattr(fn, "_cost_columns", counting_columns)
    a = R.SampledPath.line(1.0, 4096)
    omega = R.variation_control(a, 1.0) + R.variation_control(a, 1.0)
    res = R.sew(R.young_germ(a, a), omega, theta=2.0, T=1.0, tol=1e-6)
    assert res.hypothesis_ok
    assert calls == {"chain_dp": 2}


def test_time_scans_hold_two_node_arrays():
    # both kernels scan one flat node array in place: on this depth-16 tree
    # the path-matrix scans held 8.5 times as much.  The layout's parent
    # index is made once per layout, before the trace
    mart = next(CorpusSpec(kind="backprop", depth=16, trials=1, seed=3).martingales())
    layout = mart.tree.layout
    layout.up
    for kernel in (fn.maximal_paths, fn.square_function_paths):
        tracemalloc.start()
        try:
            kernel(mart.flat, layout)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.05 * mart.flat.nbytes, kernel.__name__


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
