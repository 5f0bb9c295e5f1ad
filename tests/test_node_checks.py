"""The node-array checks against their path-matrix oracles.

doob, square_weak, davis_decomposition, davis_bdg and sharp_davis run one
parent-to-child recursion over the nodes of each tree.  Each path sees the
operations of the path-matrix code in the same order, so every report must
equal the oracle's byte for byte, apart from ``runtime_ms``.  The paraproduct
check reads the rows of its pair sums one at a time and its Davis bounds per
node; its report must equal that of the oracle that builds the pair tensor.
lepingle's chain DPs and greedy partitions run per node, and its report must
equal that of the oracle that runs them along every path.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import path_oracles
from martkit import checks as C
from martkit import functionals as fn
from martkit import generators as G
from martkit.report import CorpusSpec, closed_sublevel_block_scan
from martkit.tree import FiltrationTree, NodeLayout, TreeProcess

CHECKS = sorted(path_oracles.ORACLES)


def record(report) -> str:
    rec = report.to_dict()
    rec.pop("runtime_ms")
    return json.dumps(rec, sort_keys=True)


def assert_reports_match_oracles(spec):
    for name in CHECKS:
        assert record(C.run_check(name, spec)) == record(path_oracles.ORACLES[name](spec)), name


@pytest.mark.parametrize(
    "spec",
    [CorpusSpec(kind="mixed", depth=8, trials=300, seed=seed) for seed in (20240, 20241, 20248, 5)]
    + [
        CorpusSpec(kind="increment", depth=10, trials=2, seed=21),
        CorpusSpec(kind="backprop", depth=12, trials=2, seed=22, dist="exponential"),
        CorpusSpec(kind="increment", depth=4, trials=40, seed=23, dist="sign"),
        CorpusSpec(kind="backprop", depth=1, trials=4, seed=24),
        CorpusSpec(kind="doubling", depth=10, trials=1, seed=0),
        CorpusSpec(kind="scaled_walk", depth=16, trials=1, seed=0),
        CorpusSpec(kind="log_weight", depth=10, trials=1, seed=0),
    ],
    ids=lambda spec: f"{spec.kind}-{spec.depth}-{spec.seed}",
)
def test_node_checks_reproduce_the_path_matrix_reports(spec):
    assert_reports_match_oracles(spec)


@pytest.mark.parametrize("seed", [20240, 20241, 20248])
def test_node_checks_reproduce_the_path_matrix_reports_at_depth_16(seed):
    # the deep-tree benchmark's corpora: 65,536 leaves, 17 levels
    assert_reports_match_oracles(CorpusSpec(kind="backprop", depth=16, trials=1, seed=seed))


def test_node_checks_run_on_a_one_node_tree():
    # a depth-0 tree has no increments: the path-matrix bodies of all but
    # doob failed on the empty (0, L) arrays
    for name in CHECKS:
        rep = C.run_check(name, CorpusSpec(kind="backprop", depth=0, trials=2, seed=1))
        assert rep.trials == 2 and rep.violations == 0, name


def test_node_checks_build_no_path_matrix(monkeypatch):
    spec = CorpusSpec(kind="mixed", depth=8, trials=120, seed=31)
    expected = {name: record(path_oracles.ORACLES[name](spec)) for name in CHECKS}

    def no_paths(self):
        raise AssertionError("a node-array check built a path matrix")

    monkeypatch.setattr(TreeProcess, "paths", no_paths)
    for name in CHECKS:
        assert record(C.run_check(name, spec)) == expected[name], name


PARAPRODUCT_CORPORA = [
    (CorpusSpec(kind="mixed", depth=6, trials=40, seed=20247), {}),
    (CorpusSpec(kind="mixed", depth=6, trials=12, seed=20247), {"families": 7, "q0": 3.0, "r0": 1.5, "r1": 1.0}),
    (CorpusSpec(kind="mixed", depth=5, trials=12, seed=9), {"families": 1, "r1": 4.0 / 3.0}),
    (CorpusSpec(kind="mixed", depth=12, trials=2, seed=20247), {}),
    (CorpusSpec(kind="backprop", depth=10, trials=3, seed=20247), {}),
    (CorpusSpec(kind="walk", depth=8, trials=5, seed=20247), {}),
    (CorpusSpec(kind="increment", depth=7, trials=8, seed=20247), {}),
    (CorpusSpec(kind="scaled_walk", depth=4, trials=5, seed=20247), {}),
    (CorpusSpec(kind="doubling", depth=6, trials=3, seed=20247), {"r1": 5.0, "r0": 1.0}),
    (CorpusSpec(kind="backprop", depth=1, trials=4, seed=3), {}),
    (CorpusSpec(kind="backprop", depth=14, trials=1, seed=20247), {}),
]


@pytest.mark.parametrize(
    "spec, params", PARAPRODUCT_CORPORA, ids=[f"{spec.kind}-{spec.depth}-{spec.trials}" for spec, _ in PARAPRODUCT_CORPORA]
)
def test_paraproduct_reproduces_the_pair_tensor_report(spec, params):
    assert record(C.run_check("paraproduct", spec, **params)) == record(path_oracles.check_paraproduct(spec, **params))


def test_paraproduct_builds_no_pair_tensor(monkeypatch):
    # the dense (N+1, N+1, L) tensor failed at depth 20; the Davis bounds run
    # per node, so only scalar processes expand to path matrices
    spec = CorpusSpec(kind="mixed", depth=7, trials=20, seed=32)
    expected = record(path_oracles.check_paraproduct(spec))

    def refuse(*args, **kwargs):
        raise AssertionError("an (N+1, N+1, L) pair tensor was built")

    def scalar_paths(self, _real=TreeProcess.paths):
        assert self.width == 0, "a family path matrix was built"
        return _real(self)

    monkeypatch.setattr(fn, "paraproduct_deltaf_pairs", refuse)
    monkeypatch.setattr(fn, "two_param_variation_paths", refuse)
    monkeypatch.setattr(TreeProcess, "paths", scalar_paths)
    assert record(C.run_check("paraproduct", spec)) == expected


LEPINGLE_CORPORA = [(CorpusSpec(kind="walk", depth=10, trials=5, seed=seed), {}) for seed in (20245, 41, 7, 19)] + [
    (CorpusSpec(kind="mixed", depth=8, trials=40, seed=5), {"r": [2.1, 3.5], "p": 2.0}),
    (CorpusSpec(kind="increment", depth=7, trials=10, seed=6, dist="sign"), {}),
    (CorpusSpec(kind="doubling", depth=10, trials=1, seed=0), {}),
    (CorpusSpec(kind="log_weight", depth=10, trials=1, seed=0), {"p": 0.5}),
    (CorpusSpec(kind="scaled_walk", depth=16, trials=1, seed=0), {"r": 4.0}),
]


@pytest.mark.parametrize(
    "spec, params", LEPINGLE_CORPORA, ids=[f"{spec.kind}-{spec.depth}-{spec.seed}" for spec, _ in LEPINGLE_CORPORA]
)
def test_lepingle_reproduces_the_path_matrix_report(spec, params):
    # the chain DPs and greedy partitions run per node, the smallest nonzero
    # jump and the maximal function per path
    assert record(C.run_check("lepingle", spec, **params)) == record(path_oracles.check_lepingle(spec, **params))


@pytest.mark.parametrize("kind, norm_exponent", [("mixed", 2.0), ("family", 1.5), ("family", 1.0)])
def test_davis_decompose_matches_the_path_matrix_oracle(kind, norm_exponent):
    for index in range(40):
        mart = G.corpus_martingale(kind, 6, seed=41, index=index)
        parts = fn.davis_decompose(mart, norm_exponent)
        for part, expected in zip(parts, path_oracles.davis_decompose(mart, norm_exponent)):
            assert np.array_equal(part.paths(), expected)


@pytest.mark.parametrize("kind", ["mixed", "increment", "family"])
def test_node_kernels_repeat_over_their_leaf_blocks_as_the_path_kernels(kind):
    for index in range(30):
        mart = G.corpus_martingale(kind, 6, seed=43, index=index)
        tree, layout, pm = mart.tree, mart.tree.layout, mart.paths()
        df = np.vstack([np.zeros((1,) + pm.shape[1:]), fn.increments(pm)])
        for node, path in (
            (fn.maximal_paths(mart.flat, layout), fn.maximal_paths(pm)),
            (fn.increments(mart.flat, layout), df),
            (fn.square_function_paths(mart.flat, layout), fn.square_function_paths(pm)),
            (fn.running_oscillation(mart.flat, layout), path_oracles.running_oscillation(pm)),
        ):
            for n, level in enumerate(layout.levels(node)):
                assert np.array_equal(tree.to_leaves(n, level), path[n])
        # a path matrix is the layout whose parent maps are the identity
        rows = NodeLayout.rows(*pm.shape[:2])
        flat = pm.reshape((-1,) + pm.shape[2:])
        assert np.array_equal(fn.maximal_paths(flat, rows), fn.maximal_paths(pm).reshape(flat.shape))
        assert np.array_equal(rows.up[pm.shape[1] :], np.arange(flat.shape[0] - pm.shape[1]))


@st.composite
def integer_trees(draw):
    """A small irregular tree and an integer-valued process on it: running
    maxima tie across levels and across the nodes of one level."""
    depth = draw(st.integers(1, 4))
    parents, sizes = [np.empty(0, dtype=np.int64)], [1]
    for _ in range(depth):
        kids = draw(st.lists(st.integers(1, 3), min_size=sizes[-1], max_size=sizes[-1]))
        parents.append(np.repeat(np.arange(sizes[-1]), kids))
        sizes.append(int(parents[-1].size))
    # weights with no exact binary form, so sums equal in the reals round apart
    raw = draw(st.lists(st.sampled_from([0.1, 0.2, 0.3, 0.7, 1.0 / 3.0]), min_size=sizes[-1], max_size=sizes[-1]))
    tree = FiltrationTree(parents, np.array(raw) / sum(raw))
    values = [np.array(draw(st.lists(st.integers(-3, 3), min_size=s, max_size=s)), dtype=float) for s in sizes]
    return TreeProcess(tree, values)


@given(integer_trees())
@settings(max_examples=300, deadline=None)
def test_block_scan_equals_the_raveled_matrix_scan(proc):
    tree, layout, w = proc.tree, proc.tree.layout, proc.tree.leaf_prob
    pm = proc.paths()
    run = fn.maximal_paths(pm)[1:]
    df2 = fn.increments(pm) ** 2
    expected = path_oracles.closed_sublevel_scan(run.ravel(), (df2 * w[None, :]).ravel())
    first = layout.offsets[1]
    got = closed_sublevel_block_scan(
        fn.maximal_paths(proc.flat, layout)[first:],
        np.square(fn.increments(proc.flat, layout)[first:]),
        np.concatenate(tree.leaf_start[1:]),
        np.concatenate(tree.leaf_count[1:]),
        w,
    )
    assert len(got) == len(expected) == 2
    assert all(np.array_equal(a, b) for a, b in zip(got, expected))
