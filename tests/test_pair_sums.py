"""The one pair-sum kernel against the earlier bodies of every pair sum.

The Ito sums, the covariation and the paraproducts all run through
``functionals.paraproduct_deltaf_row``, which ``paraproduct_deltaf_pairs``
stacks into the pair tensor, and the refinement diagnostics and the
paraproduct check's r-variation stream the same sums through
``functionals.ParaproductGaps``.  Here each is compared float for float with
its earlier body (``pair_sum_oracles``) on bundles whose values are not
dyadic, so that every sum rounds and a change of summation order shows: a
one-path bundle is contiguous in time, where ``np.sum`` would add pairwise.
"""

from collections import Counter

import numpy as np
import pytest

import pair_sum_oracles as oracle
from martkit import checks as C
from martkit import functionals as fn
from martkit import generators as G
from martkit import ito as I
from martkit.report import CorpusSpec
from martkit.tree import Martingale
from notes_statements import from_tree_process, zero_only
from simd_probe import SIMD_LEVELS, run_probe

PARTITIONS = ("from_oscillation", "full", "zero_only", "union_grid")


def bundle(n_steps: int, n_paths: int, seed: int, cauchy: bool) -> I.GridCadlagPath:
    rng = np.random.default_rng(seed)
    steps = rng.standard_cauchy((n_steps, n_paths)) / 10 if cauchy else rng.normal(size=(n_steps, n_paths)) / 3
    vals = np.vstack([np.zeros(n_paths), np.cumsum(steps, axis=0)])
    return I.GridCadlagPath(vals, np.full(n_paths, 1.0 / n_paths), 1.0, None, True)


def partition(kind: str, path: I.GridCadlagPath) -> I.AdaptedGridPartition:
    if kind == "from_oscillation":
        return I.AdaptedGridPartition.from_oscillation(path, 0.3)
    if kind == "union_grid":
        return I.AdaptedGridPartition.from_oscillation(path, 0.6).union_grid(7)
    return zero_only(path) if kind == "zero_only" else I.AdaptedGridPartition.full(path)


def time_pairs(n_steps: int, seed: int) -> list[tuple[int, int]]:
    rng = np.random.default_rng(seed)
    pairs = [(0, n_steps), (0, 0), (n_steps, n_steps), (1, n_steps - 1)]
    for _ in range(6):
        t, t2 = sorted(int(x) for x in rng.integers(0, n_steps + 1, size=2))
        pairs.append((t, t2))
    return pairs


@pytest.mark.parametrize("kind", PARTITIONS)
@pytest.mark.parametrize("n_paths", [1, 3, 8])
def test_ito_sums_equal_the_masked_oracles(kind, n_paths):
    for n_steps, seed, cauchy in [(137, 1, False), (130, 2, True), (29, 3, False), (2, 4, True)]:
        f = bundle(n_steps, n_paths, seed, cauchy)
        g = bundle(n_steps, n_paths, seed + 100, not cauchy)
        pi = partition(kind, f)
        assert np.array_equal(I.ito_pairs(f, g, pi), oracle.ito_pairs(f, g, pi))
        assert np.array_equal(I.ito_pairs(g, f, pi), oracle.ito_pairs(g, f, pi))
        for t, t2 in time_pairs(n_steps, seed):
            assert np.array_equal(I.ito_sum_from(f, g, pi, t), oracle.ito_sum_from(f, g, pi, t))
            assert np.array_equal(I.covariation_sum(f, g, pi, t, t2), oracle.covariation_sum(f, g, pi, t, t2))
            assert np.array_equal(I.covariation_sum(f, f, pi, t, t2), oracle.covariation_sum(f, f, pi, t, t2))


@pytest.mark.parametrize("n_paths", [1, 3, 8])
def test_full_grid_covariation_equals_the_loop_on_long_paths(n_paths):
    # the whole grid on one path: the cumsum over up to 300 steps must add in
    # time order, where np.sum's pairwise blocks would round differently
    for seed, n_steps in enumerate([131, 200, 300]):
        f = bundle(n_steps, n_paths, seed, cauchy=bool(seed % 2))
        pi = I.AdaptedGridPartition.full(f)
        assert np.array_equal(I.covariation_sum(f, f, pi, 0, n_steps), oracle.covariation_sum(f, f, pi, 0, n_steps))


def test_paraproduct_kernel_equals_the_loop_oracles():
    for depth, seed in [(4, 9), (7, 11)]:
        f = G.gen_increment(depth, seed=seed, dist="exponential")
        leaves = np.random.default_rng(seed).normal(size=f.tree.n_leaves)
        pm, g_pm = f.paths(), Martingale.from_leaf_values(f.tree, leaves).paths()
        pi = fn.paraproduct_deltaf_pairs(pm, g_pm)
        assert np.array_equal(pi, oracle.paraproduct_deltaf_pairs(pm, g_pm))
        # the paraproduct check's window estimate: Pi(F, g) with F[s, t] = f_t - f_s
        assert np.array_equal(pi, oracle.paraproduct_pairs(pm[None, :, :] - pm[:, None, :], g_pm))
        for s in range(depth + 1):
            assert np.array_equal(fn.paraproduct_deltaf_row(pm, np.diff(g_pm, axis=0), s), pi[s])


def counting(monkeypatch, calls: Counter, names) -> None:
    for name in names:
        real = getattr(fn, name)

        def wrapper(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(fn, name, wrapper)


KERNELS = ("paraproduct_pairs", "paraproduct_deltaf_pairs", "paraproduct_deltaf_row")


def test_ito_sums_and_the_paraproduct_check_reach_only_the_one_kernel(monkeypatch):
    calls = Counter()
    counting(monkeypatch, calls, KERNELS)
    walk = bundle(40, 3, 5, cauchy=False)
    I.ito_pairs(walk, walk, I.AdaptedGridPartition.from_oscillation(walk, 0.5))
    assert calls == {"paraproduct_deltaf_pairs": 1, "paraproduct_deltaf_row": 40}
    calls.clear()
    I.ito_sum_from(walk, walk, I.AdaptedGridPartition.full(walk), 3)
    assert calls == {"paraproduct_deltaf_row": 1}
    calls.clear()
    spec = CorpusSpec(kind="mixed", depth=5, trials=3, seed=4)
    C.check_paraproduct(spec, families=4)
    # per trial: the delta-f form reads one row per start s below the tree's
    # depth, and no estimate builds the pair tensor
    assert calls == {"paraproduct_deltaf_row": sum(mart.tree.depth for mart in spec.martingales())}


def tree_bundle(depth: int, seed: int) -> I.GridCadlagPath:
    return from_tree_process(G.gen_leaf_backprop("normal", depth, seed=seed))


# (n_steps, n_paths): the small ones take chain_dp's cost blocks, 256 x 64
# its column path
REFINE_SHAPES = ((16, 3), (33, 2), (40, 3), (64, 1), (256, 64))


@pytest.mark.parametrize("levels", [1, 2, 3, 4])
@pytest.mark.parametrize("r", [2.5, 3])
def test_refine_converge_equals_the_pair_tensor_oracle(levels, r):
    cases = [(bundle(n, p, n + levels, cauchy=bool(n % 2)), bundle(n, p, n + 50, cauchy=False)) for n, p in REFINE_SHAPES]
    tree = tree_bundle(7, seed=levels)
    cases += [(tree, tree), (tree, tree_bundle(7, seed=levels + 10))]
    taken = set()
    for f, g in cases:
        width = fn.CHAIN_BLOCK_ELEMENTS // ((f.n_steps + 1) * levels * f.values.shape[1])
        taken.add("blocks" if width >= 2 else "columns")
        for base in (I.AdaptedGridPartition.from_oscillation(f, 0.4), zero_only(f)):
            diag = I.refine_converge(f, g, base, levels=levels, r=r)
            distances, disc = oracle.refine_converge(f, g, base, levels=levels, r=r)
            assert diag.pi_distances == distances, (f.values.shape, levels, r)
            assert diag.discretization_errors == disc, (f.values.shape, levels, r)
    assert taken == {"blocks", "columns"}


def test_refine_converge_without_refinement_reports_only_the_error():
    f = bundle(16, 3, 7, cauchy=False)
    diag = I.refine_converge(f, f, I.AdaptedGridPartition.from_oscillation(f, 0.4), levels=0)
    assert diag.pi_distances == []
    assert diag.discretization_errors == oracle.refine_converge(f, f, I.AdaptedGridPartition.from_oscillation(f, 0.4), levels=0)[1]


def test_chen_residual_equals_the_pair_tensor_oracle():
    tree = tree_bundle(6, seed=3)
    cases = [(bundle(n, p, n, cauchy=True), bundle(n, p, n + 1, cauchy=False)) for n, p in ((2, 1), (29, 3), (137, 8))]
    for f, g in cases + [(tree, tree)]:
        for kind in PARTITIONS:
            pi = partition(kind, f)
            for max_points in (2, 5, 12, 24):
                assert I.chen_residual(f, g, pi, max_points) == oracle.chen_residual(f, g, pi, max_points)


def gap_source(n: int = 9, k: int = 3, paths: int = 2) -> fn.ParaproductGaps:
    rng = np.random.default_rng(n)
    return fn.ParaproductGaps(rng.normal(size=(n, k, paths)), rng.normal(size=(n - 1, paths)))


def test_paraproduct_gaps_reject_columns_out_of_order():
    gaps = gap_source()
    gaps.magnitudes(1, np.empty((1, 2, 2)))
    with pytest.raises(ValueError, match="in order"):
        gaps.magnitudes(3, np.empty((3, 2, 2)))
    gaps.magnitudes(2, np.empty((2, 2, 2)))
    with pytest.raises(ValueError, match="in order"):
        gaps.magnitudes(slice(2, 5), np.empty((3, 4, 2, 2)))
    # column 1 starts a new pass, with the same floats
    first = gaps.magnitudes(slice(1, 4), np.empty((3, 3, 2, 2))).copy()
    assert np.array_equal(gaps.magnitudes(slice(1, 4), np.empty((3, 3, 2, 2))), first)


def test_paraproduct_gaps_blocks_zero_their_unread_entries():
    # a reused buffer may hold anything; **= r must not warn on what is not read
    gaps = gap_source()
    out = np.full((4, 5, 2, 2), -np.inf)
    gaps.magnitudes(1, np.empty((1, 2, 2)))
    gaps.magnitudes(slice(2, 6), out)
    for k in range(4):
        assert np.all(out[k, k + 2 :] == 0.0)
        assert np.all(out[k, : k + 2] >= 0.0)
    out **= 2.5  # warnings are errors under pytest
    tensor = [fn.paraproduct_deltaf_pairs(gaps.f[:, k], np.concatenate([[np.zeros(2)], np.cumsum(gaps.dg, axis=0)])) for k in range(3)]
    for k in range(4):
        j = k + 2
        expect = np.abs(np.stack([tensor[0][:j, j] - tensor[1][:j, j], tensor[1][:j, j] - tensor[2][:j, j]], axis=1))
        assert np.array_equal(out[k, :j], expect**2.5)


REFINE_PROBE = """
import json
import numpy as np
import pair_sum_oracles as oracle
from martkit import ito as I

rng = np.random.default_rng(45)
cases = []
for n, p in ((16, 3), (40, 2), (256, 64)):
    f, g = (np.vstack([np.zeros(p), np.cumsum(rng.normal(size=(n, p)) / 3, axis=0)]) for _ in range(2))
    cases.append(tuple(I.GridCadlagPath(v, np.full(p, 1.0 / p), 1.0, None, True) for v in (f, g)))
# the ito demo's input: a +-1/16 lattice walk against itself, whose gaps and
# error paths hold many exact zeros
walk = I.GridCadlagPath.sampled_walk(256, 64, seed=11)
cases.append((walk, walk))
equal = []
for f, g in cases:
    base = I.AdaptedGridPartition.from_oscillation(f, 0.4)
    for levels, r in ((2, 2.5), (4, 3)):
        diag = I.refine_converge(f, g, base, levels=levels, r=r)
        equal.append((diag.pi_distances, diag.discretization_errors) == oracle.refine_converge(f, g, base, levels, r))
    equal.append(I.chen_residual(f, g, base, 12) == oracle.chen_residual(f, g, base, 12))
print(json.dumps({"cases": len(equal), "equal": sum(equal)}))
"""


def test_refinement_equals_the_oracle_at_every_simd_level():
    # the gaps are raised to r on their own (j, levels, paths) layout; numpy's
    # power must still give each cost the float of the per-level tensor column
    for disabled in SIMD_LEVELS:
        out = run_probe(REFINE_PROBE, disabled)
        assert out["equal"] == out["cases"] > 0, (disabled, out)
