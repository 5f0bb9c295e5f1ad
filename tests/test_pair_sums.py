"""The one pair-sum kernel against the earlier bodies of every pair sum.

The Ito sums, the covariation and the paraproducts all run through
``functionals.paraproduct_deltaf_pairs`` and its row function.  Here each is
compared float for float with its earlier body (``pair_sum_oracles``) on
bundles whose values are not dyadic, so that every sum rounds and a change
of summation order shows: a one-path bundle is contiguous in time, where
``np.sum`` would add pairwise.
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
    return getattr(I.AdaptedGridPartition, kind)(path)


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
    # per trial: one window estimate per family and the delta-f form
    assert calls["paraproduct_deltaf_pairs"] == 5 * spec.trials
    assert calls["paraproduct_pairs"] == 0
