import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import path_oracles
from martkit import functionals as fn
from martkit import generators as G
from martkit import ito
from martkit.report import CorpusSpec, lq_norm
from martkit.tree import FiltrationTree, Martingale, TreeProcess, accumulate_levels


def walk2():
    tree = FiltrationTree.dyadic(2)
    return Martingale(tree, [np.zeros(1), np.array([1.0, -1.0]), np.array([1.5, 0.5, -0.5, -1.5])])


# -- maximal and square functions ---------------------------------------------


def on_rows(kernel, pm):
    """A node kernel on the raveled rows of a raw (N+1, L) path matrix."""
    return kernel(pm.ravel(), path_oracles.rows_layout(*pm.shape)).reshape(pm.shape)


def test_maximal_examples():
    path = np.array([0.0, 1.0, -2.0, 1.0])[:, None]
    assert on_rows(fn.maximal_paths, path)[:, 0].tolist() == [0.0, 1.0, 2.0, 2.0]
    const = np.full((5, 1), -3.0)
    assert np.all(on_rows(fn.maximal_paths, const) == 3.0)


def test_maximal_nondecreasing_and_submartingale():
    mart = G.gen_increment(6, seed=2)
    tree, layout = mart.tree, mart.tree.layout
    mf = fn.maximal_paths(mart.flat, layout)
    assert np.all(mf >= mf[layout.up])
    # one-step submartingale property of Mf
    levels = layout.levels(mf)
    for n in range(tree.depth):
        cond = tree.atom_average(n, tree.to_leaves(n + 1, levels[n + 1]))
        assert np.all(levels[n] <= cond + 1e-12)


def test_square_function_examples():
    path = np.array([0.0, 1.0, -1.0])[:, None]
    assert np.isclose(on_rows(fn.square_function_paths, path)[-1, 0], math.sqrt(5.0))
    walk = G.gen_scaled_walk(16)
    assert np.all(walk.tree.layout.leaves(fn.square_function_paths(walk.flat, walk.tree.layout)) == 1.0)


def test_increments_vanish_at_the_root_whatever_its_value():
    # df_0 = 0 by definition, where f_0 - f_0 is nan for a root of inf or nan
    layout = FiltrationTree.dyadic(2).layout
    first = layout.offsets[1]
    for root in (np.inf, -np.inf, np.nan, 2.5):
        values = np.arange(layout.offsets[-1], dtype=np.float64)
        values[0] = root
        with np.errstate(invalid="ignore"):
            df, diff = fn.increments(values, layout), values - values[layout.up]
        assert np.array_equal(df[:first], np.zeros(first))
        assert np.array_equal(df[first:], diff[first:], equal_nan=True)


def test_l2_isometry_and_predictable_square():
    for seed in range(30):
        mart = G.gen_leaf_backprop("normal", 6, seed=seed)
        tree = mart.tree
        sf = tree.layout.leaves(fn.square_function_paths(mart.flat, tree.layout))
        lhs = lq_norm(mart.leaf_values(), 2.0, tree.leaf_prob)
        rhs = lq_norm(sf, 2.0, tree.leaf_prob)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, rhs)
        # predictable square function of independent +-1 increments is sqrt(n)
    walk = G.gen_scaled_walk(9)
    sf_pred = fn.predictable_square_paths(walk)
    expected = np.sqrt(np.arange(10) / 9.0)
    assert np.allclose(sf_pred[:, 0], expected)


def test_predictable_square_is_the_root_of_the_conditional_sum():
    # check_aux_lemmas reads sf_pred as sqrt(big_w): the same additions in the same order
    for mart in CorpusSpec(kind="mixed", depth=8, trials=300, seed=8).martingales():
        tree = mart.tree
        z = tree.layout.levels(fn.increments(mart.flat, tree.layout) ** 2)
        big_w = np.zeros(tree.n_leaves)
        for k in range(1, tree.depth + 1):
            big_w = big_w + tree.atom_average_leaves(k - 1, tree.to_leaves(k, z[k]))
        assert np.array_equal(np.sqrt(big_w), fn.predictable_square_paths(mart)[-1])


# -- row-wise time scans ------------------------------------------------------------


def same_floats(a, b) -> bool:
    """Equal as doubles, telling -0.0 from 0.0.  NaNs match NaNs whatever their
    sign bit: IEEE 754 leaves the sign of inf - inf open, and numpy's
    vectorised and strided loops set it differently."""
    a, b = np.asarray(a), np.asarray(b)
    real = ~np.isnan(a)
    return np.array_equal(a, b, equal_nan=True) and np.array_equal(np.signbit(a[real]), np.signbit(b[real]))


SCAN_VALUES = np.array([0.0, -0.0, 1.0, -1.0, 0.5, np.inf, -np.inf, np.nan])


@st.composite
def scan_arrays(draw):
    """(1..25, 1..300) arrays, or (N+1, L, K) ones, of small halves with ties,
    of signed zeros, infinities and NaNs, or of normal draws."""
    shape = (draw(st.integers(1, 25)), draw(st.integers(1, 300)))
    shape += draw(st.sampled_from([(), (1,), (3,)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fill = draw(st.sampled_from(["ties", "special", "normal"]))
    if fill == "ties":
        return rng.integers(-3, 4, size=shape) * 0.5
    if fill == "special":
        return rng.choice(SCAN_VALUES, size=shape)
    return rng.normal(size=shape)


@given(scan_arrays())
@settings(max_examples=200, deadline=None)
def test_accumulate_levels_equals_numpy_accumulate(arr):
    # on the rows of a matrix, in place
    for ufunc in (np.maximum, np.minimum, np.add):
        with np.errstate(invalid="ignore"):
            expected = ufunc.accumulate(arr, axis=0)
            scanned = arr.copy()
            accumulate_levels(ufunc, scanned)
            assert same_floats(scanned, expected)


def scan_corpora():
    """Martingales of a mixed, a depth-12 backprop and a family corpus."""
    for spec in (
        CorpusSpec(kind="mixed", depth=8, trials=40, seed=61),
        CorpusSpec(kind="backprop", depth=12, trials=3, seed=62),
        CorpusSpec(kind="family", depth=6, trials=20, seed=63, width=3),
    ):
        yield from spec.martingales()


def test_time_scans_equal_the_numpy_accumulates():
    # numpy's time scans of the path matrix are the oracles of the node scans,
    # which the tree-level wrappers repeat over each node's leaf block
    for mart in scan_corpora():
        pm = mart.paths()
        assert same_floats(fn.maximal(mart).paths(), path_oracles.maximal(pm))
        assert same_floats(fn.square_function(mart).paths(), path_oracles.square_function(pm))


@given(scan_arrays())
@settings(max_examples=200, deadline=None)
def test_quotient_equals_the_nested_where(num):
    # the nested np.where expression quotient replaced is the oracle
    den = np.abs(num[::-1])
    den[::2] = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        expected = np.where(den > 0, num / np.where(den > 0, den, 1.0), 0.0)
    with np.errstate(divide="raise", invalid="ignore"):  # no zero denominator is divided by
        assert same_floats(fn.quotient(num, den), expected)


# -- Davis decomposition ---------------------------------------------------------


def test_davis_two_step_example():
    pred, bv = (part.paths() for part in fn.davis_decompose(walk2()))
    dpred = np.diff(pred, axis=0)
    dbv = np.diff(bv, axis=0)
    assert np.allclose(dpred[0], 0.0)
    assert np.allclose(np.abs(dpred[1]), 0.5)
    assert np.allclose(np.abs(dbv[0]), 1.0)
    assert np.allclose(dbv[1], 0.0)


def test_davis_nonincreasing_jumps_all_predictable():
    tree = FiltrationTree.dyadic(2)
    # |df_1| = 0 and |df_2| <= M df_1 = 0 forces f_bv = 0
    f = Martingale(tree, [np.zeros(1), np.zeros(2), np.zeros(4)])
    _, bv = fn.davis_decompose(f)
    assert np.allclose(bv.flat, 0.0)


def test_davis_invariants_random():
    for seed in range(100):
        mart = G.corpus_martingale("mixed", 6, seed=77, index=seed)
        tree = mart.tree
        pm = mart.paths()
        pred, bv = (part.paths() for part in fn.davis_decompose(mart))
        assert np.abs(pm - pred - bv).max() <= 1e-12 * max(1, np.abs(pm).max())
        df = np.abs(np.diff(pm, axis=0))
        mdf_prev = np.vstack([np.zeros(tree.n_leaves), np.maximum.accumulate(df, axis=0)[:-1]])
        dpred = np.abs(np.diff(pred, axis=0))
        assert np.all(dpred <= 2 * mdf_prev + 1e-10)
        # the jump excess dh_n = sign(df_n) (|df_n| - M df_{n-1})+ telescopes:
        # sum |dh_n| = M df_N, and f_bv is its compensated sum
        dh = np.sign(np.diff(pm, axis=0)) * np.maximum(df - mdf_prev, 0.0)
        assert np.allclose(np.abs(dh).sum(axis=0), df.max(axis=0), atol=1e-12)
        e_dh = np.array([tree.atom_average_leaves(n, dh[n]) for n in range(tree.depth)])
        assert np.allclose(np.diff(bv, axis=0), dh - e_dh, atol=1e-12)
        tv = np.abs(np.diff(bv, axis=0)).sum(axis=0)
        assert tree.expectation(tv) <= 2 * tree.expectation(df.max(axis=0)) + 1e-10


@pytest.mark.parametrize("kind, norm_exponent", [("mixed", 2.0), ("family", 1.5), ("family", 2.0), ("family", 1.0)])
def test_davis_parts_are_adapted_martingales(kind, norm_exponent):
    # row n is built from level-n values and level-(n-1) averages only
    for index in range(60):
        mart = G.corpus_martingale(kind, 6, seed=31, index=index)
        tree = mart.tree
        for part in fn.davis_decompose(mart, norm_exponent):
            part = part.paths()
            assert part.shape == mart.paths().shape
            for n in range(tree.depth + 1):
                assert np.array_equal(part[n], tree.to_leaves(n, part[n][tree.leaf_start[n]]))
            Martingale(tree, TreeProcess.from_paths(tree, part).values)


# -- variation ---------------------------------------------------------------------


def brute_variation(values, r):
    n = len(values)
    best = 0.0
    for size in range(2, n + 1):
        for combo in itertools.combinations(range(n), size):
            s = sum(abs(values[combo[i]] - values[combo[i + 1]]) ** r for i in range(size - 1))
            best = max(best, s)
    return best ** (1.0 / r) if best > 0 else 0.0


def test_variation_examples():
    assert np.isclose(fn.variation(np.array([0.0, 1.0, 2.0]), 2), 2.0)
    assert np.isclose(fn.variation(np.array([0.0, 1.0, 0.0, 1.0]), 2), math.sqrt(3.0))
    assert np.isclose(fn.variation(np.array([0.0, 1.0, 2.0, 3.0]), 1), 3.0)
    assert fn.variation(np.array([5.0, 5.0, 5.0]), 2) == 0.0
    with pytest.raises(ValueError):
        fn.variation(np.array([0.0, 1.0]), 0.0)


def test_variation_matches_bruteforce_on_short_sequences():
    rng = np.random.default_rng(3)
    for _ in range(50):
        vals = rng.normal(size=rng.integers(2, 9))
        for r in (1.0, 2.0, 3.5):
            assert np.isclose(fn.variation(vals, r), brute_variation(vals, r))


@given(st.lists(st.floats(-10, 10, allow_nan=False), min_size=2, max_size=7), st.floats(0.5, 5))
@settings(max_examples=100, deadline=None)
def test_variation_matches_bruteforce(xs, r):
    vals = np.asarray(xs)
    assert np.isclose(fn.variation(vals, r), brute_variation(vals, r), atol=1e-9)


def test_variation_holder_chain():
    rng = np.random.default_rng(8)
    for _ in range(40):
        vals = rng.normal(size=10)
        v_inf = np.ptp(vals)  # V^inf, the widest gap
        v3 = fn.variation(vals, 3.0)
        v2 = fn.variation(vals, 2.0)
        assert v_inf <= v3 + 1e-12 and v3 <= v2 + 1e-12


def test_variation_monotone_under_refinement():
    rng = np.random.default_rng(9)
    vals = rng.normal(size=9)
    sub = vals[::2]
    assert fn.variation(sub, 2.5) <= fn.variation(vals, 2.5) + 1e-12


def test_variation_paths_agrees_with_scalar():
    rng = np.random.default_rng(10)
    pm = rng.normal(size=(8, 12))
    out = fn.variation_paths(pm.ravel(), 2.5, path_oracles.rows_layout(*pm.shape))
    for c in range(12):
        assert np.isclose(out[c], fn.variation(pm[:, c], 2.5))


def ito_walk_and_base():
    g = ito.GridCadlagPath.sampled_walk(16, 2, seed=1)
    return g, g, ito.AdaptedGridPartition.from_oscillation(g, 0.5)


@pytest.mark.parametrize("r", [np.inf, np.nan, 0.0, -1.0])
@pytest.mark.parametrize(
    "entry",
    [
        lambda r: fn.variation(np.arange(4.0), r),
        lambda r: fn.variation_paths(np.zeros(8), r, path_oracles.rows_layout(4, 2)),
        lambda r: fn.two_param_variation_paths(np.zeros((4, 4, 2)), r),
        lambda r: ito.refine_converge(*ito_walk_and_base(), levels=2, r=r),
    ],
    ids=["variation", "variation_paths", "two_param_variation_paths", "refine_converge"],
)
def test_variation_entry_points_take_finite_positive_exponents(entry, r):
    with pytest.raises(ValueError, match="variation exponent must be positive and finite"):
        entry(r)


def test_chain_dp_reads_only_the_strict_upper_triangle(monkeypatch):
    # a cost block also makes |pairs[i, j]|^r for i >= j; NaN there must not
    # reach a total, whether the columns come in one block, in several or
    # one at a time
    rng = np.random.default_rng(13)
    n = 7
    pairs = rng.normal(size=(n, n, 3))
    poisoned, zeroed = pairs.copy(), pairs.copy()
    poisoned[np.tril_indices(n)] = np.nan  # diagonal and below
    zeroed[np.tril_indices(n)] = 0.0
    for budget in (fn.CHAIN_BLOCK_ELEMENTS, 48, 24):
        monkeypatch.setattr(fn, "CHAIN_BLOCK_ELEMENTS", budget)
        for r in (1.0, 2.0, 3.5):
            best = fn.chain_dp(poisoned, r)
            assert np.array_equal(best, fn.chain_dp(zeroed, r))
            assert best.shape == (n, 3) and best[0].tolist() == [0.0, 0.0, 0.0]


def dense_dist(values):
    """(n, n) matrix of |f_i - f_j|, Euclidean across the trailing axis."""
    diff = values[:, None] - values[None, :]
    if values.ndim == 1:
        return np.abs(diff)
    return np.sqrt((diff * diff).sum(axis=-1))


def dist_inputs():
    rng = np.random.default_rng(16)
    yield rng.normal(size=30)
    yield np.round(rng.normal(size=30))  # ties among distances
    for dim in (1, 2, 3):
        yield rng.normal(size=(30, dim))
        yield np.round(rng.normal(size=(30, dim)))


def test_dist_columns_equal_the_dense_matrix():
    # scalar and vector sequences alike take DistColumns
    for vals in dist_inputs():
        dense = dense_dist(vals)
        cols = fn.DistColumns(vals)
        n = vals.shape[0]
        assert cols.shape == dense.shape
        for j in range(1, n):
            assert np.array_equal(cols.magnitudes(slice(j, j + 1), np.empty((1, j)))[0], dense[:j, j])
        for j0, j1 in ((1, n), (1, 2), (5, 9), (n - 1, n)):
            block = cols.magnitudes(slice(j0, j1), np.empty((j1 - j0, j1 - 1)))
            assert np.array_equal(block, dense[: j1 - 1, j0:j1].T)


def test_two_param_variation_paths_batch_equals_slices():
    rng = np.random.default_rng(14)
    cost = rng.normal(size=(8, 8, 5))
    for rho in (1.0, 1.7, 2.5):
        batched = fn.two_param_variation_paths(cost, rho)
        single = [fn.two_param_variation_paths(cost[:, :, k : k + 1], rho)[0] for k in range(5)]
        assert np.array_equal(batched, single)


def brute_vector_variation(values, r):
    n = len(values)
    best = 0.0
    for size in range(2, n + 1):
        for combo in itertools.combinations(range(n), size):
            s = sum(np.linalg.norm(values[combo[i + 1]] - values[combo[i]]) ** r for i in range(size - 1))
            best = max(best, s)
    return best ** (1.0 / r)


def test_vector_variation_matches_bruteforce():
    rng = np.random.default_rng(15)
    for _ in range(20):
        vals = rng.normal(size=(rng.integers(2, 8), 3))
        for r in (1.0, 2.0, 2.5):
            assert np.isclose(fn.variation(vals, r), brute_vector_variation(vals, r))


# -- Lepingle ------------------------------------------------------------------------


def greedy_squares(pm, m, active):
    """Sum of squared sampled jumps of the scale-m greedy partition, per path."""
    osc = path_oracles.running_oscillation(pm)
    thr = 2.0**-m
    anchor = pm[0].copy()
    s2 = np.zeros(pm.shape[1])
    for t in range(1, pm.shape[0]):
        jump = pm[t] - anchor
        trig = active & (osc[t] > 0) & (np.abs(jump) >= thr * osc[t])
        s2[trig] += jump[trig] ** 2
        anchor[trig] = pm[t][trig]
    return s2


def min_nonzero_all_pairs(pm):
    out = np.full(pm.shape[1], np.inf)
    for j in range(1, pm.shape[0]):
        d = np.abs(pm[:j] - pm[j])
        d[d == 0] = np.inf
        out = np.minimum(out, d.min(axis=0))
    return out


def lepingle_one_scale_at_a_time(pathmat, r):
    """(V^r(f)^2, rhs) for one exponent, one greedy scale per pass."""
    pm = np.asarray(pathmat, dtype=np.float64)
    if pm.ndim == 1:
        pm = pm[:, None]
    lhs = path_oracles.variation_paths(pm, r) ** 2
    m_inf = path_oracles.running_oscillation(pm)[-1]
    d_min = min_nonzero_all_pairs(pm)
    with np.errstate(divide="ignore", invalid="ignore"):
        m_star = np.where(m_inf > 0, np.floor(np.log2(4.0 * m_inf / d_min)), 1.0)
    m_star = np.where(np.isfinite(m_star), np.maximum(m_star, 2), 2).astype(np.int64)
    rhs = np.zeros(pm.shape[1])
    for m in range(2, int(m_star.max(initial=2)) + 1):
        active = (m <= m_star) & (m_inf > 0)
        if not active.any():
            break
        rhs += 2.0 ** (-(m - 2) * (r - 2)) * greedy_squares(pm, m, active)
    return lhs, 64.0 * rhs


def lepingle_inputs():
    for kind in ("walk", "backprop", "mixed", "increment"):
        for index in range(3):
            yield G.corpus_martingale(kind, 8, 11, index).paths()
    yield np.array([0.0, 1.0, 1.0, 3.0, 3.0, -0.5])
    yield np.full((6, 1), 2.5)
    walk = G.gen_walk_increments(3, seed=4).paths()
    yield np.column_stack([np.zeros(4), walk[:, 0], np.full(4, -1.0), walk[:, 5]])
    yield np.array([0.0, 1e-300, 1.0])  # about 1000 scales


def bound_on_rows(pathmat, rs):
    """``lepingle_pathwise_bound`` of a path matrix, on the layout of its rows."""
    pm = np.asarray(pathmat, dtype=np.float64).reshape(len(pathmat), -1)
    return fn.lepingle_pathwise_bound(pm.ravel(), rs, path_oracles.rows_layout(*pm.shape))


def test_smallest_jumps_match_all_pairs():
    for pm in lepingle_inputs():
        pm = pm.reshape(pm.shape[0], -1)
        assert np.array_equal(fn._smallest_jumps(pm.ravel(), path_oracles.rows_layout(*pm.shape)), min_nonzero_all_pairs(pm))
    for mart in (G.gen_walk_increments(8, seed=2), G.gen_doubling(7), G.gen_leaf_backprop("sign", 6, seed=3)):
        assert np.array_equal(fn._smallest_jumps(mart.flat, mart.tree.layout), min_nonzero_all_pairs(mart.paths()))


def test_lepingle_pathwise_bound_equals_one_scale_at_a_time():
    rs = (2.1, 2.5, 3.0, 4.0)
    for pm in lepingle_inputs():
        for r, (vr, rhs) in zip(rs, bound_on_rows(pm, rs)):
            lhs_ref, rhs_ref = lepingle_one_scale_at_a_time(pm, r)
            assert np.array_equal(vr**2, lhs_ref)
            assert np.array_equal(rhs, rhs_ref)


def test_lepingle_pathwise_bound_examples():
    const = np.zeros((5, 1))
    [(vr, rhs)] = bound_on_rows(const, (3.0,))
    assert vr[0] == rhs[0] == 0.0
    two_jump = np.array([0.0, 1.0, 1.0, 3.0, 3.0])
    [(vr, rhs)] = bound_on_rows(two_jump[:, None], (3.0,))
    assert vr[0] ** 2 <= rhs[0]
    with pytest.raises(ValueError):
        bound_on_rows(two_jump[:, None], (2.0,))


def test_lepingle_pathwise_bound_random_walks():
    for seed in range(100):
        mart = G.gen_walk_increments(10, seed=seed)
        for vr, rhs in fn.lepingle_pathwise_bound(mart.flat, (2.5, 3.0, 4.0), mart.tree.layout):
            assert np.all(vr**2 <= rhs * (1 + 1e-9) + 1e-12)


def test_lepingle_pathwise_bound_working_set():
    # 3 rows and about 1000 scales: the blocks of N+1 scales bound the memory
    pm = np.stack([np.zeros(4096), np.full(4096, 1e-300), 1.0 + 1e-3 * np.arange(4096)])
    tracemalloc.start()
    try:
        bound_on_rows(pm, (2.5, 3.0, 4.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 16 * pm.nbytes


TREES = st.one_of(
    st.builds(lambda depth, seed: G.gen_increment(depth, seed=seed), st.integers(0, 8), st.integers(0, 2**32 - 1)),
    st.builds(
        lambda depth, seed, dist: G.gen_leaf_backprop(dist, depth, seed=seed),
        st.integers(0, 8),
        st.integers(0, 2**32 - 1),
        st.sampled_from(["normal", "sign"]),
    ),
    st.builds(lambda depth, seed: G.gen_walk_increments(depth, seed=seed), st.integers(0, 8), st.integers(0, 2**32 - 1)),
    st.builds(G.gen_scaled_walk, st.sampled_from([1, 4])),
    st.builds(G.gen_doubling, st.integers(0, 8)),
    st.builds(G.gen_log_weight, st.integers(0, 8)),
)


@given(TREES)
@settings(max_examples=80, deadline=None)
def test_node_variation_and_lepingle_equal_the_path_matrix(mart):
    # doubling, log_weight and sign corpora hold exact zeros and ties, and the
    # dyadic walks send the path-matrix DP to its power table and prefix sums
    pm, layout = mart.paths(), mart.tree.layout
    for r in (1, 4 / 3, 2, 2.5, 3, 4):
        assert np.array_equal(fn.variation_paths(mart.flat, r, layout), path_oracles.variation_paths(pm, r)), r
    rs = (2.5, 3.0, 4.0)
    node = fn.lepingle_pathwise_bound(mart.flat, rs, layout)
    assert np.array_equal(fn._smallest_jumps(mart.flat, layout), path_oracles.min_nonzero_pairwise(pm))
    for (vr, rhs), (vr_ref, rhs_ref) in zip(node, path_oracles.lepingle_pathwise_bound(pm, rs)):
        assert np.array_equal(vr, vr_ref) and np.array_equal(rhs, rhs_ref)


# -- paraproducts -----------------------------------------------------------------------


def test_paraproduct_empty_and_two_term():
    f = G.gen_leaf_backprop("normal", 3, seed=1)
    g = G.gen_leaf_backprop("uniform", 3, seed=2)
    assert g.tree is f.tree
    pm_f, pm_g = f.paths(), g.paths()
    pi = fn.paraproduct_deltaf_pairs(pm_f, pm_g)
    # empty sums on and below the diagonal
    assert not pi[np.tril_indices(pi.shape[0])].any()
    # two-term expansion with s = 0, t = 2: first term vanishes
    expect = (pm_f[1] - pm_f[0]) * (pm_g[2] - pm_g[1])
    assert np.allclose(pi[0, 2], expect, atol=1e-14)


def chen_residuals(pi_pairs, f_pm, g_pm) -> float:
    """Max |delta Pi_{s,t,u} - (f_t - f_s)(g_u - g_t)| over all index triples."""
    n = pi_pairs.shape[0]
    worst = 0.0
    for s in range(n):
        for t in range(s, n):
            for u in range(t, n):
                resid = pi_pairs[s, u] - pi_pairs[s, t] - pi_pairs[t, u] - (f_pm[t] - f_pm[s]) * (g_pm[u] - g_pm[t])
                worst = max(worst, float(np.abs(resid).max()))
    return worst


def test_paraproduct_chen_identity_all_triples():
    f = G.gen_leaf_backprop("normal", 6, seed=5)
    g = G.gen_leaf_backprop("exponential", 6, seed=6)
    pi = fn.paraproduct_deltaf_pairs(f.paths(), g.paths())
    assert chen_residuals(pi, f.paths(), g.paths()) <= 1e-12


def test_paraproduct_martingale_in_second_index():
    f = G.gen_leaf_backprop("normal", 5, seed=7)
    g = G.gen_leaf_backprop("normal", 5, seed=8)
    tree = f.tree
    pi = fn.paraproduct_deltaf_pairs(f.paths(), g.paths())
    s = 1
    for t in range(s + 1, tree.depth + 1):
        inc = pi[s, t] - pi[s, t - 1]
        cond = tree.atom_average_leaves(t - 1, inc)
        assert np.abs(cond).max() <= 1e-10


def test_paraproduct_general_F_matches_deltaf():
    f = G.gen_leaf_backprop("normal", 4, seed=9)
    g = G.gen_leaf_backprop("normal", 4, seed=10)
    pm = f.paths()
    F = pm[None, :, :] - pm[:, None, :]
    a = fn.paraproduct_pairs(F, g.paths())
    b = fn.paraproduct_deltaf_pairs(pm, g.paths())
    assert np.abs(a - b).max() <= 1e-12


# -- weighted maximal ------------------------------------------------------------------


def test_weighted_maximal_reduces_to_unweighted():
    mart = G.gen_leaf_backprop("normal", 6, seed=20)
    tree = mart.tree
    f = np.abs(mart.flat)
    lams, lhs, rhs, _ = fn.weighted_maximal_data(f, np.ones(tree.n_leaves), tree)
    assert np.all(lhs <= rhs + 1e-12)


def test_weighted_maximal_constant_f():
    tree = FiltrationTree.dyadic(3)
    f = np.full(tree.n_nodes, 2.5)
    lams, lhs, rhs, _ = fn.weighted_maximal_data(f, np.full(8, 0.7), tree)
    assert lams.tolist() == [2.5]
    assert np.isclose(lhs[0], rhs[0])  # equality at the only breakpoint


def test_weighted_maximal_random():
    rng = np.random.default_rng(21)
    for seed in range(100):
        mart = G.gen_leaf_backprop("normal", 6, seed=seed)
        tree = mart.tree
        w = np.abs(rng.normal(size=tree.n_leaves)) + 0.05
        lams, lhs, rhs, _ = fn.weighted_maximal_data(np.abs(mart.flat), w, tree)
        assert np.all(lhs <= rhs * (1 + 1e-9) + 1e-12)
    with pytest.raises(ValueError):
        fn.weighted_maximal_data(np.abs(mart.flat), np.zeros(tree.n_leaves), tree)
