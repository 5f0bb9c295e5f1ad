import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from martkit import checks as C
from martkit import generators as G
from martkit import tree as tree_module
from martkit.report import CorpusSpec
from martkit.tree import (
    INFINITY,
    MARTINGALE_RTOL,
    UNIFORM_CACHE_SIZE,
    FiltrationTree,
    Martingale,
    StoppingRule,
    TreeError,
    TreeProcess,
    conditional_expectation,
    conditional_expectation_at,
    hitting_time,
    optional_sampling_check,
    sampled_value,
    stop_process,
    tree_from_dict,
    tree_to_dict,
)


@pytest.fixture
def depth2():
    return FiltrationTree.dyadic(2)


def test_conditional_expectation_binary(depth2):
    f = np.array([1.0, 3.0, 5.0, 7.0])
    assert np.allclose(conditional_expectation(depth2, f, 1), [2.0, 6.0])
    assert np.allclose(conditional_expectation(depth2, f, 0), [4.0])


def test_conditional_expectation_level_range(depth2):
    with pytest.raises(TreeError):
        conditional_expectation(depth2, np.zeros(4), 3)


def test_conditional_expectation_properties():
    tree = G.gen_increment(5, seed=12).tree
    rng = np.random.default_rng(0)
    f = rng.normal(size=tree.n_leaves) ** 2  # nonnegative
    g_level = 2
    ones = conditional_expectation(tree, np.ones(tree.n_leaves), g_level)
    assert np.allclose(ones, 1.0)  # E(1 | F') = 1
    ce = conditional_expectation(tree, f, g_level)
    assert np.all(ce >= 0)  # positivity
    assert np.isclose(tree.node_prob[g_level] @ ce, tree.expectation(f))  # mean preserved
    # L^p contraction at p = 2 and the product rule for F'-measurable g
    assert tree.node_prob[g_level] @ ce**2 <= tree.expectation(f**2) + 1e-12
    g_vals = rng.normal(size=tree.level_sizes[g_level])
    g_leaf = tree.to_leaves(g_level, g_vals)
    prod = conditional_expectation(tree, f * g_leaf, g_level)
    assert np.allclose(prod, ce * g_vals, atol=1e-12)


def test_tower_property():
    tree = G.gen_increment(6, seed=3).tree
    f = np.random.default_rng(1).normal(size=tree.n_leaves)
    for m in range(3):
        for n in range(m, 5):
            inner = tree.atom_average_leaves(n, f)
            two_step = conditional_expectation(tree, inner, m)
            one_step = conditional_expectation(tree, f, m)
            assert np.abs(two_step - one_step).max() <= 1e-12


def test_increment_orthogonality():
    mart = G.gen_increment(6, seed=44)
    tree = mart.tree
    pm = mart.paths()
    rng = np.random.default_rng(5)
    for n in range(1, tree.depth + 1):
        g = tree.to_leaves(n - 1, rng.normal(size=tree.level_sizes[n - 1]))
        assert abs(tree.expectation(g * (pm[n] - pm[n - 1]))) <= 1e-10


def test_martingale_invariant_rejects_broken(depth2):
    values = [np.array([0.0]), np.array([1.0, -1.0]), np.array([5.0, 0.0, 0.0, 0.0])]
    with pytest.raises(TreeError):
        Martingale(depth2, values)


def test_null_atom_rejected():
    with pytest.raises(TreeError):
        FiltrationTree.dyadic(1).__class__(
            [np.empty(0, dtype=np.int64), np.array([0, 0])], np.array([1.0, 0.0])
        )


def test_prob_sum_checked():
    with pytest.raises(TreeError):
        FiltrationTree([np.empty(0, dtype=np.int64), np.array([0, 0])], np.array([0.6, 0.5]))


# -- shape validation and the shape cache ---------------------------------------


def parent_structure_error(parents):
    """Per-level parent checks as the constructor once made them, with
    ``np.unique`` for childless nodes: the oracle of the one-diff checks."""
    sizes = [1]
    for n in range(1, len(parents)):
        par = parents[n]
        if par.size == 0:
            return f"level {n} is empty"
        if np.any(np.diff(par) < 0):
            return f"parent array of level {n} is not nondecreasing"
        if par.min() < 0 or par.max() >= sizes[n - 1]:
            return f"parent index out of range at level {n}"
        if np.unique(par).size != sizes[n - 1]:
            return f"childless node at level {n - 1}"
        sizes.append(par.size)
    return None


def mutate_parents(par, kind, i, delta):
    """One structural fault in a valid parent array (``i`` picks where)."""
    par = par.copy()
    if kind == "decreasing" and par[-1] > 0:
        rises = np.flatnonzero(np.diff(par))
        j = rises[i % rises.size]
        par[j], par[j + 1] = par[j + 1], par[j]
    elif kind == "out_of_range":
        par[i % par.size] = -1 if delta < 0 else par[-1] + 1
    elif kind == "skip":
        k = par[i % par.size]
        par[par == k] = k + 1 if k < par[-1] else k - 1
    elif kind == "empty":
        par = par[:0]
    elif kind == "nudge":
        par[i % par.size] += delta
    return par


@st.composite
def parent_arrays(draw):
    """A random valid parent-array list, with at most one level mutated."""
    depth = draw(st.integers(1, 5))
    parents = [np.empty(0, dtype=np.int64)]
    size = 1
    for _ in range(depth):
        kids = draw(st.lists(st.integers(1, 3), min_size=size, max_size=size))
        parents.append(np.repeat(np.arange(size), kids))
        size = parents[-1].size
    n = draw(st.integers(1, depth))
    kind = draw(st.sampled_from(["none", "decreasing", "out_of_range", "skip", "empty", "nudge"]))
    i, delta = draw(st.integers(0, 10**6)), draw(st.sampled_from([-2, -1, 1, 2]))
    parents[n] = mutate_parents(parents[n], kind, i, delta)
    return parents


@given(parent_arrays())
@settings(max_examples=300, deadline=None)
def test_parent_validation_matches_oracle(parents):
    expect = parent_structure_error(parents)
    n_leaves = max(parents[-1].size, 1)
    leaf_prob = np.full(n_leaves, 1.0 / n_leaves)
    if expect is not None:
        with pytest.raises(TreeError) as err:
            FiltrationTree(parents, leaf_prob)
        assert str(err.value) == expect
        return
    tree = FiltrationTree(parents, leaf_prob)
    anc = ancestor_oracle(tree)
    values = np.arange(tree.n_nodes, dtype=np.float64)
    for n, size in enumerate(tree.level_sizes):
        nodes = np.arange(size)
        assert np.array_equal(tree.leaf_start[n], np.searchsorted(anc[n], nodes))
        assert np.array_equal(tree.leaf_count[n], np.bincount(anc[n], minlength=size))
        assert np.array_equal(tree.to_leaves(n, nodes), anc[n])
        assert np.array_equal(tree.to_leaves(n, values[:size]), values[:size][anc[n]])
        pairs = np.stack([nodes, -nodes], axis=1)
        assert np.array_equal(tree.to_leaves(n, pairs), pairs[anc[n]])
    levels = [values[:size] for size in tree.level_sizes]
    assert np.array_equal(TreeProcess(tree, levels).paths(), np.stack([v[a] for v, a in zip(levels, anc)]))


def ancestor_oracle(tree):
    """The (depth+1, n_leaves) matrix of each leaf's level-n ancestor, walked
    up through the parent arrays: the oracle of the leaf blocks."""
    anc = np.empty((tree.depth + 1, tree.n_leaves), dtype=np.int64)
    anc[tree.depth] = np.arange(tree.n_leaves)
    for n in range(tree.depth, 0, -1):
        anc[n - 1] = tree.parents[n][anc[n]]
    return anc


def fresh_dyadic(depth):
    """The dyadic tree built from scratch, bypassing the shape cache."""
    parents = [np.empty(0, dtype=np.int64)]
    parents += [np.repeat(np.arange(2 ** (n - 1)), 2) for n in range(1, depth + 1)]
    return FiltrationTree(parents, np.full(2**depth, 2.0**-depth))


def assert_same_tree(a, b):
    assert a.level_sizes == b.level_sizes
    for name in ("parents", "node_prob", "leaf_start", "leaf_count"):
        assert all(np.array_equal(x, y) for x, y in zip(getattr(a, name), getattr(b, name)))
    assert np.array_equal(a.leaf_prob, b.leaf_prob)


def test_tree_arrays_grow_with_nodes_not_paths():
    # the leaf blocks take O(n_nodes) space; a per-leaf ancestor matrix alone
    # would take (depth + 1) * n_leaves int64s, about 8.5 * 8 * n_nodes bytes here
    tree = fresh_dyadic(16)
    arrays = []
    for attr in vars(tree).values():
        arrays += attr if isinstance(attr, tuple) else [attr]
    arrays = [a for a in arrays if isinstance(a, np.ndarray)]
    assert all(a.ndim == 1 for a in arrays)
    assert sum(a.nbytes for a in arrays) <= 6 * 8 * tree.n_nodes


@pytest.mark.parametrize("depth", [0, 1, 4, 8])
def test_dyadic_is_one_cached_uniform_tree(depth):
    tree = FiltrationTree.dyadic(depth)
    assert FiltrationTree.dyadic(depth) is tree
    assert FiltrationTree.uniform(depth, 2) is tree
    assert_same_tree(tree, fresh_dyadic(depth))


def test_uniform_cache_holds_the_default_suite_and_evicts_past_its_bound():
    FiltrationTree.uniform.cache_clear()
    for _ in range(2):
        for entry in C.default_suite(seed=3, trials_scale=0.001):
            C.run_check(entry["check"], CorpusSpec.from_dict(entry["corpus"]), **entry["params"])
    info = FiltrationTree.uniform.cache_info()
    assert info.maxsize == UNIFORM_CACHE_SIZE
    # dyadic depths 2-8 (mixed and family corpora) and 10 (walk), each built once
    assert info.misses == info.currsize == 8
    FiltrationTree.uniform.cache_clear()
    held = [FiltrationTree.uniform(depth, 1) for depth in range(UNIFORM_CACHE_SIZE)]
    assert FiltrationTree.uniform(0, 1) is held[0]  # depth 1 is now the least recently used
    FiltrationTree.uniform(UNIFORM_CACHE_SIZE, 1)
    assert FiltrationTree.uniform.cache_info().currsize == UNIFORM_CACHE_SIZE
    assert FiltrationTree.uniform(0, 1) is held[0]
    assert FiltrationTree.uniform(1, 1) is not held[1]
    assert_same_tree(FiltrationTree.uniform(1, 1), held[1])


@pytest.mark.parametrize("depth, branching", [(-1, 2), (2, 0), (25, 2)])
def test_uniform_rejects_bad_shape(depth, branching):
    with pytest.raises(TreeError):
        FiltrationTree.uniform(depth, branching)
    if branching == 2:
        with pytest.raises(TreeError):
            FiltrationTree.dyadic(depth)


def test_shared_tree_is_read_only():
    tree = FiltrationTree.dyadic(3)
    for name in ("parents", "level_sizes", "node_prob", "leaf_start", "leaf_count"):
        with pytest.raises(TypeError):
            getattr(tree, name)[1] = getattr(tree, name)[0]
    for arr in (tree.parents[1], tree.node_prob[1], tree.leaf_start[1], tree.leaf_count[1], tree.leaf_prob):
        with pytest.raises(ValueError):
            arr[0] = 0


@pytest.mark.parametrize("kind", ["mixed", "backprop", "walk", "family", "scaled_walk"])
def test_corpus_on_cached_trees_matches_fresh_trees(kind, monkeypatch):
    cached = [G.corpus_martingale(kind, depth=6, seed=17, index=i) for i in range(30)]
    monkeypatch.setattr(FiltrationTree, "dyadic", classmethod(lambda cls, depth: fresh_dyadic(depth)))
    fresh = [G.corpus_martingale(kind, depth=6, seed=17, index=i) for i in range(30)]
    for a, b in zip(cached, fresh):
        assert a.tree is not b.tree
        assert_same_tree(a.tree, b.tree)
        assert all(np.array_equal(x, y) for x, y in zip(a.values, b.values))
        assert np.array_equal(a.paths(), b.paths())


def test_from_paths_round_trip_and_rejects_unadapted_rows():
    mart = G.gen_increment(5, seed=4)
    pm = mart.paths()
    back = TreeProcess.from_paths(mart.tree, pm)
    assert all(np.array_equal(a, b) for a, b in zip(back.values, mart.values))
    for n in range(1, mart.tree.depth):
        bent = pm.copy()
        bent[n, mart.tree.leaf_start[n][1:] - 1] += 1.0  # the last leaf of every block but the last
        with pytest.raises(TreeError, match=f"not adapted at level {n}"):
            TreeProcess.from_paths(mart.tree, bent)


# -- stopping rules ------------------------------------------------------------


def test_hitting_time_deterministic_path():
    tree = FiltrationTree.dyadic(2)
    proc = TreeProcess(tree, [np.array([0.0]), np.array([1.0, 1.0]), np.array([2.0] * 4)])
    tau = hitting_time(proc, lambda v: v >= 2)
    assert np.all(tau.times == 2)
    never = hitting_time(proc, lambda v: v > 99)
    assert np.all(never.times == INFINITY)


def test_hitting_time_walk(depth2):
    f = Martingale(depth2, [np.zeros(1), np.array([1.0, -1.0]), np.array([2.0, 0.0, 0.0, -2.0])])
    tau = hitting_time(f, lambda v: v >= 1)
    # up-branch stops at 1, down-branch never (hand enumeration of 4 leaves)
    assert tau.times.tolist() == [1, 1, INFINITY, INFINITY]


def test_stopped_process(depth2):
    f = Martingale(depth2, [np.zeros(1), np.array([1.0, -1.0]), np.array([2.0, 0.0, 0.0, -2.0])])
    assert np.allclose(stop_process(f, StoppingRule.never(depth2)).paths(), f.paths())
    frozen = stop_process(f, StoppingRule.constant(depth2, 0))
    assert np.allclose(frozen.paths(), 0.0)
    tau = hitting_time(f, lambda v: v >= 1)
    assert stop_process(f, tau).leaf_values().tolist() == [1.0, 1.0, 0.0, -2.0]


def stop_process_oracle(f, tau):
    """f^tau as stop_process once built it: each path matrix column read at
    min(n, tau), then turned back into node values."""
    pm = f.paths()
    lev = np.arange(f.tree.depth + 1)[:, None]
    idx = np.minimum(lev, np.minimum(tau.times, f.tree.depth)[None, :])
    stopped = np.take_along_axis(pm, idx if f.width == 0 else idx[:, :, None], axis=0)
    return TreeProcess.from_paths(f.tree, stopped)


def conditional_expectation_at_oracle(sigma, leaf_values):
    """E(f | F_sigma) as conditional_expectation_at once built it: one group
    average keyed by the (level, node) of each leaf's F_sigma atom."""
    tree = sigma.tree
    offsets = np.cumsum((0,) + tree.level_sizes)
    lev = np.minimum(sigma.times, tree.depth)
    key = offsets[lev] + ancestor_oracle(tree)[lev, np.arange(tree.n_leaves)]
    order = np.argsort(key, kind="stable")
    w, x = tree.leaf_prob, np.asarray(leaf_values, dtype=np.float64)
    _, start = np.unique(key[order], return_index=True)
    means = np.add.reduceat((w * x)[order], start) / np.add.reduceat(w[order], start)
    out = np.empty_like(x)
    out[order] = np.repeat(means, np.diff(np.append(start, len(key))))
    return out


def stopping_pairs():
    """Martingales on dyadic, irregular and vector corpora, each with hitting
    times of several thresholds, including never and at once."""
    rng = np.random.default_rng(11)
    for kind in ("mixed", "increment", "family"):
        for index in range(40):
            mart = G.corpus_martingale(kind, 6, seed=23, index=index)
            level = mart.values if mart.width == 0 else [np.abs(v).max(axis=1) for v in mart.values]
            for a in (-np.inf, *rng.uniform(-1.0, 1.0, size=3), np.inf):
                yield mart, hitting_time(TreeProcess(mart.tree, level), lambda v, a=a: v >= a)


def test_stop_process_matches_path_oracle():
    for mart, tau in stopping_pairs():
        stopped, oracle = stop_process(mart, tau), stop_process_oracle(mart, tau)
        assert all(np.array_equal(a, b) for a, b in zip(stopped.values, oracle.values))


def test_conditional_expectation_at_matches_group_oracle():
    for mart, sigma in stopping_pairs():
        if mart.width:
            continue
        f_leaf = mart.leaf_values() ** 2 - mart.leaf_values()
        ce = conditional_expectation_at(sigma, f_leaf)
        scale = max(1.0, float(np.abs(f_leaf).max()))
        assert np.abs(ce - conditional_expectation_at_oracle(sigma, f_leaf)).max() <= 1e-12 * scale


def stopping_maximum(s: StoppingRule, t: StoppingRule) -> StoppingRule:
    """tau v sigma, rebuilt (and so validated) from the larger stopping level."""
    return StoppingRule.from_times(s.tree, np.maximum(s.times, t.times))


def test_stopping_lattice_ops():
    mart = G.gen_increment(6, seed=9)
    tree = mart.tree
    s = hitting_time(mart, lambda v: v > 0.4)
    t = hitting_time(mart, lambda v: v < -0.2)
    lo = s.minimum(t)
    hi = stopping_maximum(s, t)
    assert np.all(lo.times == np.minimum(s.times, t.times))
    assert np.all(hi.times == np.maximum(s.times, t.times))
    # both are valid stopping rules by construction (from_times validates)


def test_from_times_rejects_non_stopping():
    tree = FiltrationTree.dyadic(2)
    # leaf-dependent time that is not measurable at its own level
    times = np.array([1, 2, 2, 2])
    with pytest.raises(TreeError):
        StoppingRule.from_times(tree, times)


def test_optional_sampling(depth2):
    f = Martingale(depth2, [np.zeros(1), np.array([1.0, -1.0]), np.array([2.0, 0.0, 0.0, -2.0])])
    assert optional_sampling_check(f, StoppingRule.constant(depth2, 0), StoppingRule.constant(depth2, 2))
    assert optional_sampling_check(f, StoppingRule.constant(depth2, 2), StoppingRule.constant(depth2, 1))


def test_optional_sampling_random_pairs():
    rng = np.random.default_rng(7)
    for trial in range(1000):
        mart = G.gen_increment(5, seed=trial)
        tree = mart.tree
        a, b = rng.uniform(0.1, 0.8, size=2)
        sigma = hitting_time(mart, lambda v: v > a)
        tau_u = hitting_time(mart, lambda v: v < -b)
        tau = tau_u.minimum(StoppingRule.constant(tree, tree.depth))  # bounded
        assert optional_sampling_check(mart, sigma, tau)


def test_optional_sampling_requires_bounded(depth2):
    f = Martingale(depth2, [np.zeros(1), np.array([1.0, -1.0]), np.array([2.0, 0.0, 0.0, -2.0])])
    with pytest.raises(TreeError):
        optional_sampling_check(f, StoppingRule.constant(depth2, 0), StoppingRule.never(depth2))


def test_conditional_expectation_at_sigma():
    mart = G.gen_increment(5, seed=21)
    sigma = hitting_time(mart, lambda v: v > 0.5)
    f_leaf = mart.leaf_values()
    ce = conditional_expectation_at(sigma, f_leaf)
    # E_sigma is a conditional expectation: averaging preserves mass
    assert np.isclose(mart.tree.expectation(ce), mart.tree.expectation(f_leaf))
    tau = StoppingRule.constant(mart.tree, mart.tree.depth)
    assert np.allclose(sampled_value(mart, sigma.minimum(tau)), ce, atol=1e-10)


# -- generators -----------------------------------------------------------------


@pytest.mark.parametrize("kind", ["backprop", "increment", "walk"])
def test_generator_martingale_invariant(kind):
    for seed in range(200):
        mart = G.corpus_martingale(kind, depth=5, seed=999, index=seed)
        mart.validate_martingale()


def test_generator_invariant_bulk_seeded():
    # averaging property across 10^4 seeded trials of every generator family
    for index in range(10_000):
        G.corpus_martingale("mixed", depth=6, seed=31, index=index).validate_martingale()


def validate_by_level(mart: Martingale) -> None:
    """The averaging check one level at a time, the oracle of
    ``Martingale.validate_martingale``: per level n, each parent's mass
    against its children's, to MARTINGALE_RTOL of the level's largest child
    mass (or of 1)."""
    tree = mart.tree
    for n in range(1, tree.depth + 1):
        weighted = (mart.values[n].T * tree.node_prob[n]).T.reshape(tree.level_sizes[n], -1)
        child_mass = np.stack(
            [np.bincount(tree.parents[n], weights=col, minlength=tree.level_sizes[n - 1]) for col in weighted.T], axis=1
        )
        parent_mass = (mart.values[n - 1].T * tree.node_prob[n - 1]).T.reshape(child_mass.shape)
        scale = max(1.0, float(np.abs(child_mass).max(initial=0.0)))
        if np.abs(child_mass - parent_mass).max() > MARTINGALE_RTOL * scale:
            raise TreeError(f"martingale averaging violated at level {n}")


def raised(validate) -> str | None:
    try:
        validate()
    except TreeError as exc:
        return str(exc)
    return None


@given(
    st.sampled_from(["increment", "backprop", "family"]),
    st.integers(1, 6),
    st.integers(0, 2**32 - 1),
    st.floats(0.0, 1.0),
    st.sampled_from([0.0, 1e-12, 3e-11, 1e-10, 3e-10, 1e-6, 1.0, -1.0]),
)
@settings(max_examples=200, deadline=None)
def test_validate_martingale_matches_the_level_loop(kind, depth, seed, where, delta):
    # one node moved at a random level, by about the tolerance or far past it:
    # the one-pass check raises at the oracle's level with its message, or passes
    mart = G.corpus_martingale(kind, depth=depth, seed=seed, index=0, width=3 if kind == "family" else 0)
    flat = mart.flat.copy()
    node = min(int(where * mart.tree.n_nodes), mart.tree.n_nodes - 1)
    flat[node] += delta * max(1.0, float(np.abs(flat).max()))
    moved = Martingale.from_flat(mart.tree, flat)
    assert raised(moved.validate_martingale) == raised(lambda: validate_by_level(moved))
    assert raised(mart.validate_martingale) is None


def test_doubling_martingale():
    mart = G.gen_doubling(3)
    for n in range(4):
        assert np.isclose(mart.tree.node_prob[n] @ mart.values[n], 1.0)
        expect = np.zeros(2**n)
        expect[0] = 2.0**n
        assert np.allclose(mart.values[n], expect)


def test_scaled_walk_square_function():
    from martkit.functionals import square_function_paths

    mart = G.gen_scaled_walk(4)
    assert np.allclose(np.abs(np.diff(mart.paths(), axis=0)), 0.5)
    assert np.all(mart.tree.layout.leaves(square_function_paths(mart.flat, mart.tree.layout)) == 1.0)


def gen_dyadic_of_function(func, depth: int, sub: int = 64) -> Martingale:
    """Dyadic martingale of an integrable function on [0, 1].

    Leaf values are midpoint-rule averages over each dyadic interval
    (exact for affine functions), then back-propagated.
    """
    tree = FiltrationTree.dyadic(depth)
    n_leaves = tree.n_leaves
    pts = (np.arange(n_leaves * sub) + 0.5) / (n_leaves * sub)
    vals = np.asarray(func(pts), dtype=np.float64).reshape(n_leaves, sub)
    return Martingale.from_leaf_values(tree, vals.mean(axis=1))


def test_dyadic_of_function_midpoints():
    mart = gen_dyadic_of_function(lambda x: x, 2)
    assert np.allclose(mart.leaf_values(), [1 / 8, 3 / 8, 5 / 8, 7 / 8])


def test_log_weight_is_martingale_and_integrable():
    mart = G.gen_log_weight(8)
    mart.validate_martingale()
    assert mart.values[0][0] > 0


def test_same_seed_bit_identical():
    a = G.gen_leaf_backprop("normal", 6, seed=5)
    b = G.gen_leaf_backprop("normal", 6, seed=5)
    assert all(np.array_equal(x, y) for x, y in zip(a.values, b.values))
    c = G.gen_leaf_backprop("normal", 6, seed=6)
    assert not np.array_equal(a.leaf_values(), c.leaf_values())


def test_vector_process_guard():
    with pytest.raises(TreeError):
        G.gen_leaf_backprop("normal", 3, seed=0, width=65)


# -- serialization ----------------------------------------------------------------


def test_json_round_trip(tmp_path):
    mart = G.gen_increment(4, seed=8)
    data = tree_to_dict(mart.tree, {"f": mart})
    text1 = json.dumps(data, sort_keys=True)
    tree2, procs = tree_from_dict(json.loads(text1))
    text2 = json.dumps(tree_to_dict(tree2, procs), sort_keys=True)
    assert text1 == text2
    Martingale(tree2, procs["f"].values)  # averaging survives the round trip


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_backprop_always_martingale(seed):
    G.gen_leaf_backprop("uniform", 4, seed=seed).validate_martingale()


@given(st.floats(-2, 2), st.integers(0, 2**16 - 1))
@settings(max_examples=50, deadline=None)
def test_stopped_hitting_time_is_martingale(threshold, seed):
    mart = G.gen_leaf_backprop("uniform", 4, seed=seed)
    tau = hitting_time(mart, lambda v: v >= threshold)
    stopped = stop_process(mart, tau)  # validates the averaging property
    # the stopped path is frozen from the stopping level on
    pm, sm = mart.paths(), stopped.paths()
    for leaf in range(mart.tree.n_leaves):
        t = min(tau.times[leaf], mart.tree.depth)
        assert np.all(sm[t:, leaf] == pm[t, leaf])


def test_depth_guard():
    with pytest.raises(TreeError):
        G.gen_scaled_walk(25)
    with pytest.raises(TreeError):
        G.gen_leaf_backprop("normal", 30, seed=0)


def test_node_guard_rejects_a_tree_before_building_it(monkeypatch):
    monkeypatch.setattr(tree_module, "MAX_NODES", 40)
    assert FiltrationTree.uniform(1, 39).n_nodes == 40

    def build(*args):
        raise AssertionError("uniform built a tree above the bound")

    with monkeypatch.context() as patch:
        patch.setattr(FiltrationTree, "__init__", build)
        with pytest.raises(TreeError, match="41 nodes exceed guard 40"):
            FiltrationTree.uniform(1, 40)
    # the constructor counts nodes before it reads anything else
    with pytest.raises(TreeError, match="nodes exceed"):
        FiltrationTree([np.empty(0, dtype=np.int64), np.zeros(40, dtype=np.int64)], None)


class RecordingRng:
    """A generator that records the name of each method drawn from."""

    def __init__(self, rng):
        self.rng, self.calls = rng, []

    def __getattr__(self, name):
        self.calls.append(name)
        return getattr(self.rng, name)


def test_gen_increment_rejects_a_level_once_its_child_counts_are_drawn(monkeypatch):
    fits = G.gen_increment(6, seed=3)
    total = np.cumsum(fits.tree.level_sizes)
    recorders, rng_for = [], G.rng_for

    def recording_rng_for(seed):
        recorders.append(RecordingRng(rng_for(seed)))
        return recorders[-1]

    monkeypatch.setattr(G, "rng_for", recording_rng_for)
    monkeypatch.setattr(tree_module, "MAX_NODES", int(total[3]))
    with pytest.raises(TreeError, match=f"{total[4]} nodes exceed"):
        G.gen_increment(6, seed=3)
    # levels 1-3 draw child counts, probabilities and offsets; level 4 only its counts
    assert recorders[-1].calls == ["integers", "uniform", "normal"] * 3 + ["integers"]
    monkeypatch.setattr(tree_module, "MAX_NODES", int(total[-1]))
    again = G.gen_increment(6, seed=3)
    assert again.tree.level_sizes == fits.tree.level_sizes
    assert np.array_equal(again.tree.leaf_prob, fits.tree.leaf_prob) and np.array_equal(again.flat, fits.flat)


@pytest.mark.parametrize("branching", [(2, 3), (1, 2, 4)])
def test_branching_draw_equals_rng_choice(branching):
    # gen_increment indexes ``branching`` with rng.integers: the same draws as
    # rng.choice(branching, size), and the stream goes on with the same draws
    for seed in range(300):
        for size in (1, 2, 7, 100, 1000):
            a, b = G.rng_for(seed), G.rng_for(seed)
            chosen = a.choice(branching, size=size)
            indexed = np.asarray(branching)[b.integers(0, len(branching), size=size)]
            assert chosen.dtype == indexed.dtype and np.array_equal(chosen, indexed)
            assert np.array_equal(a.normal(size=3), b.normal(size=3))
