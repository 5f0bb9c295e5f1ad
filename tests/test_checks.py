import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from martkit import checks as C
from martkit import functionals as fn
from martkit import generators as G
from martkit import report as R
from martkit.report import (
    RATIO_TOL,
    STABLE_SORT_CUTOFF,
    CheckReport,
    CorpusSpec,
    RatioTracker,
    closed_sublevel_block_scan,
    closed_tail_scan,
    lambda_candidates,
    stable_argsort,
    validate_report_dict,
)
from martkit.tree import FiltrationTree, Martingale
from path_oracles import closed_sublevel_scan, davis_decompose, increments, maximal, square_function
from path_oracles import closed_tail_scan as numpy_closed_tail_scan
from simd_probe import SIMD_LEVELS, run_probe


def small(kind="mixed", depth=6, trials=60, seed=123, **kw):
    return CorpusSpec(kind=kind, depth=depth, trials=trials, seed=seed, **kw)


def test_ratio_tracker_conventions():
    t = RatioTracker()
    assert t.add(0.0, 0.0) == 0.0
    assert t.add(1.0, 2.0) == 0.5
    assert math.isinf(t.add(1.0, 0.0))
    t.commit_trial()
    assert t.violations == 1  # one trial, however many assertions failed
    t.add(0.5, 1.0)
    t.commit_trial()
    assert t.violations == 1
    # report invariant: worst <= 1 + tol iff violations == 0
    assert (t.worst <= 1 + RATIO_TOL) == (t.violations == 0)


def test_a_nan_ratio_is_a_violation():
    # sides that overflowed to inf or NaN decide nothing, so they fail the trial
    for lhs, rhs in [(math.inf, math.inf), (math.nan, 1.0), (1.0, math.nan), (math.nan, 0.0)]:
        t = RatioTracker()
        t.add(lhs, rhs)
        t.commit_trial()
        many = RatioTracker()
        many.add_many(np.array([0.5, lhs]), np.array([1.0, rhs]))
        many.commit_trial()
        assert (t.violations, many.violations) == (1, 1), (lhs, rhs)
        assert many.worst >= 0.5  # never NaN


def test_closed_tail_scan():
    stat = np.array([3.0, 1.0, 3.0, 2.0])
    mass = np.array([0.25, 0.25, 0.25, 0.25])
    levels, tails = closed_tail_scan(stat, mass)
    assert levels.tolist() == [3.0, 2.0, 1.0]
    assert tails.tolist() == [0.5, 0.75, 1.0]
    # above the cutoff: heavy ties, zeros and negatives, masses whose sums
    # depend on the order they are added in
    rng = np.random.default_rng(11)
    stat = rng.integers(-2, 6, size=3 * STABLE_SORT_CUTOFF).astype(float)
    masses = rng.random((2, stat.size))
    got, expected = closed_tail_scan(stat, *masses), numpy_closed_tail_scan(stat, *masses)
    assert len(got) == 3 and all(np.array_equal(a, b) for a, b in zip(got, expected))


def test_closed_sublevel_scan():
    # a 2 x 2 matrix raveled, each entry its own one-leaf block
    stat = np.array([3.0, 0.0, 3.0, 1.0])
    start, count = np.array([0, 1, 0, 1]), np.ones(4, dtype=np.int64)
    levels, heads = closed_sublevel_block_scan(stat, np.ones(4), start, count, np.array([0.25, 0.25]))
    assert levels.tolist() == [1.0, 3.0]
    assert heads.tolist() == [0.5, 1.0]  # the zero's mass counts, its level does not
    # row 1 one node over both leaves, row 2 one node per leaf: the tie at 2
    # adds the whole first block before the second row's leaf
    stat, node_mass = np.array([2.0, 1.0, 2.0]), np.array([1.0, 4.0, 9.0])
    start, count, leaf_mass = np.array([0, 0, 1]), np.array([2, 1, 1]), np.array([0.25, 0.75])
    levels, heads = closed_sublevel_block_scan(stat, node_mass, start, count, leaf_mass)
    assert levels.tolist() == [1.0, 2.0]
    assert heads.tolist() == [1.0, 8.75]
    matrix = np.array([[2.0, 2.0], [1.0, 2.0]]).ravel()
    masses = (np.array([[1.0, 1.0], [4.0, 9.0]]) * leaf_mass).ravel()
    assert all(np.array_equal(a, b) for a, b in zip((levels, heads), closed_sublevel_scan(matrix, masses)))
    # above the cutoff: the level-major node blocks of a depth-10 dyadic tree
    # tile its raveled (10, 1024) matrix; small integer values tie across levels
    tree, rng = FiltrationTree.dyadic(10), np.random.default_rng(12)
    start, count = np.concatenate(tree.leaf_start[1:]), np.concatenate(tree.leaf_count[1:])
    stat = rng.integers(0, 5, size=start.size).astype(float)
    node_mass, leaf_mass = rng.random(start.size), rng.random(tree.n_leaves)
    assert stat.size >= STABLE_SORT_CUTOFF
    got = closed_sublevel_block_scan(stat, node_mass, start, count, leaf_mass)
    expected = closed_sublevel_scan(np.repeat(stat, count), np.repeat(node_mass, count) * np.tile(leaf_mass, tree.depth))
    assert len(got) == 2 and all(np.array_equal(a, b) for a, b in zip(got, expected))
    # no levels below the root: nothing to scan
    empty = np.empty(0)
    assert [a.size for a in closed_sublevel_block_scan(empty, empty, empty.astype(int), empty.astype(int), leaf_mass)] == [0, 0]


SORT_VALUES = (-np.inf, -1.5, -0.0, 0.0, 1.0, 2.5, np.inf, np.nan)


@given(
    st.integers(0, 4 * STABLE_SORT_CUTOFF),
    st.lists(st.sampled_from(SORT_VALUES), min_size=1, max_size=len(SORT_VALUES)),
    st.floats(0.0, 1.0),
    st.integers(0, 2**32 - 1),
)
@example(0, [1.0], 0.0, 0)
@example(STABLE_SORT_CUTOFF - 1, [0.0, -0.0], 0.0, 1)
@example(STABLE_SORT_CUTOFF, [0.0, -0.0], 0.0, 1)
@example(STABLE_SORT_CUTOFF, [np.nan], 0.0, 2)
@example(2 * STABLE_SORT_CUTOFF, [np.nan, 1.0], 0.5, 3)
@settings(max_examples=200, deadline=None)
def test_stable_argsort_is_numpys_stable_sort(n, pool, spread, seed):
    # values drawn from a small pool tie heavily; a share ``spread`` of them
    # is replaced by distinct normals
    rng = np.random.default_rng(seed)
    x = np.array(pool)[rng.integers(0, len(pool), size=n)]
    distinct = rng.random(n) < spread
    x[distinct] = rng.normal(size=int(distinct.sum()))
    got, expected = stable_argsort(x), np.argsort(x, kind="stable")
    assert got.dtype == expected.dtype and np.array_equal(got, expected)


SIMD_PROBE = """
import json
import numpy as np
from martkit import checks
from martkit.report import CorpusSpec, stable_argsort
x = np.round(np.random.default_rng(7).normal(size=5000), 1)
x[::97] = np.nan
spec = CorpusSpec(kind="backprop", depth=16, trials=1, seed=20240)
reports = [checks.check_doob(spec).to_dict(), checks.check_square_weak(spec).to_dict()]
for report in reports:
    del report["runtime_ms"]
stable = bool(np.array_equal(stable_argsort(x), np.argsort(x, kind="stable")))
print(json.dumps({"stable": stable, "reports": reports}, sort_keys=True))
"""


def test_stable_argsort_does_not_depend_on_the_simd_level():
    # numpy's unstable argsort orders ties differently with AVX-512, with
    # AVX2 and at its baseline; the stable order and the reports must not move
    outputs = [run_probe(SIMD_PROBE, disabled) for disabled in SIMD_LEVELS]
    assert outputs[0]["stable"]
    assert outputs[1:] == outputs[:1] * 2


def test_doob_constant_parametrization():
    # constant submartingale c: ratio ||Mf||_p / (p' ||f||_p) = 1/p'
    tree = FiltrationTree.dyadic(2)
    mart = Martingale(tree, [np.full(1, 3.0), np.full(2, 3.0), np.full(4, 3.0)])
    spec = small(trials=0)
    rep = C.check_doob(spec, p=2.0)
    assert rep.trials == 0 and rep.violations == 0
    # direct evaluation on the constant martingale
    w = tree.leaf_prob
    from martkit import functionals as fn
    from martkit.report import lq_norm

    mf = tree.layout.leaves(fn.maximal_paths(mart.flat, tree.layout))
    assert np.isclose(lq_norm(mf, 2.0, w) / (2.0 * lq_norm(np.abs(mart.leaf_values()), 2.0, w)), 0.5)
    assert w.sum() == 1.0


def test_doob_clean_pass_and_doubling():
    rep = C.check_doob(small(trials=300), p=(1.5, 2.0, 4.0))
    assert rep.violations == 0
    assert rep.worst_ratio <= 1 + 1e-9
    # the doubling martingale at p = 1.5 (conjugate 3) stays within the bound
    doubling = CorpusSpec(kind="doubling", depth=10, trials=1, seed=0)
    rep2 = C.check_doob(doubling, p=1.5)
    assert rep2.violations == 0


def test_doob_rejects_bad_exponent():
    with pytest.raises(ValueError):
        C.check_doob(small(trials=1), p=1.0)


def test_square_weak_and_doubling():
    assert C.check_square_weak(small(trials=300)).violations == 0
    assert C.check_square_weak(CorpusSpec(kind="doubling", depth=10, trials=1, seed=0)).violations == 0
    assert C.check_square_weak(CorpusSpec(kind="scaled_walk", depth=16, trials=1, seed=0)).violations == 0


def test_davis_decomposition_check():
    rep = C.check_davis_decomposition(small(trials=300))
    assert rep.violations == 0
    assert rep.measured["worst_split_residual"] <= 1e-12


def recorded(monkeypatch, owner, name):
    """The positional arguments of every later call of ``owner.<name>``."""
    calls, real = [], getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def leaf_rows(tree, per_node):
    """The (N, L) matrix of one value per node of levels 1..N, each repeated
    over its leaf block."""
    levels = tree.layout.levels(np.concatenate(([np.nan], per_node)))[1:]
    return np.stack([tree.to_leaves(n, v) for n, v in enumerate(levels, start=1)])


@pytest.mark.parametrize("spec", [small(depth=8, trials=30, seed=66), CorpusSpec(kind="backprop", depth=12, trials=2, seed=67)])
def test_davis_decomposition_bounds_equal_the_numpy_scan(monkeypatch, spec):
    # the old call-site expressions, on the martingales the check decomposes
    marts = recorded(monkeypatch, fn, "davis_decompose")
    many = recorded(monkeypatch, RatioTracker, "add_many")
    one = recorded(monkeypatch, RatioTracker, "add")
    C.check_davis_decomposition(spec)
    assert len(marts) == len(many) == len(one) == spec.trials
    for (mart,), (_, jump, jump_bound), (_, _, tv_bound) in zip(marts, many, one):
        tree = mart.tree
        pm = mart.paths()
        df = increments(pm)
        mdf_prev = np.vstack([np.zeros(pm.shape[1]), np.maximum.accumulate(np.abs(df), axis=0)[:-1]])
        assert np.array_equal(leaf_rows(tree, jump_bound), 2.0 * mdf_prev)
        assert np.array_equal(leaf_rows(tree, jump), np.abs(increments(davis_decompose(mart)[0])))
        assert tv_bound == 2.0 * float(tree.leaf_prob @ np.abs(df).max(axis=0))


def test_davis_bdg_sqrt3():
    rep = C.check_davis_bdg(small(trials=300), p=2.0)
    assert rep.violations == 0
    assert rep.constant_used == pytest.approx(math.sqrt(3.0))
    assert rep.measured["max_EM_over_ES"] > 0


def test_garsia_neveu_qualifying():
    rep = C.check_garsia_neveu(small(trials=200), p=(1.0, 2.0, 3.0))
    assert rep.violations == 0
    assert rep.measured["qualifying_trials"] + rep.hypothesis_failures == 200
    assert rep.measured["qualifying_trials"] >= 195  # construction satisfies the hypothesis


def test_garsia_neveu_equality_case():
    # A increasing predictable with xi = A_inf qualifies and satisfies the bound
    mart = G.gen_leaf_backprop("normal", 5, seed=3)
    tree = mart.tree
    pm = mart.paths()
    a = np.abs(pm[:-1]).sum(axis=0)
    from martkit.report import lq_norm

    for p in (1.0, 2.0):
        assert lq_norm(a, p, tree.leaf_prob) <= p * lq_norm(a, p, tree.leaf_prob) + 1e-12


def test_aux_lemmas():
    rep = C.check_aux_lemmas(small(trials=150))
    assert rep.violations == 0
    assert rep.measured["best_truncation_C"] > 0


# Reference per-lambda loops, one dot product per candidate: the sorted
# scans must return the same floats.


def truncation_loop(zz, ww, w):
    lams = lambda_candidates(zz, ww)
    ez = np.array([float(w @ np.minimum(zz, lam)) for lam in lams])
    ew = np.array([float(w @ np.minimum(ww, lam)) for lam in lams])
    return float(np.max(ez / ew))


def good_lambda_loop(g_big, f_big, w, beta, delta):
    lams = lambda_candidates(g_big / beta, g_big, f_big / delta)
    eps_star = 0.0
    for lam in lams:
        denom = float(w @ (g_big > lam))
        if denom == 0.0:
            continue
        num = float(w @ ((g_big > beta * lam) & (f_big <= delta * lam)))
        eps_star = max(eps_star, num / denom)
    return eps_star


def truncation_scan(zz, ww, w):
    return R.truncation_ratio_sup(zz, ww, w, lambda_candidates(zz, ww))


def good_lambda_scan(g, f, w, beta, delta):
    return R.good_lambda_sup(g, f, w, lambda_candidates(g / beta, g, f / delta), beta, delta)


def aux_statistics(mart, rng):
    """The (zz, ww) and (Mf, Sf) pairs that check_aux_lemmas scans."""
    pm = mart.paths()
    zz = np.abs(pm[-1]) + rng.uniform(0, 0.5, size=mart.tree.n_leaves)
    ww = np.abs(rng.normal(size=mart.tree.n_leaves)) + 0.1
    return zz, ww, maximal(pm)[-1], square_function(pm)[-1]


def test_aux_scans_equal_the_loops_on_a_corpus():
    spec = CorpusSpec(kind="mixed", depth=7, trials=300, seed=77)
    for i, mart in enumerate(spec.martingales()):
        w = mart.tree.leaf_prob
        zz, ww, mf, sf = aux_statistics(mart, spec.rng(index=i))
        assert truncation_scan(zz, ww, w) == truncation_loop(zz, ww, w), i
        assert good_lambda_scan(mf, sf, w, 2.0, 1.0) == good_lambda_loop(mf, sf, w, 2.0, 1.0), i


@st.composite
def weighted_pairs(draw):
    # small integers make ties, and values that sit on each other's breakpoints
    a = draw(st.lists(st.integers(0, 6), min_size=1, max_size=40))
    n = len(a)
    b = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
    # weights with no exact binary form, so sums equal in the reals round apart
    w = draw(st.lists(st.sampled_from([0.1, 0.2, 0.3, 0.6, 0.7, 1.0 / 3.0]), min_size=n, max_size=n))
    scale = draw(st.sampled_from([1.0, 0.1, 1.0 / 3.0, 1e3]))
    return np.array(a, dtype=float) * scale, np.array(b, dtype=float) * scale, np.array(w)


@given(weighted_pairs())
@settings(max_examples=300, deadline=None)
def test_truncation_scan_matches_loop_on_ties(data):
    z, v, w = data
    v = v + (v.max() == 0)  # the scan needs v of positive mass
    assert truncation_scan(z, v, w) == truncation_loop(z, v, w)


@given(weighted_pairs(), st.sampled_from([1.0, 1.5, 2.0, 3.0]), st.sampled_from([0.5, 1.0, 2.0, 0.3]))
@settings(max_examples=300, deadline=None)
def test_good_lambda_scan_matches_loop_on_ties(data, beta, delta):
    g, f, w = data
    assert good_lambda_scan(g, f, w, beta, delta) == good_lambda_loop(g, f, w, beta, delta)


@given(st.integers(0, 2**32 - 1), st.integers(5, 6), st.sampled_from(["normal", "sign", "uniform"]))
@settings(max_examples=20, deadline=None)
def test_aux_scans_match_loops_on_irregular_trees(seed, depth, dist):
    mart = G.gen_increment(depth, seed=seed, dist=dist)  # 32 to 729 leaves
    w = mart.tree.leaf_prob
    zz, ww, mf, sf = aux_statistics(mart, np.random.default_rng(seed))
    assert truncation_scan(zz, ww, w) == truncation_loop(zz, ww, w)
    assert good_lambda_scan(mf, sf, w, 2.0, 1.0) == good_lambda_loop(mf, sf, w, 2.0, 1.0)


def counted(monkeypatch, name):
    """The lam of every later call of ``report.<name>``, in call order."""
    lams, real = [], getattr(R, name)

    def wrapper(*args):
        lams.append(args[3])
        return real(*args)

    monkeypatch.setattr(R, name, wrapper)
    return lams


@pytest.mark.parametrize(
    "g, f, w",
    [
        ([1.0, 2.0, 3.0], [0.0, 2.0, 1.0], [0.6, 0.1, 0.2]),
        ([1.0, 2.0, 1.0, 3.0, 4.0], [0.0, 2.0, 0.0, 3.0, 1.0], [0.7, 0.7, 0.3, 0.2, 0.6]),
    ],
)
def test_good_lambda_scan_on_ratios_that_tie_in_the_reals(g, f, w):
    # two sets give the same ratio in the reals but floats an ulp apart, and
    # the cumulative sums rank them the other way than the dot products
    g, f, w = np.array(g), np.array(f), np.array(w)
    assert good_lambda_scan(g, f, w, 2.0, 1.0) == good_lambda_loop(g, f, w, 2.0, 1.0)


def test_good_lambda_scan_at_the_lower_padding_point(monkeypatch):
    # only lam = 1/4, below every breakpoint, puts a leaf with f = 0 in the numerator
    g, f, w = np.array([1.0, 1.0]), np.array([0.0, 5.0]), np.array([0.5, 0.5])
    calls = counted(monkeypatch, "good_lambda_ratio_at")
    assert good_lambda_scan(g, f, w, 2.0, 1.0) == good_lambda_loop(g, f, w, 2.0, 1.0) == 0.5
    assert calls == [0.25]


@pytest.mark.parametrize(
    "z, v, w",
    [
        ([0.1, 0.4], [0.0, 3 * 0.1], [0.1, 0.2]),
        ([0.3, 0.2, 0.2, 0.4, 0.2], [0.2, 0.4, 0.4, 0.4, 0.2], [0.7, 0.1, 0.6, 0.1, 1.0 / 3.0]),
    ],
)
def test_truncation_scan_on_ratios_that_tie_in_the_reals(z, v, w):
    # several lam give the same ratio in the reals, and the cumulative sums
    # and the dot products round them to different maxima
    z, v, w = np.array(z), np.array(v), np.array(w)
    assert truncation_scan(z, v, w) == truncation_loop(z, v, w)


def test_truncation_scan_ties_at_both_padding_points():
    # the ratio is 1 below every breakpoint and above the last one
    z, v, w = np.array([1.0, 3.0]), np.array([2.0, 2.0]), np.array([0.5, 0.5])
    lams = lambda_candidates(z, v)
    assert lams[0] == 0.5 and lams[-1] == 6.0
    assert truncation_scan(z, v, w) == truncation_loop(z, v, w) == 1.0


def test_aux_scans_on_plateaus(monkeypatch):
    # z = v: every lam attains the ratio 1, so every lam lies in the band
    z = np.array([0.5, 1.0, 1.0, 4.0])
    w = np.full(4, 0.25)
    assert truncation_scan(z, z.copy(), w) == truncation_loop(z, z.copy(), w) == 1.0
    # f = 0 and constant g: the ratio is 1 at every lam below g / beta, all
    # with the same two sets, so one dot-product evaluation decides it
    g, f = np.full(4, 3.0), np.zeros(4)
    calls = counted(monkeypatch, "good_lambda_ratio_at")
    assert good_lambda_scan(g, f, w, 2.0, 1.0) == good_lambda_loop(g, f, w, 2.0, 1.0) == 1.0
    assert len(calls) == 1


def test_good_lambda_scan_with_an_empty_numerator_everywhere(monkeypatch):
    # g > 2 lam and 10 g <= lam never hold together
    g = np.array([0.5, 1.0, 2.0, 2.0, 7.0])
    w = np.full(5, 0.2)
    calls = counted(monkeypatch, "good_lambda_ratio_at")
    assert good_lambda_scan(g, 10.0 * g, w, 2.0, 1.0) == good_lambda_loop(g, 10.0 * g, w, 2.0, 1.0) == 0.0
    assert calls == []


def test_good_lambda_scan_rejects_nonpositive_factors():
    with pytest.raises(ValueError):
        R.good_lambda_sup(np.ones(2), np.ones(2), np.full(2, 0.5), np.array([0.5, 1.0, 2.0]), 2.0, 0.0)


def lambda_candidates_two_sorts(*value_arrays):
    """The scan grid as first built, with a second np.unique over values,
    midpoints and padding points: the oracle of the one-sort grid."""
    vals = np.unique(np.concatenate([np.asarray(v, dtype=np.float64).ravel() for v in value_arrays]))
    vals = vals[vals > 0]
    if vals.size == 0:
        return np.array([1.0])
    mids = (vals[1:] + vals[:-1]) / 2.0
    return np.unique(np.concatenate([vals, mids, [vals[0] / 2.0, vals[-1] * 2.0]]))


def assert_one_sort_grid(*value_arrays):
    with np.errstate(over="ignore"):
        expected = lambda_candidates_two_sorts(*value_arrays)
    assert np.array_equal(lambda_candidates(*value_arrays), expected)


TINY = np.nextafter(0.0, 1.0)
HUGE = 2.0**1023


@pytest.mark.parametrize(
    "values",
    [
        [1.0, np.nextafter(1.0, 2.0)],  # the midpoint rounds onto a breakpoint
        [1.0, np.nextafter(1.0, 2.0), np.nextafter(np.nextafter(1.0, 2.0), 2.0)],
        [3.0],
        [TINY],  # its lower padding point rounds to 0
        [TINY, 2 * TINY, 3 * TINY, 2.0**-1022],
        [HUGE],
        [1.0, HUGE, 1.5 * HUGE, np.finfo(float).max],  # midpoints overflow to inf
        [1e308, 3.0, 1.7e308],
        [2.0, np.inf],
        [0.0, -1.0, np.nan],
    ],
)
def test_lambda_candidates_one_sort_on_edge_values(values):
    assert_one_sort_grid(np.array(values))


@given(
    st.lists(
        st.lists(
            st.one_of(
                st.floats(),
                st.floats(0.0, 1e-307),
                st.floats(min_value=HUGE, allow_infinity=False),
                st.integers(-3, 12).map(lambda k: 1.0 + k * np.spacing(1.0)),
            ),
            max_size=12,
        ),
        min_size=1,
        max_size=3,
    )
)
@settings(max_examples=300, deadline=None)
def test_lambda_candidates_one_sort_equals_two(arrays):
    assert_one_sort_grid(*(np.array(a, dtype=np.float64) for a in arrays))


def test_lepingle_check():
    rep = C.check_lepingle(small("walk", depth=10, trials=150), r=(2.5, 3.0, 4.0), p=1.0)
    assert rep.violations == 0
    assert all(v < math.inf for v in rep.measured.values())
    with pytest.raises(ValueError):
        C.check_lepingle(small(trials=1), r=2.0)


def test_lepingle_moment_ratio_bounded_as_r_drops():
    # the r/(r-2) normalization absorbs the blow-up as r decreases to 2
    ratios = []
    for r in (2.5, 2.25, 2.1):
        rep = C.check_lepingle(small("walk", depth=10, trials=60), r=r, p=1.0)
        ratios.append(rep.measured[f"moment_ratio_r={r}"])
    assert max(ratios) < 2.0


def test_vector_valued_check():
    rep = C.check_vector_valued(small("family", depth=6, trials=60, width=8), q=3.0, r=1.5, p=2.0)
    assert rep.violations == 0
    assert rep.measured["bdg_lq_lr"] < math.inf
    with pytest.raises(ValueError):
        C.check_vector_valued(small(trials=1), q=2.0, r=2.0, p=2.0)


def test_vector_valued_k1_reduces_to_scalar():
    rep = C.check_vector_valued(small("family", depth=6, trials=30, width=1), q=2.0, r=2.0, p=2.0)
    assert rep.violations == 0
    assert rep.worst_ratio <= 1 + 1e-9


def test_paraproduct_check():
    rep = C.check_paraproduct(small(trials=15), q0=2.0, q1=2.0, r0=2.0, r1=2.0)
    assert rep.violations == 0
    assert 0 < rep.measured["window_bound"] < math.inf
    assert 0 < rep.measured["variation_bound"] < math.inf
    with pytest.raises(ValueError):
        C.check_paraproduct(small(trials=1), q0=0.5)


@pytest.mark.parametrize(
    "call",
    [
        lambda: C.check_doob(small(trials=1), p=math.inf),
        lambda: C.check_vector_valued(small("family", depth=3, trials=1, width=2), r=math.inf),
        lambda: C.check_paraproduct(small(trials=1), r0=math.inf),
        lambda: R.lq_norm(np.ones(2), math.inf, np.full(2, 0.5)),
        lambda: fn.component_norm(np.ones((2, 3)), math.inf),
    ],
    ids=["doob-p", "vector_valued-r", "paraproduct-r0", "lq_norm-q", "component_norm-r"],
)
def test_infinite_exponents_are_rejected(call):
    # every exponent is finite: the l^inf and L^inf branches are gone
    with pytest.raises(ValueError, match="finite"):
        call()


def test_paraproduct_scans_equal_the_numpy_accumulates(monkeypatch):
    scans, real = [], fn.accumulate_rows

    def spy(ufunc, arr, out=None):
        before = arr.copy()
        result = real(ufunc, arr, out=out)
        scans.append((ufunc, before, result.copy()))
        return result

    monkeypatch.setattr(fn, "accumulate_rows", spy)
    fams = recorded(monkeypatch, fn, "davis_decompose")
    adds = recorded(monkeypatch, RatioTracker, "add")
    spec = small(depth=6, trials=8, seed=68)
    C.check_paraproduct(spec, q0=2.0, r0=2.0)
    # the window sums its Pi rows and np.cumsum(dg2, axis=0)
    assert sum(ufunc is np.add for ufunc, _, _ in scans) >= 4 * spec.trials
    for ufunc, arr, result in scans:
        assert np.array_equal(result, ufunc.accumulate(arr, axis=0))
    # M|df|_N read through the first asserted clause of each trial
    assert len(fams) == spec.trials and len(adds) == 2 * spec.trials
    for (fam,), (_, _, rhs) in zip(fams, adds[::2]):
        x_df = fn.component_norm(increments(fam.paths()), 2.0)
        m_x_df = np.maximum.accumulate(np.vstack([np.zeros(fam.tree.n_leaves), x_df]), axis=0)[-1]
        assert rhs == 3.0 * R.lq_norm(m_x_df, 2.0, fam.tree.leaf_prob)


def tiny(name, trials):
    """A small corpus the named check accepts."""
    if name == "vector_valued":
        return small("family", depth=3, trials=trials, width=2)
    return small(depth=3, trials=trials)


@pytest.mark.parametrize("name", sorted(C.REGISTRY))
def test_every_trial_is_committed_once(monkeypatch, name):
    commits = recorded(monkeypatch, RatioTracker, "commit_trial")
    rep = C.run_check(name, tiny(name, 3))
    assert rep.trials == len(commits) == 3


@pytest.mark.parametrize("name", sorted(C.REGISTRY))
def test_measured_quantities_start_at_zero(name):
    # the seed dict run_trials gets names every measured key at its initial value
    empty = C.run_check(name, tiny(name, 0))
    assert (empty.trials, empty.violations, empty.hypothesis_failures, empty.worst_ratio) == (0, 0, 0, 0.0)
    assert empty.measured == dict.fromkeys(C.run_check(name, tiny(name, 2)).measured, 0)


def test_only_run_trials_builds_reports():
    src = Path(C.__file__).parent
    assert [p.name for p in sorted(src.glob("*.py")) if "CheckReport(" in p.read_text()] == ["report.py"]
    assert (src / "report.py").read_text().count("CheckReport(") == 1


def test_sharp_davis_registry_entry():
    rep = C.run_check("sharp_davis", small(trials=200))
    assert rep.violations == 0
    assert rep.measured["max_ES_over_Estar"] <= math.sqrt(3.0) + 1e-9


def test_registry_and_unknown_name():
    assert set(C.REGISTRY) >= {
        "doob",
        "square_weak",
        "davis_decomposition",
        "davis_bdg",
        "garsia_neveu",
        "aux_lemmas",
        "lepingle",
        "vector_valued",
        "paraproduct",
        "sharp_davis",
    }
    with pytest.raises(KeyError):
        C.run_check("nope", small(trials=1))


def test_report_schema_and_json():
    rep = C.check_doob(small(trials=10), p=2.0)
    data = json.loads(rep.to_json())
    validate_report_dict(data)
    assert data["check"] == "doob"
    assert data["violations"] == 0
    assert isinstance(data["runtime_ms"], float)


def test_reports_deterministic_given_spec():
    a = C.check_doob(small(trials=40), p=2.0).to_dict()
    b = C.check_doob(small(trials=40), p=2.0).to_dict()
    a.pop("runtime_ms"), b.pop("runtime_ms")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_erratum_power_formula_constants():
    # quadrature check of t^p = c int_0^t (t - lam) lam^{p-2} dlam: the
    # correct prefactor is p(p-1) for p > 1, not p(1-p)
    from scipy.integrate import quad

    t, p = 2.0, 2.5
    integral, err = quad(lambda lam: (t - lam) * lam ** (p - 2.0), 0.0, t)
    assert err < 1e-8
    assert abs(p * (p - 1.0) * integral - t**p) < 1e-6
    assert abs(p * (1.0 - p) * integral - t**p) > 1.0
    # for p < 1 the truncated form t^p = p(1-p) int (t ^ lam) lam^{p-2} is as printed
    p = 0.5
    head, e1 = quad(lambda lam: lam ** (p - 1.0), 0.0, t)
    tail, e2 = quad(lambda lam: t * lam ** (p - 2.0), t, np.inf)
    assert e1 + e2 < 1e-7
    assert abs(p * (1.0 - p) * (head + tail) - t**p) < 1e-6


def test_planted_violation_detected():
    tree = FiltrationTree.dyadic(1)
    broken = Martingale(tree, [np.array([10.0]), np.array([0.0, 0.0])], validate=False)

    class Fake:
        trials = 1
        seed = 0
        width = 0

        def martingales(self):
            yield broken

        def rng(self, i):
            return np.random.default_rng(i)

    rep = C.check_doob(Fake(), p=2.0)
    assert rep.violations >= 1
