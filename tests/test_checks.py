import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from martkit import checks as C
from martkit import functionals as fn
from martkit import generators as G
from martkit import report as R
from martkit.report import RATIO_TOL, CheckReport, CorpusSpec, RatioTracker, closed_sublevel_block_scan, closed_tail_scan, lambda_candidates, validate_report_dict
from martkit.tree import FiltrationTree, Martingale
from path_oracles import closed_sublevel_scan, davis_decompose


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


def test_closed_tail_scan():
    stat = np.array([3.0, 1.0, 3.0, 2.0])
    mass = np.array([0.25, 0.25, 0.25, 0.25])
    levels, tails = closed_tail_scan(stat, mass)
    assert levels.tolist() == [3.0, 2.0, 1.0]
    assert tails.tolist() == [0.5, 0.75, 1.0]


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
    # no levels below the root: nothing to scan
    empty = np.empty(0)
    assert [a.size for a in closed_sublevel_block_scan(empty, empty, empty.astype(int), empty.astype(int), leaf_mass)] == [0, 0]


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

    mf = fn.maximal_paths(np.abs(mart.paths()))[-1]
    assert np.isclose(lq_norm(mf, 2.0, w) / (2.0 * lq_norm(np.abs(mart.paths()[-1]), 2.0, w)), 0.5)
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
        df = fn.increments(pm)
        mdf_prev = np.vstack([np.zeros(pm.shape[1]), np.maximum.accumulate(np.abs(df), axis=0)[:-1]])
        assert np.array_equal(leaf_rows(tree, jump_bound), 2.0 * mdf_prev)
        assert np.array_equal(leaf_rows(tree, jump), np.abs(fn.increments(davis_decompose(mart)[0])))
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
    return zz, ww, fn.maximal_paths(pm)[-1], fn.square_function_paths(pm)[-1]


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
    # the window sums np.cumsum(dg2, axis=0), and the square functions
    assert sum(ufunc is np.add for ufunc, _, _ in scans) >= 4 * spec.trials
    for ufunc, arr, result in scans:
        assert np.array_equal(result, ufunc.accumulate(arr, axis=0))
    # M|df|_N read through the first asserted clause of each trial
    assert len(fams) == spec.trials and len(adds) == 2 * spec.trials
    for (fam,), (_, _, rhs) in zip(fams, adds[::2]):
        x_df = fn.component_norm(fn.increments(fam.paths()), 2.0)
        m_x_df = np.maximum.accumulate(np.vstack([np.zeros(fam.tree.n_leaves), x_df]), axis=0)[-1]
        assert rhs == 3.0 * R.lq_norm(m_x_df, 2.0, fam.tree.leaf_prob)


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
