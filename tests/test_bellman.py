import itertools
import math

import numpy as np
import pytest

from martkit import bellman as B
from martkit import functionals as fn
from martkit import generators as G
from martkit.report import CorpusSpec, RatioTracker
from martkit.tree import FiltrationTree, Martingale

import path_oracles


def test_bellman_U_values():
    assert B.bellman_U((0.0, 5.0, 1.0)) == 3.0  # y - 2m
    assert B.bellman_U((1.0, 1.0, 1.0)) == -2.0
    assert B.bellman_U((2.0, 6.0, 2.0)) == 0.0  # boundary zero U(m, 3m, m)
    assert B.bellman_U((0.0, 4.0, 0.0)) == 4.0  # continuity at m = 0
    with pytest.raises(ValueError):
        B.bellman_U((2.0, 1.0, 1.0))


def test_concavity_equality_branch():
    rng = np.random.default_rng(0)
    for _ in range(300):
        m = rng.uniform(0.2, 3.0)
        x = rng.uniform(-m, m)
        h = rng.uniform(-(m - abs(x)), m - abs(x)) if m > abs(x) else 0.0
        if abs(x + h) > m:
            continue
        res = B.concavity_residual(x, h, rng.uniform(0, 5), m)
        assert abs(res) <= 1e-12  # exact identity on the |x+h| <= m branch


def test_concavity_zero_increment():
    assert B.concavity_residual(0.3, 0.0, 1.0, 1.0) == 0.0


def test_concavity_grid_nonnegative_at_three():
    worst, arg = B.concavity_grid_min(3.0, x_pts=21, h_pts=101)
    assert worst >= -1e-12


def test_concavity_counterexample_below_three():
    hit = B.concavity_counterexample(2.9)
    assert hit is not None and hit["residual"] < -1e-12
    # verify against the reduced form: gamma_crit = 3 - m/|x+h| at the corner
    t = abs(hit["x"] + hit["h"]) / hit["m"]
    assert 3.0 - 1.0 / t > 2.9
    assert B.concavity_counterexample(3.0) is None


def test_reduced_form_explains_gamma_crit():
    # sup over t > 1 with |t - t~| <= 1 of (t+1) - t~^2/t equals 3 - 1/t at t~ = t-1
    for t in (2.0, 5.0, 20.0):
        vals = [(t + 1.0) - tt**2 / t for tt in np.linspace(t - 1.0, t + 1.0, 400)]
        assert np.isclose(max(vals), 3.0 - 1.0 / t, atol=1e-4)


# -- pathwise inequality ---------------------------------------------------------


def test_pathwise_constant_path_equality():
    path = np.full((6, 1), 2.5)
    lhs, rhs, sf, fstar = B.pathwise_sharp_sides(path)
    assert sf[0] == 0.0 and fstar[0] == 2.5
    assert np.isclose(lhs[0], 7.5) and np.isclose(rhs[0], 7.5)


def test_pathwise_single_fair_step():
    up = np.array([0.0, 1.0])[:, None]
    lhs, rhs, sf, fstar = B.pathwise_sharp_sides(up)
    assert sf[0] == 1.0 and fstar[0] == 1.0
    assert np.isclose(lhs[0], 1.0) and np.isclose(rhs[0], 3.0)


def test_pathwise_random_martingales():
    for seed in range(300):
        mart = G.corpus_martingale("mixed", 8, seed=5, index=seed)
        assert B.pathwise_sharp_check(mart.paths())


def test_induction_values_nonincreasing():
    for seed in range(50):
        mart = G.corpus_martingale("mixed", 7, seed=6, index=seed)
        vals = B.induction_values(mart)
        assert np.all(np.diff(vals) <= 1e-10)


def induction_values_cumsum(mart, gamma=3.0):
    """induction_values with the numpy time scans it had before the row-wise
    ones, as their oracle."""
    pm = mart.paths()
    w = mart.tree.leaf_prob
    fstar = np.maximum.accumulate(np.abs(pm), axis=0)
    df = np.diff(pm, axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        quot = np.where(fstar[1:] > 0, df**2 / np.where(fstar[1:] > 0, fstar[1:], 1.0), 0.0)
    s_tilde = gamma * np.abs(pm[0]) + np.vstack([np.zeros(pm.shape[1]), np.cumsum(quot, axis=0)])
    out = []
    for n in range(pm.shape[0]):
        m = fstar[n]
        with np.errstate(divide="ignore", invalid="ignore"):
            u = np.where(m > 0, s_tilde[n] - (pm[n] ** 2 + (gamma - 1.0) * m * m) / np.where(m > 0, m, 1.0), s_tilde[n])
        out.append(float(w @ u))
    return np.asarray(out)


def test_bellman_scans_equal_the_numpy_cumsums():
    for spec in (CorpusSpec(kind="mixed", depth=8, trials=40, seed=64), CorpusSpec(kind="backprop", depth=12, trials=3, seed=65)):
        for mart in spec.martingales():
            shifted = Martingale(mart.tree, [v + 0.75 for v in mart.values])  # f_0 != 0
            for m, gamma in itertools.product((mart, shifted), (3.0, 2.5)):
                assert np.array_equal(B.induction_values(m, gamma), induction_values_cumsum(m, gamma))
            pm = mart.paths()
            df = fn.increments(pm)
            fstar = np.maximum.accumulate(np.abs(pm), axis=0)
            old_sides = path_oracles.pathwise_sharp_sides(pm, fstar, df)
            # the node recursion, and the path matrix as identity parent maps
            for sides in (B.pathwise_sharp_sides(mart.flat, mart.tree.layout), B.pathwise_sharp_sides(pm)):
                lhs, rhs, sf, mf = sides
                assert np.array_equal(sf, np.sqrt(np.cumsum(df**2, axis=0)[-1]))
                assert np.array_equal(mf, fstar[-1])
                assert np.array_equal(lhs, old_sides[0]) and np.array_equal(rhs, old_sides[1])
            assert B.sharp_davis_clause(RatioTracker(), sf, mf, mart.tree.leaf_prob) == (
                float(mart.tree.leaf_prob @ sf),
                float(mart.tree.leaf_prob @ mf),
            )


# -- sharp Davis check -------------------------------------------------------------


def test_sharp_davis_single_step():
    spec = CorpusSpec(kind="scaled_walk", depth=1, trials=1, seed=0)
    rep = B.sharp_davis_check(spec)
    assert rep.violations == 0
    assert np.isclose(rep.measured["max_ES_over_Estar"], 1.0)


def test_sharp_davis_scaled_walk_16():
    spec = CorpusSpec(kind="scaled_walk", depth=16, trials=1, seed=0)
    rep = B.sharp_davis_check(spec)
    assert rep.violations == 0
    assert rep.measured["max_ES_over_Estar"] < math.sqrt(3.0)


def test_sharp_davis_scale_invariance():
    from martkit.tree import Martingale

    mart = G.gen_leaf_backprop("normal", 6, seed=9)
    tree = mart.tree
    w = tree.leaf_prob

    def ratio(m):
        pm = m.paths()
        return (w @ fn.square_function_paths(pm)[-1]) / (w @ fn.maximal_paths(pm)[-1])

    scaled = Martingale(tree, [v * 17.0 for v in mart.values])
    assert abs(ratio(mart) - ratio(scaled)) <= 1e-12


def v_scaling_residual(x: float, t: float, z: float, lam: float, gamma: float = B.SQRT3) -> float:
    """|V(x,t,z) - lam V(x/lam, t/lam^2, z/lam)| for V(x,t,z) = sqrt(t) - gamma z."""
    v = math.sqrt(t) - gamma * z
    v_scaled = lam * (math.sqrt(t / lam**2) - gamma * z / lam)
    return abs(v - v_scaled)


def test_v_scaling_exact():
    rng = np.random.default_rng(1)
    for _ in range(100):
        t, z, lam = rng.uniform(0.1, 10, size=3)
        assert v_scaling_residual(0.0, t, z, lam) <= 1e-12


# -- extremal construction ------------------------------------------------------------


def test_extremal_depth1_is_fair_step():
    assert np.isclose(B.extremal_ratio(1, 1.0), 1.0)


def test_extremal_depth2_frozen_value():
    # closed form [r sqrt(2) + sqrt(1+r^2)] / (1 + 2r), maximized at the grid edge
    def closed(r):
        return (r * math.sqrt(2.0) + math.sqrt(1.0 + r * r)) / (1.0 + 2.0 * r)

    for r in (1.0, 4.0, 8.0):
        assert np.isclose(B.extremal_ratio(2, r), closed(r), atol=1e-12)
    out = B.extremal_search(2)
    assert np.isclose(out["best_ratio"], closed(8.0))
    assert out["best_ratio"] > 1.13  # frozen from the exact-expectation oracle


def test_extremal_monotone_in_depth_and_below_sqrt3():
    prev = 0.0
    for depth in (1, 2, 3, 4, 6, 8):
        out = B.extremal_search(depth)
        assert out["best_ratio"] <= math.sqrt(3.0) + 1e-9
        assert out["best_ratio"] >= prev - 1e-12
        prev = out["best_ratio"]
    assert prev > 1.2  # deeper alternating trees pass the depth-2 plateau


def test_extremal_trees_are_martingales():
    for depth, r in [(3, 2.0), (5, 6.0)]:
        B.extremal_tree(depth, r).validate_martingale()


def test_extremal_depth_guard():
    with pytest.raises(ValueError):
        B.extremal_tree(13, 2.0)


# -- the per-node and per-point loops that the array forms replaced --------------


def extremal_tree_loop(depth: int, r: float) -> Martingale:
    """extremal_tree one node at a time, as the package built it before it
    selected every level's branches with np.where."""
    parents, values, cond = [np.empty(0, dtype=np.int64)], [np.zeros(1)], []
    x, m = np.zeros(1), np.zeros(1)
    for _ in range(depth):
        at_boundary = (np.abs(np.abs(x) - m) < 1e-12) & (m > 0)
        new_x, new_m, cp = (np.empty(x.size * 2) for _ in range(3))
        for i in range(x.size):
            if m[i] == 0.0:
                new_x[2 * i : 2 * i + 2], new_m[2 * i : 2 * i + 2], cp[2 * i : 2 * i + 2] = (1.0, -1.0), 1.0, 0.5
            elif at_boundary[i]:
                new_x[2 * i], new_m[2 * i], cp[2 * i] = 0.0, m[i], r / (r + 1.0)
                new_x[2 * i + 1], new_m[2 * i + 1], cp[2 * i + 1] = x[i] * (1.0 + r), m[i] * (1.0 + r), 1.0 / (r + 1.0)
            else:
                new_x[2 * i : 2 * i + 2], new_m[2 * i : 2 * i + 2], cp[2 * i : 2 * i + 2] = (m[i], -m[i]), m[i], 0.5
        parents.append(np.repeat(np.arange(x.size), 2))
        values.append(new_x)
        cond.append(cp)
        x, m = new_x, new_m
    return Martingale(FiltrationTree.from_conditional(parents, cond), values)


@pytest.mark.parametrize("r", [1.0, 2.0, 3.5, 8.0])
def test_extremal_tree_equals_the_node_loop(r):
    for depth in range(1, 10):
        got, want = B.extremal_tree(depth, r), extremal_tree_loop(depth, r)
        assert got.flat.tobytes() == want.flat.tobytes()
        assert got.tree.leaf_prob.tobytes() == want.tree.leaf_prob.tobytes()
        assert got.tree.same_shape(want.tree)


def concavity_grid_min_loop(gamma, x_pts, h_lo, h_hi, h_pts, y_vals):
    """concavity_grid_min one scalar residual at a time, in (x, h, y) order."""
    worst, arg = math.inf, {}
    for x, h, y in itertools.product(np.linspace(-1.0, 1.0, x_pts), np.linspace(h_lo, h_hi, h_pts), y_vals):
        res = float(B.concavity_residual(float(x), float(h), float(y), 1.0, gamma))
        if res < worst:
            worst, arg = res, {"gamma": gamma, "x": float(x), "h": float(h), "y": float(y), "m": 1.0, "residual": res}
    return worst, arg


@pytest.mark.parametrize(
    "gamma, grid",
    [
        pytest.param(3.0, (46, -5.0, 5.0, 138, (0.0, 1.0, 10.0)), id="demo"),
        pytest.param(2.9, (46, -5.0, 5.0, 138, (0.0, 1.0, 10.0)), id="demo-2.9"),
        pytest.param(2.9, (41, -16.0, 16.0, 641, (1.0,)), id="counterexample"),
        pytest.param(2.0, (21, -5.0, 5.0, 101, (0.0, 1.0, 10.0)), id="gamma=2"),
        pytest.param(math.nan, (11, -5.0, 5.0, 33, (0.0, 1.0, 10.0)), id="gamma=nan"),
    ],
)
def test_concavity_grid_equals_the_point_loop(gamma, grid):
    x_pts, h_lo, h_hi, h_pts, y_vals = grid
    got = B.concavity_grid_min(gamma, x_pts=x_pts, h_lo=h_lo, h_hi=h_hi, h_pts=h_pts, y_vals=y_vals)
    assert repr(got) == repr(concavity_grid_min_loop(gamma, x_pts, h_lo, h_hi, h_pts, y_vals))
