import itertools
import math
import tracemalloc

import numpy as np
import pytest

import chain_dp_oracles as oracle
from martkit import rough as R
from notes_statements import (
    checked_compose,
    chen_residual,
    controlled_norms,
    covector_remainder,
    metric_variations,
    picard_metric,
    rough_integral,
    validate_box,
    variation_norms,
)


def dyadic_walk_path(n, seed=0, step=None):
    rng = np.random.default_rng(seed)
    s = step if step is not None else 1.0 / math.sqrt(n)
    vals = np.concatenate([[0.0], np.cumsum(rng.choice([-s, s], size=n))])
    return R.SampledPath(np.linspace(0.0, 1.0, n + 1), vals, "step")


# -- two-parameter variation ------------------------------------------------------


def test_two_param_variation_examples():
    n = 6
    assert R.two_param_variation(np.zeros((n, n)), 1.5) == 0.0
    t = np.linspace(0, 2.0, n)
    additive = t[None, :] - t[:, None]
    assert np.isclose(R.two_param_variation(np.triu(additive), 1.0), 2.0)


def test_two_param_variation_vs_exhaustive():
    rng = np.random.default_rng(4)
    n = 6
    xi = np.triu(rng.normal(size=(n, n)), k=1)
    for rho in (1.0, 1.7, 2.5):
        best = 0.0
        for size in range(2, n + 1):
            for chain in itertools.combinations(range(n), size):
                s = sum(abs(xi[chain[i], chain[i + 1]]) ** rho for i in range(size - 1))
                best = max(best, s)
        assert np.isclose(R.two_param_variation(xi, rho), best ** (1.0 / rho))


# -- controls and sewing ------------------------------------------------------------


def check_superadditivity(omega: R.Control, T: float, seed: int = 0, triples: int = 64, tol: float = 1e-10) -> bool:
    """omega(s, t) + omega(t, u) <= omega(s, u) on random triples s <= t <= u in [0, T]."""
    rng = np.random.default_rng(seed)
    for _ in range(triples):
        s, t, u = np.sort(rng.uniform(0.0, T, size=3))
        if omega(s, t) + omega(t, u) > omega(s, u) + tol * max(1.0, omega(s, u)):
            return False
    return True


def test_variation_control_superadditive():
    p = dyadic_walk_path(64, seed=5)
    ctrl = R.variation_control(p, 2.5)
    assert check_superadditivity(ctrl, 1.0, seed=1, triples=40)
    assert ctrl(0.3, 0.3) == 0.0


def test_control_lower_is_at_most_omega():
    rng = np.random.default_rng(12)
    walk = dyadic_walk_path(64, seed=7)
    rough_vals = R.SampledPath(np.linspace(0.0, 1.0, 41), rng.normal(size=(41, 3)), "linear")
    scalar = R.SampledPath(np.linspace(0.0, 1.0, 41), rng.normal(size=41) / 7, "linear")
    for path in (walk, rough_vals, scalar):
        for r in (1, 1.0, 1.5, 2, 2.5, 3):
            one = R.variation_control(path, r)
            controls = (one, one + R.variation_control(path, r), one + R.Control(lambda s, t: t - s))
            times = np.concatenate([path.times[::5], rng.uniform(0.0, 1.0, size=8)])
            for s, t in itertools.combinations(np.sort(times), 2):
                for omega in controls:
                    low = omega.lower(s, t)
                    assert 0.0 <= low <= omega(s, t), (r, s, t)
                    assert omega.lower(s, t) == omega(s, t)  # memoized now
    plain = R.Control(lambda s, t: t - s)
    assert plain.lower(0.2, 0.5) == 0.0 and plain.lower(0.5, 0.2) == 0.0
    plain(0.2, 0.5)
    assert plain.lower(0.2, 0.5) == plain(0.2, 0.5)


def test_sew_hypothesis_failures_warn_and_raise():
    # |delta Xi_{s,u,t}| = (u - s)(t - u) against (c (t - s))^2 fails the spot
    # checks whose middle point u lies well inside [s, t]
    a = R.SampledPath.line(1.0, 256)
    germ = R.young_germ(a, a)
    for control in (R.variation_control(R.SampledPath.line(0.3, 256), 1.0), R.Control(lambda s, t: 0.3 * (t - s))):
        with pytest.warns(UserWarning, match="failed a spot check") as caught:
            res = R.sew(germ, control, theta=2.0, T=1.0, tol=1e-6)
        assert len(caught) == 1
        assert not res.hypothesis_ok and res.converged
        assert res.error_bound == R.zeta_sum(2.0) * control(0.0, 1.0) ** 2
    # a tighter control also breaks the a-priori bound on the sewn value
    with pytest.warns(UserWarning, match="failed a spot check"):
        with pytest.raises(R.SewingError, match="a-priori bound"):
            R.sew(germ, R.variation_control(R.SampledPath.line(0.2, 256), 1.0), theta=2.0, T=1.0, tol=1e-6)
    # a control with no lower bound decides every spot check exactly
    assert R.sew(germ, R.Control(lambda s, t: 0.6 * (t - s)), theta=2.0, T=1.0, tol=1e-6).hypothesis_ok


def test_sew_additive_germ_telescopes():
    # delta Xi = 0: every partition returns the germ value exactly
    xi = lambda p: p[1:] ** 2 - p[:-1] ** 2  # noqa: E731
    ctrl = R.Control(lambda s, t: t - s)
    res = R.sew(xi, ctrl, theta=2.0, T=1.0, tol=1e-12, max_level=8)
    assert res.value == res.germ_value == 1.0
    assert res.error_bound >= 0.0


def test_sew_young_identity():
    a = R.SampledPath.line(1.0, 4096)
    g = R.SampledPath.line(1.0, 4096)
    omega = R.variation_control(a, 1.0) + R.variation_control(g, 1.0)
    res = R.sew(R.young_germ(a, g), omega, theta=2.0, T=1.0, tol=1e-6)
    assert abs(res.value - 0.5) <= 1e-6
    assert abs(res.value - res.germ_value) <= res.error_bound
    assert res.hypothesis_ok
    # evaluate the k-sum: 0.5 = |I - Xi_{0,1}| <= sum (2/k)^2 omega(0,1)^2
    assert 0.5 <= R.zeta_sum(2.0) * omega(0.0, 1.0) ** 2


def test_sew_default_midpoints_equal_a_midpoint_splitter(monkeypatch):
    # a splitter's points are merged by np.unique; default midpoints are
    # interleaved, and sorted by np.unique only when one rounds onto an end
    sorts = []
    real_unique = np.unique

    def counting_unique(*args, **kwargs):
        sorts.append(1)
        return real_unique(*args, **kwargs)

    monkeypatch.setattr(np, "unique", counting_unique)
    midpoint = lambda u, v: 0.5 * (u + v)  # noqa: E731
    a = R.SampledPath.line(1.0, 256)
    omega = R.variation_control(a, 1.0)
    vectorized = R.sew(R.young_germ(a, a), omega, theta=2.0, T=1.0, tol=1e-6)
    assert sorts == []
    per_cell = R.sew(R.young_germ(a, a), omega, theta=2.0, T=1.0, tol=1e-6, split=midpoint)
    assert vectorized == per_cell
    assert vectorized.levels > 1
    # [0, 4 subnormal units]: the third level's midpoints 0.5, 1.5, 2.5 and
    # 3.5 units round (to even) onto the ends, so the partition stops at 5
    # points and the cell count 1, 2, 4, 4 converges there
    T = 4 * 5e-324
    cells = lambda p: (p[1:] > p[:-1]).astype(np.float64)  # noqa: E731
    ctrl = R.Control(lambda s, t: 2.0)
    del sorts[:]
    tiny = R.sew(cells, ctrl, theta=2.0, T=T, tol=0.5)
    assert sorts == [1]
    assert tiny == R.sew(cells, ctrl, theta=2.0, T=T, tol=0.5, split=midpoint)
    assert (tiny.value, tiny.levels, tiny.diffs) == (4.0, 3, [1.0, 2.0, 0.0])


def test_young_germ_evaluates_each_path_once_per_partition(monkeypatch):
    # one evaluation per path, shared when a is g, with the floats of the
    # per-cell form a_s (g_t - g_s) that evaluated g twice
    times = np.linspace(0.0, 1.0, 65)
    a = R.SampledPath(times, np.sin(3.0 * times), "linear")
    g = R.SampledPath(times, np.round(np.cos(5.0 * times), 3), "step")
    parts = np.linspace(0.0, 1.0, 301) ** 2
    s, t = parts[:-1], parts[1:]
    cells = [(x, y, (x.eval(s) * (y.eval(t) - y.eval(s))).sum(axis=1)) for x, y in ((a, g), (g, a), (a, a))]
    evals = []
    real = R.SampledPath.eval
    monkeypatch.setattr(R.SampledPath, "eval", lambda path, pts: evals.append(path) or real(path, pts))
    for x, y, expect in cells:
        del evals[:]
        assert np.array_equal(R.young_germ(x, y)(parts), expect)
        assert len(evals) == (1 if x is y else 2)


def test_sew_non_cauchy_raises():
    rng = np.random.default_rng(0)
    xi = lambda p: rng.normal(size=p.size - 1)  # noqa: E731  incoherent germ
    with pytest.raises(R.SewingError):
        R.sew(xi, R.Control(lambda s, t: t - s), theta=1.5, T=1.0, tol=1e-12, max_level=6)


def test_zeta_sum_values():
    assert np.isclose(R.zeta_sum(2.0), 4.0 * math.pi**2 / 6.0, rtol=1e-10)
    with pytest.raises(ValueError):
        R.zeta_sum(1.0)


# -- Young integral -------------------------------------------------------------------


def test_young_constant_integrand():
    g = dyadic_walk_path(128, seed=2)
    ones = R.SampledPath(g.times, np.ones_like(g.times), "step")
    path, _ = R.young_integral(ones, g, r=1.5, tol=1e-12)
    assert np.abs(path.values[:, 0] - (g.values[:, 0] - g.values[0, 0])).max() == 0.0


def test_young_identity_half():
    a = R.SampledPath.line(1.0, 4096)
    path, diag = R.young_integral(a, a, r=1.5, tol=5e-7)
    assert abs(path.values[-1, 0] - 0.5) <= 1e-6


def test_young_matches_riemann_stieltjes_for_steps():
    # step integrand against a bounded-variation step integrator
    t = np.linspace(0.0, 1.0, 9)
    a = R.SampledPath(t, np.array([1.0, 1, 2, 2, 2, 0, 0, 3, 3]), "step")
    g = R.SampledPath(t, np.array([0.0, 1, 1, 2, 2, 2, 5, 5, 6]), "step")
    path, _ = R.young_integral(a, g, r=1.0, tol=1e-12)
    direct = np.cumsum(a.values[:-1, 0] * np.diff(g.values[:, 0]))
    assert np.abs(path.values[1:, 0] - direct).max() == 0.0


def test_young_refinement_stops_at_its_cell_limit():
    # left-point sums of two linear paths converge only like 2^-level, so at
    # tol 1e-9 a 32-step grid would refine past 2^24 cells a step
    t = np.linspace(0.0, 1.0, 33)
    a = R.SampledPath(t, np.sin(3.0 * t), "linear")
    g = R.SampledPath(t, np.cos(5.0 * t) + t, "linear")
    tracemalloc.start()
    try:
        with pytest.raises(R.SewingError, match="cells a level"):
            R.young_integral(a, g, r=1.5, tol=1e-9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**27


def test_young_rejects_r_at_least_two():
    a = R.SampledPath.line(1.0, 8)
    with pytest.raises(ValueError):
        R.young_integral(a, a, r=2.0)


# -- lift and Chen ----------------------------------------------------------------------


def test_lift_chen_exact_and_identity():
    X = dyadic_walk_path(256, seed=3, step=1.0 / 16.0)
    rp = R.lift(X, r=2.5)
    assert chen_residual(rp) <= 1e-12
    dX = np.diff(X.values[:, 0])
    sym = 2.0 * rp.xx[0, -1, 0, 0]
    ibp = (X.values[-1, 0] - X.values[0, 0]) ** 2 - np.sum(dX**2)
    assert sym == ibp  # discrete integration by parts, exact in dyadic arithmetic


def test_lift_line_converges_to_half_square():
    for n in (16, 64, 256):
        rp = R.lift(R.SampledPath.line(1.0, n), r=2.5)
        assert abs(rp.xx[0, -1, 0, 0] - 0.5) <= 1.0 / n


def test_lift_chen_vector_driver():
    rng = np.random.default_rng(6)
    n = 64
    vals = np.cumsum(rng.choice([-0.125, 0.125], size=(n + 1, 2)), axis=0)
    vals -= vals[0]
    X = R.SampledPath(np.linspace(0, 1, n + 1), vals, "step")
    rp = R.lift(X, r=2.5)
    assert chen_residual(rp) <= 1e-12
    vx, vxx = variation_norms(rp)
    assert np.isfinite(vx) and np.isfinite(vxx)


# -- controlled paths and integration ------------------------------------------------------


def implicit_bound_sides(Y: R.ControlledPath) -> tuple[float, float]:
    """(|Y|_r, |Y'|_sup |X|_r + |R|_{r/2}); left never exceeds right."""
    n = R.picard_norms(Y, Y)[0]
    vx, _ = variation_norms(Y.rough)
    return n["Y_r"], n["Yp_sup"] * vx + n["R_r2"]


def test_controlled_implicit_bound():
    X = R.lift(dyadic_walk_path(64, seed=7), r=2.5)
    rng = np.random.default_rng(8)
    vals = np.cumsum(rng.normal(scale=0.1, size=65))
    deriv = rng.normal(size=(65, 1))
    Y = R.ControlledPath(X, vals, deriv)
    lhs, rhs = implicit_bound_sides(Y)
    assert lhs <= rhs * (1 + 1e-10) + 1e-12


def test_rough_integral_of_x_minus_x0_is_second_level():
    X = R.lift(dyadic_walk_path(256, seed=9, step=1.0 / 16.0), r=2.5)
    P = R.ControlledCovector(X, X.path.values - X.path.values[0], np.ones((257, 1, 1)))
    Z, diag = rough_integral(P, X)
    assert Z.values[-1] - X.xx[0, -1, 0, 0] == 0.0
    assert diag["remainder_r2"] <= diag["remainder_bound"]


def test_rough_integral_constant_integrand():
    X = R.lift(dyadic_walk_path(128, seed=10), r=2.5)
    c = 1.7
    P = R.ControlledCovector(X, np.full((129, 1), c), np.zeros((129, 1, 1)))
    Z, _ = rough_integral(P, X)
    expect = c * (X.path.values[:, 0] - X.path.values[0, 0])
    assert np.abs(Z.values - expect).max() <= 1e-14


def test_rough_integral_smooth_half():
    X = R.rough_line(1.0, 512, r=2.5)
    P = R.ControlledCovector(X, X.path.values.copy(), np.ones((513, 1, 1)))
    Z, _ = rough_integral(P, X)
    assert abs(Z.values[-1] - 0.5) <= 1e-6


# -- composition -----------------------------------------------------------------------------


def test_compose_identity_and_constant():
    X = R.rough_line(0.5, 64, r=2.5)
    Y = R.ControlledPath(X, X.path.values[:, 0].copy(), np.ones((65, 1)))
    ident = checked_compose(R.linear_coefficient(1.0, box=2.0), Y)
    assert np.allclose(ident.values[:, 0], Y.values)
    assert np.allclose(ident.deriv[:, 0, 0], 1.0)
    const = checked_compose(R.constant_coefficient(3.0), Y)
    assert np.allclose(const.values, 3.0)
    assert np.abs(covector_remainder(const)).max() == 0.0


def test_compose_square_estimates():
    X = R.rough_line(0.5, 64, r=2.5)
    Y = R.ControlledPath(X, X.path.values[:, 0].copy(), np.ones((65, 1)))
    sq = R.scalar_coefficient(lambda y: y**2, lambda y: 2 * y, lambda y: 2 * np.ones_like(y), box=1.0)
    out = checked_compose(sq, Y)  # raises if the two estimates fail
    assert np.allclose(out.values[:, 0], Y.values**2)


# -- RDE ----------------------------------------------------------------------------------------


def test_rde_constant_coefficient_one_step_fixed_point():
    X = R.rough_line(0.3, 64, r=2.5)
    sol = R.rde_solve(R.constant_coefficient(2.0), X, 0.25)
    assert np.abs(sol.path.values - (0.25 + 2.0 * X.times)).max() <= 1e-14
    assert sol.iterations <= 2 * (sol.subdivisions + 1)


def test_rde_exponential_oracle():
    X = R.rough_line(0.3, 256, r=2.5)
    sol = R.rde_solve(R.linear_coefficient(1.0, box=4.0), X, 1.0)
    assert np.abs(sol.path.values - np.exp(X.times)).max() <= 1e-4
    assert sol.strictly_decreasing()


def test_rde_piecewise_linear_lift_driver():
    # first-order scheme from the left-point lift of the identity driver
    path = R.SampledPath.line(0.3, 256)
    X = R.lift(path, r=2.5)
    sol = R.rde_solve(R.linear_coefficient(1.0, box=4.0), X, 1.0)
    assert np.abs(sol.path.values - np.exp(X.times)).max() <= 1e-3


def demo_walk(seed: int) -> R.RoughPath:
    """The driver of the rde_walk demo: 256 steps of +-0.2/16 on [0, 0.3]."""
    rng = np.random.default_rng(seed)
    step = 0.2 / math.sqrt(256)
    vals = np.concatenate([[0.0], np.cumsum(rng.choice([-step, step], size=256))])
    return R.lift(R.SampledPath(np.linspace(0.0, 0.3, 257), vals, "step"), r=2.5)


def picard_cases() -> list[tuple[R.SmoothFunction, R.RoughPath, float]]:
    """(phi, X, y0) of the rde_line demo, the rde_walk demo at seed 11 and a
    2-D walk under a coefficient phi(y) = (sin y, cos y / 2) given by hand
    (61 Picard iterations over 7 splits)."""
    rng = np.random.default_rng(7)
    plane = np.cumsum(rng.choice([-0.0125, 0.0125], size=(65, 2)), axis=0)
    user = R.SmoothFunction(
        phi=lambda y: np.stack([np.sin(y), 0.5 * np.cos(y)], axis=-1),
        dphi=lambda y: np.stack([np.cos(y), -0.5 * np.sin(y)], axis=-1),
        phi_sup=1.0,
        dphi_sup=1.0,
        d2phi_sup=1.0,
    )
    return [
        (R.linear_coefficient(1.0, box=8.0), R.rough_line(0.3, 256, r=2.5), 1.0),
        (R.scalar_coefficient(np.sin, np.cos, lambda y: -np.sin(y), box=8.0), demo_walk(11), 1.0),
        (user, R.lift(R.SampledPath(np.linspace(0.0, 0.3, 65), plane - plane[0], "step"), r=2.5), 0.5),
    ]


def stacked_steps_equal_the_oracles(phi: R.SmoothFunction, X: R.RoughPath, y0: float) -> bool:
    """Solve with every ``picard_norms`` call recorded: each step's norms and
    metric variations, and each metric of the solution's runs, must be the
    floats of the oracles that take one variation at a time, in every bit."""
    steps, real = [], R.picard_norms

    def spy(Z, Y):
        out = real(Z, Y)
        steps.append((Z, Y, out))
        return out

    R.picard_norms = spy
    try:
        sol = R.rde_solve(phi, X, y0)
    finally:
        R.picard_norms = real
    same = len(steps) == sol.iterations
    for run in sol.metric_runs:
        run_steps, steps = steps[: len(run)], steps[len(run) :]
        first = controlled_norms(run_steps[0][0])
        # the radius rde_solve sets from a run's first iterate
        A = 4.0 * max(1.0, first["Yp_r"], math.sqrt(max(first["R_r2"], 0.0)), phi.dphi_sup * first["Y_r"])
        for (Z, Y, (norms, variations)), m in zip(run_steps, run):
            same &= {k: v.hex() for k, v in norms.items()} == {k: v.hex() for k, v in controlled_norms(Z).items()}
            same &= [v.hex() for v in variations] == [v.hex() for v in metric_variations(Z, Y)]
            same &= m.hex() == picard_metric(phi, A, Z, Y).hex()
    return same


def test_stacked_picard_step_equals_the_oracles():
    # two stacked DPs per step give the six variations of six separate DPs
    for phi, X, y0 in picard_cases():
        assert stacked_steps_equal_the_oracles(phi, X, y0), X.dim


def halving_drivers():
    yield R.rough_line(0.3, 128, r=2.5)
    yield R.rough_line(0.3, 512, r=2.5)
    for seed in range(4):
        yield demo_walk(seed)  # +-step increments, many tied gaps
    for dim in (1, 2, 3):
        rng = np.random.default_rng(20 + dim)
        vals = np.cumsum(rng.choice([-0.05, 0.05], size=(97, dim)), axis=0)
        for interpretation in ("step", "linear"):
            yield R.lift(R.SampledPath(np.linspace(0.0, 0.3, 97), vals, interpretation), r=2.5)


def test_halving_index_equals_one_interval_at_a_time():
    # the reversed DP adds a suffix's costs in the opposite order; an ulp
    # there must not move the split
    for X in halving_drivers():
        assert R._halving_index(X, R._prefix_controls(X.path.values, X.r)) == oracle.halving_one_interval_at_a_time(X)


def test_prefix_controls_end_at_the_variation_control():
    # rde_solve reads V^r X off the prefix controls that its split reads
    for X in halving_drivers():
        prefix = R._prefix_controls(X.path.values, X.r)
        assert float(prefix[-1]) == R.variation_control(X.path, X.r)(0.0, X.path.T)


def test_rde_jump_too_large_raises():
    t = np.array([0.0, 0.5, 1.0])
    vals = np.array([0.0, 5.0, 5.0])
    X = R.lift(R.SampledPath(t, vals, "step"), r=2.5)
    with pytest.raises(R.RdeError):
        R.rde_solve(R.linear_coefficient(1.0, box=16.0), X, 1.0)


def test_rde_stability_identical_and_perturbed():
    X = R.rough_line(0.3, 128, r=2.5)
    phi = R.linear_coefficient(1.0, box=4.0)
    same = R.rde_stability(phi, X, X, 1.0, 1.0)
    assert same["ratio"] == 0.0
    pert = R.rde_stability(phi, X, X, 1.0, 1.0 + 1e-3)
    assert np.isfinite(pert["ratio"]) and pert["ratio"] > 0


def test_rde_stability_ratio_stabilizes_under_halving():
    X = R.rough_line(0.3, 128, r=2.5)
    phi = R.linear_coefficient(1.0, box=4.0)
    ratios = [R.rde_stability(phi, X, X, 1.0, 1.0 + h)["ratio"] for h in (1e-2, 5e-3, 2.5e-3)]
    spread = max(ratios) - min(ratios)
    assert spread <= 0.05 * max(ratios)


# -- control partition -----------------------------------------------------------------------


def control_partition(omega: R.Control, times: np.ndarray, eps: float) -> list[float]:
    """Greedy partition with min(omega(prev+, cur), omega(prev, cur-)) <= eps
    on a finite grid, where +/- step to the neighboring grid point."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    times = np.asarray(times, dtype=np.float64)
    n = times.size - 1
    pts = [0]
    guard = 0
    while pts[-1] < n:
        i = pts[-1]
        guard += 1
        if guard > n + 2:
            raise RuntimeError("control partition failed to terminate")
        if omega(times[i], times[i + 1]) < eps:
            k = i + 1
            while k < n and omega(times[i], times[k + 1]) < eps:
                k += 1
            pts.append(min(k + 1, n))
        else:
            k = i + 1
            while k < n and omega(times[i + 1], times[k + 1]) <= eps:
                k += 1
            pts.append(k)
    return [float(times[i]) for i in pts]


def control_partition_gaps(omega: R.Control, times: np.ndarray, partition: list[float]) -> list[float]:
    """min(omega(prev+, cur), omega(prev, cur-)) for each partition cell."""
    times = np.asarray(times, dtype=np.float64)
    out = []
    for u, v in zip(partition, partition[1:]):
        iu = int(np.searchsorted(times, u))
        iv = int(np.searchsorted(times, v))
        up = times[min(iu + 1, times.size - 1)]
        vm = times[max(iv - 1, 0)]
        out.append(min(omega(float(up), float(v)), omega(float(u), float(vm))))
    return out


def test_control_partition_linear():
    omega = R.Control(lambda s, t: t - s)
    times = np.linspace(0.0, 1.0, 101)
    part = control_partition(omega, times, 0.25)
    assert part[0] == 0.0 and part[-1] == 1.0
    assert 4 <= len(part) - 1 <= 6
    assert max(control_partition_gaps(omega, times, part)) <= 0.25


def test_control_partition_single_block():
    omega = R.Control(lambda s, t: t - s)
    times = np.linspace(0.0, 1.0, 11)
    part = control_partition(omega, times, 2.0)
    assert part == [0.0, 1.0]


def test_control_partition_isolates_atom():
    # a point mass of weight 1 at t = 0.5 forces a dedicated short block
    def w(s, t):
        return (t - s) * 0.1 + (1.0 if s < 0.5 <= t else 0.0)

    omega = R.Control(w)
    times = np.linspace(0.0, 1.0, 21)
    part = control_partition(omega, times, 0.3)
    gaps = control_partition_gaps(omega, times, part)
    assert max(gaps) <= 0.3
    assert any(abs(p - 0.5) < 0.051 for p in part)


# -- driver CSV ------------------------------------------------------------------------------


def test_driver_csv_round_trip(tmp_path):
    p = dyadic_walk_path(32, seed=11)
    f = tmp_path / "driver.csv"
    data = np.column_stack([p.times, p.values])
    np.savetxt(f, data, delimiter=",", header="# interpretation: step\nt,x_1", comments="")
    q = R.read_driver_csv(str(f))
    assert q.interpretation == "step"
    assert np.allclose(q.times, p.times)
    assert np.allclose(q.values, p.values)


def test_compose_then_integrate_remainder_structure():
    X = R.rough_line(0.4, 128, r=2.5)
    Y = R.ControlledPath(X, np.sin(X.times), np.cos(X.times)[:, None])
    sq = R.scalar_coefficient(lambda y: y**2, lambda y: 2 * y, lambda y: 2 * np.ones_like(y), box=2.0)
    P = checked_compose(sq, Y)
    Z, diag = rough_integral(P, X)
    assert diag["remainder_r2"] <= diag["remainder_bound"]
    assert diag["local_error_bound"] >= 0.0
    assert np.allclose(Z.deriv, P.values)  # Z' = phi(Y)


def test_smooth_function_box_validation_warns():
    import warnings

    lying = R.SmoothFunction(
        phi=lambda y: (3.0 * np.asarray(y))[..., None],
        dphi=lambda y: np.full(np.shape(y) + (1,), 3.0),
        phi_sup=0.1,  # declared far below the truth
        dphi_sup=0.1,
        d2phi_sup=0.0,
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        validate_box(lying, -1.0, 1.0)
    assert any("declared norm" in str(w.message) for w in caught)
