import itertools
import math

import numpy as np
import pytest

from martkit import functionals as fn
from martkit import rough as R


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


def test_sew_additive_germ_telescopes():
    # delta Xi = 0: every partition returns the germ value exactly
    xi = lambda s, t: t**2 - s**2  # noqa: E731
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


def test_sew_default_midpoints_equal_a_midpoint_splitter():
    a = R.SampledPath.line(1.0, 256)
    omega = R.variation_control(a, 1.0)
    vectorized = R.sew(R.young_germ(a, a), omega, theta=2.0, T=1.0, tol=1e-6)
    per_cell = R.sew(R.young_germ(a, a), omega, theta=2.0, T=1.0, tol=1e-6, split=lambda u, v: 0.5 * (u + v))
    assert vectorized == per_cell
    assert vectorized.levels > 1


def test_sew_non_cauchy_raises():
    rng = np.random.default_rng(0)
    xi = lambda s, t: rng.normal(size=np.shape(s))  # noqa: E731  incoherent germ
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


def test_young_rejects_r_at_least_two():
    a = R.SampledPath.line(1.0, 8)
    with pytest.raises(ValueError):
        R.young_integral(a, a, r=2.0)


# -- lift and Chen ----------------------------------------------------------------------


def test_lift_chen_exact_and_identity():
    X = dyadic_walk_path(256, seed=3, step=1.0 / 16.0)
    rp = R.lift(X, r=2.5)
    assert rp.chen_residual() <= 1e-12
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
    assert rp.chen_residual() <= 1e-12
    vx, vxx = rp.variation_norms()
    assert np.isfinite(vx) and np.isfinite(vxx)


# -- controlled paths and integration ------------------------------------------------------


def test_controlled_implicit_bound():
    X = R.lift(dyadic_walk_path(64, seed=7), r=2.5)
    rng = np.random.default_rng(8)
    vals = np.cumsum(rng.normal(scale=0.1, size=65))
    deriv = rng.normal(size=(65, 1))
    Y = R.ControlledPath(X, vals, deriv)
    lhs, rhs = Y.implicit_bound_sides()
    assert lhs <= rhs * (1 + 1e-10) + 1e-12


def test_rough_integral_of_x_minus_x0_is_second_level():
    X = R.lift(dyadic_walk_path(256, seed=9, step=1.0 / 16.0), r=2.5)
    P = R.ControlledCovector(X, X.path.values - X.path.values[0], np.ones((257, 1, 1)))
    Z, diag = R.rough_integral(P, X)
    assert Z.values[-1] - X.xx[0, -1, 0, 0] == 0.0
    assert diag["remainder_r2"] <= diag["remainder_bound"]


def test_rough_integral_constant_integrand():
    X = R.lift(dyadic_walk_path(128, seed=10), r=2.5)
    c = 1.7
    P = R.ControlledCovector(X, np.full((129, 1), c), np.zeros((129, 1, 1)))
    Z, _ = R.rough_integral(P, X)
    expect = c * (X.path.values[:, 0] - X.path.values[0, 0])
    assert np.abs(Z.values - expect).max() <= 1e-14


def test_rough_integral_smooth_half():
    X = R.rough_line(1.0, 512, r=2.5)
    P = R.ControlledCovector(X, X.path.values.copy(), np.ones((513, 1, 1)))
    Z, _ = R.rough_integral(P, X)
    assert abs(Z.values[-1] - 0.5) <= 1e-6


# -- composition -----------------------------------------------------------------------------


def test_compose_identity_and_constant():
    X = R.rough_line(0.5, 64, r=2.5)
    Y = R.ControlledPath(X, X.path.values[:, 0].copy(), np.ones((65, 1)))
    ident = R.compose(R.linear_coefficient(1.0, box=2.0), Y)
    assert np.allclose(ident.values[:, 0], Y.values)
    assert np.allclose(ident.deriv[:, 0, 0], 1.0)
    const = R.compose(R.constant_coefficient(3.0), Y)
    assert np.allclose(const.values, 3.0)
    assert np.abs(const.remainder()).max() == 0.0


def test_compose_square_estimates():
    X = R.rough_line(0.5, 64, r=2.5)
    Y = R.ControlledPath(X, X.path.values[:, 0].copy(), np.ones((65, 1)))
    sq = R.scalar_coefficient(lambda y: y**2, lambda y: 2 * y, lambda y: 2 * np.ones_like(y), box=1.0)
    out = R.compose(sq, Y, check=True)  # raises if the two estimates fail
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


def halving_one_interval_at_a_time(X):
    """Prefix and suffix controls at every inner grid time, each from its own
    variation_control DP, and the first index minimizing their gap."""
    ctrl = R.variation_control(X.path, X.r)
    times = X.times
    n = times.size - 1
    prefix = np.array([ctrl(0.0, float(times[k])) for k in range(1, n)])
    suffix = np.array([ctrl(float(times[k]), float(times[-1])) for k in range(1, n)])
    best, arg = math.inf, n // 2
    for k in range(1, n):
        gap = abs(prefix[k - 1] - suffix[k - 1])
        if gap < best:
            best, arg = gap, k
    return prefix, suffix, arg


def halving_drivers():
    yield R.rough_line(0.3, 128, r=2.5)
    for dim in (1, 2, 3):
        rng = np.random.default_rng(20 + dim)
        vals = np.cumsum(rng.choice([-0.05, 0.05], size=(97, dim)), axis=0)
        for interpretation in ("step", "linear"):
            yield R.lift(R.SampledPath(np.linspace(0.0, 0.3, 97), vals, interpretation), r=2.5)


def test_halving_table_equals_one_interval_at_a_time():
    for X in halving_drivers():
        prefix, suffix, arg = halving_one_interval_at_a_time(X)
        vals = X.path.values
        table = fn.chain_dp_table(fn.DistColumns(vals[:, 0] if X.dim == 1 else vals), X.r)
        n = vals.shape[0] - 1
        assert np.array_equal(np.maximum.accumulate(table[0])[1:n], prefix)
        assert np.array_equal(np.array([table[k, k:].max() for k in range(1, n)]), suffix)
        assert R._halving_index(X) == arg


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
    part = R.control_partition(omega, times, 0.25)
    assert part[0] == 0.0 and part[-1] == 1.0
    assert 4 <= len(part) - 1 <= 6
    assert max(control_partition_gaps(omega, times, part)) <= 0.25


def test_control_partition_single_block():
    omega = R.Control(lambda s, t: t - s)
    times = np.linspace(0.0, 1.0, 11)
    part = R.control_partition(omega, times, 2.0)
    assert part == [0.0, 1.0]


def test_control_partition_isolates_atom():
    # a point mass of weight 1 at t = 0.5 forces a dedicated short block
    def w(s, t):
        return (t - s) * 0.1 + (1.0 if s < 0.5 <= t else 0.0)

    omega = R.Control(w)
    times = np.linspace(0.0, 1.0, 21)
    part = R.control_partition(omega, times, 0.3)
    gaps = control_partition_gaps(omega, times, part)
    assert max(gaps) <= 0.3
    assert any(abs(p - 0.5) < 0.051 for p in part)


# -- CSV round trips -------------------------------------------------------------------------


def test_driver_csv_round_trip(tmp_path):
    p = dyadic_walk_path(32, seed=11)
    f = tmp_path / "driver.csv"
    R.write_driver_csv(str(f), p)
    q = R.read_driver_csv(str(f))
    assert q.interpretation == "step"
    assert np.allclose(q.times, p.times)
    assert np.allclose(q.values, p.values)
    rp = R.lift(p, r=2.5)
    R.write_lift_csv(str(tmp_path / "xx.csv"), rp)
    assert (tmp_path / "xx.csv").exists()


def test_lift_csv_round_trip(tmp_path):
    p = dyadic_walk_path(24, seed=13)
    rp = R.lift(p, r=2.5)
    f = tmp_path / "xx.csv"
    R.write_lift_csv(str(f), rp)
    back = R.read_lift_csv(str(f), p, r=2.5)
    assert np.abs(back.xx - rp.xx).max() == 0.0
    assert back.chen_residual() <= 1e-12


def test_compose_then_integrate_remainder_structure():
    X = R.rough_line(0.4, 128, r=2.5)
    Y = R.ControlledPath(X, np.sin(X.times), np.cos(X.times)[:, None])
    sq = R.scalar_coefficient(lambda y: y**2, lambda y: 2 * y, lambda y: 2 * np.ones_like(y), box=2.0)
    P = R.compose(sq, Y)
    Z, diag = R.rough_integral(P, X)
    assert diag["remainder_r2"] <= diag["remainder_bound"]
    assert diag["local_error_bound"] >= 0.0
    assert np.allclose(Z.deriv, P.values)  # Z' = phi(Y)


def test_smooth_function_box_validation_warns():
    import warnings

    lying = R.SmoothFunction(
        phi=lambda y: (3.0 * np.asarray(y))[..., None],
        dphi=lambda y: np.full(np.shape(y) + (1,), 3.0),
        d2phi=lambda y: np.zeros(np.shape(y) + (1,)),
        dim=1,
        phi_sup=0.1,  # declared far below the truth
        dphi_sup=0.1,
        dphi_lip=0.0,
        d2phi_sup=0.0,
        d2phi_lip=0.0,
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        lying.validate_box(-1.0, 1.0)
    assert any("declared norm" in str(w.message) for w in caught)
