import numpy as np
import pytest

from martkit import generators as G
from martkit import functionals as fn
from martkit import ito as I
from martkit.report import lq_norm
from notes_statements import from_tree_process, zero_only


@pytest.fixture
def small_bundle():
    rng = np.random.default_rng(0)
    n, p = 10, 7
    f = I.GridCadlagPath(rng.normal(size=(n + 1, p)), np.full(p, 1 / p), 1.0, None, True)
    steps = rng.choice([-1.0, 1.0], size=(n, p)) * rng.uniform(0.2, 1.0, size=(n, p))
    g = I.GridCadlagPath(np.vstack([np.zeros(p), np.cumsum(steps, axis=0)]), np.full(p, 1 / p), 1.0, None, True)
    mask = rng.random((n + 1, p)) < 0.45
    mask[0] = True
    return f, g, I.AdaptedGridPartition(mask, None)


def brute_ito(fv, gv, mask_col, t, t2):
    pts = [i for i in range(len(fv)) if mask_col[i]]

    def floor(x):
        return max(q for q in pts if q <= x)

    tot = 0.0
    for j, pj in enumerate(pts):
        if t < pj < t2:
            nxt = pts[j + 1] if j + 1 < len(pts) else t2
            tot += (fv[pj] - fv[floor(t)]) * (gv[min(nxt, t2)] - gv[pj])
    return tot


def test_floor_time(small_bundle):
    f, g, part = small_bundle
    floors = part.floor_indices()
    assert np.all(floors[0] == 0)
    # floor is idempotent and a partition point maps to itself
    for t in range(f.values.shape[0]):
        ft = floors[t]
        assert np.all(floors[ft, np.arange(f.values.shape[1])] == ft)
        on = part.mask[t]
        assert np.all(floors[t][on] == t)


def test_zero_only_partition(small_bundle):
    f, g, _ = small_bundle
    part = zero_only(f)
    assert np.all(part.floor_indices() == 0)
    assert np.all(I.ito_sum(f, g, part, 0, f.n_steps) == 0.0)


def test_ito_sum_brute_force(small_bundle):
    f, g, part = small_bundle
    n = f.n_steps
    worst = 0.0
    for t in range(n):
        vals = I.ito_sum_from(f, g, part, t)
        for t2 in range(t, n + 1):
            for c in range(f.values.shape[1]):
                b = brute_ito(f.values[:, c], g.values[:, c], part.mask[:, c], t, t2)
                worst = max(worst, abs(vals[t2, c] - b))
    assert worst <= 1e-12


def test_ito_sum_constant_integrand(small_bundle):
    f, g, part = small_bundle
    c = I.GridCadlagPath(np.full_like(f.values, 2.0), f.weights, 1.0, None, True)
    assert np.all(I.ito_sum(c, g, part, 0, f.n_steps) == 0.0)


def test_ito_sum_full_grid_matches_double_loop():
    g = I.GridCadlagPath.sampled_walk(16, 5, seed=1)
    full = I.AdaptedGridPartition.full(g)
    out = I.ito_sum(g, g, full, 0, 16)
    for c in range(5):
        v = g.values[:, c]
        brute = sum((v[j] - v[0]) * (v[j + 1] - v[j]) for j in range(1, 16))
        assert abs(out[c] - brute) <= 1e-14


def test_discretize_identities(small_bundle):
    f, g, part = small_bundle
    full = I.AdaptedGridPartition.full(f)
    assert np.all(I.discretize(f, full).values == f.values)
    zero = zero_only(f)
    assert np.all(I.discretize(f, zero).values == f.values[0])


def test_ito_pairs_equal_stacked_ito_sum_from_rows(small_bundle):
    f, g, part = small_bundle
    walk = I.GridCadlagPath.sampled_walk(64, 9, seed=2)
    cases = [(f, g, part), (g, f, part), (walk, walk, I.AdaptedGridPartition.from_oscillation(walk, 0.4))]
    for a, b, pi in cases:
        rows = [I.ito_sum_from(a, b, pi, t) for t in range(a.n_steps)] + [np.zeros(a.values.shape)]
        assert np.array_equal(I.ito_pairs(a, b, pi), np.stack(rows))


def test_coarsening_identity(small_bundle):
    f, g, part = small_bundle
    rng = np.random.default_rng(5)
    mask_tau = part.mask | (rng.random(part.mask.shape) < 0.5)
    mask_tau[0] = True
    tau = I.AdaptedGridPartition(mask_tau, None)
    lhs = I.ito_pairs(f, g, part)
    rhs = I.ito_pairs(I.discretize(f, part), g, tau)
    assert np.abs(lhs - rhs).max() <= 1e-12


def test_covariation_scaled_walk_exact():
    g = I.GridCadlagPath.sampled_walk(256, 64, seed=11)
    full = I.AdaptedGridPartition.full(g)
    cov = I.covariation_sum(g, g, full, 0, 256)
    assert np.abs(cov - 1.0).max() == 0.0


def test_covariation_deterministic_ramp():
    n, h = 8, 0.5
    vals = np.cumsum(np.full((n + 1, 1), h), axis=0) - h
    f = I.GridCadlagPath(vals, np.ones(1), 1.0, None, True)
    full = I.AdaptedGridPartition.full(f)
    cov = I.covariation_sum(f, f, full, 0, n)
    assert np.isclose(cov[0], n * h * h)


def test_covariation_additive_over_partition_points(small_bundle):
    f, g, part = small_bundle
    mask = part.mask.copy()
    mask[4] = True
    mask[8] = True
    part2 = I.AdaptedGridPartition(mask, None)
    a = I.covariation_sum(f, g, part2, 0, 4)
    b = I.covariation_sum(f, g, part2, 4, 8)
    c = I.covariation_sum(f, g, part2, 0, 8)
    assert np.abs(a + b - c).max() <= 1e-12


def test_integration_by_parts_exact(small_bundle):
    f, g, part = small_bundle
    for t, t2 in [(0, 10), (1, 9), (3, 7)]:
        assert I.integration_by_parts_residual(f, g, part, t, t2) <= 1e-12


def test_chen_prelimit_exact(small_bundle):
    f, g, part = small_bundle
    assert I.chen_residual(f, g, part) <= 1e-12


def test_ito_sum_martingale_in_second_index():
    mart = G.gen_leaf_backprop("normal", 8, seed=13)
    f = from_tree_process(mart)
    part = I.AdaptedGridPartition.from_oscillation(f, 0.4)
    tree = mart.tree
    s = 1
    pi = I.ito_sum_from(f, f, part, s)
    for t in range(s + 1, 9):
        inc = pi[t] - pi[t - 1]
        cond = tree.atom_average_leaves(t - 1, inc)
        assert np.abs(cond).max() <= 1e-10


def conditional_covariation_residual(f: I.GridCadlagPath, partition, t: int, t2: int) -> float:
    """|E_t [f,f]^pi_{t,t2} - E_t |delta f_{t,t2}|^2| for tree-backed bundles
    whose partition contains t and t2 on every path."""
    if f.tree is None:
        raise ValueError("conditional identity needs an exact tree bundle")
    if not (partition.mask[t].all() and partition.mask[t2].all()):
        raise ValueError("partition must contain both endpoints")
    tree = f.tree
    level = min(t, tree.depth)
    cov = I.covariation_sum(f, f, partition, t, t2)
    df2 = (f.values[t2] - f.values[t]) ** 2
    lhs = tree.atom_average_leaves(level, cov)
    rhs = tree.atom_average_leaves(level, df2)
    return float(np.abs(lhs - rhs).max())


def test_conditional_covariation_identity():
    mart = G.gen_leaf_backprop("normal", 8, seed=3)
    f = from_tree_process(mart)
    mask = I.AdaptedGridPartition.from_oscillation(f, 0.3).mask.copy()
    mask[4] = True
    mask[8] = True
    part = I.AdaptedGridPartition(mask, f.tree)
    assert conditional_covariation_residual(f, part, 4, 8) <= 1e-10
    with pytest.raises(ValueError):
        conditional_covariation_residual(f, zero_only(f), 4, 8)


def test_adaptedness_validation_rejected():
    mart = G.gen_leaf_backprop("normal", 4, seed=2)
    f = from_tree_process(mart)
    mask = np.zeros_like(f.values, dtype=bool)
    mask[0] = True
    mask[2, 0] = True  # single leaf stops: not a union of level-2 atoms
    with pytest.raises(ValueError):
        I.AdaptedGridPartition(mask, f.tree)


def test_oscillation_partition_adapted_on_tree():
    mart = G.gen_leaf_backprop("normal", 7, seed=4)
    f = from_tree_process(mart)
    part = I.AdaptedGridPartition.from_oscillation(f, 0.5)
    I.AdaptedGridPartition(part.mask, f.tree)  # revalidates adaptedness


def test_refine_converge_constant_paths():
    c = I.GridCadlagPath(np.full((65, 4), 3.0), np.full(4, 0.25), 1.0, None, True)
    base = zero_only(c)
    diag = I.refine_converge(c, c, base, levels=3)
    assert all(d == 0.0 for d in diag.pi_distances)
    assert all(d == 0.0 for d in diag.discretization_errors)
    assert diag.nonincreasing


def test_refine_converge_walk_demo():
    g = I.GridCadlagPath.sampled_walk(256, 64, seed=11)
    base = I.AdaptedGridPartition.from_oscillation(g, 0.5)
    diag = I.refine_converge(g, g, base, levels=4)
    assert diag.nonincreasing
    assert diag.discretization_errors[-1] == 0.0  # final level is the full grid


def test_refine_converge_rejects_a_nonpositive_exponent():
    g = I.GridCadlagPath.sampled_walk(16, 2, seed=1)
    base = zero_only(g)
    for r in (0.0, -1.0):
        with pytest.raises(ValueError, match="positive"):
            I.refine_converge(g, g, base, levels=2, r=r)


def ito_bound_data(
    f: I.GridCadlagPath,
    g: I.GridCadlagPath,
    partition: I.AdaptedGridPartition,
    r: float = 2.5,
    p1: float = 3.0,
    q0: float = 2.0,
    q1: float = 2.0,
) -> dict:
    """Both sides of the variation bound for Ito sums (constant unspecified):
    ||V^r Pi^pi(f,g)||_q vs ||V^{p1} f^(pi)||_{q1} ||V^inf g||_{q0}."""
    if not 1.0 / r < 1.0 / p1 + 0.5:
        raise ValueError("exponents must satisfy 1/r < 1/p1 + 1/2")
    q = 1.0 / (1.0 / q0 + 1.0 / q1)
    pairs = I.ito_pairs(f, g, partition)
    lhs = lq_norm(fn.two_param_variation_paths(pairs, r), q, f.weights)
    fd = I.discretize(f, partition)
    vr_fd = fn.chain_dp(fn.DistColumns(fd.values[..., None]), p1).max(axis=0) ** (1.0 / p1)
    rhs = lq_norm(vr_fd, q1, f.weights) * lq_norm(
        np.ptp(g.values, axis=0), q0, f.weights  # V^inf g, the widest gap
    )
    return {"lhs": lhs, "rhs": rhs, "q": q, "sampled": f.sampled}


def test_ito_bound_data(small_bundle):
    f, g, part = small_bundle
    out = ito_bound_data(f, g, part)
    assert np.isfinite(out["lhs"]) and np.isfinite(out["rhs"])
    const_f = I.GridCadlagPath(np.full_like(f.values, 1.0), f.weights, 1.0, None, True)
    assert ito_bound_data(const_f, g, part)["lhs"] == 0.0
    const_g = I.GridCadlagPath(np.full_like(f.values, 1.0), f.weights, 1.0, None, True)
    assert ito_bound_data(f, const_g, part)["lhs"] == 0.0
    with pytest.raises(ValueError):
        ito_bound_data(f, g, part, r=1.0, p1=3.0)
