"""The earlier bodies of the pair sums, kept as exact oracles.

Each computes its sum in time order, as the package does, but by a
different route: the Ito sums mask out the steps whose last partition point
a(u) is not beyond t instead of reading the discretized path, the
covariation loops over grid steps, and the paraproducts add one term at a
time.  Tests compare the package with these float for float (``-0.0`` and
``0.0`` count as equal), so a change of summation order shows on inputs
whose sums round.
"""

import numpy as np


def ito_sum_from(f, g, partition, t: int) -> np.ndarray:
    """Pi^pi(f, g)_{t, t'} for all t', with the steps a(u) <= t masked out."""
    vals_f, vals_g = f.values, g.values
    n1, p = vals_f.shape
    floors = partition.floor_indices()
    f_floor_t = vals_f[floors[t], np.arange(p)]
    out = np.zeros((n1, p))
    if t >= n1 - 1:
        return out
    a = floors[t:-1]  # a(u) for u = t..N-1
    f_a = np.take_along_axis(vals_f, a, axis=0)
    dg = vals_g[t + 1 :] - vals_g[t:-1]
    contrib = (f_a - f_floor_t[None, :]) * dg * (a > t)
    out[t + 1 :] = np.cumsum(contrib, axis=0)
    return out


def ito_pairs(f, g, partition) -> np.ndarray:
    """Pi^pi(f, g) on all grid index pairs, one masked cumsum per row."""
    vals_f, vals_g = f.values, g.values
    n1 = vals_f.shape[0]
    floors = partition.floor_indices()
    f_floor = np.take_along_axis(vals_f, floors, axis=0)
    a = floors[:-1]  # a(u) for u = 0..N-1
    f_a = np.take_along_axis(vals_f, a, axis=0)
    dg = vals_g[1:] - vals_g[:-1]
    out = np.zeros((n1, n1, vals_f.shape[1]))
    for t in range(n1 - 1):
        contrib = (f_a[t:] - f_floor[t][None, :]) * dg[t:] * (a[t:] > t)
        np.cumsum(contrib, axis=0, out=out[t, t + 1 :])
    return out


def covariation_sum(f, g, partition, t: int, t2: int) -> np.ndarray:
    """[f, g]^pi_{t, t2}, block by block over the grid steps that close one."""
    floors = partition.floor_indices()
    cols_lo = floors[t]
    cols_hi = floors[t2]
    n1, p = f.values.shape
    acc = np.zeros(p)
    for v in range(1, n1):
        closing = partition.mask[v]
        if not closing.any():
            continue
        prev = floors[v - 1]
        sel = closing & (prev >= cols_lo) & (prev < cols_hi) & (v <= cols_hi)
        if not sel.any():
            continue
        cols = np.nonzero(sel)[0]
        pj = prev[cols]
        acc[cols] += (f.values[v, cols] - f.values[pj, cols]) * (g.values[v, cols] - g.values[pj, cols])
    return acc


def paraproduct_pairs(F: np.ndarray, g_pm: np.ndarray) -> np.ndarray:
    """Pi(F, g)_{s,t} = sum_{s<j<=t} F_{s,j-1} dg_j, one term at a time."""
    n, L = g_pm.shape
    dg = np.diff(g_pm, axis=0)
    out = np.zeros((n, n, L))
    for s in range(n):
        acc = np.zeros(L)
        for t in range(s + 1, n):
            acc = acc + F[s, t - 1] * dg[t - 1]
            out[s, t] = acc
    return out


def paraproduct_deltaf_pairs(f_pm: np.ndarray, g_pm: np.ndarray) -> np.ndarray:
    """Pi(delta f, g)_{s,t}, by Pi_{s,t+1} = Pi_{s,t} + (f_t - f_s) dg_{t+1}."""
    n, L = g_pm.shape
    dg = np.diff(g_pm, axis=0)
    out = np.zeros((n, n, L))
    for s in range(n):
        acc = np.zeros(L)
        for t in range(s + 1, n):
            acc = acc + (f_pm[t - 1] - f_pm[s]) * dg[t - 1]
            out[s, t] = acc
    return out


def refine_converge(f, g, base, levels: int = 4, r: float = 2.5, p_tilde: float = 3.0):
    """(pi_distances, discretization_errors) of ``ito.refine_converge`` from
    whole (N+1, N+1, P) ``ito_pairs`` tensors, one level at a time: the
    difference of successive tensors and each error path's gaps go to the
    column-loop chain DP of ``chain_dp_oracles``, which raises every cost,
    zeros included, with plain ``**``.  The full-grid level's error is run
    through the DP like the others."""
    import chain_dp_oracles as dp
    from martkit import ito

    def variation(pairs, exponent: float) -> np.ndarray:
        return dp.chain_dp(pairs, exponent).max(axis=0) ** (1.0 / exponent)

    n = f.n_steps
    start_power = max(0, int(round(np.log2(n))) - levels)
    parts = [base.union_grid(max(1, n >> (start_power + level))) for level in range(levels + 1)]
    distances = []
    prev = ito.ito_pairs(f, g, parts[0])
    for p in parts[1:]:
        cur = ito.ito_pairs(f, g, p)
        prev -= cur
        distances.append(f.expectation(variation(prev, r)))
        prev = cur
    disc = [f.expectation(variation(dp.PathGaps(f.values - ito.discretize(f, p).values), p_tilde)) for p in parts]
    return distances, disc


def chen_residual(f, g, partition, max_points: int = 24) -> float:
    """``ito.chen_residual`` read from the whole ``ito_pairs`` tensor."""
    from martkit import ito

    n1 = f.values.shape[0]
    pts = np.unique(np.linspace(0, n1 - 1, min(max_points, n1)).astype(int))
    fd = ito.discretize(f, partition).values
    pairs = ito.ito_pairs(f, g, partition)
    worst = 0.0
    for t in pts:
        for t1 in pts[pts >= t]:
            for t2 in pts[pts >= t1]:
                resid = pairs[t, t2] - pairs[t, t1] - pairs[t1, t2] - (fd[t1] - fd[t]) * (g.values[t2] - g.values[t1])
                worst = max(worst, float(np.abs(resid).max()))
    return worst
