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
