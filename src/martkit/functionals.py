"""Pathwise functionals of adapted processes.

The kernels act on a path matrix of shape (depth+1, n_paths[, K]), one
column per root-to-leaf path, and are shared with the grid-time layers,
which feed sampled path bundles through the same code.  Running maxima and
running sums along time go through ``accumulate_rows``, which scans the
matrix one contiguous row at a time.  The three
tree-level wrappers ``maximal``, ``square_function`` and
``predictable_square`` have no caller in the package; they stay because
``benchmarks/tracing.py`` wraps them by name.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import report
from .tree import FiltrationTree, Martingale, TreeProcess


# -- maximal and square functions ----------------------------------------


def accumulate_rows(ufunc: np.ufunc, arr: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``ufunc.accumulate(arr, axis=0)``, one row at a time: out[0] = arr[0]
    and out[k] = ufunc(out[k-1], arr[k]), the same operations in the same
    order, so every float is equal.  ``out`` may be ``arr`` itself.

    numpy scans axis 0 one column at a time, stepping a whole row's stride per
    element; on a tree path matrix (at most MAX_DEPTH + 1 rows of up to
    millions of paths) the N contiguous row calls here are several times
    faster.  Tall, narrow grid bundles (hundreds of time steps over tens of
    paths) are the opposite case: there the overhead of one call per row
    exceeds the strided scan (150-200 against 40 us at 128 x 64), so the time
    cumsums of the ito and rough layers and
    ``ito.AdaptedGridPartition.floor_indices`` keep ``ufunc.accumulate``.
    """
    if out is None:
        out = np.empty_like(arr)
    out[:1] = arr[:1]
    for k in range(1, arr.shape[0]):
        ufunc(out[k - 1], arr[k], out=out[k])
    return out


def maximal_paths(pathmat: np.ndarray) -> np.ndarray:
    """Running maximum of |f_k|, k <= n, along each path."""
    out = np.abs(pathmat)
    return accumulate_rows(np.maximum, out, out=out)


def maximal(f: TreeProcess) -> TreeProcess:
    return TreeProcess.from_paths(f.tree, maximal_paths(f.paths()), validate=False)


def increments(pathmat: np.ndarray) -> np.ndarray:
    """df_k = f_k - f_{k-1} for k = 1..N (no k = 0 term)."""
    return np.diff(pathmat, axis=0)


def square_function_paths(pathmat: np.ndarray) -> np.ndarray:
    """Sf_n = (sum_{k<=n} |df_k|^2)^(1/2) with increments counted from k = 1."""
    out = np.empty_like(pathmat)
    out[0] = 0.0
    df2 = np.subtract(pathmat[1:], pathmat[:-1], out=out[1:])  # increments, in place
    np.square(df2, out=df2)
    np.sqrt(accumulate_rows(np.add, df2, out=df2), out=df2)
    return out


def square_function(f: Martingale) -> TreeProcess:
    return TreeProcess.from_paths(f.tree, square_function_paths(f.paths()), validate=False)


def predictable_square_paths(f: Martingale) -> np.ndarray:
    """sf_n = (sum_{k=1}^n E_{k-1}|df_k|^2)^(1/2) as a path matrix."""
    tree = f.tree
    pm = f.paths()
    out = np.zeros_like(pm)
    acc = np.zeros(tree.n_leaves)
    for k in range(1, tree.depth + 1):
        df2 = (pm[k] - pm[k - 1]) ** 2
        acc = acc + tree.atom_average_leaves(k - 1, df2)
        out[k] = np.sqrt(acc)
    return out


def predictable_square(f: Martingale) -> TreeProcess:
    return TreeProcess.from_paths(f.tree, predictable_square_paths(f), validate=False)


# -- Davis decomposition ---------------------------------------------------


def component_norm(arr: np.ndarray, r: float) -> np.ndarray:
    """l^r norm across the trailing (component) axis; r = inf takes the max."""
    if np.isinf(r):
        return np.abs(arr).max(axis=-1)
    return (np.abs(arr) ** r).sum(axis=-1) ** (1.0 / r)


def davis_decompose(f: Martingale, norm_exponent: float = 2.0) -> tuple[np.ndarray, np.ndarray]:
    """Split a martingale against the running maximum of its jump sizes.

    Returns the path matrices (f_pred, f_bv) of f = f_pred + f_bv: a
    martingale with predictably bounded jumps and one of integrable total
    variation, each shaped like ``f.paths()``.  Jump sizes are |df_n| for
    scalar processes and the l^p norm across components (``norm_exponent``)
    for vector processes.  Conventions: M df_0 = 0 (the first increment goes
    entirely to the bounded-variation part) and the 0/0 scaling factor at
    df_n = 0 is taken to be 0.  Row n of each part is built from level-n
    measurable values and level-(n-1) atom averages, so it is constant on the
    level-n atoms.
    """
    tree = f.tree
    pm = f.paths()
    df = increments(pm)
    size = np.abs(df) if df.ndim == 2 else component_norm(df, norm_exponent)  # (N, L)
    mdf_prev = np.zeros(tree.n_leaves)  # M df_{n-1}, starting from M df_0 = 0

    pred = np.zeros_like(pm)
    bv = np.zeros_like(pm)
    bv[0] = pm[0]
    for n in range(1, tree.depth + 1):
        dfn = df[n - 1]
        sz = size[n - 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            factor = np.where(sz > 0, np.minimum(1.0, mdf_prev / np.where(sz > 0, sz, 1.0)), 0.0)
        dg = (factor if dfn.ndim == 1 else factor[:, None]) * dfn
        dh = dfn - dg
        pred[n] = pred[n - 1] + dg - tree.atom_average_leaves(n - 1, dg)
        bv[n] = bv[n - 1] + dh - tree.atom_average_leaves(n - 1, dh)
        mdf_prev = np.maximum(mdf_prev, sz)
    return pred, bv


# -- r-variation -----------------------------------------------------------


@dataclass
class VariationResult:
    value: float
    witness: list[int] = field(default_factory=list)
    r: float = 2.0

    def recompute(self, values: np.ndarray) -> float:
        """Re-evaluate the witness chain; reproduces value**r for finite r."""
        values = np.asarray(values, dtype=np.float64)
        w = self.witness
        if len(w) < 2:
            return 0.0
        d = [_dist(values[w[i]], values[w[i + 1]]) for i in range(len(w) - 1)]
        if np.isinf(self.r):
            return float(max(d))
        return float(sum(x**self.r for x in d))


def _dist(a, b) -> float:
    d = np.atleast_1d(np.asarray(a) - np.asarray(b))
    return float(np.sqrt((d * d).sum()))


class DistColumns:
    """pairs[i, j] = |f_i - f_j| of a sequence (Euclidean across the trailing
    axis for vector values), made one column at a time, so chain_dp never
    holds the (n, n) distance matrix."""

    def __init__(self, values: np.ndarray):
        self.values = values
        self.shape = (values.shape[0],) * 2

    def __getitem__(self, key) -> np.ndarray:
        rows, j = key
        diff = self.values[rows] - self.values[j]
        if diff.ndim == 1:
            return np.abs(diff, out=diff)
        diff *= diff
        dist = np.add.reduce(diff, axis=-1)
        return np.sqrt(dist, out=dist)


def _step_costs(pairs: np.ndarray, j: int, r: float) -> np.ndarray:
    """|pairs[i, j]|^r for i < j, as a fresh contiguous array."""
    cost = np.abs(pairs[:j, j])
    cost **= r
    return cost


def chain_dp(pairs: np.ndarray, r: float) -> np.ndarray:
    """Best totals of sum |pairs[u_{k-1}, u_k]|^r over increasing chains.

    ``pairs`` has shape (n, n, ...), as an array or as any object whose
    ``pairs[:j, j]`` makes column j; only its strict upper triangle is read,
    one column at a time, and trailing axes are independent problems.
    Returns ``best`` of shape (n, ...) with best[j] the largest total over
    chains ending at j (0 for the one-point chain), so the r-variation is
    best.max(axis=0) ** (1 / r).
    """
    n = pairs.shape[0]
    best = np.zeros((n,) + pairs.shape[2:])
    for j in range(1, n):
        cand = _step_costs(pairs, j, r)
        cand += best[:j]
        best[j] = np.maximum.reduce(cand)
    return best


def chain_dp_table(pairs: np.ndarray, r: float) -> np.ndarray:
    """chain_dp from every start point at once.

    ``pairs`` is read as by chain_dp, with no trailing axes.  Returns
    ``table`` of shape (n, n) with table[s, j] the largest total over
    chains inside [s, j] that end at j; row s restricted to [s, n) is
    chain_dp of ``pairs`` restricted to [s, n), float for float, because
    column j adds the same |pairs[i, j]|^r + best candidates for every start
    s <= i.  Entries below the diagonal are unused.
    """
    n = pairs.shape[0]
    table = np.zeros((n, n))
    inside = np.triu(np.ones((n, n), dtype=bool))  # inside[s, i]: s <= i
    for j in range(1, n):
        cand = table[:j, :j] + _step_costs(pairs, j, r)
        np.maximum.reduce(cand, axis=1, where=inside[:j, :j], initial=-np.inf, out=table[:j, j])
    return table


def variation(values: np.ndarray, r: float) -> VariationResult:
    """Exact r-variation of a finite sequence via dynamic programming.

    ``r = inf`` returns the maximal oscillation with its witness pair.
    """
    if not r > 0:
        raise ValueError("variation exponent must be positive")
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[0]
    if n <= 1:
        return VariationResult(0.0, list(range(n)), r)
    dist = DistColumns(values)
    if np.isinf(r):
        # the widest pair first in row-major order, smallest i then smallest j
        top, pair = -1.0, [0, 1]
        for j in range(1, n):
            col = dist[:j, j]
            i = int(np.argmax(col))
            if col[i] > top or (col[i] == top and i < pair[0]):
                top, pair = float(col[i]), [i, j]
        return VariationResult(top, pair, r)
    best = chain_dp(dist, r)
    # backtrack: the first maximizing predecessor, as the forward pass found it
    chain = [int(np.argmax(best))]
    while best[chain[-1]] > 0.0:
        j = chain[-1]
        chain.append(int(np.argmax(best[:j] + _step_costs(dist, j, r))))
    return VariationResult(float(best[chain[0]]) ** (1.0 / r), chain[::-1], r)


class _PathGaps:
    """pairs[i, j] = pm[j] - pm[i] of a (N+1, L) path matrix, made one column
    at a time, so chain_dp never holds the (N+1, N+1, L) difference tensor."""

    def __init__(self, pm: np.ndarray):
        self.pm = pm
        self.shape = pm.shape[:1] + pm.shape

    def __getitem__(self, key) -> np.ndarray:
        rows, j = key
        return self.pm[j] - self.pm[rows]


def variation_paths(pathmat: np.ndarray, r: float) -> np.ndarray:
    """Per-path r-variation values for a (N+1, L) path matrix."""
    if not r > 0:
        raise ValueError("variation exponent must be positive")
    pm = np.asarray(pathmat, dtype=np.float64)
    if np.isinf(r):
        # fl(max - min) is the largest rounded gap: rounding is monotone
        return running_oscillation(pm)[-1]
    return chain_dp(_PathGaps(pm), r).max(axis=0) ** (1.0 / r)


def two_param_variation_paths(cost: np.ndarray, rho: float) -> np.ndarray:
    """Chain DP over a per-path cost tensor of shape (n, n, L)."""
    if not rho > 0:
        raise ValueError("variation exponent must be positive")
    return chain_dp(np.asarray(cost, dtype=np.float64), rho).max(axis=0) ** (1.0 / rho)


# -- Lepingle stopping times and pathwise domination ------------------------


def running_oscillation(pathmat: np.ndarray) -> np.ndarray:
    """M_t = sup_{t'' <= t' <= t} |f_{t'} - f_{t''}| per path."""
    osc = accumulate_rows(np.maximum, pathmat)
    osc -= accumulate_rows(np.minimum, pathmat)
    return osc


def min_nonzero_pairwise(pathmat: np.ndarray) -> np.ndarray:
    """Smallest nonzero |f_i - f_j| over index pairs, per path (inf if none).

    Sorted neighbours suffice: rounding is monotone, so fl(c - a) >= fl(b - a)
    for a <= b <= c, and under gradual underflow x - y = 0 only when x = y.
    """
    gaps = np.diff(np.sort(pathmat, axis=0), axis=0)
    gaps[gaps == 0] = np.inf
    return gaps.min(axis=0, initial=np.inf)


def lepingle_pathwise_bound(pathmat: np.ndarray, rs: tuple[float, ...]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per exponent r in ``rs``: the per-path r-variation V^r(f) and the
    square-scale bound rhs = 64 * sum_m 2^{-(m-2)(r-2)} S_(m)^2 on V^r(f)^2.

    S_(m)^2 sums the squared sampled jumps of the scale-m greedy partition,
    whose anchor moves to f_t once |f_t - anchor| >= 2^-m M_t (M the running
    oscillation).  The m-sum stops at m_star, the last scale where 2^-m M_inf
    is at least a quarter of the smallest nonzero pathwise jump.  Past m_star
    every nonzero increment triggers, so S_(m)^2 is the full sum of squared
    increments; those dropped terms are nonnegative, so the truncation only
    strengthens the asserted inequality.  One sweep over t evaluates blocks
    of at most N+1 scales, so the working set stays a fixed multiple of the
    path matrix, and each S_(m)^2 serves every exponent.
    """
    if not all(r > 2 for r in rs):
        raise ValueError("pathwise domination needs r > 2")
    pm = np.asarray(pathmat, dtype=np.float64)
    if pm.ndim == 1:
        pm = pm[:, None]
    n = pm.shape[0]
    osc = running_oscillation(pm)
    m_inf = osc[-1]
    d_min = min_nonzero_pairwise(pm)
    with np.errstate(divide="ignore", invalid="ignore"):
        m_star = np.where(m_inf > 0, np.floor(np.log2(4.0 * m_inf / d_min)), 1.0)
    m_star = np.where(np.isfinite(m_star), np.maximum(m_star, 2), 2).astype(np.int64)
    out = [(variation_paths(pm, r), np.zeros(pm.shape[1])) for r in rs]
    m_max = int(m_star.max(initial=2))
    for lo in range(2, m_max + 1, n):
        ms = np.arange(lo, min(lo + n, m_max + 1))
        thr = np.ldexp(1.0, -ms)[:, None]
        active = (ms[:, None] <= m_star) & (m_inf > 0)
        anchor = np.repeat(pm[:1], len(ms), axis=0)
        s2 = np.zeros(anchor.shape)
        for t in range(1, n):
            jump = pm[t] - anchor
            trig = active & (osc[t] > 0) & (np.abs(jump) >= thr * osc[t])
            np.add(s2, np.square(jump), out=s2, where=trig)
            np.copyto(anchor, pm[t], where=trig)
        for r, (_, rhs) in zip(rs, out):
            for m, s2_m in zip(ms.tolist(), s2):
                rhs += 2.0 ** (-(m - 2) * (r - 2)) * s2_m
    for _, rhs in out:
        rhs *= 64.0
    return out


# -- paraproducts -----------------------------------------------------------


def paraproduct_pairs(F: np.ndarray, g_pm: np.ndarray) -> np.ndarray:
    """Pi(F, g)_{s,t} = sum_{s<j<=t} F_{s,j-1} dg_j for all index pairs.

    F has shape (n, n, L) with F[s, j] the F_j-measurable row value; the
    result has the same shape with zeros on and below the diagonal.
    """
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
    """Pi(delta f, g)_{s,t} for all pairs, via the incremental recursion
    Pi_{s,t+1} = Pi_{s,t} + (f_t - f_s) dg_{t+1}."""
    n, L = g_pm.shape
    dg = np.diff(g_pm, axis=0)
    out = np.zeros((n, n, L))
    for s in range(n):
        acc = np.zeros(L)
        for t in range(s + 1, n):
            acc = acc + (f_pm[t - 1] - f_pm[s]) * dg[t - 1]
            out[s, t] = acc
    return out


# -- weighted maximal data ---------------------------------------------------


def weighted_maximal_data(
    f_sub: np.ndarray, w_leaf: np.ndarray, tree: FiltrationTree
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weighted weak-type data for a nonnegative submartingale path matrix.

    Returns (lambdas, lhs, rhs) where at each breakpoint v of Mf_N (scanned
    via the closed sets {Mf_N >= v}) lhs = v * w{Mf_N >= v} and
    rhs = int_{Mf_N >= v} f_N Mw_N dmu, with w_k = E_k w and Mw its running
    maximum.
    """
    w_leaf = np.asarray(w_leaf, dtype=np.float64)
    if np.any(w_leaf <= 0):
        raise ValueError("weight must be positive")
    w_mart = Martingale.from_leaf_values(tree, w_leaf)
    mw = maximal_paths(w_mart.paths())[-1]
    mf = maximal_paths(f_sub)[-1]
    lams, w_mass, mix_mass = report.closed_tail_scan(mf, tree.leaf_prob * w_leaf, tree.leaf_prob * f_sub[-1] * mw)
    return lams, lams * w_mass, mix_mass
