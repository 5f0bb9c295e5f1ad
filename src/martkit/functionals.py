"""Pathwise functionals of adapted processes.

The adapted functionals f*_n, df_n and Sf_n are F_n-measurable, so on a
filtration tree each is one value per level-n node: ``maximal_paths``,
``increments`` and ``square_function_paths`` take a flat node array and its
``NodeLayout`` and return one value per node, and the Davis decomposition
runs on the same arrays.  ``variation_paths`` takes a layout too, or a
(depth+1, n_paths) path matrix, the form of the grid bundles of the ito
layer; ``running_oscillation`` and ``lepingle_pathwise_bound`` take a
layout always, so Lepingle's chain DPs and greedy partitions see each node
once, not once per leaf below it.  Running maxima and sums go through
``NodeLayout.accumulate``, one parent-to-child step per level, and each
path sees ``ufunc.accumulate`` of its own values, the same floats as a
time scan of the path matrix.  Ratios whose denominator may vanish go
through ``quotient``, which takes 0/0 to be 0.  No check or CLI command
calls the tree-level wrappers ``maximal``, ``square_function`` and
``predictable_square``; they stay because ``benchmarks/tracing.py`` wraps
them by name.

``paraproduct_deltaf_row`` is the one pair-sum kernel: row s of the discrete
paraproduct Pi(delta f, g)_{s,t} = sum_{s<j<=t} (f_{j-1} - f_s) dg_j, one
cumsum along time; ``paraproduct_deltaf_pairs`` stacks its rows into the
(n, n, L) tensor, which only ``ito.ito_pairs`` reads.  The Ito sum
along an adapted partition pi is the same sum on the discretized path,
Pi^pi(f, g) = Pi(delta f^(pi), g) with f^(pi)_u = f_{a(u)} frozen at the last
partition point a(u) <= u: a step with a(u) <= t has a(u) = floor(t), so its
term is (f_{floor(t)} - f_{floor(t)}) dg_u = 0 (see ``ito``).
``ParaproductGaps`` adds the same terms in the same order, one column at a
time for every start row, and hands chain_dp the gaps between the sums of
successive paths, so the r-variation distance between two pair-sum tensors
is taken without holding either.

``chain_dp`` is the one r-variation kernel, for 0 < r < inf.  A sequence
reaches it through one of two sources: ``PathGaps`` for scalar values and
the per-path gaps of a path matrix, ``DistColumns`` for the Euclidean
distances of a vector sequence or a stack of them.  It reads |pairs[i, j]|^r
for a block of w columns, w = max(1, CHAIN_BLOCK_ELEMENTS // (n * trailing
size * d)), d the Euclidean axis of ``DistColumns`` or 1, so a short
sequence costs a few numpy calls per block and two per column, and a long or
wide one reads blocks of one column.  |.| is taken once, and r = 1 skips the
power (x**1 == x).  When a certificate shows that every magnitude is an
exact multiple k 2^s of one power of two with k at most the width of the
widest cost column (``_power_table``: ``PathGaps`` and ``ParaproductGaps``
of dyadic values, such as +-1/sqrt(N) walks with N a power of 4), each k is
raised once into a table and every cost is read from it, the float the power
gives on that magnitude; otherwise every cost is raised by numpy's power.
For r = 1 on dyadic ``PathGaps`` with total variation below 2^53 units,
every chain sum is exact and the longest chain is the best, so
``_exact_total_variation`` returns the prefix sums of |increments|, the DP's
own floats, in O(n) instead of O(n^2); other values run the DP.
``variation`` returns the float best.max() ** (1/r).
"""

from __future__ import annotations

import math

import numpy as np

from . import report
from .tree import FiltrationTree, Martingale, NodeLayout, TreeProcess


def quotient(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den for float arrays of one shape where den > 0, and 0 elsewhere,
    without warnings: the 0/0 convention of the tree functionals, dividing
    straight into the result."""
    return np.divide(num, den, out=np.zeros_like(num), where=den > 0)


# -- maximal and square functions ----------------------------------------


def maximal_paths(values: np.ndarray, layout: NodeLayout) -> np.ndarray:
    """Running maximum of |f_k|, k <= n, per node of a flat node array on
    ``layout``."""
    return layout.accumulate(np.maximum, np.abs(values))


def maximal(f: TreeProcess) -> TreeProcess:
    return TreeProcess.from_flat(f.tree, maximal_paths(f.flat, f.tree.layout))


def increments(values: np.ndarray, layout: NodeLayout) -> np.ndarray:
    """df_n = f_n - f_{n-1} per node of a flat node array on ``layout``, 0 at
    level 0."""
    df = values - values[layout.up]
    df[: layout.offsets[1]] = 0.0
    return df


def square_function_paths(values: np.ndarray, layout: NodeLayout) -> np.ndarray:
    """Sf_n = (sum_{k<=n} |df_k|^2)^(1/2), increments counted from k = 1,
    per node of a flat node array on ``layout``."""
    s2 = increments(values, layout)
    np.square(s2, out=s2)
    layout.accumulate(np.add, s2, start=2)
    return np.sqrt(s2, out=s2)


def square_function(f: Martingale) -> TreeProcess:
    return TreeProcess.from_flat(f.tree, square_function_paths(f.flat, f.tree.layout))


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
    return TreeProcess.from_paths(f.tree, predictable_square_paths(f))


# -- Davis decomposition ---------------------------------------------------


def component_norm(arr: np.ndarray, r: float) -> np.ndarray:
    """l^r norm across the trailing (component) axis, for 0 < r < inf."""
    if not 0 < r < math.inf:
        raise ValueError(f"norm exponent must be positive and finite, got {r}")
    return (np.abs(arr) ** r).sum(axis=-1) ** (1.0 / r)


def davis_decompose(f: Martingale, norm_exponent: float = 2.0) -> tuple[TreeProcess, TreeProcess]:
    """Split a martingale against the running maximum of its jump sizes.

    Returns the processes (f_pred, f_bv) of f = f_pred + f_bv: a martingale
    with predictably bounded jumps and one of integrable total variation.
    Jump sizes are |df_n| for scalar processes and the l^p norm across
    components (``norm_exponent``) for vector processes.  Conventions:
    M df_0 = 0 (the first increment goes entirely to the bounded-variation
    part) and the 0/0 scaling factor at df_n = 0 is taken to be 0.

    Every step is F_n-measurable, so it runs on node arrays; only the
    level-(n-1) atom averages of the two level-n steps are summed over the
    leaves, in leaf order, by one ``atom_average`` call per level.
    """
    tree = f.tree
    layout = tree.layout
    df = increments(f.flat, layout)
    size = np.abs(df) if df.ndim == 1 else component_norm(df, norm_exponent)
    mdf_prev = layout.accumulate(np.maximum, size.copy())[layout.up]  # M df_{n-1}, from M df_0 = 0
    factor = np.minimum(1.0, quotient(mdf_prev, size))
    dg = (factor if df.ndim == 1 else factor[:, None]) * df
    steps = np.stack((dg, df - dg), axis=1)  # (dg, dh) per node
    parts = np.empty_like(steps)  # (f_pred, f_bv) per node
    parts[0, 0] = 0.0
    parts[0, 1] = f.flat[0]
    levels, step_levels = layout.levels(parts), layout.levels(steps)
    for n in range(1, tree.depth + 1):
        step = step_levels[n]
        avg = tree.atom_average(n - 1, tree.to_leaves(n, step).reshape(tree.n_leaves, -1))
        par = tree.parents[n]
        np.add(levels[n - 1][par], step, out=levels[n])
        np.subtract(levels[n], avg.reshape((-1,) + step.shape[1:])[par], out=levels[n])
    return TreeProcess.from_flat(tree, parts[:, 0]), TreeProcess.from_flat(tree, parts[:, 1])


# -- r-variation -----------------------------------------------------------

# Element budget of one chain-DP cost block: chain_dp reads the columns [j0,
# j0 + w) of pairs together, with w = max(1, CHAIN_BLOCK_ELEMENTS // (n *
# trailing size * d)); a one-column block holds the (n - 1) * trailing size
# costs of its column.  A block also makes the unread costs below the
# diagonal, about w / 2 rows per column.  On a 2-core x86 host with AVX-512
# (numpy 2.4), blocks of 4096 elements ran scalar sequences of 17 to 2,048
# points 1.4 to 3 times faster than columns and no measured shape slower; at
# 8192, path gaps of 3 to 9 points by 400 to 1,024 paths ran 5 to 31% slower.
CHAIN_BLOCK_ELEMENTS = 4096


def _split(arr: np.ndarray, cols: slice) -> tuple[np.ndarray, np.ndarray]:
    """(rows, at) = (arr[:j1 - 1], arr[j0:j1, None]) for a slice j0:j1 of
    columns: ``at`` broadcasts against ``rows`` into the block's (j1 - j0,
    j1 - 1, ...) layout."""
    return arr[: cols.stop - 1], arr[cols, None]


class DistColumns:
    """pairs[i, j] = |f_i - f_j| of an (n, d) vector sequence, or pairs[i, j,
    b] of the B sequences stacked in (n, B, d) values, Euclidean across d and
    made a block of columns at a time, so chain_dp never holds a distance
    matrix.  Scalar sequences take ``PathGaps``."""

    def __init__(self, values: np.ndarray):
        self.values = values
        self.shape = (values.shape[0],) * 2 + values.shape[1:-1]

    def magnitudes(self, cols: slice, out: np.ndarray) -> np.ndarray:
        """|pairs[i, j]| into ``out`` in the layout of ``_split``."""
        rows, at = _split(self.values, cols)
        diff = rows - at
        diff *= diff
        np.add.reduce(diff.reshape(-1, diff.shape[-1]), axis=-1, out=out.reshape(-1))
        return np.sqrt(out, out=out)


class PathGaps:
    """pairs[i, j] = pm[j] - pm[i] of an (N+1, ...) path matrix, or of an
    (n,) scalar sequence, whose |pairs[i, j]| = |x_i - x_j|, made a block of
    columns at a time, so chain_dp never holds the (N+1, N+1, ...) difference
    tensor."""

    def __init__(self, pm: np.ndarray):
        self.pm = pm
        self.shape = pm.shape[:1] + pm.shape

    def magnitudes(self, cols: slice, out: np.ndarray) -> np.ndarray:
        """|pairs[i, j]| into ``out`` in the layout of ``_split``."""
        rows, at = _split(self.pm, cols)
        np.subtract(at, rows, out=out)
        return np.abs(out, out=out)


def _costs(pairs, cols: slice, r: float, out: np.ndarray, table=None, index=None) -> np.ndarray:
    """|pairs[i, j]|**r into ``out``: out[j - j0, i] for i < j1 - 1 of a
    slice j0:j1 of columns, so each column's costs are one contiguous row.
    A block also makes the entries with i >= j, which are never read.
    x**1 == x exactly, so r = 1 skips the power.

    With a ``table`` = (2^-s, powers) from ``_power_table``, every magnitude
    is k 2^s exactly with 0 <= k < powers.size, so k = |pairs[i, j]| 2^-s is
    an exact product, cast into the reused intp buffer ``index``, and the
    cost is powers[k] = (k 2^s)**r, the float the power gives on this
    magnitude.  Without one, numpy's power raises every cost."""
    if isinstance(pairs, np.ndarray):
        np.abs(pairs[: cols.stop - 1, cols].swapaxes(0, 1), out=out)
    else:
        pairs.magnitudes(cols, out)
    if r == 1:
        return out
    if table is not None:
        inverse_unit, powers = table
        k = index[: out.size].reshape(out.shape)
        np.multiply(out, inverse_unit, out=k, casting="unsafe")
        return np.take(powers, k, out=out, mode="clip")
    out **= r
    return out


def _cost_columns(pairs, r: float):
    """Yield (j, costs) for j = 1..n-1 with costs[i] = |pairs[i, j]|**r,
    i < j, a contiguous view into one reused buffer that a later column
    overwrites.  The columns come in blocks of w = max(1, CHAIN_BLOCK_ELEMENTS
    // (n * trailing size * d)).  For r != 1 the costs are read from
    ``_power_table`` when it certifies the magnitudes."""
    n, trail = pairs.shape[0], pairs.shape[2:]
    size = math.prod(trail)
    d = pairs.values.shape[-1] if isinstance(pairs, DistColumns) else 1
    width = max(1, CHAIN_BLOCK_ELEMENTS // max(n * size * d, 1))
    m = max(n - 1, 0)
    table = None if r == 1 else _power_table(pairs, r)
    buf = np.empty(min(width, m) * m * size)
    index = np.empty(buf.size if table else 0, dtype=np.intp)
    for j0 in range(1, n, width):
        j1 = min(j0 + width, n)
        block = buf[: (j1 - j0) * (j1 - 1) * size].reshape((j1 - j0, j1 - 1) + trail)
        _costs(pairs, slice(j0, j1), r, block, table, index)
        for k in range(j1 - j0):
            yield j0 + k, block[k, : j0 + k]


def step_cost(values: np.ndarray, r: float) -> float:
    """|values[-1] - values[0]|**r, Euclidean across a trailing axis: the cost
    of the one-step chain, made by chain_dp's own ops on ``PathGaps`` or
    ``DistColumns``.  The DP over any sequence with these end points holds
    this candidate in its last column, so its float maximum is at least this
    float."""
    ends = np.asarray(values, dtype=np.float64)[[0, -1]]
    return float(_costs(PathGaps(ends) if ends.ndim == 1 else DistColumns(ends), slice(1, 2), r, np.empty((1, 1)))[0, 0])


def _dyadic_units(x: np.ndarray) -> tuple[int, np.ndarray] | None:
    """(s, k) with x == k * 2^s exactly, k the float64 integers of x in units
    of 2^s, |k| < 2^53 and not all even unless all are 0; None when x is not
    finite float64 or its values do not fit one such unit.

    With e the binary exponent of max |x| (``math.frexp``) and E = 52 - e,
    every x * 2^E must be an integer that scales back to x; 2^t, the lowest
    set bit among these integers, gives s = t - E.  A matrix is first tested
    on its last row against that row's own maximum: a row of a certified
    matrix passes (its E is at least the matrix's), so a row that fails
    declines the matrix before any pass over all of it."""
    if x.dtype != np.float64 or x.size == 0:
        return None
    if x.ndim > 1 and _dyadic_units(x[-1]) is None:
        return None
    top = float(np.abs(x).max())
    if not math.isfinite(top):
        return None
    scale = 52 - math.frexp(top)[1]
    k = np.ldexp(x, scale)
    if not ((np.trunc(k) == k).all() and (np.ldexp(k, -scale) == x).all()):
        return None
    bits = int(np.bitwise_or.reduce(k.astype(np.int64), axis=None))
    low = max((bits & -bits).bit_length() - 1, 0)
    return low - scale, np.ldexp(k, -low)


def _exact_total_variation(pairs) -> np.ndarray | None:
    """The r = 1 chain DP of a ``PathGaps`` as the prefix sums best = [0,
    cumsum |diff x|] of its values x (axis 0), when a certificate shows that
    every float the DP makes is exact; else None.

    The certificate: ``_dyadic_units`` writes every x as an integer multiple
    of one unit u = 2^s, and the last check is best[-1] < 2^53 u.  Then each
    |x_j - x_i| and each chain sum is a multiple of u below 2^53 u (a sum of
    nonnegative terms is at most the total, and a rounded partial sum at or
    past 2^53 u would keep the computed total there), so every DP candidate
    is exact.  Adding a point to a chain never lowers its exact sum
    (triangle inequality), so the DP's maximum over the chains ending at j
    is the full chain's sum, best[j]."""
    units = _dyadic_units(pairs.pm) if isinstance(pairs, PathGaps) else None
    if units is None:
        return None
    x = pairs.pm
    best = np.zeros(x.shape)
    np.cumsum(np.abs(np.diff(x, axis=0)), axis=0, out=best[1:])
    if not np.ldexp(best[-1], -units[0]).max() < 2.0**53:
        return None
    return best


def _power_table(pairs, r: float) -> tuple[float, np.ndarray] | None:
    """(2^-s, powers) with powers[k] = (k 2^s)**r for k = 0..span, when a
    certificate shows that every magnitude |pairs[i, j]| the DP reads is
    exactly k 2^s with 0 <= k <= span; else None.

    - A ``PathGaps`` certifies its values x (``_dyadic_units``): every gap
      is an exact multiple of 2^s, at most the per-path range of x in units.
    - A ``ParaproductGaps`` certifies f_stack in units 2^a and dg in units
      2^b, s = a + b.  Each term (f_{j-1} - f_i) dg_{j-1} is a multiple of
      2^s, at most range_f |dg_{j-1}| in units (range_f the largest range of
      one path of f_stack over time), so every running sum is at most
      range_f sum |dg| and every gap between two paths' sums at most span =
      2 range_f sum |dg|, per trailing index.  With span below 2^53 no term,
      sum or gap rounds.
    - Other sources (Euclidean distances, dense arrays) return None.

    The table is made only when span + 1 <= (n - 1) * trailing size, the
    widest cost column: it holds no more floats than a one-column block of
    ``_cost_columns`` and raises at most 2/n of the DP's costs.  It also
    needs 2^-s and span 2^s finite.  The powers are made by
    the same in-place ``**`` as ``_costs`` on one contiguous array."""
    if isinstance(pairs, ParaproductGaps):
        f, g = _dyadic_units(pairs.f), _dyadic_units(pairs.dg)
        if f is None or g is None:
            return None
        f_range = np.ptp(f[1], axis=0).max(axis=0)
        if math.frexp(f_range.max())[1] + f[0] > 1024:  # f_{j-1} - f_i overflows
            return None
        s = f[0] + g[0]
        span = 2.0 * (f_range * np.abs(g[1]).sum(axis=0)).max()
    elif isinstance(pairs, PathGaps) and (units := _dyadic_units(pairs.pm)) is not None:
        s, span = units[0], np.ptp(units[1], axis=0).max()
    else:
        return None
    if not (span + 1 <= (pairs.shape[0] - 1) * math.prod(pairs.shape[2:]) and s > -1024 and math.frexp(span)[1] + s <= 1024):
        return None
    powers = np.ldexp(np.arange(int(span) + 1, dtype=np.float64), s)
    powers **= r
    return float(np.ldexp(1.0, -s)), powers


def chain_dp(pairs: np.ndarray, r: float) -> np.ndarray:
    """Best totals of sum |pairs[u_{k-1}, u_k]|^r over increasing chains.

    ``pairs`` has shape (n, n, ...), as an array, a ``PathGaps``, a
    ``DistColumns`` or a ``ParaproductGaps``; only its strict upper triangle is
    read, a block of columns at a time and in column order
    (``_cost_columns``), and trailing axes are independent problems.
    Returns ``best`` of shape (n, ...) with best[j] the largest total over
    chains ending at j (0 for the one-point chain), so the r-variation is
    best.max(axis=0) ** (1 / r).  Every candidate is |pairs[i, j]|^r +
    best[i] and a max is exact in any order, so the block width does not
    change a float.  For r = 1 on scalar values whose chain sums are
    certified exact, the O(n) prefix sum of ``_exact_total_variation``
    replaces the O(n^2) DP with the same floats.  For r != 1 on certified
    dyadic magnitudes the costs come from one table of powers
    (``_power_table``), made once per call: at most (n - 1) * trailing size
    powers against the DP's n (n - 1) / 2 per trailing index.
    """
    if r == 1:
        best = _exact_total_variation(pairs)
        if best is not None:
            return best
    best = np.zeros(pairs.shape[:1] + pairs.shape[2:])
    for j, cand in _cost_columns(pairs, r):
        cand += best[:j]
        best[j] = np.maximum.reduce(cand)
    return best


def check_exponent(r: float) -> None:
    """Raise ValueError unless 0 < r < inf, the exponents of every
    r-variation entry point."""
    if not 0 < r < math.inf:
        raise ValueError("variation exponent must be positive and finite")


def variation(values: np.ndarray, r: float) -> float:
    """Exact r-variation of a finite (n,) or (n, d) sequence via dynamic
    programming."""
    check_exponent(r)
    values = np.asarray(values, dtype=np.float64)
    if values.shape[0] <= 1:
        return 0.0
    dist = PathGaps(values) if values.ndim == 1 else DistColumns(values)
    return float(chain_dp(dist, r).max()) ** (1.0 / r)


def variation_paths(values: np.ndarray, r: float, layout: NodeLayout | None = None) -> np.ndarray:
    """Per-path r-variation values of a (N+1, L) path matrix, or one per leaf
    of a flat node array on ``layout``.

    On a layout, the chain DP runs level by level: a level-n node's best is
    the max over its ancestors a of |f_node - f_a|^r + best[a], made as one
    (n, size_n) block per level through ``NodeLayout.ancestors``.  A leaf's
    best is the best of its path: each candidate adds a cost >= 0 to an
    ancestor's best, and rounding is monotone.  Each (node, ancestor) pair
    sees chain_dp's ops on ``PathGaps`` in its order and a max is exact in
    any order, so every float is the path matrix's."""
    check_exponent(r)
    values = np.asarray(values, dtype=np.float64)
    if layout is None:
        return chain_dp(PathGaps(values), r).max(axis=0) ** (1.0 / r)
    best = np.zeros_like(values)
    f_levels, best_levels = layout.levels(values), layout.levels(best)
    cand_buf, prev_buf = np.empty((2, max(anc.size for anc in layout.ancestors)))
    for n, anc in enumerate(layout.ancestors[1:], 1):
        cand = np.take(values, anc, out=cand_buf[: anc.size].reshape(anc.shape), mode="clip")
        prev = np.take(best, anc, out=prev_buf[: anc.size].reshape(anc.shape), mode="clip")
        np.subtract(f_levels[n], cand, out=cand)
        np.abs(cand, out=cand)
        if r != 1:
            cand **= r
        cand += prev
        np.maximum.reduce(cand, axis=0, out=best_levels[n])
    return layout.leaves(best) ** (1.0 / r)


def two_param_variation_paths(cost: np.ndarray, rho: float) -> np.ndarray:
    """Chain DP over a per-path cost tensor of shape (n, n, L)."""
    check_exponent(rho)
    return chain_dp(np.asarray(cost, dtype=np.float64), rho).max(axis=0) ** (1.0 / rho)


# -- Lepingle stopping times and pathwise domination ------------------------


def running_oscillation(values: np.ndarray, layout: NodeLayout) -> np.ndarray:
    """M_t = sup_{t'' <= t' <= t} |f_{t'} - f_{t''}| per node of a flat node
    array on ``layout``."""
    osc = layout.accumulate(np.maximum, values.copy())
    osc -= layout.accumulate(np.minimum, values.copy())
    return osc


def min_nonzero_pairwise(pathmat: np.ndarray) -> np.ndarray:
    """Smallest nonzero |f_i - f_j| over index pairs, per path (inf if none).

    Sorted neighbours suffice: rounding is monotone, so fl(c - a) >= fl(b - a)
    for a <= b <= c, and under gradual underflow x - y = 0 only when x = y.
    """
    gaps = np.diff(np.sort(pathmat, axis=0), axis=0)
    gaps[gaps == 0] = np.inf
    return gaps.min(axis=0, initial=np.inf)


def lepingle_pathwise_bound(
    values: np.ndarray, rs: tuple[float, ...], layout: NodeLayout, d_min: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per exponent r in ``rs``: the r-variation V^r(f) of each leaf's path
    and the square-scale bound rhs = 64 * sum_m 2^{-(m-2)(r-2)} S_(m)^2 on
    V^r(f)^2, for a flat node array ``values`` on ``layout``; ``d_min`` is
    each path's smallest nonzero jump (``min_nonzero_pairwise`` of the path
    matrix).

    S_(m)^2 sums the squared sampled jumps of the scale-m greedy partition,
    whose anchor moves to f_t once |f_t - anchor| >= 2^-m M_t (M the running
    oscillation).  The m-sum stops at m_star, the last scale where 2^-m M_inf
    is at least a quarter of d_min.  Past m_star every nonzero increment
    triggers, so S_(m)^2 is the full sum of squared increments; those dropped
    terms are nonnegative, so the truncation only strengthens the asserted
    inequality.  Everything up to time t is F_t-measurable, so one sweep down
    the levels carries each scale's anchor and S_(m)^2 from parent to child,
    for blocks of at most N+1 scales; m_star and M_inf > 0 depend on the whole
    path, so a pair outside them is set to 0.0 at the leaves, the sum it
    would have kept.  Each S_(m)^2 serves every exponent.
    """
    if not all(r > 2 for r in rs):
        raise ValueError("pathwise domination needs r > 2")
    values = np.asarray(values, dtype=np.float64)
    osc = running_oscillation(values, layout)
    m_inf = layout.leaves(osc)
    with np.errstate(divide="ignore", invalid="ignore"):
        m_star = np.where(m_inf > 0, np.floor(np.log2(4.0 * m_inf / d_min)), 1.0)
    m_star = np.where(np.isfinite(m_star), np.maximum(m_star, 2), 2).astype(np.int64)
    out = [(variation_paths(values, r, layout), np.zeros(m_inf.size)) for r in rs]
    m_max = int(m_star.max(initial=2))
    f_levels, osc_levels, parents = layout.levels(values), layout.levels(osc), layout.parents
    n = len(f_levels)
    for lo in range(2, m_max + 1, n):
        ms = np.arange(lo, min(lo + n, m_max + 1))
        thr = np.ldexp(1.0, -ms)[:, None]
        state = np.zeros((2, len(ms), f_levels[0].size))  # (anchor, S_(m)^2) per scale and node
        state[0] = f_levels[0]
        for t in range(1, n):
            state = np.take(state, parents[t], axis=2)
            anchor, s2 = state
            jump = f_levels[t] - anchor
            # at M_t = 0 the path is constant so far: the trigger adds +0.0
            # and moves the anchor to an equal value
            trig = np.abs(jump) >= thr * osc_levels[t]
            s2 += np.where(trig, np.square(jump), 0.0)
            np.copyto(anchor, f_levels[t], where=trig)
        s2 = state[1]
        np.copyto(s2, 0.0, where=(ms[:, None] > m_star) | ~(m_inf > 0))
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
    result has the same shape with zeros on and below the diagonal.  For
    F[s, j] = f_j - f_s this is ``paraproduct_deltaf_pairs``.  No check or
    CLI command calls this general form, which stays because
    ``benchmarks/tracing.py`` wraps it by name.
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


def paraproduct_deltaf_row(f_pm: np.ndarray, dg: np.ndarray, s: int, out: np.ndarray | None = None) -> np.ndarray:
    """Row s of Pi(delta f, g): out[t] = sum_{s<j<=t} (f_{j-1} - f_s) dg_j.

    ``dg`` holds the increments g_j - g_{j-1} (``np.diff(g_pm, axis=0)``).
    The terms are summed by one cumsum along t, in time order, into
    out[s+1:]; out[:s+1] is left as it is (zeros when ``out`` is made here).
    """
    if out is None:
        out = np.zeros(f_pm.shape)
    np.cumsum((f_pm[s:-1] - f_pm[s]) * dg[s:], axis=0, out=out[s + 1 :])
    return out


def paraproduct_deltaf_pairs(f_pm: np.ndarray, g_pm: np.ndarray) -> np.ndarray:
    """Pi(delta f, g)_{s,t} for all index pairs, shape (n, n, L), zeros on and
    below the diagonal; row s is ``paraproduct_deltaf_row``.  Only
    ``ito.ito_pairs`` reads the whole tensor (the Ito sums are Pi^pi(f, g) =
    Pi(delta f^(pi), g) on the discretized path, see ``ito``); the
    paraproduct check reads its rows one at a time.
    """
    dg = np.diff(g_pm, axis=0)
    out = np.zeros((g_pm.shape[0],) + g_pm.shape)
    for s in range(g_pm.shape[0] - 1):
        paraproduct_deltaf_row(f_pm, dg, s, out[s])
    return out


class ParaproductGaps:
    """pairs[i, j, k] = Pi(delta f^(k), g)_{i,j} - Pi(delta f^(k+1), g)_{i,j}
    for K stacked paths ``f_stack`` of shape (n, K, ...) against one g with
    increments ``dg`` (n - 1, ...), so pairs has shape (n, n, K - 1, ...): the
    gaps between successive pair sums, made a block of columns at a time, so
    chain_dp never holds an (n, n, ...) pair-sum tensor.

    The source keeps one running sum per start row i, path k and trailing
    index, and steps column j - 1 to column j by adding (f_{j-1} - f_i)
    dg_{j-1} for i < j: the terms of ``paraproduct_deltaf_row``'s cumsum, in
    its order.  So each sum is the cumsum's float, except that a leading -0.0
    term gives 0.0 + -0.0 = 0.0 where the cumsum keeps -0.0, and |.| erases
    that.  Hence the columns must be read in order; reading column 1 starts a
    new pass.
    """

    def __init__(self, f_stack: np.ndarray, dg: np.ndarray):
        self.f = f_stack
        self.dg = dg
        n = f_stack.shape[0]
        self.shape = (n, n, f_stack.shape[1] - 1) + f_stack.shape[2:]
        self._sums = np.zeros(f_stack.shape)
        self._terms = np.empty(f_stack.shape)
        self._next = 1

    def magnitudes(self, cols: slice, out: np.ndarray) -> np.ndarray:
        """|pairs[i, j]| into ``out`` in the layout of ``_split``; the
        entries with i >= j are set to 0."""
        j0, j1 = cols.start, cols.stop
        if j0 == 1:
            self._sums.fill(0.0)
        elif j0 != self._next:
            raise ValueError(f"ParaproductGaps reads its columns in order: asked for {j0}, next is {self._next}")
        for j in range(j0, j1):
            terms = np.subtract(self.f[j - 1], self.f[:j], out=self._terms[:j])
            terms *= self.dg[j - 1]
            sums = self._sums[:j]
            sums += terms
            col = out[j - j0, :j]
            np.subtract(sums[:, :-1], sums[:, 1:], out=col)
            np.abs(col, out=col)
            out[j - j0, j:] = 0.0
        self._next = j1
        return out


# -- weighted maximal data ---------------------------------------------------


def weighted_maximal_data(
    f_sub: np.ndarray, w_leaf: np.ndarray, tree: FiltrationTree
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Weighted weak-type data for a nonnegative submartingale, given as a
    flat node array on ``tree.layout``.

    Returns (lambdas, lhs, rhs, Mw_N) where at each breakpoint v of Mf_N
    (scanned via the closed sets {Mf_N >= v}) lhs = v * w{Mf_N >= v} and
    rhs = int_{Mf_N >= v} f_N Mw_N dmu, with w_k = E_k w and Mw its running
    maximum; Mw_N is one value per leaf.
    """
    w_leaf = np.asarray(w_leaf, dtype=np.float64)
    if np.any(w_leaf <= 0):
        raise ValueError("weight must be positive")
    layout = tree.layout
    mw = layout.leaves(maximal_paths(Martingale.from_leaf_values(tree, w_leaf).flat, layout))
    mf = layout.leaves(maximal_paths(f_sub, layout))
    lams, w_mass, mix_mass = report.closed_tail_scan(mf, tree.leaf_prob * w_leaf, tree.leaf_prob * layout.leaves(f_sub) * mw)
    return lams, lams * w_mass, mix_mass, mw
