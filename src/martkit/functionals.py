"""Pathwise functionals of adapted processes.

The kernels act on a path matrix of shape (depth+1, n_paths[, K]), one
column per root-to-leaf path, and are shared with the grid-time layers,
which feed sampled path bundles through the same code.  The running
maximum, the increments, the square function and the Davis decomposition
also act on node arrays: given a ``NodeLayout``, ``maximal_paths``,
``increments`` and ``square_function_paths`` take a flat node array and
return one value per node, because each is F_n-measurable at level n.
Running maxima and sums go through ``tree.accumulate_levels``, one parent-
to-child step per level (for a path matrix, one contiguous row per step);
ratios whose denominator may vanish go through ``quotient``, which takes 0/0
to be 0.  The tree-level wrappers ``maximal``, ``square_function`` and
``predictable_square`` turn a kernel's path matrix back into a
``TreeProcess`` through ``TreeProcess.from_paths``, which checks that each
row is constant on the atoms of its level.  No check or CLI command calls
them; they stay because ``benchmarks/tracing.py`` wraps them by name.

``paraproduct_deltaf_pairs`` is the one pair-sum kernel: the discrete
paraproduct Pi(delta f, g)_{s,t} = sum_{s<j<=t} (f_{j-1} - f_s) dg_j, one
cumsum along time per start row (``paraproduct_deltaf_row``).  The Ito sum
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
distances of a vector sequence.  It reads |pairs[i, j]|^r for a
block of w consecutive columns in one contiguous array, w =
CHAIN_BLOCK_ELEMENTS // (n * trailing size), so a short sequence costs a few
numpy calls per block and two per column; when w < 2 (long or wide inputs)
it reads one column at a time into the same reused buffer.  |.| is taken
once, and r = 1 skips the power (x**1 == x).  When a certificate shows that
every magnitude is an exact multiple k 2^s of one power of two with k at
most the width of the widest cost column (``_power_table``: ``PathGaps``
and ``ParaproductGaps`` of dyadic values, such as +-1/sqrt(N) walks with N
a power of 4), each k is raised once into a table and every cost is read
from it, the float the power gives on that magnitude; otherwise every cost
is raised by numpy's power.  For r = 1 on dyadic ``PathGaps`` with total
variation below 2^53 units, every chain sum is exact and the longest chain
is the best, so ``_exact_total_variation`` returns the prefix sums of
|increments|, the DP's own floats, in O(n) instead of O(n^2); other values
run the DP.  ``variation`` returns the float best.max() ** (1/r).
"""

from __future__ import annotations

import math

import numpy as np

from . import report
from .tree import FiltrationTree, Martingale, NodeLayout, TreeProcess, accumulate_levels


def quotient(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den for float arrays of one shape where den > 0, and 0 elsewhere,
    without warnings: the 0/0 convention of the tree functionals, dividing
    straight into the result."""
    return np.divide(num, den, out=np.zeros_like(num), where=den > 0)


# -- maximal and square functions ----------------------------------------


def accumulate_rows(ufunc: np.ufunc, arr: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``ufunc.accumulate(arr, axis=0)``, one row at a time: out[0] = arr[0]
    and out[k] = ufunc(out[k-1], arr[k]), the same operations in the same
    order, so every float is equal.  ``out`` may be ``arr`` itself.  This is
    ``accumulate_levels`` with the identity parent maps of a path matrix.

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
        out = arr.copy()
    elif out is not arr:
        np.copyto(out, arr)
    accumulate_levels(ufunc, out)
    return out


def maximal_paths(values: np.ndarray, layout: NodeLayout | None = None) -> np.ndarray:
    """Running maximum of |f_k|, k <= n: along each path of a path matrix, or
    per node of a flat node array on ``layout``."""
    out = np.abs(values)
    if layout is None:
        return accumulate_rows(np.maximum, out, out=out)
    return layout.accumulate(np.maximum, out)


def maximal(f: TreeProcess) -> TreeProcess:
    return TreeProcess.from_paths(f.tree, maximal_paths(f.paths()))


def increments(values: np.ndarray, layout: NodeLayout | None = None) -> np.ndarray:
    """df_k = f_k - f_{k-1}: rows k = 1..N of a path matrix (no k = 0 term),
    or one per node of a flat node array on ``layout``, 0 at level 0."""
    if layout is None:
        return np.diff(values, axis=0)
    df = values - values[layout.up]
    df[: layout.offsets[1]] = 0.0
    return df


def square_function_paths(values: np.ndarray, layout: NodeLayout | None = None) -> np.ndarray:
    """Sf_n = (sum_{k<=n} |df_k|^2)^(1/2) with increments counted from k = 1,
    along each path of a path matrix or per node of a flat node array on
    ``layout``."""
    if layout is not None:
        s2 = increments(values, layout)
        np.square(s2, out=s2)
        layout.accumulate(np.add, s2, start=2)
        return np.sqrt(s2, out=s2)
    out = np.empty_like(values)
    out[0] = 0.0
    df2 = np.subtract(values[1:], values[:-1], out=out[1:])  # increments, in place
    np.square(df2, out=df2)
    np.sqrt(accumulate_rows(np.add, df2, out=df2), out=df2)
    return out


def square_function(f: Martingale) -> TreeProcess:
    return TreeProcess.from_paths(f.tree, square_function_paths(f.paths()))


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
    """l^r norm across the trailing (component) axis; r = inf takes the max."""
    if np.isinf(r):
        return np.abs(arr).max(axis=-1)
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

# Element budget of one chain-DP cost block: chain_dp reads the columns
# [j0, j0 + w) of pairs together, with w = CHAIN_BLOCK_ELEMENTS // (n *
# trailing size), and one column at a time when w < 2.  A block also makes
# the unread costs below the diagonal, about w / 2 rows per column.  On a
# 2-core x86 host with AVX-512 (numpy 2.4), blocks of 4096 elements ran
# scalar sequences of 17 to 2,048 points 1.4 to 3 times faster than columns
# and no measured shape slower; at 8192, path gaps of 3 to 9 points by 400
# to 1,024 paths ran 5 to 31% slower.
CHAIN_BLOCK_ELEMENTS = 4096


def _split(arr: np.ndarray, cols: int | slice) -> tuple[np.ndarray, np.ndarray]:
    """(rows, at) for one column j, (arr[:j], arr[j]), or for a slice j0:j1
    of columns, (arr[:j1 - 1], arr[j0:j1, None]): ``at`` broadcasts against
    ``rows`` into the column's (j, ...) or the block's (j1 - j0, j1 - 1, ...)
    layout."""
    if isinstance(cols, int):
        return arr[:cols], arr[cols]
    return arr[: cols.stop - 1], arr[cols, None]


class DistColumns:
    """pairs[i, j] = |f_i - f_j| of an (n, d) vector sequence, Euclidean
    across the trailing axis, made a column or a block of columns at a time,
    so chain_dp never holds the (n, n) distance matrix.  Scalar sequences
    take ``PathGaps``."""

    def __init__(self, values: np.ndarray):
        self.values = values
        self.shape = (values.shape[0],) * 2

    def magnitudes(self, cols: int | slice, out: np.ndarray) -> np.ndarray:
        """|pairs[i, j]| into ``out`` in the layout of ``_split``."""
        rows, at = _split(self.values, cols)
        diff = rows - at
        diff *= diff
        np.add.reduce(diff.reshape(-1, diff.shape[-1]), axis=-1, out=out.reshape(-1))
        return np.sqrt(out, out=out)


class PathGaps:
    """pairs[i, j] = pm[j] - pm[i] of an (N+1, ...) path matrix, or of an
    (n,) scalar sequence, whose |pairs[i, j]| = |x_i - x_j|, made a column or
    a block of columns at a time, so chain_dp never holds the (N+1, N+1, ...)
    difference tensor."""

    def __init__(self, pm: np.ndarray):
        self.pm = pm
        self.shape = pm.shape[:1] + pm.shape

    def magnitudes(self, cols: int | slice, out: np.ndarray) -> np.ndarray:
        """|pairs[i, j]| into ``out`` in the layout of ``_split``."""
        rows, at = _split(self.pm, cols)
        np.subtract(at, rows, out=out)
        return np.abs(out, out=out)


def _costs(pairs, cols: int | slice, r: float, out: np.ndarray, table=None, index=None) -> np.ndarray:
    """|pairs[i, j]|**r into ``out``: out[i] for i < j of one column j, or
    out[j - j0, i] for i < j1 - 1 of a slice j0:j1 of columns, so each
    column's costs are one contiguous row.  A block also makes the entries
    with i >= j, which are never read.  x**1 == x exactly, so r = 1 skips the
    power.

    With a ``table`` = (2^-s, powers) from ``_power_table``, every magnitude
    is k 2^s exactly with 0 <= k < powers.size, so k = |pairs[i, j]| 2^-s is
    an exact product, cast into the reused intp buffer ``index``, and the
    cost is powers[k] = (k 2^s)**r, the float the power gives on this
    magnitude.  Without one, numpy's power raises every cost."""
    if not isinstance(pairs, np.ndarray):
        pairs.magnitudes(cols, out)
    elif isinstance(cols, int):
        np.abs(pairs[:cols, cols], out=out)
    else:
        np.abs(pairs[: cols.stop - 1, cols].swapaxes(0, 1), out=out)
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
    overwrites.  The columns come in blocks of w = CHAIN_BLOCK_ELEMENTS //
    (n * trailing size), or one at a time when w < 2.  For r != 1 the costs
    are read from ``_power_table`` when it certifies the magnitudes."""
    n, trail = pairs.shape[0], pairs.shape[2:]
    size = math.prod(trail)
    width = CHAIN_BLOCK_ELEMENTS // max(n * size, 1)
    m = max(n - 1, 0)
    table = None if r == 1 else _power_table(pairs, r)
    if width < 2:
        buf = np.empty((m,) + trail)
        index = np.empty(buf.size if table else 0, dtype=np.intp)
        for j in range(1, n):
            yield j, _costs(pairs, j, r, buf[:j], table, index)
        return
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
    return float(_costs(PathGaps(ends) if ends.ndim == 1 else DistColumns(ends), 1, r, np.empty(1))[0])


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
    widest cost column: it holds no more floats than the column buffer of
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


def variation_paths(pathmat: np.ndarray, r: float) -> np.ndarray:
    """Per-path r-variation values for a (N+1, L) path matrix."""
    check_exponent(r)
    return chain_dp(PathGaps(np.asarray(pathmat, dtype=np.float64)), r).max(axis=0) ** (1.0 / r)


def two_param_variation_paths(cost: np.ndarray, rho: float) -> np.ndarray:
    """Chain DP over a per-path cost tensor of shape (n, n, L)."""
    check_exponent(rho)
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
    result has the same shape with zeros on and below the diagonal.  For
    F[s, j] = f_j - f_s this is ``paraproduct_deltaf_pairs``, which the
    checks use; no check or CLI command calls this general form, which stays
    because ``benchmarks/tracing.py`` wraps it by name.
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
    below the diagonal; row s is ``paraproduct_deltaf_row``.

    This is the one pair-sum kernel: the Ito sums are Pi^pi(f, g) =
    Pi(delta f^(pi), g) on the discretized path (see ``ito``), and the
    paraproduct check's window and delta-f estimates read it too.
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
    gaps between successive pair sums, made a column or a block of columns at
    a time, so chain_dp never holds an (n, n, ...) pair-sum tensor.

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

    def magnitudes(self, cols: int | slice, out: np.ndarray) -> np.ndarray:
        """|pairs[i, j]| into ``out`` in the layout of ``_split``; the
        entries of a block with i >= j are set to 0."""
        block = isinstance(cols, slice)
        j0, j1 = (cols.start, cols.stop) if block else (cols, cols + 1)
        if j0 == 1:
            self._sums.fill(0.0)
        elif j0 != self._next:
            raise ValueError(f"ParaproductGaps reads its columns in order: asked for {j0}, next is {self._next}")
        for j in range(j0, j1):
            terms = np.subtract(self.f[j - 1], self.f[:j], out=self._terms[:j])
            terms *= self.dg[j - 1]
            sums = self._sums[:j]
            sums += terms
            col = out[j - j0, :j] if block else out
            np.subtract(sums[:, :-1], sums[:, 1:], out=col)
            np.abs(col, out=col)
            if block:
                out[j - j0, j:] = 0.0
        self._next = j1
        return out


# -- weighted maximal data ---------------------------------------------------


def weighted_maximal_data(
    f_sub: np.ndarray, w_leaf: np.ndarray, tree: FiltrationTree
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Weighted weak-type data for a nonnegative submartingale path matrix.

    Returns (lambdas, lhs, rhs, Mw_N) where at each breakpoint v of Mf_N
    (scanned via the closed sets {Mf_N >= v}) lhs = v * w{Mf_N >= v} and
    rhs = int_{Mf_N >= v} f_N Mw_N dmu, with w_k = E_k w and Mw its running
    maximum; Mw_N is one value per leaf.
    """
    w_leaf = np.asarray(w_leaf, dtype=np.float64)
    if np.any(w_leaf <= 0):
        raise ValueError("weight must be positive")
    w_mart = Martingale.from_leaf_values(tree, w_leaf)
    mw = maximal_paths(w_mart.paths())[-1]
    mf = maximal_paths(f_sub)[-1]
    lams, w_mass, mix_mass = report.closed_tail_scan(mf, tree.leaf_prob * w_leaf, tree.leaf_prob * f_sub[-1] * mw)
    return lams, lams * w_mass, mix_mass, mw
