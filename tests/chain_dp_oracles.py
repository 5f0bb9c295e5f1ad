"""The column-loop chain DP that the package ran before its cost blocks, kept
as an exact oracle.

Each column j of ``pairs`` is read as ``pairs[:j, j]``, its absolute value
raised to the power r in a fresh array, and added to the best totals before
them.  ``DistColumns`` and ``PathGaps`` make those columns exactly as the
package's sources once did; dense arrays are sliced.  Tests compare the
package's blocked kernel with these with ``np.array_equal``, so a power or a
distance that rounds differently in a block shows.

``halving_one_interval_at_a_time`` is the RDE split index by its definition,
one control DP per interval.
"""

import math

import numpy as np


class DistColumns:
    """pairs[i, j] = |f_i - f_j|, Euclidean across the last axis of (n, d)
    values, or of (n, B, d) values stacking B problems."""

    def __init__(self, values: np.ndarray):
        self.values = values
        self.shape = (values.shape[0],) * 2 + values.shape[1:-1]

    def __getitem__(self, key) -> np.ndarray:
        rows, j = key
        diff = self.values[rows] - self.values[j]
        if diff.ndim == 1:
            return np.abs(diff, out=diff)
        diff *= diff
        dist = np.add.reduce(diff, axis=-1)
        return np.sqrt(dist, out=dist)


class PathGaps:
    """pairs[i, j] = pm[j] - pm[i] of a (N+1, L) path matrix."""

    def __init__(self, pm: np.ndarray):
        self.pm = pm
        self.shape = pm.shape[:1] + pm.shape

    def __getitem__(self, key) -> np.ndarray:
        rows, j = key
        return self.pm[j] - self.pm[rows]


def step_costs(pairs, j: int, r: float) -> np.ndarray:
    cost = np.abs(pairs[:j, j])
    cost **= r
    return cost


def chain_dp(pairs, r: float) -> np.ndarray:
    n = pairs.shape[0]
    best = np.zeros((n,) + pairs.shape[2:])
    for j in range(1, n):
        cand = step_costs(pairs, j, r)
        cand += best[:j]
        best[j] = np.maximum.reduce(cand)
    return best


def halving_one_interval_at_a_time(X):
    """The split index of ``rough._halving_index`` by its definition: the
    prefix and suffix controls at every inner grid time, each from its own
    ``variation_control`` DP, and the first index minimizing their gap."""
    from martkit import rough

    ctrl = rough.variation_control(X.path, X.r)
    times = X.times
    n = times.size - 1
    best, arg = math.inf, n // 2
    for k in range(1, n):
        gap = abs(ctrl(0.0, float(times[k])) - ctrl(float(times[k]), float(times[-1])))
        if gap < best:
            best, arg = gap, k
    return arg
