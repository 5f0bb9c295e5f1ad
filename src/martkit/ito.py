"""Ito sums over adapted grid partitions, quadratic covariation, and the
exact pre-limit identities.

Continuous time is a uniform grid t_k = k T / N.  A path bundle is either
backed by a finite tree (exact expectations, conditional identities
testable to 1e-10) or sampled by Monte Carlo (flagged ``sampled``;
pathwise identities still exact).

The Ito sum along an adapted partition pi is the discrete paraproduct of
the discretized path: Pi^pi(f, g) = Pi(delta f^(pi), g), where f^(pi)_u =
f_{a(u)} is f frozen at the last partition point a(u) <= u.  Over the grid
steps (u, u+1) with u >= t, Pi^pi(f, g)_{t, .} sums (f_{a(u)} - f_{floor(t)})
dg_u over the steps whose a(u) lies beyond t; a step with a(u) <= t has
a(u) = floor(t), so its term (f_{floor(t)} - f_{floor(t)}) dg_u is 0 and
the two sums agree.  So every Ito sum here is the sum of
``functionals.paraproduct_deltaf_pairs`` on ``discretize(f, pi)``, added
along time in time order: ``ito_pairs`` is that tensor, ``ito_sum_from``,
``integration_by_parts_residual`` and ``chen_residual`` read its rows
(``paraproduct_deltaf_row``), and ``refine_converge`` streams the same terms
in the same order through ``functionals.ParaproductGaps``, so no diagnostic
builds an (N+1, N+1, P) tensor.  The covariation [f, g]^pi sums the
increment products of f^(pi) and g^(pi).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import functionals as fn
from .tree import FiltrationTree

GRID_GUARD = 4096


@dataclass
class GridCadlagPath:
    """Right-continuous piecewise-constant paths on a uniform grid.

    ``values`` has one column per path; ``weights`` are exact leaf
    probabilities for tree-backed bundles and 1/P for sampled ones.
    """

    values: np.ndarray  # (N+1, P)
    weights: np.ndarray  # (P,)
    T: float = 1.0
    tree: FiltrationTree | None = None
    sampled: bool = False

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.values.shape[0] < 2 or self.values.shape[1] < 1:
            raise ValueError(f"need at least one grid step and one path, got values of shape {self.values.shape}")
        if self.values.shape[0] - 1 > GRID_GUARD:
            raise ValueError(f"grid exceeds guard {GRID_GUARD}")
        if self.weights.shape != (self.values.shape[1],):
            raise ValueError("one weight per path required")
        if not 0.0 < self.T < np.inf:
            raise ValueError(f"horizon T must be finite and positive, got {self.T}")

    @property
    def n_steps(self) -> int:
        return self.values.shape[0] - 1

    def expectation(self, per_path: np.ndarray) -> float:
        return float(self.weights @ np.asarray(per_path, dtype=np.float64))

    @classmethod
    def sampled_walk(cls, n_steps: int, n_paths: int, seed: int, T: float = 1.0) -> "GridCadlagPath":
        """Monte Carlo bundle of scaled +-1/sqrt(N) walk paths (exact dyadic
        values when sqrt(N) is a power of two, that is N a power of 4; then
        the chain DPs of ``refine_converge`` read their costs from power
        tables, as long as no path ranges over more than about
        levels * n_paths / 2 steps of 1/sqrt(N))."""
        from .generators import rng_for

        rng = rng_for(seed)
        steps = rng.choice([-1.0, 1.0], size=(n_steps, n_paths)) / np.sqrt(n_steps)
        vals = np.vstack([np.zeros(n_paths), np.cumsum(steps, axis=0)])
        return cls(vals, np.ones(n_paths) / n_paths, T, None, True)


@dataclass
class AdaptedGridPartition:
    """Partition points per path as a boolean mask over grid indices.

    Column 0 is always a partition point.  When the bundle is tree-backed
    the mask rows must be adapted, which makes every ordinal point a valid
    stopping rule.
    """

    mask: np.ndarray  # (N+1, P) boolean
    tree: FiltrationTree | None = None

    def __post_init__(self):
        self.mask = np.asarray(self.mask, dtype=bool)
        if not self.mask[0].all():
            raise ValueError("time 0 must belong to every partition")
        if self.tree is not None:
            for n in range(self.mask.shape[0]):
                level = min(n, self.tree.depth)
                row = self.mask[n]
                rep = self.tree.to_leaves(level, row[self.tree.leaf_start[level]])
                if np.any(rep != row):
                    raise ValueError(f"partition mask not adapted at grid index {n}")

    def floor_indices(self) -> np.ndarray:
        """floor(t, pi) per grid index and path: the last partition point <= t."""
        n1, p = self.mask.shape
        idx = np.where(self.mask, np.arange(n1)[:, None], -1)
        return np.maximum.accumulate(idx, axis=0)

    def union_grid(self, stride: int) -> "AdaptedGridPartition":
        mask = self.mask.copy()
        mask[::stride] = True
        return AdaptedGridPartition(mask, self.tree)

    @classmethod
    def full(cls, path: GridCadlagPath) -> "AdaptedGridPartition":
        return cls(np.ones_like(path.values, dtype=bool), path.tree)

    @classmethod
    def from_oscillation(cls, path: GridCadlagPath, eps: float) -> "AdaptedGridPartition":
        """First-exit partition: stop when |f_t - f_{pi_j}| >= eps."""
        if not eps >= 0:
            raise ValueError(f"oscillation threshold eps must be >= 0, got {eps}")
        vals = path.values
        mask = np.zeros_like(vals, dtype=bool)
        mask[0] = True
        anchor = vals[0].copy()
        for t in range(1, vals.shape[0]):
            hit = np.abs(vals[t] - anchor) >= eps
            mask[t] = hit
            anchor[hit] = vals[t][hit]
        return cls(mask, path.tree)


def ito_sum_from(
    f: GridCadlagPath, g: GridCadlagPath, partition: AdaptedGridPartition, t: int
) -> np.ndarray:
    """Pi^pi(f, g)_{t, t'} for all t' >= t at once, shape (N+1, P): row t of
    ``ito_pairs``."""
    return fn.paraproduct_deltaf_row(discretize(f, partition).values, np.diff(g.values, axis=0), t)


def ito_sum(f, g, partition, t: int, t2: int) -> np.ndarray:
    """Riemann-Stieltjes sum Pi^pi(f, g)_{t, t2} per path."""
    if t2 < t:
        raise ValueError("need t <= t2")
    return ito_sum_from(f, g, partition, t)[t2]


def ito_pairs(f, g, partition) -> np.ndarray:
    """Pi^pi(f, g) on all grid index pairs, shape (N+1, N+1, P): the discrete
    paraproduct Pi(delta f^(pi), g) of the discretized path."""
    return fn.paraproduct_deltaf_pairs(discretize(f, partition).values, g.values)


def discretize(f: GridCadlagPath, partition: AdaptedGridPartition) -> GridCadlagPath:
    """f^(pi): freeze the path at the last partition point."""
    floors = partition.floor_indices()
    vals = np.take_along_axis(f.values, floors, axis=0)
    return GridCadlagPath(vals, f.weights, f.T, f.tree, f.sampled)


def covariation_sum(f, g, partition, t: int, t2: int) -> np.ndarray:
    """[f, g]^pi_{t, t2}: sum of block increment products over partition
    blocks [pi_j, pi_{j+1}] with floor(t) <= pi_j < floor(t2).

    A block closes at its grid index pi_{j+1}, where the discretized paths
    step by f_{pi_{j+1}} - f_{pi_j}; they are flat elsewhere.  So this sums
    the increment products of f^(pi) and g^(pi) over the grid indices v in
    (floor(t), floor(t2)], one cumsum along time, in time order.
    """
    floors = partition.floor_indices()
    fd, gd = (np.take_along_axis(h.values, floors, axis=0) for h in (f, g))
    return _covariation(fd, gd, floors, t, t2)


def _covariation(fd: np.ndarray, gd: np.ndarray, floors: np.ndarray, t: int, t2: int) -> np.ndarray:
    """``covariation_sum`` from the discretized values and their floors."""
    v = np.arange(1, floors.shape[0])[:, None]
    terms = np.zeros(fd.shape)  # the sum starts from terms[0] = 0
    np.multiply(np.diff(fd, axis=0), np.diff(gd, axis=0), out=terms[1:], where=(floors[t] < v) & (v <= floors[t2]))
    return np.cumsum(terms, axis=0)[-1]


def integration_by_parts_residual(f, g, partition, t: int, t2: int) -> float:
    """|delta f^(pi) delta g^(pi) - Pi(f,g)_{t,floor(t2)} - Pi(g,f)_{t,floor(t2)} - [f,g]|, max over paths.

    The floors are formed once: both Ito sums (rows of ``ito_sum_from``) and
    the covariation read one discretization of each path."""
    floors = partition.floor_indices()
    fd, gd = (np.take_along_axis(h.values, floors, axis=0) for h in (f, g))
    cols = np.arange(f.values.shape[1])
    lo, hi = floors[t], floors[t2]
    df = f.values[hi, cols] - f.values[lo, cols]
    dg = g.values[hi, cols] - g.values[lo, cols]
    pi_fg = fn.paraproduct_deltaf_row(fd, np.diff(g.values, axis=0), t)[hi, cols]
    pi_gf = fn.paraproduct_deltaf_row(gd, np.diff(f.values, axis=0), t)[hi, cols]
    cov = _covariation(fd, gd, floors, t, t2)
    return float(np.abs(df * dg - pi_fg - pi_gf - cov).max())


def chen_residual(f, g, partition, max_points: int = 24) -> float:
    """Max |delta Pi_{t,t',t''} - delta f^(pi)_{t,t'} delta g_{t',t''}| over grid triples.

    The triples run over at most ``max_points`` evenly spaced grid indices, so
    only the rows of ``ito_pairs`` at those indices are summed."""
    n1 = f.values.shape[0]
    pts = np.unique(np.linspace(0, n1 - 1, min(max_points, n1)).astype(int)).tolist()
    fd = discretize(f, partition).values
    dg = np.diff(g.values, axis=0)
    rows = {t: fn.paraproduct_deltaf_row(fd, dg, t) for t in pts}
    worst = 0.0
    for a, t in enumerate(pts):
        for b, t1 in enumerate(pts[a:], a):
            for t2 in pts[b:]:
                resid = rows[t][t2] - rows[t][t1] - rows[t1][t2] - (fd[t1] - fd[t]) * (g.values[t2] - g.values[t1])
                worst = max(worst, float(np.abs(resid).max()))
    return worst


# -- refinement convergence -------------------------------------------------------


@dataclass
class RefinementDiagnostics:
    pi_distances: list[float]
    discretization_errors: list[float]
    levels: list[int]
    sampled: bool
    nonincreasing: bool = field(init=False)

    def __post_init__(self):
        ok = all(b <= a * (1 + 1e-9) + 1e-12 for a, b in zip(self.pi_distances, self.pi_distances[1:]))
        ok &= all(b <= a * (1 + 1e-9) + 1e-12 for a, b in zip(self.discretization_errors, self.discretization_errors[1:]))
        self.nonincreasing = ok


def refine_converge(
    f: GridCadlagPath,
    g: GridCadlagPath,
    base: AdaptedGridPartition,
    levels: int = 4,
    r: float = 2.5,
) -> RefinementDiagnostics:
    """Cauchy diagnostics along pi^(l) = base + uniform grid at dyadic strides.

    Reports the expected r-variation distance between successive Ito-sum
    processes and the discretization errors V^3(f - f^(pi)).  The stride
    schedule ends at the full grid: its stride max(1, n >> round(log2 n))
    is 1, since round(log2 n) = k implies n < 2^(k+1) (and a larger shift
    only makes n >> shift smaller).  There f^(pi) = f, so f - f^(pi) is
    identically 0 and the last error is reported as 0.0, the float its DP
    would give, with no DP run.

    All levels share one chain DP for the distances, over the gaps
    |Pi^{pi_l} - Pi^{pi_{l+1}}| that ``functionals.ParaproductGaps`` makes a
    block of columns at a time from the stacked discretizations, and one over
    ``functionals.DistColumns`` of the other levels' discretization errors
    f - f^(pi), passed as (N+1, levels, P, 1) scalars; levels and paths are
    independent trailing axes, so no (N+1, N+1, P) tensor is built and
    every float is that of one level at a time.  On dyadic walks
    (``sampled_walk`` with N a power of 4, such as the demo's 256 steps and
    the 64 of the golden ito run) both DPs raise each distinct gap once into
    a power table (``functionals._power_table``); other N, such as 48, raise
    every cost.
    """
    fn.check_exponent(r)
    # round(log2 N) <= log2 GRID_GUARD, so a further level repeats the full grid
    top = GRID_GUARD.bit_length() - 1
    if not 0 <= levels <= top:
        raise ValueError(f"levels must be in 0..{top}, got {levels}")
    n = f.n_steps
    start_power = max(0, int(round(np.log2(n))) - levels)
    parts = [base.union_grid(max(1, n >> (start_power + level))) for level in range(levels + 1)]
    fds = np.stack([discretize(f, p).values for p in parts], axis=1)  # (N+1, levels+1, P)
    gaps = fn.ParaproductGaps(fds, np.diff(g.values, axis=0))
    distances = [f.expectation(d) for d in fn.chain_dp(gaps, r).max(axis=0) ** (1.0 / r)]
    errors = fn.chain_dp(fn.DistColumns((f.values[:, None] - fds[:, :-1])[..., None]), 3.0)
    disc = [f.expectation(e) for e in errors.max(axis=0) ** (1.0 / 3.0)] + [0.0]
    return RefinementDiagnostics(distances, disc, [start_power + k for k in range(levels + 1)], f.sampled)
