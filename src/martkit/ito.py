"""Ito sums over adapted grid partitions, quadratic covariation, and the
exact pre-limit identities.

Continuous time is a uniform grid t_k = k T / N.  A path bundle is either
backed by a finite tree (exact expectations, conditional identities
testable to 1e-10) or sampled by Monte Carlo when full enumeration would
exceed the path budget (flagged, pathwise identities still exact).

The Ito sum along an adapted partition pi is the discrete paraproduct of
the discretized path: Pi^pi(f, g) = Pi(delta f^(pi), g), where f^(pi)_u =
f_{a(u)} is f frozen at the last partition point a(u) <= u.  Over the grid
steps (u, u+1) with u >= t, Pi^pi(f, g)_{t, .} sums (f_{a(u)} - f_{floor(t)})
dg_u over the steps whose a(u) lies beyond t; a step with a(u) <= t has
a(u) = floor(t), so its term (f_{floor(t)} - f_{floor(t)}) dg_u is 0 and
the two sums agree.  So every Ito sum here is
``functionals.paraproduct_deltaf_pairs`` (or one of its rows) on
``discretize(f, pi)``, summed along time in time order, and the
covariation [f, g]^pi sums the increment products of f^(pi) and g^(pi).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import functionals as fn
from . import report
from .tree import FiltrationTree, TreeProcess

GRID_GUARD = 4096
ENUMERATION_BUDGET = 2**20


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
        if self.values.shape[0] - 1 > GRID_GUARD:
            raise ValueError(f"grid exceeds guard {GRID_GUARD}")
        if self.weights.shape != (self.values.shape[1],):
            raise ValueError("one weight per path required")

    @property
    def n_steps(self) -> int:
        return self.values.shape[0] - 1

    @property
    def n_paths(self) -> int:
        return self.values.shape[1]

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.n_steps + 1)

    def expectation(self, per_path: np.ndarray) -> float:
        return float(self.weights @ np.asarray(per_path, dtype=np.float64))

    @classmethod
    def from_tree_process(cls, proc: TreeProcess, T: float = 1.0) -> "GridCadlagPath":
        return cls(proc.paths().copy(), proc.tree.leaf_prob.copy(), T, proc.tree, False)

    @classmethod
    def sampled_walk(cls, n_steps: int, n_paths: int, seed: int, T: float = 1.0) -> "GridCadlagPath":
        """Monte Carlo bundle of scaled +-1/sqrt(N) walk paths (exact dyadic
        values when sqrt(N) is a power of two)."""
        from .generators import rng_for

        rng = rng_for(seed)
        steps = rng.choice([-1.0, 1.0], size=(n_steps, n_paths)) / np.sqrt(n_steps)
        vals = np.vstack([np.zeros(n_paths), np.cumsum(steps, axis=0)])
        return cls(vals, np.full(n_paths, 1.0 / n_paths), T, None, True)


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
    def zero_only(cls, path: GridCadlagPath) -> "AdaptedGridPartition":
        mask = np.zeros_like(path.values, dtype=bool)
        mask[0] = True
        return cls(mask, path.tree)

    @classmethod
    def from_oscillation(cls, path: GridCadlagPath, eps: float) -> "AdaptedGridPartition":
        """First-exit partition: stop when |f_t - f_{pi_j}| >= eps."""
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
    v = np.arange(1, floors.shape[0])[:, None]
    terms = np.zeros(fd.shape)  # the sum starts from terms[0] = 0
    np.multiply(np.diff(fd, axis=0), np.diff(gd, axis=0), out=terms[1:], where=(floors[t] < v) & (v <= floors[t2]))
    return np.cumsum(terms, axis=0)[-1]


def integration_by_parts_residual(f, g, partition, t: int, t2: int) -> float:
    """|delta f^(pi) delta g^(pi) - Pi(f,g)_{t,floor(t2)} - Pi(g,f)_{t,floor(t2)} - [f,g]|, max over paths."""
    floors = partition.floor_indices()
    cols = np.arange(f.values.shape[1])
    lo, hi = floors[t], floors[t2]
    df = f.values[hi, cols] - f.values[lo, cols]
    dg = g.values[hi, cols] - g.values[lo, cols]
    pi_fg = ito_sum_from(f, g, partition, t)[hi, cols]
    pi_gf = ito_sum_from(g, f, partition, t)[hi, cols]
    cov = covariation_sum(f, g, partition, t, t2)
    return float(np.abs(df * dg - pi_fg - pi_gf - cov).max())


def chen_residual(f, g, partition, max_points: int = 24) -> float:
    """Max |delta Pi_{t,t',t''} - delta f^(pi)_{t,t'} delta g_{t',t''}| over grid triples."""
    n1 = f.values.shape[0]
    pts = np.unique(np.linspace(0, n1 - 1, min(max_points, n1)).astype(int))
    fd = discretize(f, partition).values
    pairs = fn.paraproduct_deltaf_pairs(fd, g.values)
    worst = 0.0
    for t in pts:
        for t1 in pts[pts >= t]:
            for t2 in pts[pts >= t1]:
                resid = pairs[t, t2] - pairs[t, t1] - pairs[t1, t2] - (fd[t1] - fd[t]) * (g.values[t2] - g.values[t1])
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
    p_tilde: float = 3.0,
    start_power: int | None = None,
) -> RefinementDiagnostics:
    """Cauchy diagnostics along pi^(l) = base + uniform grid at dyadic strides.

    Reports the expected r-variation distance between successive Ito-sum
    processes and the discretization errors V^{p_tilde}(f - f^(pi)).  The
    default stride schedule ends at the full grid, where the discretization
    error vanishes identically.
    """
    n = f.n_steps
    if start_power is None:
        start_power = max(0, int(round(np.log2(n))) - levels)
    parts = []
    for level in range(levels + 1):
        stride = max(1, n >> (start_power + level))
        parts.append(base.union_grid(stride))
    distances = []
    prev = ito_pairs(f, g, parts[0])
    for p in parts[1:]:
        cur = ito_pairs(f, g, p)
        prev -= cur  # only |cur - prev| is read, and |a - b| = |b - a| exactly
        per_path = fn.two_param_variation_paths(prev, r)
        distances.append(f.expectation(per_path))
        prev = cur
    disc = []
    for p in parts:
        diff = f.values - discretize(f, p).values
        per_path = fn.variation_paths(diff, p_tilde)
        disc.append(f.expectation(per_path))
    return RefinementDiagnostics(distances, disc, [start_power + k for k in range(levels + 1)], f.sampled)


def ito_bound_data(
    f: GridCadlagPath,
    g: GridCadlagPath,
    partition: AdaptedGridPartition,
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
    pairs = ito_pairs(f, g, partition)
    lhs = report.lq_norm(fn.two_param_variation_paths(pairs, r), q, f.weights)
    fd = discretize(f, partition)
    rhs = report.lq_norm(fn.variation_paths(fd.values, p1), q1, f.weights) * report.lq_norm(
        fn.variation_paths(g.values, np.inf), q0, f.weights
    )
    return {"lhs": lhs, "rhs": rhs, "q": q, "sampled": f.sampled}


# -- CSV interfaces ----------------------------------------------------------------


def write_path_csv(path: str, bundle: GridCadlagPath, path_id: int = 0) -> None:
    """Single-path export as `t, value` rows."""
    data = np.column_stack([bundle.times(), bundle.values[:, path_id]])
    np.savetxt(path, data, delimiter=",", header="t,value", comments="")


def read_path_csv(path: str, T: float | None = None) -> GridCadlagPath:
    data = np.atleast_2d(np.loadtxt(path, delimiter=",", skiprows=1))
    return GridCadlagPath(data[:, 1:2], np.ones(1), T if T is not None else float(data[-1, 0]), None, False)


def write_partition_csv(path: str, partition: AdaptedGridPartition) -> None:
    """Partition trace as `path_id, j, tau_j` rows (grid indices)."""
    rows = []
    for p in range(partition.mask.shape[1]):
        pts = np.nonzero(partition.mask[:, p])[0]
        for j, tau in enumerate(pts):
            rows.append((p, j, int(tau)))
    np.savetxt(path, np.asarray(rows, dtype=np.int64), fmt="%d", delimiter=",", header="path_id,j,tau_j", comments="")
