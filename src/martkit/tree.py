"""Finite filtered probability spaces as rooted trees.

The sample space is the set of leaves of a finite rooted tree with positive
leaf probabilities.  Level-n nodes are the atoms of the n-th sigma-algebra,
so every discrete-time object (adapted process, martingale, stopping time,
conditional expectation) is an exact finite computation.

Canonical layout: nodes are indexed breadth-first, level by level, and the
parent array of each level is nondecreasing, so the leaves below any node
form a contiguous block.  Arrays are frozen and held in tuples, so trees are
shared read-only.
"""

from __future__ import annotations

import functools
import json
from typing import Callable, Sequence

import numpy as np

# Sentinel for "never stops"; large enough to dominate any admissible depth.
INFINITY = np.iinfo(np.int64).max

MAX_DEPTH = 24
MAX_VECTOR_DIM = 64

PROB_SUM_TOL = 1e-12
MARTINGALE_RTOL = 1e-10


class TreeError(ValueError):
    pass


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class FiltrationTree:
    """Rooted tree of atoms with leaf probabilities.

    ``parents[n]`` maps each level-n node to its parent at level n-1
    (``parents[0]`` is empty).  Parent arrays must be nondecreasing, which
    keeps descendant leaf blocks contiguous.
    """

    def __init__(self, parents: Sequence[np.ndarray], leaf_prob: np.ndarray):
        self.parents = tuple(_freeze(np.asarray(p, dtype=np.int64).copy()) for p in parents)
        self.depth = len(self.parents) - 1
        if self.depth < 0:
            raise TreeError("need at least the root level")
        if self.depth > MAX_DEPTH:
            raise TreeError(f"depth {self.depth} exceeds guard {MAX_DEPTH}")
        if self.parents[0].size != 0:
            raise TreeError("level 0 has no parents")

        # One diff per level decides all three checks: a sorted, in-range parent
        # array leaves no node childless iff it runs 0..size-1 in steps <= 1.
        sizes, first_child = [1], [None]
        for n in range(1, self.depth + 1):
            par = self.parents[n]
            if par.size == 0:
                raise TreeError(f"level {n} is empty")
            step = np.diff(par)
            if step.min(initial=0) < 0:
                raise TreeError(f"parent array of level {n} is not nondecreasing")
            if par[0] < 0 or par[-1] >= sizes[n - 1]:
                raise TreeError(f"parent index out of range at level {n}")
            if par[0] != 0 or par[-1] != sizes[n - 1] - 1 or step.max(initial=0) > 1:
                raise TreeError(f"childless node at level {n - 1}")
            sizes.append(int(par.size))
            first_child.append(np.flatnonzero(np.concatenate(([1], step))))
        self.level_sizes = tuple(sizes)

        leaf_prob = np.asarray(leaf_prob, dtype=np.float64).copy()
        if leaf_prob.shape != (self.level_sizes[-1],):
            raise TreeError("leaf_prob shape mismatch")
        if abs(leaf_prob.sum() - 1.0) > PROB_SUM_TOL:
            raise TreeError("leaf probabilities must sum to 1 within 1e-12")
        if np.any(leaf_prob <= 0):
            raise TreeError("null atom: every leaf must have positive probability")
        self.leaf_prob = _freeze(leaf_prob)
        self.n_leaves = self.level_sizes[-1]

        # ancestors[n, leaf] = index of the level-n ancestor of each leaf.
        anc = np.empty((self.depth + 1, self.n_leaves), dtype=np.int64)
        anc[self.depth] = np.arange(self.n_leaves)
        for n in range(self.depth, 0, -1):
            anc[n - 1] = self.parents[n][anc[n]]
        self.ancestors = _freeze(anc)

        # node_prob[n][i] = probability of the level-n atom i, summed in leaf order.
        self.node_prob = tuple(
            _freeze(np.bincount(anc[n], weights=self.leaf_prob, minlength=self.level_sizes[n]))
            for n in range(self.depth + 1)
        )
        if any(p.min() <= 0 for p in self.node_prob):
            raise TreeError("null atom: every node must have positive probability")

        # First leaf of each node's contiguous leaf block: its first child's.
        starts = [np.arange(self.n_leaves)]
        for n in range(self.depth, 0, -1):
            starts.append(starts[-1][first_child[n]])
        self.leaf_start = tuple(_freeze(s) for s in reversed(starts))
        self.n_nodes = int(sum(self.level_sizes))

    # -- constructors ---------------------------------------------------

    @classmethod
    def dyadic(cls, depth: int) -> "FiltrationTree":
        """Uniform binary tree: the dyadic filtration on [0, 1]."""
        return cls.uniform(depth, 2)

    @classmethod
    @functools.cache
    def uniform(cls, depth: int, branching: int) -> "FiltrationTree":
        """Every node has ``branching`` children; built once per shape, shared read-only."""
        if not 0 <= depth <= MAX_DEPTH or branching < 1:
            raise TreeError(f"uniform tree needs depth 0..{MAX_DEPTH}, branching >= 1; got {depth}, {branching}")
        parents = [np.empty(0, dtype=np.int64)]
        for n in range(1, depth + 1):
            parents.append(np.repeat(np.arange(branching ** (n - 1)), branching))
        leaf_prob = np.full(branching**depth, float(branching) ** -depth)
        return cls(parents, leaf_prob)

    # -- helpers ---------------------------------------------------------

    def atom_average(self, n: int, leaf_values: np.ndarray) -> np.ndarray:
        """Probability-weighted average of a leaf array over each level-n atom."""
        leaf_values = np.asarray(leaf_values, dtype=np.float64)
        anc = self.ancestors[n]
        w = self.leaf_prob
        if leaf_values.ndim == 1:
            num = np.bincount(anc, weights=w * leaf_values, minlength=self.level_sizes[n])
        else:
            num = np.stack(
                [
                    np.bincount(anc, weights=w * leaf_values[:, k], minlength=self.level_sizes[n])
                    for k in range(leaf_values.shape[1])
                ],
                axis=1,
            )
            return num / self.node_prob[n][:, None]
        return num / self.node_prob[n]

    def atom_average_leaves(self, n: int, leaf_values: np.ndarray) -> np.ndarray:
        """Same as :meth:`atom_average` but broadcast back to the leaves."""
        return self.atom_average(n, leaf_values)[self.ancestors[n]]

    def expectation(self, leaf_values: np.ndarray) -> float | np.ndarray:
        leaf_values = np.asarray(leaf_values, dtype=np.float64)
        if leaf_values.ndim == 1:
            return float(self.leaf_prob @ leaf_values)
        return self.leaf_prob @ leaf_values

    def lp_norm(self, leaf_values: np.ndarray, p: float) -> float:
        """Exact L^p norm of a leaf-measurable quantity (p = inf allowed)."""
        x = np.abs(np.asarray(leaf_values, dtype=np.float64))
        if np.isinf(p):
            return float(x.max())
        if p <= 0:
            raise ValueError("p must be positive")
        return float((self.leaf_prob @ x**p) ** (1.0 / p))

    def node_level_offsets(self) -> list[int]:
        offs = [0]
        for s in self.level_sizes:
            offs.append(offs[-1] + s)
        return offs

    def same_shape(self, other: "FiltrationTree") -> bool:
        return self.level_sizes == other.level_sizes and all(
            np.array_equal(a, b) for a, b in zip(self.parents, other.parents)
        )


class TreeProcess:
    """Adapted process: one value (scalar or fixed-length vector) per node."""

    def __init__(self, tree: FiltrationTree, values: Sequence[np.ndarray]):
        self.tree = tree
        vals = []
        width = None
        for n, v in enumerate(values):
            v = np.asarray(v, dtype=np.float64).copy()
            if v.shape[0] != tree.level_sizes[n]:
                raise TreeError(f"value count mismatch at level {n}")
            if v.ndim == 2:
                if v.shape[1] > MAX_VECTOR_DIM:
                    raise TreeError(f"vector dimension exceeds guard {MAX_VECTOR_DIM}")
                w = v.shape[1]
            elif v.ndim == 1:
                w = 0
            else:
                raise TreeError("values must be scalars or fixed-length vectors")
            if width is None:
                width = w
            elif width != w:
                raise TreeError("inconsistent value dimensions across levels")
            vals.append(_freeze(v))
        if len(vals) != tree.depth + 1:
            raise TreeError("need one value array per level")
        self.values = vals
        self.width = width or 0
        self._paths: np.ndarray | None = None

    def paths(self) -> np.ndarray:
        """Per-path value matrix, shape (depth+1, n_leaves[, K])."""
        if self._paths is None:
            rows = [self.values[n][self.tree.ancestors[n]] for n in range(self.tree.depth + 1)]
            self._paths = _freeze(np.stack(rows, axis=0))
        return self._paths

    def leaf_values(self) -> np.ndarray:
        return self.values[-1]

    def component(self, k: int) -> "TreeProcess":
        if self.width == 0:
            raise TreeError("scalar process has no components")
        return TreeProcess(self.tree, [v[:, k] for v in self.values])

    @classmethod
    def from_paths(
        cls, tree: FiltrationTree, pathmat: np.ndarray, validate: bool = True
    ) -> "TreeProcess":
        """Build from a per-path matrix; row n must be constant on level-n atoms."""
        pathmat = np.asarray(pathmat, dtype=np.float64)
        values = []
        for n in range(tree.depth + 1):
            row = pathmat[n]
            starts = tree.leaf_start[n]
            vals = row[starts]
            if validate:
                spread = np.abs(row - vals[tree.ancestors[n]])
                if spread.max() > 1e-9 * max(1.0, np.abs(row).max()):
                    raise TreeError(f"path matrix is not adapted at level {n}")
            values.append(vals)
        return cls(tree, values)


class Martingale(TreeProcess):
    """Tree process satisfying the exact averaging property level by level."""

    def __init__(self, tree, values, validate: bool = True):
        super().__init__(tree, values)
        if validate:
            self.validate_martingale()

    def validate_martingale(self, rtol: float = MARTINGALE_RTOL) -> None:
        for n in range(1, self.tree.depth + 1):
            par = self.tree.parents[n]
            cp = self.tree.node_prob[n]
            v = self.values[n]
            size = self.tree.level_sizes[n - 1]
            if self.width == 0:
                child_mass = np.bincount(par, weights=cp * v, minlength=size)
                parent_mass = self.tree.node_prob[n - 1] * self.values[n - 1]
            else:
                child_mass = np.stack(
                    [np.bincount(par, weights=cp * v[:, k], minlength=size) for k in range(self.width)],
                    axis=1,
                )
                parent_mass = self.tree.node_prob[n - 1][:, None] * self.values[n - 1]
            scale = max(1.0, float(np.abs(child_mass).max(initial=0.0)))
            if np.abs(child_mass - parent_mass).max() > rtol * scale:
                raise TreeError(f"martingale averaging violated at level {n}")

    @classmethod
    def from_leaf_values(
        cls, tree: FiltrationTree, leaf_values: np.ndarray, validate: bool = False
    ) -> "Martingale":
        """Closed martingale f_n = E(f | F_n): back-propagate leaf averages."""
        leaf_values = np.asarray(leaf_values, dtype=np.float64)
        values = [None] * (tree.depth + 1)
        values[tree.depth] = leaf_values
        for n in range(tree.depth, 0, -1):
            par = tree.parents[n]
            cp = tree.node_prob[n]
            size = tree.level_sizes[n - 1]
            v = values[n]
            if leaf_values.ndim == 1:
                mass = np.bincount(par, weights=cp * v, minlength=size)
                values[n - 1] = mass / tree.node_prob[n - 1]
            else:
                mass = np.stack(
                    [np.bincount(par, weights=cp * v[:, k], minlength=size) for k in range(v.shape[1])],
                    axis=1,
                )
                values[n - 1] = mass / tree.node_prob[n - 1][:, None]
        return cls(tree, values, validate=validate)

    @classmethod
    def from_tree_process(cls, proc: TreeProcess, validate: bool = True) -> "Martingale":
        return cls(proc.tree, proc.values, validate=validate)


def conditional_expectation(tree: FiltrationTree, leaf_values: np.ndarray, n: int) -> np.ndarray:
    """E(f | F_n) for a leaf-measurable f, as one value per level-n atom."""
    if not 0 <= n <= tree.depth:
        raise TreeError(f"level {n} out of range 0..{tree.depth}")
    return tree.atom_average(n, leaf_values)


class StoppingRule:
    """Stopping time encoded as its first-marked-node set.

    The stopping level of a leaf is the level of the first marked node on its
    root-to-leaf path (INFINITY when no node is marked), so ``{tau <= n}`` is
    a union of level-n atoms by construction.
    """

    def __init__(self, tree: FiltrationTree, marks: Sequence[np.ndarray]):
        self.tree = tree
        ms = []
        for n, m in enumerate(marks):
            m = np.asarray(m, dtype=bool).copy()
            if m.shape != (tree.level_sizes[n],):
                raise TreeError(f"mark count mismatch at level {n}")
            ms.append(_freeze(m))
        if len(ms) != tree.depth + 1:
            raise TreeError("need one mark array per level")
        self.marks = ms
        times = np.full(tree.n_leaves, INFINITY, dtype=np.int64)
        for n in range(tree.depth, -1, -1):
            hit = self.marks[n][tree.ancestors[n]]
            times[hit] = n
        self.times = _freeze(times)

    def is_bounded(self) -> bool:
        return bool(self.times.max() <= self.tree.depth)

    @classmethod
    def never(cls, tree: FiltrationTree) -> "StoppingRule":
        return cls(tree, [np.zeros(s, dtype=bool) for s in tree.level_sizes])

    @classmethod
    def constant(cls, tree: FiltrationTree, n: int) -> "StoppingRule":
        marks = [np.zeros(s, dtype=bool) for s in tree.level_sizes]
        marks[n][:] = True
        return cls(tree, marks)

    @classmethod
    def from_times(cls, tree: FiltrationTree, times: np.ndarray, validate: bool = True) -> "StoppingRule":
        """Rebuild marks from per-leaf stopping levels; validates adaptedness."""
        times = np.asarray(times, dtype=np.int64)
        marks = []
        for n in range(tree.depth + 1):
            is_n = times == n
            flag = is_n[tree.leaf_start[n]]
            # {tau = n} must be a union of level-n atoms
            if validate and np.any(flag[tree.ancestors[n]] != is_n):
                raise TreeError(f"times are not a stopping rule at level {n}")
            marks.append(flag)
        return cls(tree, marks)

    def minimum(self, other: "StoppingRule") -> "StoppingRule":
        return StoppingRule.from_times(self.tree, np.minimum(self.times, other.times))

    def maximum(self, other: "StoppingRule") -> "StoppingRule":
        return StoppingRule.from_times(self.tree, np.maximum(self.times, other.times))


def hitting_time(f: TreeProcess, predicate: Callable[[np.ndarray], np.ndarray]) -> StoppingRule:
    """First time the process value satisfies the predicate.

    The predicate receives the level value array and must return a boolean
    array, so the decision at a node uses only that node's own value.
    """
    marks = []
    for v in f.values:
        hit = np.asarray(predicate(v), dtype=bool)
        if hit.shape != (v.shape[0],):
            raise TreeError("predicate must return one boolean per node")
        marks.append(hit)
    return StoppingRule(f.tree, marks)


def stop_process(f: Martingale, tau: StoppingRule) -> Martingale:
    """Stopped process f^tau, again a martingale on the same tree."""
    if f.tree is not tau.tree and not f.tree.same_shape(tau.tree):
        raise TreeError("process and stopping rule live on different trees")
    pm = f.paths()
    depth, n_leaves = f.tree.depth, f.tree.n_leaves
    lev = np.arange(depth + 1, dtype=np.int64)[:, None]
    idx = np.minimum(lev, np.minimum(tau.times, depth)[None, :])
    if f.width == 0:
        stopped = np.take_along_axis(pm, idx, axis=0)
    else:
        stopped = np.take_along_axis(pm, idx[:, :, None], axis=0)
    proc = TreeProcess.from_paths(f.tree, stopped)
    return Martingale(f.tree, proc.values)


def sigma_algebra_atoms(sigma: StoppingRule) -> np.ndarray:
    """Group key of the F_sigma atom containing each leaf.

    On {sigma = m} the atoms are the level-m atoms; on {sigma = infinity}
    they are the leaves themselves.
    """
    tree = sigma.tree
    offsets = tree.node_level_offsets()
    lev = np.minimum(sigma.times, tree.depth).astype(np.int64)
    node = tree.ancestors[lev, np.arange(tree.n_leaves)]
    return np.asarray(offsets, dtype=np.int64)[lev] + node


def conditional_expectation_at(sigma: StoppingRule, leaf_values: np.ndarray) -> np.ndarray:
    """E(f | F_sigma) per leaf, by weighted averaging over F_sigma atoms."""
    tree = sigma.tree
    key = sigma_algebra_atoms(sigma)
    order = np.argsort(key, kind="stable")
    w = tree.leaf_prob
    x = np.asarray(leaf_values, dtype=np.float64)
    ks = key[order]
    uniq, start = np.unique(ks, return_index=True)
    num = np.add.reduceat((w * x)[order], start)
    den = np.add.reduceat(w[order], start)
    means = num / den
    out = np.empty_like(x)
    out[order] = np.repeat(means, np.diff(np.append(start, len(ks))))
    return out


def sampled_value(f: TreeProcess, tau: StoppingRule) -> np.ndarray:
    """f_tau per leaf; tau must be bounded."""
    if not tau.is_bounded():
        raise TreeError("stopping time must be bounded to sample the process")
    pm = f.paths()
    return pm[tau.times, np.arange(f.tree.n_leaves)]


def optional_sampling_check(
    f: Martingale, sigma: StoppingRule, tau: StoppingRule, tol: float = 1e-10
) -> bool:
    """Whether f_{sigma ^ tau} = E(f_tau | F_sigma) holds within tol."""
    if not tau.is_bounded():
        raise TreeError("tau must be bounded")
    f_tau = sampled_value(f, tau)
    f_st = sampled_value(f, sigma.minimum(tau))
    cond = conditional_expectation_at(sigma, f_tau)
    scale = max(1.0, float(np.abs(f_tau).max(initial=0.0)))
    return bool(np.abs(f_st - cond).max() <= tol * scale)


# -- serialization -------------------------------------------------------


def tree_to_dict(tree: FiltrationTree, processes: dict[str, TreeProcess] | None = None) -> dict:
    """JSON form: depth, parents per level, leaf probabilities, and named
    processes as flat value lists in breadth-first node order."""
    out = {
        "depth": tree.depth,
        "parents": [p.tolist() for p in tree.parents[1:]],
        "leaf_probs": tree.leaf_prob.tolist(),
        "processes": {},
    }
    for name, proc in (processes or {}).items():
        if proc.width != 0:
            raise TreeError("only scalar processes serialize to JSON")
        flat: list = []
        for v in proc.values:
            flat.extend(v.tolist())
        out["processes"][name] = flat
    return out


def tree_from_dict(data: dict) -> tuple[FiltrationTree, dict[str, TreeProcess]]:
    depth = int(data["depth"])
    parents = [np.empty(0, dtype=np.int64)]
    parents += [np.asarray(p, dtype=np.int64) for p in data.get("parents", [])]
    if len(parents) != depth + 1:
        raise TreeError("parents do not match depth")
    tree = FiltrationTree(parents, np.asarray(data["leaf_probs"], dtype=np.float64))
    procs = {}
    for name, flat in data.get("processes", {}).items():
        values = []
        pos = 0
        for n in range(depth + 1):
            size = tree.level_sizes[n]
            chunk = flat[pos : pos + size]
            if len(chunk) != size:
                raise TreeError(f"process {name!r} has wrong length")
            values.append(np.asarray(chunk, dtype=np.float64))
            pos += size
        if pos != len(flat):
            raise TreeError(f"process {name!r} has wrong length")
        procs[name] = TreeProcess(tree, values)
    return tree, procs


def save_tree(path: str, tree: FiltrationTree, processes: dict[str, TreeProcess] | None = None) -> None:
    with open(path, "w") as fh:
        json.dump(tree_to_dict(tree, processes), fh, sort_keys=True)
        fh.write("\n")


def load_tree(path: str) -> tuple[FiltrationTree, dict[str, TreeProcess]]:
    with open(path) as fh:
        return tree_from_dict(json.load(fh))
