"""Finite filtered probability spaces as rooted trees.

The sample space is the set of leaves of a finite rooted tree with positive
leaf probabilities.  Level-n nodes are the atoms of the n-th sigma-algebra,
so every discrete-time object (adapted process, martingale, stopping time,
conditional expectation) is an exact finite computation.

Leaf-block layout: nodes are indexed breadth-first, level by level, and the
parent array of each level is nondecreasing, so the leaves below any node
form one contiguous block.  A tree stores each block as its first leaf
(``leaf_start[n]``) and its length (``leaf_count[n]``); an F_n-measurable
function is one value per level-n node, and ``to_leaves(n, values)`` repeats
each value over its block.  Leaf arrays are made from the blocks only when a
caller needs them, so a tree holds O(n_nodes) numbers.  Arrays are frozen
and held in tuples, so trees are shared read-only.

Node arrays: a process keeps all its node values in one flat array, level
after level (``TreeProcess.flat``), and ``NodeLayout`` says where each level
lies in it and which node is each node's parent.  A functional that is
F_n-measurable at every level n is then one parent-to-child recursion over
n_nodes values (about 2L on a binary tree) rather than over the (N+1) L
entries of the path matrix ``TreeProcess.paths``.  ``TreeProcess.__init__`` validates
per-level values; producers that build the flat array themselves
(back-propagation, the tree JSON loader) hand it to ``from_flat``, the one
constructor that skips validation.
"""

from __future__ import annotations

import functools
import itertools
import json
from typing import Callable, Sequence

import numpy as np

# Sentinel for "never stops"; large enough to dominate any admissible depth.
INFINITY = np.iinfo(np.int64).max

# Largest tree, in nodes, that a check may run on: dyadic depth 22 has
# 2**23 - 1 nodes, and a doob plus davis_decomposition run on one such trial
# peaks at 1,272 MB (2-core x86-64 host with 8 GB); depth 24 would need about
# four times that.  MAX_DEPTH is the depth of that dyadic tree, which bounds
# the per-level arrays of a narrow tree too.
MAX_NODES = 2**23
MAX_DEPTH = MAX_NODES.bit_length() - 2
MAX_VECTOR_DIM = 64
# Shapes FiltrationTree.uniform keeps: default_suite uses dyadic depths 2-8
# and 10, so a suite never rebuilds one, and a process that walks through
# deep shapes holds at most this many trees.
UNIFORM_CACHE_SIZE = 16

PROB_SUM_TOL = 1e-12
MARTINGALE_RTOL = 1e-10


class TreeError(ValueError):
    pass


def guard_nodes(n_nodes: int) -> None:
    """Reject a tree of more than MAX_NODES nodes, before it is built."""
    if n_nodes > MAX_NODES:
        raise TreeError(f"{n_nodes} nodes exceed guard {MAX_NODES}")


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _group_sum(keys: np.ndarray, weights: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """Sums of weights * values per key; per column for (n, K) vector values."""
    if values.ndim == 1:
        return np.bincount(keys, weights=weights * values, minlength=size)
    out = np.empty((size, values.shape[1]))
    for k in range(values.shape[1]):
        out[:, k] = np.bincount(keys, weights=weights * values[:, k], minlength=size)
    return out


def accumulate_levels(ufunc: np.ufunc, levels, parents=None, start: int = 1) -> None:
    """Scan along every root-to-leaf path, in place, from level ``start`` on:
    levels[n] = ufunc(levels[n-1][parents[n]], levels[n]).

    ``levels`` holds one array per level (views into a flat node array, or
    the rows of a matrix); ``parents=None`` maps each entry to the one at the
    same position of the level before, as along the rows of a matrix.
    Each path sees ``ufunc.accumulate`` of its own values, the same
    operations in the same order.

    On the rows of a matrix this is ``ufunc.accumulate(m, axis=0)`` in place.
    numpy scans axis 0 one column at a time, stepping a whole row's stride per
    element; on the path matrices of the paraproduct check's windows (at
    most MAX_DEPTH + 1 rows of up to millions of paths) the contiguous row
    calls here are several times faster.  Tall, narrow grid bundles
    (hundreds of time steps over tens of paths) are the opposite case: there
    the overhead of one call per row exceeds the strided scan (150-200 against
    40 us at 128 x 64), so the time cumsums of the ito and rough layers and
    ``ito.AdaptedGridPartition.floor_indices`` keep ``ufunc.accumulate``.
    """
    for n in range(start, len(levels)):
        prev = levels[n - 1] if parents is None else levels[n - 1][parents[n]]
        ufunc(prev, levels[n], out=levels[n])


class NodeLayout:
    """Where each level of a flat, level-major node array lies, and how each
    level maps to the one before.

    Level n occupies ``flat[offsets[n]:offsets[n+1]]`` and ``parents[n]``
    maps level n into level n-1.  ``up`` is the flat index of every node's
    parent, with level 0 pointing at itself, and ``ancestors`` those of every
    node's ancestors, level by level.
    """

    def __init__(self, sizes: Sequence[int], parents: Sequence[np.ndarray]):
        self.offsets = tuple(itertools.accumulate(sizes, initial=0))
        self.parents = parents

    def levels(self, flat: np.ndarray) -> list[np.ndarray]:
        off = self.offsets
        return [flat[off[n] : off[n + 1]] for n in range(len(off) - 1)]

    def leaves(self, flat: np.ndarray) -> np.ndarray:
        """The last level's block of a flat node array."""
        return flat[self.offsets[-2] :]

    def accumulate(self, ufunc: np.ufunc, flat: np.ndarray, start: int = 1) -> np.ndarray:
        """:func:`accumulate_levels` on the levels of ``flat``, in place."""
        accumulate_levels(ufunc, self.levels(flat), self.parents, start)
        return flat

    @functools.cached_property
    def up(self) -> np.ndarray:
        off = self.offsets
        up = np.arange(off[-1], dtype=np.int64)
        if len(off) > 2:
            up[off[1] :] = np.concatenate(self.parents[1:])
            up[off[1] :] += np.repeat(off[:-2], np.diff(off[1:]))
        return _freeze(up)

    @functools.cached_property
    def ancestors(self) -> tuple[np.ndarray, ...]:
        """Per level n, the (n, size_n) flat indices of every level-n node's
        ancestors, row i the one at level i: its parent's ancestors, then its
        parent.  About (N - 1) 2^(N+1) entries on a dyadic tree of depth N,
        made once per layout."""
        off, up = self.offsets, self.up
        out = [np.empty((0, off[1]), dtype=np.int64)]
        for n in range(1, len(off) - 1):
            parent = up[off[n] : off[n + 1]]
            anc = np.empty((n, parent.size), dtype=np.int64)
            np.take(out[-1], parent - off[n - 1], axis=1, out=anc[:-1])
            anc[-1] = parent
            out.append(anc)
        return tuple(map(_freeze, out))


class FiltrationTree:
    """Rooted tree of atoms with leaf probabilities.

    ``parents[n]`` maps each level-n node to its parent at level n-1
    (``parents[0]`` is empty).  Parent arrays must be nondecreasing, which
    keeps descendant leaf blocks contiguous.
    """

    def __init__(self, parents: Sequence[np.ndarray], leaf_prob: np.ndarray):
        guard_nodes(1 + sum(len(p) for p in parents[1:]))
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
            step = par[1:] - par[:-1]
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
        self.n_nodes = int(sum(self.level_sizes))
        self.layout = NodeLayout(self.level_sizes, self.parents)

        # First leaf of each node's contiguous leaf block: its first child's.
        # The block runs up to the next node's first leaf, and the last block
        # of a level to the last leaf.  Both are kept as one flat node array
        # and read per level through views.
        starts = [np.arange(self.n_leaves)]
        for n in range(self.depth, 0, -1):
            starts.append(starts[-1][first_child[n]])
        start = _freeze(np.concatenate(starts[::-1]))
        count = np.empty_like(start)
        count[:-1] = start[1:]
        count[np.asarray(self.layout.offsets[1:]) - 1] = self.n_leaves
        count -= start
        self.leaf_start = tuple(self.layout.levels(start))
        self.leaf_count = tuple(self.layout.levels(_freeze(count)))

        # node_prob[n][i] = probability of the level-n atom i, summed in leaf order.
        self.node_prob = tuple(
            _freeze(np.bincount(self._leaf_keys(n), weights=self.leaf_prob, minlength=size))
            for n, size in enumerate(self.level_sizes)
        )
        if any(p.min() <= 0 for p in self.node_prob):
            raise TreeError("null atom: every node must have positive probability")

    # -- constructors ---------------------------------------------------

    @classmethod
    def dyadic(cls, depth: int) -> "FiltrationTree":
        """Uniform binary tree: the dyadic filtration on [0, 1]."""
        return cls.uniform(depth, 2)

    @classmethod
    @functools.lru_cache(maxsize=UNIFORM_CACHE_SIZE)
    def uniform(cls, depth: int, branching: int) -> "FiltrationTree":
        """Every node has ``branching`` children; built once per shape while
        the shape is among the UNIFORM_CACHE_SIZE most recently used, and
        shared read-only."""
        if not 0 <= depth <= MAX_DEPTH or branching < 1:
            raise TreeError(f"uniform tree needs depth 0..{MAX_DEPTH}, branching >= 1; got {depth}, {branching}")
        guard_nodes(sum(branching**n for n in range(depth + 1)))
        parents = [np.empty(0, dtype=np.int64)]
        for n in range(1, depth + 1):
            parents.append(np.repeat(np.arange(branching ** (n - 1)), branching))
        leaf_prob = np.full(branching**depth, float(branching) ** -depth)
        return cls(parents, leaf_prob)

    @classmethod
    def from_conditional(cls, parents: Sequence[np.ndarray], cond_prob: Sequence[np.ndarray]) -> "FiltrationTree":
        """Tree whose leaf probabilities are the products along each path of the
        conditional child probabilities, ``cond_prob[n - 1]`` for level n,
        multiplied from the leaf up and then normalised to sum to 1."""
        anc = np.arange(max(len(parents[-1]), 1), dtype=np.int64)
        leaf_prob = np.ones(anc.size)
        for n in range(len(parents) - 1, 0, -1):
            leaf_prob *= cond_prob[n - 1][anc]
            anc = parents[n][anc]
        leaf_prob /= leaf_prob.sum()
        return cls(parents, leaf_prob)

    # -- helpers ---------------------------------------------------------

    def to_leaves(self, n: int, node_values: np.ndarray) -> np.ndarray:
        """Repeat one value per level-n node (or row, for vectors) over its leaf block."""
        return node_values.repeat(self.leaf_count[n], axis=0)

    def _leaf_keys(self, n: int) -> np.ndarray:
        """Level-n node of each leaf: the ``np.bincount`` keys of block sums,
        which add each block in leaf order."""
        return self.to_leaves(n, np.arange(self.level_sizes[n]))

    def atom_average(self, n: int, leaf_values: np.ndarray) -> np.ndarray:
        """Probability-weighted average of a leaf array over each level-n atom."""
        leaf_values = np.asarray(leaf_values, dtype=np.float64)
        num = _group_sum(self._leaf_keys(n), self.leaf_prob, leaf_values, self.level_sizes[n])
        # the transposes divide every component of a node by that node's mass
        return (num.T / self.node_prob[n]).T

    def atom_average_leaves(self, n: int, leaf_values: np.ndarray) -> np.ndarray:
        """Same as :meth:`atom_average` but broadcast back to the leaves."""
        return self.to_leaves(n, self.atom_average(n, leaf_values))

    def expectation(self, leaf_values: np.ndarray) -> float | np.ndarray:
        leaf_values = np.asarray(leaf_values, dtype=np.float64)
        if leaf_values.ndim == 1:
            return float(self.leaf_prob @ leaf_values)
        return self.leaf_prob @ leaf_values

    def same_shape(self, other: "FiltrationTree") -> bool:
        return self.level_sizes == other.level_sizes and all(
            np.array_equal(a, b) for a, b in zip(self.parents, other.parents)
        )


class TreeProcess:
    """Adapted process: one value (scalar or fixed-length vector) per node."""

    def __init__(self, tree: FiltrationTree, values: Sequence[np.ndarray]):
        vals = [np.asarray(v, dtype=np.float64) for v in values]
        if len(vals) != tree.depth + 1:
            raise TreeError("need one value array per level")
        for n, v in enumerate(vals):
            if v.ndim not in (1, 2):
                raise TreeError("values must be scalars or fixed-length vectors")
            if v.shape[0] != tree.level_sizes[n]:
                raise TreeError(f"value count mismatch at level {n}")
            if v.shape[1:] != vals[0].shape[1:]:
                raise TreeError("inconsistent value dimensions across levels")
        self._adopt(tree, np.concatenate(vals))

    def _adopt(self, tree: FiltrationTree, flat: np.ndarray) -> None:
        # all node values, level after level on tree.layout; values[n] is a view
        if flat.ndim == 2 and flat.shape[1] > MAX_VECTOR_DIM:
            raise TreeError(f"vector dimension exceeds guard {MAX_VECTOR_DIM}")
        self.tree = tree
        self.flat = _freeze(flat)
        self.values = tree.layout.levels(flat)
        self.width = flat.shape[1] if flat.ndim == 2 else 0
        self._paths: np.ndarray | None = None

    @classmethod
    def from_flat(cls, tree: FiltrationTree, flat: np.ndarray):
        """A ``cls`` on a copy of one flat node array on ``tree.layout``, of
        shape (n_nodes,) or (n_nodes, K), without validation."""
        flat = np.array(flat, dtype=np.float64)
        if flat.ndim not in (1, 2) or flat.shape[0] != tree.n_nodes:
            raise TreeError("flat node array does not fit the tree")
        proc = cls.__new__(cls)
        proc._adopt(tree, flat)
        return proc

    def paths(self) -> np.ndarray:
        """Per-path value matrix, shape (depth+1, n_leaves[, K])."""
        if self._paths is None:
            # to_leaves of every level at once: row n repeats values[n] over leaf_count[n]
            tree = self.tree
            pm = np.repeat(self.flat, np.concatenate(tree.leaf_count), axis=0)
            self._paths = _freeze(pm.reshape((tree.depth + 1,) + self.values[-1].shape))
        return self._paths

    def leaf_values(self) -> np.ndarray:
        return self.values[-1]

    @classmethod
    def from_paths(cls, tree: FiltrationTree, pathmat: np.ndarray) -> "TreeProcess":
        """Build from a per-path matrix; row n must be constant on level-n atoms."""
        pathmat = np.asarray(pathmat, dtype=np.float64)
        values = []
        for n in range(tree.depth + 1):
            row = pathmat[n]
            vals = row[tree.leaf_start[n]]
            spread = np.abs(row - tree.to_leaves(n, vals))
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

    def validate_martingale(self) -> None:
        tree = self.tree
        for n in range(1, tree.depth + 1):
            child_mass = _group_sum(tree.parents[n], tree.node_prob[n], self.values[n], tree.level_sizes[n - 1])
            parent_mass = (self.values[n - 1].T * tree.node_prob[n - 1]).T
            scale = max(1.0, float(np.abs(child_mass).max(initial=0.0)))
            if np.abs(child_mass - parent_mass).max() > MARTINGALE_RTOL * scale:
                raise TreeError(f"martingale averaging violated at level {n}")

    @classmethod
    def from_leaf_values(cls, tree: FiltrationTree, leaf_values: np.ndarray) -> "Martingale":
        """Closed martingale f_n = E(f | F_n), from :func:`backprop_flat`."""
        return cls.from_flat(tree, backprop_flat(tree, leaf_values))


def backprop_flat(tree: FiltrationTree, leaf_values: np.ndarray) -> np.ndarray:
    """Flat node array of f_n = E(f | F_n): the leaves' level holds f, and
    each level above it the averages of its children, filled from the
    leaves up."""
    leaf_values = np.asarray(leaf_values, dtype=np.float64)
    if leaf_values.ndim not in (1, 2) or leaf_values.shape[0] != tree.n_leaves:
        raise TreeError("leaf values do not fit the tree")
    flat = np.empty((tree.n_nodes,) + leaf_values.shape[1:])
    levels = tree.layout.levels(flat)
    levels[-1][...] = leaf_values
    for n in range(tree.depth, 0, -1):
        mass = _group_sum(tree.parents[n], tree.node_prob[n], levels[n], tree.level_sizes[n - 1])
        np.divide(mass.T, tree.node_prob[n - 1], out=levels[n - 1].T)
    return flat


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
            times[tree.to_leaves(n, self.marks[n])] = n
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
    def from_times(cls, tree: FiltrationTree, times: np.ndarray) -> "StoppingRule":
        """Rebuild marks from per-leaf stopping levels; validates adaptedness."""
        times = np.asarray(times, dtype=np.int64)
        marks = []
        for n in range(tree.depth + 1):
            is_n = times == n
            flag = is_n[tree.leaf_start[n]]
            # {tau = n} must be a union of level-n atoms
            if np.any(tree.to_leaves(n, flag) != is_n):
                raise TreeError(f"times are not a stopping rule at level {n}")
            marks.append(flag)
        return cls(tree, marks)

    def minimum(self, other: "StoppingRule") -> "StoppingRule":
        return StoppingRule.from_times(self.tree, np.minimum(self.times, other.times))


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
    """Stopped process f^tau, again a martingale on the same tree.

    {tau <= n-1} is a union of level-(n-1) atoms, so each level-n node reads
    it at its parent: s_n = s_{n-1}[parent] there and f_n elsewhere.
    """
    if f.tree is not tau.tree and not f.tree.same_shape(tau.tree):
        raise TreeError("process and stopping rule live on different trees")
    values = [f.values[0]]
    stopped = tau.marks[0]  # tau <= n-1, per level-(n-1) node
    for n in range(1, f.tree.depth + 1):
        par = f.tree.parents[n]
        held = stopped[par]
        values.append(np.where(held if f.width == 0 else held[:, None], values[-1][par], f.values[n]))
        stopped = held | tau.marks[n]
    return Martingale(f.tree, values)


def conditional_expectation_at(sigma: StoppingRule, leaf_values: np.ndarray) -> np.ndarray:
    """E(f | F_sigma) per leaf.

    {sigma = n} is a union of level-n atoms, which are the F_sigma atoms
    there, so E(f | F_sigma) is the level-n atom average of f; on
    {sigma = infinity} the atoms are the leaves themselves.
    """
    tree = sigma.tree
    x = np.asarray(leaf_values, dtype=np.float64)
    lev = np.minimum(sigma.times, tree.depth)
    out = np.empty_like(x)
    for n in np.unique(lev):
        on = lev == n
        out[on] = tree.atom_average_leaves(n, x)[on]
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
        out["processes"][name] = proc.flat.tolist()
    return out


def _json(value, kind: type, what: str):
    """``value`` if it is a ``kind``; a TreeError that names its type otherwise."""
    if not isinstance(value, kind):
        raise TreeError(f"{what} must be a {kind.__name__}, got {type(value).__name__}")
    return value


def _json_array(value, what: str, dtype=np.float64) -> np.ndarray:
    try:
        return np.asarray(_json(value, list, what), dtype=dtype)
    except TypeError as exc:  # an object or null where a number belongs
        raise TreeError(f"{what}: {exc}") from None


def tree_from_dict(data: dict) -> tuple[FiltrationTree, dict[str, TreeProcess]]:
    """Inverse of :func:`tree_to_dict`; a JSON value of the wrong type is a TreeError."""
    levels = _json(_json(data, dict, "tree JSON").get("parents", []), list, "parents")
    if data["depth"] != len(levels):
        raise TreeError("parents do not match depth")
    parents = [np.empty(0, dtype=np.int64)]
    parents += [_json_array(p, f"parents of level {n}", np.int64) for n, p in enumerate(levels, 1)]
    tree = FiltrationTree(parents, _json_array(data["leaf_probs"], "leaf_probs"))
    procs = {}
    for name, values in _json(data.get("processes", {}), dict, "processes").items():
        flat = _json_array(values, f"process {name!r}")
        if flat.shape != (tree.n_nodes,):
            raise TreeError(f"process {name!r} has wrong length")
        procs[name] = TreeProcess.from_flat(tree, flat)
    return tree, procs


def save_tree(path: str, tree: FiltrationTree, processes: dict[str, TreeProcess] | None = None) -> None:
    with open(path, "w") as fh:
        json.dump(tree_to_dict(tree, processes), fh, sort_keys=True)
        fh.write("\n")


def load_tree(path: str) -> tuple[FiltrationTree, dict[str, TreeProcess]]:
    with open(path) as fh:
        return tree_from_dict(json.load(fh))
