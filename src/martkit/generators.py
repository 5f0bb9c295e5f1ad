"""Seeded martingale generators and corpus construction.

All randomness flows through counter-based Philox streams derived from an
explicit integer seed, so identical seeds reproduce corpora bit for bit and
per-trial streams are independent splits of the root seed.  Leaf
back-propagation fills and centers one flat node array, the trial's only
process; both dyadic walks come from one level-wise builder.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from .tree import MAX_DEPTH, FiltrationTree, Martingale, TreeError, backprop_flat, guard_nodes

# corpus trial indices must stay below 2**TRIAL_BITS (see _sub)
TRIAL_BITS = 20


def rng_for(seed: int, *key: int) -> np.random.Generator:
    """Philox stream for (seed, key...); distinct keys give independent streams."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


# the sample families of ``draw``
DISTS = ("normal", "uniform", "exponential", "sign")


def draw(dist: str, rng: np.random.Generator, size) -> np.ndarray:
    """Centered sample families used by the corpus generators."""
    if dist == "normal":
        return rng.normal(size=size)
    if dist == "uniform":
        return rng.uniform(-1.0, 1.0, size=size)
    if dist == "exponential":
        return rng.exponential(1.0, size=size) - 1.0
    if dist == "sign":
        return rng.choice([-1.0, 1.0], size=size)
    raise ValueError(f"unknown distribution {dist!r}")


def gen_leaf_backprop(dist: str, depth: int, seed: int, width: int = 0) -> Martingale:
    """Draw i.i.d. leaf values and back-propagate averages.

    The result is a closed martingale by construction, centered by
    subtracting the root value so that f_0 = 0.  ``width`` > 0 makes a
    vector-valued process of that many independent components.
    """
    tree = FiltrationTree.dyadic(depth)
    rng = rng_for(seed)
    shape = (tree.n_leaves,) if width == 0 else (tree.n_leaves, width)
    flat = backprop_flat(tree, draw(dist, rng, shape))
    flat -= flat[0]
    return Martingale.from_flat(tree, flat)


def gen_increment(depth: int, seed: int, dist: str = "normal") -> Martingale:
    """Random tree shape, 2 or 3 children per node, with child offsets
    re-centered to conditional mean zero."""
    # guarded while drawing: a random shape outgrows memory before the tree
    # constructor could reject it, so each level's node count is checked once
    # its child counts are drawn (dyadic generators rely on uniform's guard)
    if not 0 <= depth <= MAX_DEPTH:
        raise TreeError(f"depth {depth} exceeds guard {MAX_DEPTH}")
    if dist not in DISTS:  # checked before any draw: a depth-0 shape makes none
        raise ValueError(f"unknown distribution {dist!r}")
    rng = rng_for(seed)
    choices = np.array((2, 3))
    parents = [np.empty(0, dtype=np.int64)]
    values = [np.zeros(1)]
    cond_prob = []  # per level: conditional probability of each child
    sizes = [1]
    for n in range(1, depth + 1):
        # the draws of rng.choice((2, 3), size=...), without its checks
        kids = choices[rng.integers(0, choices.size, size=sizes[-1])]
        guard_nodes(sum(sizes) + int(kids.sum()))
        par = np.repeat(np.arange(sizes[-1]), kids)
        size = int(par.size)
        # child probabilities bounded away from 0 so no atom degenerates
        raw = rng.uniform(0.3, 1.0, size=size)
        mass = np.bincount(par, weights=raw, minlength=sizes[-1])
        cp = raw / mass[par]
        off = draw(dist, rng, size)
        mean = np.bincount(par, weights=cp * off, minlength=sizes[-1])
        vals = values[-1][par] + off - mean[par]
        parents.append(par)
        values.append(vals)
        cond_prob.append(cp)
        sizes.append(size)
    return Martingale(FiltrationTree.from_conditional(parents, cond_prob), values)


def _dyadic_walk(depth: int, steps: Iterable[float]) -> Martingale:
    """Walk on the dyadic tree of ``depth``: every level-n node steps by the
    n-th of ``steps`` from its parent at an even index and by its negative at
    an odd one.  ``steps`` is read one level at a time, after the tree is built."""
    tree = FiltrationTree.dyadic(depth)
    values = [np.zeros(1)]
    for n, step in zip(range(1, depth + 1), steps):
        signs = np.where(np.arange(2**n) % 2 == 0, step, -step)
        values.append(values[-1][tree.parents[n]] + signs)
    return Martingale(tree, values)


def gen_scaled_walk(depth: int) -> Martingale:
    """Fair random walk with increments +-1/sqrt(depth); S f_depth = 1.

    Exact in floating point whenever sqrt(depth) is a power of two
    (depth = 4, 16, 64, ...).
    """
    if depth < 1:
        raise TreeError("walk needs depth >= 1")
    return _dyadic_walk(depth, [1.0 / math.sqrt(depth)] * depth)


def gen_doubling(depth: int) -> Martingale:
    """Doubling martingale f_n = 2^n on [0, 2^-n]: L^1-bounded, E f_n = 1,
    converging pointwise to 0, not uniformly integrable."""
    tree = FiltrationTree.dyadic(depth)
    leaves = np.zeros(tree.n_leaves)
    leaves[0] = 2.0**depth
    return Martingale.from_leaf_values(tree, leaves)


def gen_log_weight(depth: int) -> Martingale:
    """Positive L^1 martingale whose maximal function is not integrable
    (closure of sum_m (m+1)^-2 2^m on [2^-m-1, 2^-m])."""
    tree = FiltrationTree.dyadic(depth)
    n = tree.n_leaves
    leaves = np.zeros(n)
    for m in range(depth):
        lo = n >> (m + 1)
        hi = n >> m
        leaves[lo:hi] = (m + 1.0) ** -2 * 2.0**m
    tail = math.pi**2 / 6.0 - sum((k + 1.0) ** -2 for k in range(depth))
    leaves[0] = 2.0 ** (depth - 1) * tail
    return Martingale.from_leaf_values(tree, leaves)


def gen_walk_increments(depth: int, seed: int) -> Martingale:
    """Martingale with independent symmetric increments of random magnitude,
    one uniform(0.1, 1) draw per level from the root down."""
    rng = rng_for(seed)
    return _dyadic_walk(depth, (float(rng.uniform(0.1, 1.0)) for _ in range(depth)))


# the generators of ``generate``; only those in DRAWING read a distribution
GENERATORS = ("backprop", "increment", "walk", "doubling", "log_weight", "scaled_walk")
DRAWING = ("backprop", "increment")


def generate(gen: str, depth: int, seed: int, dist: str = "normal", width: int = 0) -> Martingale:
    """One martingale of generator ``gen``: the dispatch of ``martkit gen``,
    which passes its seed, and of ``corpus_martingale``, which passes each
    trial's own seed.  ``width`` reaches only backprop."""
    if gen == "backprop":
        return gen_leaf_backprop(dist, depth, seed=seed, width=width)
    if gen == "increment":
        return gen_increment(depth, seed=seed, dist=dist)
    if gen == "walk":
        return gen_walk_increments(depth, seed=seed)
    if gen == "doubling":
        return gen_doubling(depth)
    if gen == "log_weight":
        return gen_log_weight(depth)
    if gen == "scaled_walk":
        return gen_scaled_walk(depth)
    raise ValueError(f"unknown generator {gen!r}")


_MIX_DISTS = ("normal", "uniform", "exponential")

# the corpus kinds of ``corpus_martingale``: the generators, "mixed" and "family"
KINDS = ("mixed", "backprop", "increment", "walk", "family", "doubling", "log_weight", "scaled_walk")


def corpus_martingale(kind: str, depth: int, seed: int, index: int, dist: str = "normal", width: int = 0) -> Martingale:
    """Trial ``index`` of a deterministic corpus.

    ``kind="mixed"`` rotates distributions and tree shapes to cover both
    dyadic and irregular atomic filtrations; depth varies between 2 and the
    requested bound.  ``kind="family"`` is backprop with at least 4
    components.
    """
    if kind == "mixed":
        d = 2 + (index % max(1, depth - 1))
        if index % 10 < 7 or width:
            return gen_leaf_backprop(_MIX_DISTS[index % 3], d, seed=_sub(seed, index), width=width)
        return gen_increment(d, seed=_sub(seed, index), dist=_MIX_DISTS[index % 3])
    if kind == "family":
        return generate("backprop", depth, _sub(seed, index), dist, width or 4)
    if kind not in GENERATORS:
        raise ValueError(f"unknown corpus kind {kind!r}")
    return generate(kind, depth, _sub(seed, index), dist, width)


def _sub(seed: int, index: int) -> int:
    # stable per-trial seed packed as (seed << TRIAL_BITS) + index, not a spawn
    # key: an index of 2**TRIAL_BITS or more would replay seed + 1's corpus
    return (int(seed) << TRIAL_BITS) + int(index)
