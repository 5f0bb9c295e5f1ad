"""Sharp square-function inequality via an explicit Bellman function.

The function U(x, y, m) = y - (|x|^2 + (gamma - 1) m^2) / m on the domain
|x| <= m is concave along martingale moves exactly when gamma >= 3, which
yields E Sf <= sqrt(3) E f* with the best possible constant.  The module
also hosts the extremal two-point construction approaching sqrt(3) from
below, built a level at a time.  The concavity grid evaluates one array of
residuals per x value.

The pathwise form telescopes U along each path, so every sum in it is
F_n-measurable: ``pathwise_sharp_sides`` runs it as one parent-to-child
recursion over a flat node array, and ``induction_values`` and
``extremal_ratio`` read the node arrays of the same kernels.
"""

from __future__ import annotations

import math
import numpy as np

from . import functionals as fn
from .report import CheckReport, CorpusSpec, RatioTracker, run_trials
from .tree import FiltrationTree, Martingale, NodeLayout

SQRT3 = math.sqrt(3.0)
# the running maximum m of every concavity grid
GRID_M = 1.0
# the grid of the counterexample search: 641 values of h in [-16, 16], 41 of
# x in [-m, m] and y = 1
COUNTER_H_MAX = 16.0
COUNTER_H_PTS = 641
COUNTER_X_PTS = 41
# relative slack of the pathwise inequality, against max(1, max |rhs|)
PATHWISE_TOL = 1e-10


def bellman_U(p: tuple, gamma: float = 3.0) -> float:
    """U(x, y, m) = y - (|x|^2 + (gamma-1) m^2) / m, with U(0, y, 0) = y by
    continuity (m = 0 forces x = 0); elementwise on arrays of positive m."""
    x, y, m = p
    if np.any(np.abs(x) > m):
        raise ValueError("outside the domain |x| <= m")
    if np.ndim(m) == 0 and m == 0.0:
        return y
    return y - (x * x + (gamma - 1.0) * m * m) / m


def concavity_residual(x: float, h: float, y: float, m: float, gamma: float = 3.0) -> float:
    """Right side minus left side of the one-step inequality

        U(x+h, y + h^2/(|x+h| v m), |x+h| v m)  <=  U(x, y, m) - 2 x h / m.

    Nonnegative for every admissible (x, h, y, m) iff gamma >= 3; the
    |x+h| <= m branch is an exact identity.  Arrays broadcast, and each
    element is evaluated in the scalar order.
    """
    if np.any(m <= 0):
        raise ValueError("need m > 0")
    if np.any(np.abs(x) > m):
        raise ValueError("need |x| <= m")
    m_new = np.maximum(np.abs(x + h), m)
    lhs = bellman_U((x + h, y + h * h / m_new, m_new), gamma)
    rhs = bellman_U((x, y, m), gamma) - 2.0 * x * h / m
    return rhs - lhs


def concavity_grid_min(
    gamma: float = 3.0,
    x_pts: int = 41,
    h_lo: float = -5.0,
    h_hi: float = 5.0,
    h_pts: int = 201,
    y_vals: tuple = (0.0, 1.0, 10.0),
) -> tuple[float, dict]:
    """Minimum residual over a rectangular grid at m = GRID_M; returns
    (min, argmin), the first strict minimum in (x, h, y) order.  One
    (h, y) array of residuals per x; a NaN residual is never a minimum."""
    m = GRID_M
    worst = math.inf
    arg = {}
    hs, ys = np.linspace(h_lo, h_hi, h_pts), np.asarray(y_vals, dtype=np.float64)
    for x in np.linspace(-m, m, x_pts):
        res = concavity_residual(x, hs[:, None], ys, m, gamma)
        i, j = divmod(int(np.argmin(np.where(np.isnan(res), np.inf, res))), ys.size)
        if res[i, j] < worst:
            worst = float(res[i, j])
            arg = {"gamma": gamma, "x": float(x), "h": float(hs[i]), "y": float(ys[j]), "m": m, "residual": worst}
    return worst, arg


def concavity_counterexample(gamma: float) -> dict | None:
    """Search for a strictly negative residual; exists for every gamma < 3.

    Violations live on the |x+h| > m branch near |h| = |x+h| - m, where the
    reduced form (t+1) - (t-1)^2/t = 3 - 1/t exceeds gamma once t > 1/(3-gamma),
    so the h-grid must reach past m/(3-gamma); COUNTER_H_MAX = 16 reaches
    past it for every gamma < 3 - 1/16.
    """
    worst, arg = concavity_grid_min(
        gamma, x_pts=COUNTER_X_PTS, h_lo=-COUNTER_H_MAX, h_hi=COUNTER_H_MAX, h_pts=COUNTER_H_PTS, y_vals=(1.0,)
    )
    if worst < -1e-12:
        return arg
    return None


# -- pathwise form ---------------------------------------------------------


def pathwise_sharp_sides(values: np.ndarray, layout: NodeLayout) -> tuple[np.ndarray, ...]:
    """Per-path sides of the pathwise inequality

        3|f_0| + sum_{n>=1} |df_n|^2 / f*_n
          <=  2 f*_N + |f_N|^2 / f*_N - sum_{n=0}^{N-1} 2 f_n df_{n+1} / f*_n

    for a flat node array on ``layout``.  Returns (lhs, rhs, Sf_N, f*_N), one
    entry per leaf.  Terms with f*_n = 0 vanish (a zero running maximum
    forces f_n = 0 and df_n = 0), so the 0/0 convention is 0.  The drift sum
    pairs f_n with df_{n+1}, matching the telescoping of U along the path.
    The squares, the quotients and the drift terms are summed in one scan
    along the paths, each in the order of its path.
    """
    fstar = fn.maximal_paths(values, layout)
    up = layout.up
    prev = values[up]
    df = fn.increments(values, layout)
    terms = np.empty((values.shape[0], 3))  # |df|^2, |df|^2 / f*, 2 f_{n-1} df / f*_{n-1}
    np.square(df, out=terms[:, 0])
    terms[:, 1] = fn.quotient(terms[:, 0], fstar)
    terms[:, 2] = fn.quotient(2.0 * prev * df, fstar[up])
    sums = layout.leaves(layout.accumulate(np.add, terms, start=2))
    fstar, last = layout.leaves(fstar), layout.leaves(values)
    lhs = 3.0 * np.abs(values[: layout.offsets[1]]) + sums[:, 1]
    rhs = 2.0 * fstar + fn.quotient(last**2, fstar) - sums[:, 2]
    return lhs, rhs, np.sqrt(sums[:, 0]), fstar


def pathwise_sharp_check(mart: Martingale) -> bool:
    lhs, rhs, _, _ = pathwise_sharp_sides(mart.flat, mart.tree.layout)
    scale = max(1.0, float(np.abs(rhs).max(initial=0.0)))
    return bool((lhs <= rhs + PATHWISE_TOL * scale).all())


def induction_values(mart: Martingale, gamma: float = 3.0) -> np.ndarray:
    """E U(f_n, S~_n, f*_n) per level; nonincreasing in n on any finite tree.
    S~ and U are formed per node and each level's U is repeated over its leaf
    blocks for the expectation."""
    tree, layout, f = mart.tree, mart.tree.layout, mart.flat
    fstar = fn.maximal_paths(f, layout)
    s_tilde = fn.quotient(fn.increments(f, layout) ** 2, fstar)
    layout.accumulate(np.add, s_tilde, start=2)
    s_tilde += gamma * abs(f[0])
    u = s_tilde - fn.quotient(f**2 + (gamma - 1.0) * fstar * fstar, fstar)
    return np.asarray([float(tree.leaf_prob @ tree.to_leaves(n, u_n)) for n, u_n in enumerate(layout.levels(u))])


# -- sharp Davis bound over a corpus -----------------------------------------


def sharp_davis_clause(tracker: RatioTracker, sf: np.ndarray, fstar: np.ndarray, w: np.ndarray) -> tuple[float, float]:
    """Assert E Sf_N <= sqrt(3) E f*_N for one trial under leaf weights w;
    returns (E Sf_N, E f*_N)."""
    e_s = float(w @ sf)
    e_star = float(w @ fstar)
    tracker.add(e_s, SQRT3 * e_star)
    return e_s, e_star


def sharp_davis_check(spec: CorpusSpec) -> CheckReport:
    """E Sf <= sqrt(3) E f* asserted per trial, together with the expectation
    form E(3|f_0| + sum |df_n|^2 / f*_n) <= E(2 f*_N + |f_N|^2 / f*_N)."""

    def trial(tracker, i, mart):
        w = mart.tree.leaf_prob
        lhs, rhs, sf, fstar = pathwise_sharp_sides(mart.flat, mart.tree.layout)
        e_s, e_star = sharp_davis_clause(tracker, sf, fstar, w)
        if e_star > 0:
            tracker.measure("max_ES_over_Estar", e_s / e_star)
        tracker.add(float(w @ lhs), float(w @ rhs))

    return run_trials("sharp_davis", {}, spec, SQRT3, trial, {"max_ES_over_Estar": 0.0})


# -- extremal construction ----------------------------------------------------


def extremal_tree(depth: int, r: float) -> Martingale:
    """Two-point extremal martingale: a fair unit first step, then alternating
    boundary branches d in {-x, r x} with probabilities r/(r+1), 1/(r+1) and
    fair refills d = +-m from zero.

    Built a level at a time: every node opens (m = 0), branches at the
    boundary (|x| = m) or refills, and ``children`` selects each child's
    value, running maximum and conditional probability with ``np.where``.
    """
    if depth < 1:
        raise ValueError("need depth >= 1")
    if depth > 12:
        raise ValueError("extremal construction capped at depth 12")
    parents, values, cond = [np.empty(0, dtype=np.int64)], [np.zeros(1)], []
    x = m = np.zeros(1)
    for _ in range(depth):
        opening = m == 0.0
        boundary = (np.abs(np.abs(x) - m) < 1e-12) & (m > 0)

        def children(if_opening, if_boundary, if_refill):
            # the (left, right) children of every node, interleaved in node order
            picks = [np.where(opening, o, np.where(boundary, b, f)) for o, b, f in zip(if_opening, if_boundary, if_refill)]
            return np.stack(picks, axis=1).reshape(-1)

        parents.append(np.repeat(np.arange(x.size), 2))
        cond.append(children((0.5, 0.5), (r / (r + 1.0), 1.0 / (r + 1.0)), (0.5, 0.5)))
        x, m = children((1.0, -1.0), (0.0, x * (1.0 + r)), (m, -m)), children((1.0, 1.0), (m, m * (1.0 + r)), (m, m))
        values.append(x)
    return Martingale(FiltrationTree.from_conditional(parents, cond), values)


def extremal_ratio(depth: int, r: float) -> float:
    mart = extremal_tree(depth, r)
    w, layout = mart.tree.leaf_prob, mart.tree.layout
    e_s = float(w @ layout.leaves(fn.square_function_paths(mart.flat, layout)))
    e_star = float(w @ layout.leaves(fn.maximal_paths(mart.flat, layout)))
    return e_s / e_star


def extremal_search(depth: int, r_grid=tuple(float(r) for r in range(1, 9))) -> dict:
    """Best E Sf / E f* over the parameter grid at the given depth.

    Always strictly below sqrt(3); deeper trees and larger r approach it.
    """
    best = (0.0, None)
    for r in r_grid:
        val = extremal_ratio(depth, float(r))
        if val > best[0]:
            best = (val, float(r))
    if not best[0] <= SQRT3 + 1e-9:
        raise AssertionError(f"extremal ratio {best[0]} exceeds sqrt(3)")
    return {"depth": depth, "best_ratio": best[0], "best_r": best[1], "gap_to_sqrt3": SQRT3 - best[0]}

