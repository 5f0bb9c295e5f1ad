"""Sharp square-function inequality via an explicit Bellman function.

The function U(x, y, m) = y - (|x|^2 + (gamma - 1) m^2) / m on the domain
|x| <= m is concave along martingale moves exactly when gamma >= 3, which
yields E Sf <= sqrt(3) E f* with the best possible constant.  The module
also hosts the extremal two-point construction approaching sqrt(3) from
below.

The pathwise form telescopes U along each path, so every sum in it is
F_n-measurable: ``pathwise_sharp_sides`` runs it as one parent-to-child
recursion over a flat node array, and a raw path matrix is the layout whose
parent maps are the identity.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import functionals as fn
from .report import CheckReport, CorpusSpec, RatioTracker, finish_report
from .tree import FiltrationTree, Martingale, NodeLayout

SQRT3 = math.sqrt(3.0)


@dataclass(frozen=True)
class BellmanPoint:
    x: float
    y: float
    m: float

    def __post_init__(self):
        if self.y < 0 or self.m < 0 or abs(self.x) > self.m:
            raise ValueError("need y >= 0, m >= 0 and |x| <= m")


def bellman_U(p: BellmanPoint | tuple, gamma: float = 3.0) -> float:
    """U(x, y, m) = y - (|x|^2 + (gamma-1) m^2) / m, with U(0, y, 0) = y by
    continuity (m = 0 forces x = 0)."""
    x, y, m = (p.x, p.y, p.m) if isinstance(p, BellmanPoint) else p
    if abs(x) > m:
        raise ValueError("outside the domain |x| <= m")
    if m == 0.0:
        return y
    return y - (x * x + (gamma - 1.0) * m * m) / m


def concavity_residual(x: float, h: float, y: float, m: float, gamma: float = 3.0) -> float:
    """Right side minus left side of the one-step inequality

        U(x+h, y + h^2/(|x+h| v m), |x+h| v m)  <=  U(x, y, m) - 2 x h / m.

    Nonnegative for every admissible (x, h, y, m) iff gamma >= 3; the
    |x+h| <= m branch is an exact identity.
    """
    if m <= 0:
        raise ValueError("need m > 0")
    if abs(x) > m:
        raise ValueError("need |x| <= m")
    m_new = max(abs(x + h), m)
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
    m: float = 1.0,
) -> tuple[float, dict]:
    """Minimum residual over a rectangular grid; returns (min, argmin)."""
    worst = math.inf
    arg = {}
    for x in np.linspace(-m, m, x_pts):
        for h in np.linspace(h_lo, h_hi, h_pts):
            for y in y_vals:
                res = concavity_residual(float(x), float(h), float(y), m, gamma)
                if res < worst:
                    worst = res
                    arg = {"gamma": gamma, "x": float(x), "h": float(h), "y": float(y), "m": m, "residual": res}
    return worst, arg


def concavity_counterexample(gamma: float, h_max: float = 16.0, h_pts: int = 641, x_pts: int = 41) -> dict | None:
    """Search for a strictly negative residual; exists for every gamma < 3.

    Violations live on the |x+h| > m branch near |h| = |x+h| - m, where the
    reduced form (t+1) - (t-1)^2/t = 3 - 1/t exceeds gamma once t > 1/(3-gamma),
    so the h-grid must reach past m/(3-gamma).
    """
    worst, arg = concavity_grid_min(gamma, x_pts=x_pts, h_lo=-h_max, h_hi=h_max, h_pts=h_pts, y_vals=(1.0,))
    if worst < -1e-12:
        return arg
    return None


# -- pathwise form ---------------------------------------------------------


def pathwise_sharp_sides(values: np.ndarray, layout: NodeLayout | None = None) -> tuple[np.ndarray, ...]:
    """Per-path sides of the pathwise inequality

        3|f_0| + sum_{n>=1} |df_n|^2 / f*_n
          <=  2 f*_N + |f_N|^2 / f*_N - sum_{n=0}^{N-1} 2 f_n df_{n+1} / f*_n

    for a flat node array on ``layout``, or for a (N+1, L) path matrix when
    ``layout`` is None.  Returns (lhs, rhs, Sf_N, f*_N), one entry per leaf
    (per path).  Terms with f*_n = 0 vanish (a zero running maximum forces
    f_n = 0 and df_n = 0), so the 0/0 convention is 0.  The drift sum pairs
    f_n with df_{n+1}, matching the telescoping of U along the path.  The
    squares, the quotients and the drift terms are summed in one scan along
    the paths, each in the order of its path.
    """
    if layout is None:
        layout = NodeLayout.rows(*values.shape)
        values = values.reshape(-1)
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


def pathwise_sharp_check(pathmat: np.ndarray, tol: float = 1e-10) -> bool:
    lhs, rhs, _, _ = pathwise_sharp_sides(np.asarray(pathmat, dtype=np.float64))
    scale = max(1.0, float(np.abs(rhs).max(initial=0.0)))
    return bool((lhs <= rhs + tol * scale).all())


def induction_values(mart: Martingale, gamma: float = 3.0) -> np.ndarray:
    """E U(f_n, S~_n, f*_n) per level; nonincreasing in n on any finite tree."""
    pm = mart.paths()
    w = mart.tree.leaf_prob
    fstar = fn.maximal_paths(pm)
    df = fn.increments(pm)
    quot = fn.quotient(df**2, fstar[1:])
    s_tilde = np.zeros_like(pm)
    fn.accumulate_rows(np.add, quot, out=s_tilde[1:])
    np.add(gamma * np.abs(pm[0]), s_tilde, out=s_tilde)
    out = []
    for n in range(pm.shape[0]):
        m = fstar[n]
        u = s_tilde[n] - fn.quotient(pm[n] ** 2 + (gamma - 1.0) * m * m, m)
        out.append(float(w @ u))
    return np.asarray(out)


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
    t0 = time.perf_counter()
    tracker = RatioTracker()
    worst_ratio_s = 0.0
    for mart in spec.martingales():
        w = mart.tree.leaf_prob
        lhs, rhs, sf, fstar = pathwise_sharp_sides(mart.flat, mart.tree.layout)
        e_s, e_star = sharp_davis_clause(tracker, sf, fstar, w)
        if e_star > 0:
            worst_ratio_s = max(worst_ratio_s, e_s / e_star)
        tracker.add(float(w @ lhs), float(w @ rhs))
        tracker.commit_trial()
    return finish_report("sharp_davis", {}, spec, tracker, t0, SQRT3, measured={"max_ES_over_Estar": worst_ratio_s})


# -- extremal construction ----------------------------------------------------


def extremal_tree(depth: int, r: float) -> Martingale:
    """Two-point extremal martingale: a fair unit first step, then alternating
    boundary branches d in {-x, r x} with probabilities r/(r+1), 1/(r+1) and
    fair refills d = +-m from zero."""
    if depth < 1:
        raise ValueError("need depth >= 1")
    if depth > 12:
        raise ValueError("extremal construction capped at depth 12")
    parents = [np.empty(0, dtype=np.int64)]
    values = [np.zeros(1)]
    x = np.zeros(1)
    m = np.zeros(1)
    cond = []
    for level in range(1, depth + 1):
        at_boundary = (np.abs(np.abs(x) - m) < 1e-12) & (m > 0)
        par = np.repeat(np.arange(x.size), 2)
        new_x = np.empty(x.size * 2)
        new_m = np.empty(x.size * 2)
        cp = np.empty(x.size * 2)
        for i in range(x.size):
            if m[i] == 0.0:  # opening fair step of unit size
                new_x[2 * i : 2 * i + 2] = (1.0, -1.0)
                new_m[2 * i : 2 * i + 2] = 1.0
                cp[2 * i : 2 * i + 2] = 0.5
            elif at_boundary[i]:
                new_x[2 * i] = 0.0
                new_m[2 * i] = m[i]
                cp[2 * i] = r / (r + 1.0)
                new_x[2 * i + 1] = x[i] * (1.0 + r)
                new_m[2 * i + 1] = m[i] * (1.0 + r)
                cp[2 * i + 1] = 1.0 / (r + 1.0)
            else:  # refill from zero to the running boundary
                new_x[2 * i : 2 * i + 2] = (m[i], -m[i])
                new_m[2 * i : 2 * i + 2] = m[i]
                cp[2 * i : 2 * i + 2] = 0.5
        parents.append(par)
        values.append(new_x.copy())
        cond.append(cp)
        x, m = new_x, new_m
    return Martingale(FiltrationTree.from_conditional(parents, cond), values)


def extremal_ratio(depth: int, r: float) -> float:
    mart = extremal_tree(depth, r)
    w = mart.tree.leaf_prob
    pm = mart.paths()
    e_s = float(w @ fn.square_function_paths(pm)[-1])
    e_star = float(w @ fn.maximal_paths(pm)[-1])
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

