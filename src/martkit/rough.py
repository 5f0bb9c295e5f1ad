"""Sewing, Young integration, rough paths, controlled paths, and the
Picard solver for rough differential equations.

Paths are sampled on a finite time grid.  A piecewise-linear path can be
evaluated between samples, so Riemann-type sums refine indefinitely; a
piecewise-constant cadlag path saturates at its own grid, which is then the
finest resolvable partition scale.  A ``Control`` has a cheap float
``lower(s, t)`` at most omega(s, t), so a spot check of ``sew`` runs the
control's chain DP only when the defect exceeds ``lower ** theta``.
Controlled paths have scalar state and a d-dimensional driver; second-level
arrays and the remainder R, built once per path, are dense on grid pairs
(n <= 512 guard).  Distances between path values are made a block of
columns at a time, so no variation holds an (n, n) distance matrix.  The
RDE solver splits a window at the grid time that halves V^r X, from a
forward chain DP, which also gives V^r X, and a reversed one.  Each Picard
step sews one iterate Z from y0 and takes six variations, |Z|_r, |Z'|_r and
|R^Z|_{r/2} and the same three norms of its difference from the previous
iterate Y, as two chain DPs over stacked problems (``picard_norms``): one
at r over four sequences, one at r/2 over two remainders.  A coefficient
declares three sups, of phi and its first two derivatives; the sup of a
derivative is the Lipschitz constant the estimates read.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import functionals as fn
from .functionals import chain_dp

GRID_GUARD = 512
# cells of one Young refinement level: a level of 2^21 cells allocates about
# 100 MB at its peak; a 4,096-step line converges at tol 5e-7 with 2^20
YOUNG_CELLS = 2**21


class SewingError(RuntimeError):
    pass


class RdeError(RuntimeError):
    pass


def zeta_sum(theta: float) -> float:
    """sum_{k>=1} (2/k)^theta = 2^theta zeta(theta), theta > 1 (Euler-Maclaurin)."""
    if not theta > 1:
        raise ValueError("need theta > 1")
    K = 2000
    k = np.arange(1, K + 1, dtype=np.float64)
    z = float((k**-theta).sum()) + K ** (1.0 - theta) / (theta - 1.0) - 0.5 * K**-theta + theta * K ** (-theta - 1.0) / 12.0
    return 2.0**theta * z


# -- sampled paths -----------------------------------------------------------


@dataclass
class SampledPath:
    """Finite-grid path on [0, T] with values in R^d.

    ``interpretation`` is "linear" (evaluate between samples by linear
    interpolation) or "step" (right-continuous piecewise constant).
    """

    times: np.ndarray
    values: np.ndarray
    interpretation: str = "step"

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=np.float64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim == 1:
            self.values = self.values[:, None]
        if self.times.ndim != 1 or np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")
        if self.times[0] != 0.0:
            raise ValueError("paths start at time 0")
        if self.values.shape[0] != self.times.size:
            raise ValueError("one value per grid time required")
        if self.times.size - 1 > GRID_GUARD * 16:
            raise ValueError(f"grid exceeds guard {GRID_GUARD * 16}")
        if self.interpretation not in ("step", "linear"):
            raise ValueError("interpretation must be 'step' or 'linear'")

    @property
    def T(self) -> float:
        return float(self.times[-1])

    @property
    def dim(self) -> int:
        return int(self.values.shape[1])

    def eval(self, t: np.ndarray) -> np.ndarray:
        t = np.atleast_1d(np.asarray(t, dtype=np.float64))
        if self.interpretation == "step":
            idx = np.clip(np.searchsorted(self.times, t, side="right") - 1, 0, self.times.size - 1)
            return self.values[idx]
        out = np.empty((t.size, self.dim))
        for k in range(self.dim):
            out[:, k] = np.interp(t, self.times, self.values[:, k])
        return out

    @classmethod
    def line(cls, T: float, n: int) -> "SampledPath":
        t = np.linspace(0.0, T, n + 1)
        return cls(t, t.copy(), "linear")


# -- controls ---------------------------------------------------------------


class Control:
    """Superadditive two-parameter function omega(s, t) with memoization.

    ``lower(s, t)`` is a cheap float at most omega(s, t): the memoized value
    if there is one, else that of the ``lower`` function given here, or 0.0
    without one."""

    def __init__(self, fun: Callable[[float, float], float], lower: Callable[[float, float], float] | None = None):
        self._fun = fun
        self._lower = lower
        self._memo: dict[tuple[float, float], float] = {}

    def __call__(self, s: float, t: float) -> float:
        if t <= s:
            return 0.0
        key = (float(s), float(t))
        if key not in self._memo:
            self._memo[key] = float(self._fun(*key))
        return self._memo[key]

    def lower(self, s: float, t: float) -> float:
        """A float at most omega(s, t), made without evaluating omega."""
        if t <= s:
            return 0.0
        key = (float(s), float(t))
        if key in self._memo:
            return self._memo[key]
        return 0.0 if self._lower is None else float(self._lower(*key))

    def __add__(self, other: "Control") -> "Control":
        # rounded addition is monotone, so the sum of the bounds bounds the sum
        return Control(lambda s, t: self(s, t) + other(s, t), lambda s, t: self.lower(s, t) + other.lower(s, t))


def variation_control(path: SampledPath, r: float) -> Control:
    """omega(s, t) = V^r(path restricted to [s, t])^r, an exact control.

    Its ``lower`` is the one-step chain's cost |x_t - x_s|^r, made by the
    DP's own cost ops: the DP's last column holds that candidate, so its
    float maximum is at least as large."""

    def fun(s: float, t: float) -> float:
        grid = path.times
        mask = (grid > s) & (grid < t)
        pts = np.concatenate([path.eval(np.array([s])), path.values[mask], path.eval(np.array([t]))], axis=0)
        return chain_dp(fn.PathGaps(pts[:, 0]) if path.dim == 1 else fn.DistColumns(pts), r).max()

    def lower(s: float, t: float) -> float:
        ends = np.concatenate([path.eval(np.array([s])), path.eval(np.array([t]))], axis=0)
        return fn.step_cost(ends[:, 0] if path.dim == 1 else ends, r)

    return Control(fun, lower)


def _prefix_controls(values: np.ndarray, r: float) -> np.ndarray:
    """omega(0, t_k) at every grid index k, omega the r-variation control of
    the path with these (n+1, d) values: the running maximum of one forward
    chain DP.  Its last entry is V^r(path)^r, the value that
    ``variation_control(path, r)(0, T)`` gives on the grid."""
    return np.maximum.accumulate(chain_dp(fn.PathGaps(values[:, 0]) if values.shape[1] == 1 else fn.DistColumns(values), r))


# -- sewing ------------------------------------------------------------------


@dataclass
class SewResult:
    value: float
    germ_value: float
    error_bound: float
    levels: int
    diffs: list[float]
    converged: bool
    hypothesis_ok: bool


def sew(
    xi: Callable[[np.ndarray], np.ndarray],
    omega: Control,
    theta: float,
    T: float,
    tol: float = 1e-9,
    max_level: int = 26,
    split: Callable[[float, float], float | None] | None = None,
    seed: int = 0,
) -> SewResult:
    """Limit of Riemann sums of a germ whose defect is controlled by omega^theta.

    The germ takes a partition p_0 < ... < p_m and returns its m values
    Xi(p_k, p_{k+1}), one per cell, so it can evaluate the paths once per
    point.  Refines [0, T] by asking ``split`` for one interior point per
    cell (real midpoints by default; a path-aware splitter saturates step
    paths at their grid) until successive sums differ by less than tol.  Default midpoints
    are interleaved with the cell ends in one pass; only when a midpoint
    rounds onto an end (cells a few ulps wide) are they sorted and
    deduplicated by ``np.unique``, as a splitter's points always are.  The
    a-priori bound sum_k (2/k)^theta omega(0, T)^theta against the
    single-cell germ is verified on the result.  Each of the 16 spot checks of the hypothesis
    |delta Xi| <= omega^theta evaluates omega(s, t) only when the defect exceeds
    ``omega.lower(s, t) ** theta``; omega(0, T) is always evaluated.
    """
    if not theta > 1:
        raise ValueError("need theta > 1")
    parts = np.array([0.0, T])
    germ_value = float(np.asarray(xi(parts))[0])
    value = germ_value
    diffs: list[float] = []
    converged = False
    levels = 0
    for level in range(1, max_level + 1):
        if split is None:
            merged = np.empty(2 * parts.size - 1)
            merged[::2] = parts
            merged[1::2] = 0.5 * (parts[:-1] + parts[1:])
            # strictly increasing is np.unique's output; a midpoint that
            # rounds onto an endpoint needs the sort
            parts = merged if (merged[1:] > merged[:-1]).all() else np.unique(merged)
        else:
            new_pts = np.array([m for m in map(split, parts[:-1], parts[1:]) if m is not None])
            if new_pts.size == 0:
                converged = True  # no cell can be refined further: grid saturated
                break
            parts = np.unique(np.concatenate([parts, new_pts]))
        new_value = float(np.asarray(xi(parts)).sum())
        diffs.append(abs(new_value - value))
        value = new_value
        levels = level
        if diffs[-1] < tol:
            converged = True
            break
    if not converged:
        raise SewingError(f"Riemann sums not Cauchy after {max_level} refinement levels (last diff {diffs[-1]:.3e})")

    hypothesis_ok = True
    rng = np.random.default_rng(seed)
    for _ in range(16):
        if parts.size < 3:
            break
        i, j, k = np.sort(rng.choice(parts.size, size=3, replace=False))  # i < j < k
        s, u, t = parts[i], parts[j], parts[k]
        left, right = xi(np.array([s, u, t]))
        defect = abs(float(xi(np.array([s, t]))[0]) - float(left) - float(right))
        # lower <= omega and pow is within an ulp, inside the test's slack:
        # a defect the lower bound passes passes the exact test too
        if defect > omega.lower(s, t) ** theta and defect > omega(s, t) ** theta * (1.0 + 1e-9) + 1e-12:
            hypothesis_ok = False
    if not hypothesis_ok:
        warnings.warn("sewing hypothesis |delta Xi| <= omega^theta failed a spot check", stacklevel=2)

    bound = zeta_sum(theta) * omega(0.0, T) ** theta
    if abs(value - germ_value) > bound * (1.0 + 1e-9) + 1e-12:
        raise SewingError(f"sewn value violates the a-priori bound: |{value:.6g} - {germ_value:.6g}| > {bound:.6g}")
    return SewResult(value, germ_value, bound, levels, diffs, converged, hypothesis_ok)


def young_germ(a: SampledPath, g: SampledPath) -> Callable[[np.ndarray], np.ndarray]:
    """Xi(s, t) = a_s (g_t - g_s), summed over components, on every cell of a
    partition: each path is evaluated once per point, and once in all when
    ``a is g``."""

    def xi(parts: np.ndarray) -> np.ndarray:
        gv = g.eval(parts)
        av = gv if a is g else a.eval(parts)
        return (av[:-1] * (gv[1:] - gv[:-1])).sum(axis=1)

    return xi


def young_integral(a: SampledPath, g: SampledPath, r: float, tol: float = 1e-9) -> tuple[SampledPath, dict]:
    """Running Young integral t -> int_0^t a dg via left-point sums.

    Each grid cell is refined dyadically (linear paths) or saturated at the
    grid (step paths) until the prefix sums are Cauchy within tol, while a
    level's cells fit YOUNG_CELLS; a level past it raises ``SewingError``.
    Needs r < 2 so that the germ defect omega^(2/r) is summable.
    """
    if not 0 < r < 2:
        raise ValueError("Young integration needs variation exponent r < 2")
    if a.dim != 1 or g.dim != 1:
        raise ValueError("scalar paths expected")
    if a.times.size != g.times.size or np.any(a.times != g.times):
        raise ValueError("paths must share a grid")
    times = g.times
    u, v = times[:-1], times[1:]
    germ = young_germ(a, g)
    contrib = germ(times)
    diffs = []
    refinable = a.interpretation == "linear" or g.interpretation == "linear"
    level = 0
    while refinable:
        level += 1
        m = 1 << level
        if u.size * m > YOUNG_CELLS:
            raise SewingError(f"Young sums not Cauchy within {YOUNG_CELLS} cells a level; last diffs {diffs[-3:]}")
        frac = np.arange(m, dtype=np.float64) / m
        sub_lo = u[:, None] + (v - u)[:, None] * frac[None, :]
        # the cells of all grid steps in time order: each step ends where the next starts
        new_contrib = germ(np.append(sub_lo.ravel(), v[-1])).reshape(u.size, m).sum(axis=1)
        diffs.append(float(np.abs(np.cumsum(new_contrib) - np.cumsum(contrib)).max()))
        contrib = new_contrib
        if diffs[-1] < tol:
            break
    path = SampledPath(times, np.concatenate([[0.0], np.cumsum(contrib)]), "linear")
    return path, {"levels": level, "diffs": diffs}


# -- rough paths --------------------------------------------------------------


@dataclass
class RoughPath:
    """(X, XX) with the Chen relation on all grid pairs; r in [2, 3)."""

    path: SampledPath
    xx: np.ndarray  # (n+1, n+1, d, d)
    r: float = 2.5

    def __post_init__(self):
        n = self.path.times.size - 1
        if n > GRID_GUARD:
            raise ValueError(f"rough layer grid exceeds guard {GRID_GUARD}")
        if not 2.0 <= self.r < 3.0:
            raise ValueError("rough variation exponent must lie in [2, 3)")
        d = self.path.dim
        if self.xx.shape != (n + 1, n + 1, d, d):
            raise ValueError("second-level array shape mismatch")

    @property
    def times(self) -> np.ndarray:
        return self.path.times

    @property
    def dim(self) -> int:
        return self.path.dim

    def increments(self) -> np.ndarray:
        """delta X_{s,t} for all grid pairs, shape (n+1, n+1, d)."""
        x = self.path.values
        return x[None, :, :] - x[:, None, :]

    def restrict(self, i0: int, i1: int) -> "RoughPath":
        t = self.path.times[i0 : i1 + 1] - self.path.times[i0]
        vals = self.path.values[i0 : i1 + 1]
        sub = SampledPath(t, vals.copy(), self.path.interpretation)
        return RoughPath(sub, self.xx[i0 : i1 + 1, i0 : i1 + 1].copy(), self.r)


def lift(X: SampledPath, r: float = 2.5) -> RoughPath:
    """Left-point second level XX_{s,t} = sum_{s<=u_i<t} (X_i - X_s) (x) dX_i.

    Chen's relation holds exactly on grid triples by construction.
    """
    x = X.values
    n = x.shape[0] - 1
    if n > GRID_GUARD:
        raise ValueError(f"rough layer grid exceeds guard {GRID_GUARD}")
    dx = np.diff(x, axis=0)
    terms = np.einsum("ni,nj->nij", x[:-1], dx)
    csum = np.concatenate([np.zeros((1, X.dim, X.dim)), np.cumsum(terms, axis=0)], axis=0)
    delta = x[None, :, :] - x[:, None, :]
    xx = csum[None, :] - csum[:, None] - np.einsum("si,stj->stij", x, delta)
    n1 = n + 1
    tri = np.tril(np.ones((n1, n1)), k=0).astype(bool)
    xx[tri] = 0.0
    return RoughPath(SampledPath(X.times, x.copy(), X.interpretation), xx, r)


def rough_line(T: float, n: int, r: float = 2.5) -> RoughPath:
    """X_t = t with the exact second level (t - s)^2 / 2."""
    if n > GRID_GUARD:
        raise ValueError(f"rough layer grid exceeds guard {GRID_GUARD}")
    t = np.linspace(0.0, T, n + 1)
    delta = t[None, :] - t[:, None]
    xx = np.where(delta > 0, delta**2 / 2.0, 0.0)[:, :, None, None]
    return RoughPath(SampledPath(t, t.copy(), "linear"), xx, r)


# -- controlled paths ----------------------------------------------------------


def two_param_variation(xi: np.ndarray, rho: float) -> float:
    """Exact rho-variation of a two-parameter grid array over partitions
    (Frobenius norm per pair for array-valued entries)."""
    xi = np.asarray(xi, dtype=np.float64)
    mag = np.sqrt((xi.reshape(xi.shape[0], xi.shape[1], -1) ** 2).sum(axis=-1))
    return float(chain_dp(mag, rho).max()) ** (1.0 / rho)


@dataclass
class ControlledPath:
    """Scalar-state path controlled by a rough driver: Y, Y' with
    R_{s,t} = delta Y_{s,t} - Y'_s delta X_{s,t} of finite (r/2)-variation."""

    rough: RoughPath
    values: np.ndarray  # (n+1,)
    deriv: np.ndarray  # (n+1, d)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        self.deriv = np.asarray(self.deriv, dtype=np.float64)
        n1 = self.rough.times.size
        if self.values.shape != (n1,) or self.deriv.shape != (n1, self.rough.dim):
            raise ValueError("controlled path shape mismatch")

    @functools.cached_property
    def remainder(self) -> np.ndarray:
        """R on all grid pairs, (n+1, n+1): built once per path, read-only."""
        dy = self.values[None, :] - self.values[:, None]
        rem = dy - np.einsum("sd,std->st", self.deriv, self.rough.increments())
        rem.flags.writeable = False
        return rem


def picard_norms(Z: ControlledPath, Y: ControlledPath) -> tuple[dict, tuple[float, float, float]]:
    """({"Y_r", "Yp_r", "Yp_sup", "R_r2"} norms of Z, (|R^Z - R^Y|_{r/2},
    |Z' - Y'|_r, |Z - Y|_r)): one chain DP at r over the (n, 4, d) stack of
    Z, Z', Z' - Y' and Z - Y, scalars padded with zeros (x^2 + 0.0 == x^2),
    one at r/2 over the (n, n, 2) magnitudes of R^Z and R^Z - R^Y.  Each root
    is ``float(best) ** (1 / exponent)``, the float of the problem's own DP."""
    r, rho = Z.rough.r, Z.rough.r / 2.0
    stack = np.zeros((Z.values.size, 4, Z.deriv.shape[1]))
    stack[:, 0, 0], stack[:, 1], stack[:, 2], stack[:, 3, 0] = Z.values, Z.deriv, Z.deriv - Y.deriv, Z.values - Y.values
    mag = np.sqrt(np.stack([Z.remainder, Z.remainder - Y.remainder], axis=-1) ** 2)
    z_r, zp_r, dp_r, dz_r = (float(b) ** (1.0 / r) for b in chain_dp(fn.DistColumns(stack), r).max(axis=0))
    rz, drz = (float(b) ** (1.0 / rho) for b in chain_dp(mag, rho).max(axis=0))
    zp_sup = float(np.sqrt((Z.deriv**2).sum(axis=1)).max())
    return {"Y_r": z_r, "Yp_r": zp_r, "Yp_sup": zp_sup, "R_r2": rz}, (drz, dp_r, dz_r)


@dataclass
class ControlledCovector:
    """Integrand path with values in L(R^d, R): P (n+1, d), P' (n+1, d, d)."""

    rough: RoughPath
    values: np.ndarray
    deriv: np.ndarray


# -- smooth coefficient functions ------------------------------------------------


@dataclass
class SmoothFunction:
    """Coefficient phi: R -> L(R^d, R) with declared norm bounds, trusted
    inputs for all estimates.  A Lipschitz constant is the sup of the
    derivative, so dphi_sup is that of phi and d2phi_sup that of dphi."""

    phi: Callable[[np.ndarray], np.ndarray]  # (...,) -> (..., d)
    dphi: Callable[[np.ndarray], np.ndarray]
    phi_sup: float
    dphi_sup: float
    d2phi_sup: float


def linear_coefficient(a: float = 1.0, box: float = 8.0) -> SmoothFunction:
    """phi(y) = a y as a scalar-driver coefficient with box-valid norms."""
    return SmoothFunction(
        phi=lambda y: (a * np.asarray(y))[..., None],
        dphi=lambda y: np.full(np.shape(y) + (1,), a),
        phi_sup=abs(a) * box,
        dphi_sup=abs(a),
        d2phi_sup=0.0,
    )


def constant_coefficient(c: float) -> SmoothFunction:
    return SmoothFunction(
        phi=lambda y: np.broadcast_to(c, np.shape(y) + (1,)).copy(),
        dphi=lambda y: np.zeros(np.shape(y) + (1,)),
        phi_sup=abs(c),
        dphi_sup=0.0,
        d2phi_sup=0.0,
    )


def scalar_coefficient(f, df, d2f, box: float) -> SmoothFunction:
    """Wrap scalar callables with norms measured on [-box, box] (declared)."""
    grid = np.linspace(-box, box, 4001)
    return SmoothFunction(
        phi=lambda y: np.asarray(f(np.asarray(y)))[..., None],
        dphi=lambda y: np.asarray(df(np.asarray(y)))[..., None],
        phi_sup=float(np.abs(f(grid)).max()),
        dphi_sup=float(np.abs(df(grid)).max()),
        d2phi_sup=float(np.abs(d2f(grid)).max()),
    )


def compose(phi: SmoothFunction, Y: ControlledPath) -> ControlledCovector:
    """phi(Y) = (phi(Y), Dphi(Y) Y'), again controlled by the same driver."""
    vals = phi.phi(Y.values)
    dvals = phi.dphi(Y.values)
    deriv = np.einsum("te,td->ted", dvals, Y.deriv)
    return ControlledCovector(Y.rough, vals, deriv)


# -- rough integration -------------------------------------------------------------


def _sew_on_grid(P: ControlledCovector, X: RoughPath, y0: float) -> ControlledPath:
    """Z_t = y0 + int_0^t P dX sewn on the grid (the finest resolvable
    partition), with Z' = P: y0 plus the cumulative sum of the germs
    P_s dX_{s,t} + P'_s XX_{s,t} over grid steps."""
    x = X.path.values
    dx = np.diff(x, axis=0)
    idx = np.arange(x.shape[0] - 1)
    xx_step = X.xx[idx, idx + 1]
    germs = np.einsum("td,td->t", P.values[:-1], dx) + np.einsum("tde,tde->t", P.deriv[:-1], xx_step)
    return ControlledPath(X, np.concatenate([[0.0], np.cumsum(germs)]) + y0, P.values.copy())


# -- rough differential equations ----------------------------------------------------


# a Picard run stops once its contraction metric is at most PICARD_TOL, and
# fails after PICARD_MAX_ITER iterations
PICARD_TOL = 1e-12
PICARD_MAX_ITER = 80


@dataclass
class RdeSolution:
    path: ControlledPath
    iterations: int
    final_metric: float
    metric_runs: list[list[float]]  # one Picard run per smallness window
    subdivisions: int
    driver_norms: tuple[float, float]  # (V^r X, V^{r/2} XX) of the solved window

    def strictly_decreasing(self) -> bool:
        """Each run's contraction metric decreases strictly until it is at
        most PICARD_TOL."""
        return all(b < a or b <= PICARD_TOL for run in self.metric_runs for a, b in zip(run, run[1:]))


def default_smallness(phi: SmoothFunction) -> float:
    return 0.25 / (1.0 + phi.dphi_sup + phi.d2phi_sup)


def rde_solve(phi: SmoothFunction, X: RoughPath, y0: float) -> RdeSolution:
    """Picard iteration Y -> (y0 + int phi(Y) dX, phi(Y)) on the grid.

    Intervals whose driver norms reach the smallness threshold
    ``default_smallness(phi)`` are split at the grid time halving the
    r-variation of X (``_halving_index``) and solved left to right with
    matched initial data.  A single grid step already above the threshold is
    a jump the local theory cannot absorb and raises.  Each iterate's
    remainder is built once, and its norms and the two contraction metrics
    it enters read it (``picard_norms``).  The solution carries
    ``driver_norms`` = (V^r X, V^{r/2} XX) of X.  The contraction metric must
    decrease strictly until it is at most PICARD_TOL; the first iterate sets
    the radius A of the solution set, and every later one must stay in it.
    """
    eps = default_smallness(phi)
    prefix = _prefix_controls(X.path.values, X.r)
    vx, vxx = float(prefix[-1]) ** (1.0 / X.r), two_param_variation(X.xx, X.r / 2.0)
    n = X.times.size - 1
    if vx + vxx >= eps and n > 1:
        k = _halving_index(X, prefix)
        left = rde_solve(phi, X.restrict(0, k), y0)
        right = rde_solve(phi, X.restrict(k, n), float(left.path.values[-1]))
        values = np.concatenate([left.path.values, right.path.values[1:]])
        deriv = np.concatenate([left.path.deriv, right.path.deriv[1:]], axis=0)
        return RdeSolution(
            path=ControlledPath(X, values, deriv),
            iterations=left.iterations + right.iterations,
            final_metric=max(left.final_metric, right.final_metric),
            metric_runs=left.metric_runs + right.metric_runs,
            subdivisions=left.subdivisions + right.subdivisions + 1,
            driver_norms=(vx, vxx),
        )
    if vx + vxx >= eps:
        raise RdeError(
            f"single grid step carries variation {vx + vxx:.4g} >= smallness threshold {eps:.4g}: "
            "jump too large for the local solution theory"
        )

    Y = ControlledPath(X, np.full(X.times.size, float(y0)), np.zeros((X.times.size, X.dim)))
    metrics: list[float] = []
    A = None
    increase_run = 0
    for it in range(1, PICARD_MAX_ITER + 1):
        Z = _sew_on_grid(compose(phi, Y), X, y0)
        nz, (m_rem, m_deriv, m_values) = picard_norms(Z, Y)
        if A is None:
            A = 4.0 * max(1.0, nz["Yp_r"], math.sqrt(max(nz["R_r2"], 0.0)), phi.dphi_sup * nz["Y_r"])
        elif not (
            nz["Yp_r"] <= A * (1 + 1e-9)
            and nz["R_r2"] <= A**2 * (1 + 1e-9)
            and (phi.dphi_sup == 0.0 or nz["Y_r"] <= A / phi.dphi_sup * (1 + 1e-9))
            and nz["Yp_sup"] <= phi.phi_sup * (1 + 1e-9)
        ):
            raise RdeError(f"iterate left the solution set (A = {A:.4g}): {nz}")
        m = max(m_rem, m_deriv, 2.0 * (phi.dphi_sup + A * phi.d2phi_sup) * m_values)
        metrics.append(m)
        Y = Z
        if m <= PICARD_TOL:
            return RdeSolution(Y, it, m, [metrics], 0, (vx, vxx))
        if len(metrics) >= 2 and metrics[-1] >= metrics[-2]:
            increase_run += 1
            if increase_run >= 3:
                raise RdeError("contraction metric non-decreasing for 3 iterations: smallness violated")
        else:
            increase_run = 0
    raise RdeError(f"no convergence within {PICARD_MAX_ITER} Picard iterations (last metric {metrics[-1]:.3e})")


def _halving_index(X: RoughPath, prefix: np.ndarray) -> int:
    """First grid index k minimizing |omega(0, t_k) - omega(t_k, T)| for the
    r-variation control omega of X, given the prefix controls omega(0, t_k)
    of ``_prefix_controls``.

    The suffix omega(t_k, T) is the prefix controls of the reversed values,
    read back in reverse.  Both DPs read the same |f_i - f_j|^r costs, but
    the reversed DP adds each chain's costs in the opposite order, so on a
    near tie a suffix may differ from omega(t_k, T) by an ulp.
    """
    suffix = _prefix_controls(X.path.values[::-1], X.r)[::-1]
    n = prefix.shape[0] - 1
    best, arg = math.inf, n // 2
    for k in range(1, n):
        gap = abs(float(prefix[k]) - float(suffix[k]))
        if gap < best:
            best, arg = gap, k
    return arg


def rde_stability(phi: SmoothFunction, X: RoughPath, X2: RoughPath, y0: float, y02: float) -> dict:
    """Lipschitz-type sensitivity: solution distance over data distance."""
    s1 = rde_solve(phi, X, y0)
    s2 = rde_solve(phi, X2, y02)
    r = X.r
    num = max(picard_norms(s1.path, s2.path)[1])
    den = max(
        fn.variation(X.path.values - X2.path.values, r),
        two_param_variation(X.xx - X2.xx, r / 2.0),
        abs(y0 - y02),
    )
    out = {"solution_distance": num, "data_distance": den}
    out["ratio"] = 0.0 if den == 0.0 and num == 0.0 else (math.inf if den == 0.0 else num / den)
    return out


# -- CSV interfaces ----------------------------------------------------------------


def read_driver_csv(path: str) -> SampledPath:
    """Driver from a `t, x_1..x_d` CSV with one header row, after an optional
    `# interpretation: step|linear` line (step when it is absent)."""
    interpretation, skip = "step", 1
    with open(path) as fh:
        first = fh.readline()
        if first.startswith("#") and "interpretation" in first:
            interpretation, skip = first.split(":", 1)[1].strip(), 2
    data = np.loadtxt(path, delimiter=",", skiprows=skip, ndmin=2)
    return SampledPath(data[:, 0], data[:, 1:], interpretation)
