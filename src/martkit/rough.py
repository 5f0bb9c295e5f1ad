"""Sewing, Young integration, rough paths, controlled paths, and the
Picard solver for rough differential equations.

Paths are sampled on a finite time grid.  A piecewise-linear path can be
evaluated between samples, so Riemann-type sums refine indefinitely; a
piecewise-constant cadlag path saturates at its own grid, which is then the
finest resolvable partition scale.  Controlled paths have scalar state and
a d-dimensional driver; second-level arrays are stored densely on grid
pairs (n <= 512 guard).  Distances between path values are made one
column at a time, so a control or a variation never holds an (n, n)
distance matrix, and the RDE solver picks each split point from one
chain-DP table over the interval it splits.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import functionals as fn
from .functionals import chain_dp

GRID_GUARD = 512


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

    def scalar(self) -> np.ndarray:
        if self.dim != 1:
            raise ValueError("not a scalar path")
        return self.values[:, 0]

    def split_point(self, u: float, v: float) -> float | None:
        """Refinement point inside (u, v), or None when the cell is resolved."""
        if self.interpretation == "linear":
            return 0.5 * (u + v)
        lo = np.searchsorted(self.times, u, side="right")
        hi = np.searchsorted(self.times, v, side="left")
        if lo >= hi:
            return None
        mid = self.times[lo:hi]
        return float(mid[np.argmin(np.abs(mid - 0.5 * (u + v)))])

    @classmethod
    def line(cls, T: float, n: int) -> "SampledPath":
        t = np.linspace(0.0, T, n + 1)
        return cls(t, t.copy(), "linear")


def merge_split(*paths: SampledPath) -> Callable[[float, float], float | None]:
    def split(u: float, v: float) -> float | None:
        pts = [p.split_point(u, v) for p in paths]
        pts = [p for p in pts if p is not None]
        return None if not pts else pts[0]

    return split


# -- controls ---------------------------------------------------------------


class Control:
    """Superadditive two-parameter function omega(s, t) with memoization."""

    def __init__(self, fun: Callable[[float, float], float]):
        self._fun = fun
        self._memo: dict[tuple[float, float], float] = {}

    def __call__(self, s: float, t: float) -> float:
        if t <= s:
            return 0.0
        key = (float(s), float(t))
        if key not in self._memo:
            self._memo[key] = float(self._fun(*key))
        return self._memo[key]

    def __add__(self, other: "Control") -> "Control":
        return Control(lambda s, t: self(s, t) + other(s, t))


def variation_control(path: SampledPath, r: float) -> Control:
    """omega(s, t) = V^r(path restricted to [s, t])^r, an exact control."""

    def fun(s: float, t: float) -> float:
        grid = path.times
        mask = (grid > s) & (grid < t)
        pts = np.concatenate([path.eval(np.array([s])), path.values[mask], path.eval(np.array([t]))], axis=0)
        return chain_dp(fn.DistColumns(pts[:, 0] if path.dim == 1 else pts), r).max()

    return Control(fun)


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
    xi: Callable[[np.ndarray, np.ndarray], np.ndarray],
    omega: Control,
    theta: float,
    T: float,
    tol: float = 1e-9,
    max_level: int = 26,
    split: Callable[[float, float], float | None] | None = None,
    hypothesis_triples: int = 16,
    seed: int = 0,
) -> SewResult:
    """Limit of Riemann sums of a germ whose defect is controlled by omega^theta.

    Refines [0, T] by asking ``split`` for one interior point per cell (real
    midpoints by default; a path-aware splitter saturates step paths at their
    grid) until successive sums differ by less than tol.  The a-priori bound
    sum_k (2/k)^theta omega(0, T)^theta against the single-cell germ is
    verified on the result.
    """
    if not theta > 1:
        raise ValueError("need theta > 1")
    parts = np.array([0.0, T])
    germ_value = float(np.asarray(xi(np.array([0.0]), np.array([T])))[0])
    value = germ_value
    diffs: list[float] = []
    converged = False
    levels = 0
    for level in range(1, max_level + 1):
        if split is None:
            new_pts = 0.5 * (parts[:-1] + parts[1:])
        else:
            new_pts = np.array([m for m in map(split, parts[:-1], parts[1:]) if m is not None])
        if new_pts.size == 0:
            converged = True  # no cell can be refined further: grid saturated
            break
        parts = np.unique(np.concatenate([parts, new_pts]))
        new_value = float(np.asarray(xi(parts[:-1], parts[1:])).sum())
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
    for _ in range(hypothesis_triples):
        if parts.size < 3:
            break
        i, j, k = np.sort(rng.choice(parts.size, size=3, replace=False))
        if i == j or j == k:
            continue
        s, u, t = parts[i], parts[j], parts[k]
        defect = abs(float(xi(np.array([s]), np.array([t]))[0]) - float(xi(np.array([s]), np.array([u]))[0]) - float(xi(np.array([u]), np.array([t]))[0]))
        if defect > omega(s, t) ** theta * (1.0 + 1e-9) + 1e-12:
            hypothesis_ok = False
    if not hypothesis_ok:
        warnings.warn("sewing hypothesis |delta Xi| <= omega^theta failed a spot check", stacklevel=2)

    bound = zeta_sum(theta) * omega(0.0, T) ** theta
    if abs(value - germ_value) > bound * (1.0 + 1e-9) + 1e-12:
        raise SewingError(f"sewn value violates the a-priori bound: |{value:.6g} - {germ_value:.6g}| > {bound:.6g}")
    return SewResult(value, germ_value, bound, levels, diffs, converged, hypothesis_ok)


def young_germ(a: SampledPath, g: SampledPath) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    def xi(s: np.ndarray, t: np.ndarray) -> np.ndarray:
        return (a.eval(s) * (g.eval(t) - g.eval(s))).sum(axis=1)

    return xi


def young_integral(
    a: SampledPath, g: SampledPath, r: float, tol: float = 1e-9, max_level: int = 24
) -> tuple[SampledPath, dict]:
    """Running Young integral t -> int_0^t a dg via left-point sums.

    Each grid cell is refined dyadically (linear paths) or saturated at the
    grid (step paths) until the prefix sums are Cauchy within tol.  Needs
    r < 2 so that the germ defect omega^(2/r) is summable.
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
    contrib = germ(u, v)
    diffs = []
    refinable = a.interpretation == "linear" or g.interpretation == "linear"
    levels_used = 0
    for level in range(1, max_level + 1):
        if not refinable:
            break
        m = 1 << level
        frac = np.arange(m, dtype=np.float64) / m
        sub_lo = u[:, None] + (v - u)[:, None] * frac[None, :]
        sub_hi = np.concatenate([sub_lo[:, 1:], v[:, None]], axis=1)
        new_contrib = germ(sub_lo.ravel(), sub_hi.ravel()).reshape(u.size, m).sum(axis=1)
        diffs.append(float(np.abs(np.cumsum(new_contrib) - np.cumsum(contrib)).max()))
        contrib = new_contrib
        levels_used = level
        if diffs[-1] < tol:
            break
    else:
        raise SewingError("Young sums not Cauchy within the refinement budget")
    path = SampledPath(times, np.concatenate([[0.0], np.cumsum(contrib)]), "linear")
    return path, {"levels": levels_used, "diffs": diffs}


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

    def chen_residual(self) -> float:
        """max over grid triples s <= t <= u of |Chen defect| (Frobenius)."""
        x = self.path.values
        n = x.shape[0]
        worst = 0.0
        for t in range(n):
            a = self.xx[: t + 1, t:]  # (s, u) block
            b = self.xx[: t + 1, t][:, None]
            c = self.xx[t, t:][None, :]
            cross = np.einsum("si,uj->suij", x[t] - x[: t + 1], x[t:] - x[t])
            worst = max(worst, float(np.abs(a - b - c - cross).max()))
        return worst

    def variation_norms(self) -> tuple[float, float]:
        """(V^r X, V^{r/2} XX) over [0, T] on the grid."""
        vx = variation_control(self.path, self.r)(0.0, self.path.T) ** (1.0 / self.r)
        return vx, two_param_variation(self.xx, self.r / 2.0)

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

    def remainder(self) -> np.ndarray:
        dy = self.values[None, :] - self.values[:, None]
        dx = self.rough.increments()
        return dy - np.einsum("sd,std->st", self.deriv, dx)

    def norms(self) -> dict:
        r = self.rough.r
        out = {
            "Y_r": fn.variation(self.values[:, None], r).value,
            "Yp_r": fn.variation(self.deriv, r).value,
            "Yp_sup": float(np.sqrt((self.deriv**2).sum(axis=1)).max()),
            "R_r2": two_param_variation(self.remainder(), r / 2.0),
        }
        return out

    def implicit_bound_sides(self) -> tuple[float, float]:
        """(|Y|_r, |Y'|_sup |X|_r + |R|_{r/2}); left never exceeds right."""
        n = self.norms()
        vx, _ = self.rough.variation_norms()
        return n["Y_r"], n["Yp_sup"] * vx + n["R_r2"]


@dataclass
class ControlledCovector:
    """Integrand path with values in L(R^d, R): P (n+1, d), P' (n+1, d, d)."""

    rough: RoughPath
    values: np.ndarray
    deriv: np.ndarray

    def remainder(self) -> np.ndarray:
        dp = self.values[None, :, :] - self.values[:, None, :]
        dx = self.rough.increments()
        return dp - np.einsum("sed,std->ste", self.deriv, dx)

    def norms(self) -> dict:
        r = self.rough.r
        return {
            "P_r": fn.variation(self.values, r).value,
            "Pp_r": fn.variation(self.deriv.reshape(self.deriv.shape[0], -1), r).value,
            "Pp_sup": float(np.sqrt((self.deriv.reshape(self.deriv.shape[0], -1) ** 2).sum(axis=1)).max()),
            "P_sup": float(np.sqrt((self.values**2).sum(axis=1)).max()),
            "R_r2": two_param_variation(self.remainder(), r / 2.0),
        }


# -- smooth coefficient functions ------------------------------------------------


@dataclass
class SmoothFunction:
    """Coefficient phi: R -> L(R^d, R) with declared norm bounds.

    The declared norms are trusted inputs for all estimates; ``validate_box``
    spot-checks them by finite differences and only warns on exceedance.
    """

    phi: Callable[[np.ndarray], np.ndarray]  # (...,) -> (..., d)
    dphi: Callable[[np.ndarray], np.ndarray]
    d2phi: Callable[[np.ndarray], np.ndarray]
    dim: int
    phi_sup: float
    dphi_sup: float
    dphi_lip: float
    d2phi_sup: float
    d2phi_lip: float
    phi_lip: float = 0.0

    def __post_init__(self):
        if self.phi_lip == 0.0:
            self.phi_lip = self.dphi_sup

    def validate_box(self, lo: float, hi: float, samples: int = 200, seed: int = 0) -> None:
        rng = np.random.default_rng(seed)
        y = rng.uniform(lo, hi, size=samples)
        h = 1e-5 * max(1.0, hi - lo)
        fd = (self.phi(y + h) - self.phi(y - h)) / (2 * h)
        checks = [
            ("phi_sup", float(np.abs(self.phi(y)).max()), self.phi_sup),
            ("dphi_sup", float(np.abs(self.dphi(y)).max()), self.dphi_sup),
            ("dphi_fd", float(np.abs(fd - self.dphi(y)).max()), 1e-3 * (1 + self.d2phi_sup)),
        ]
        for name, got, declared in checks:
            if got > declared * (1 + 1e-6) + 1e-9:
                warnings.warn(f"declared norm {name} exceeded on box: {got:.4g} > {declared:.4g}", stacklevel=2)


def linear_coefficient(a: float = 1.0, box: float = 8.0) -> SmoothFunction:
    """phi(y) = a y as a scalar-driver coefficient with box-valid norms."""
    return SmoothFunction(
        phi=lambda y: (a * np.asarray(y))[..., None],
        dphi=lambda y: np.full(np.shape(y) + (1,), a),
        d2phi=lambda y: np.zeros(np.shape(y) + (1,)),
        dim=1,
        phi_sup=abs(a) * box,
        dphi_sup=abs(a),
        dphi_lip=0.0,
        d2phi_sup=0.0,
        d2phi_lip=0.0,
        phi_lip=abs(a),
    )


def constant_coefficient(c: float, dim: int = 1) -> SmoothFunction:
    return SmoothFunction(
        phi=lambda y: np.broadcast_to(c, np.shape(y) + (dim,)).copy(),
        dphi=lambda y: np.zeros(np.shape(y) + (dim,)),
        d2phi=lambda y: np.zeros(np.shape(y) + (dim,)),
        dim=dim,
        phi_sup=abs(c),
        dphi_sup=0.0,
        dphi_lip=0.0,
        d2phi_sup=0.0,
        d2phi_lip=0.0,
        phi_lip=0.0,
    )


def scalar_coefficient(f, df, d2f, box: float, dim: int = 1, lip_d2: float = 0.0) -> SmoothFunction:
    """Wrap scalar callables with norms measured on [-box, box] (declared)."""
    grid = np.linspace(-box, box, 4001)
    return SmoothFunction(
        phi=lambda y: np.asarray(f(np.asarray(y)))[..., None],
        dphi=lambda y: np.asarray(df(np.asarray(y)))[..., None],
        d2phi=lambda y: np.asarray(d2f(np.asarray(y)))[..., None],
        dim=dim,
        phi_sup=float(np.abs(f(grid)).max()),
        dphi_sup=float(np.abs(df(grid)).max()),
        dphi_lip=float(np.abs(d2f(grid)).max()),
        d2phi_sup=float(np.abs(d2f(grid)).max()),
        d2phi_lip=lip_d2,
        phi_lip=float(np.abs(df(grid)).max()),
    )


def compose(phi: SmoothFunction, Y: ControlledPath, check: bool = True) -> ControlledCovector:
    """phi(Y) = (phi(Y), Dphi(Y) Y'), again controlled by the same driver.

    When ``check`` is set, the two composition estimates (with constant 1 in
    the declared norms) are asserted:
        |phi(Y)'|_r   <= |Dphi|_sup |Y'|_r + |Dphi|_Lip |Y|_r |Y'|_sup
        |R^{phi(Y)}|_{r/2} <= |Dphi|_sup |R^Y|_{r/2} + 1/2 |Dphi|_Lip |Y|_r^2
    """
    vals = phi.phi(Y.values)
    dvals = phi.dphi(Y.values)
    deriv = np.einsum("te,td->ted", dvals, Y.deriv)
    out = ControlledCovector(Y.rough, vals, deriv)
    if check:
        ny = Y.norms()
        no = out.norms()
        lhs1 = no["Pp_r"]
        rhs1 = phi.dphi_sup * ny["Yp_r"] + phi.dphi_lip * ny["Y_r"] * ny["Yp_sup"]
        lhs2 = no["R_r2"]
        rhs2 = phi.dphi_sup * ny["R_r2"] + 0.5 * phi.dphi_lip * ny["Y_r"] ** 2
        tol = 1e-9
        if lhs1 > rhs1 * (1 + tol) + 1e-12 or lhs2 > rhs2 * (1 + tol) + 1e-12:
            raise RdeError(
                f"composition estimates violated: {lhs1:.4g} vs {rhs1:.4g}, {lhs2:.4g} vs {rhs2:.4g} "
                "(check the declared coefficient norms)"
            )
    return out


# -- rough integration -------------------------------------------------------------


def _sew_on_grid(P: ControlledCovector, X: RoughPath) -> ControlledPath:
    """Z_t = int_0^t P dX sewn on the grid (the finest resolvable partition),
    with Z' = P: the cumulative sum of the germs P_s dX_{s,t} + P'_s XX_{s,t}
    over grid steps."""
    x = X.path.values
    dx = np.diff(x, axis=0)
    idx = np.arange(x.shape[0] - 1)
    xx_step = X.xx[idx, idx + 1]
    germs = np.einsum("td,td->t", P.values[:-1], dx) + np.einsum("tde,tde->t", P.deriv[:-1], xx_step)
    return ControlledPath(X, np.concatenate([[0.0], np.cumsum(germs)]), P.values.copy())


def rough_integral(P: ControlledCovector, X: RoughPath) -> tuple[ControlledPath, dict]:
    """Z_t = int_0^t P dX sewn on the grid, with its remainder diagnostics.

    The remainder estimate |R^Z|_{r/2} <= K (|R^P|_{r/2} |X|_r + |P'|_r |XX|_{r/2}
    + |P'|_sup |XX|_{r/2}) is asserted with the derived constant
    K = 2 (1 + sum_k (2/k)^{3/r}); the single-cell local error bound is
    reported in the diagnostics.
    """
    Z = _sew_on_grid(P, X)
    r = X.r
    const = 2.0 * (1.0 + zeta_sum(3.0 / r))
    np_norms = P.norms()
    vx, vxx = X.variation_norms()
    rhs = np_norms["R_r2"] * vx + np_norms["Pp_r"] * vxx + np_norms["Pp_sup"] * vxx
    lhs = Z.norms()["R_r2"]
    diag = {
        "remainder_r2": lhs,
        "remainder_bound": const * rhs,
        "sewing_constant": const,
        "local_error_bound": zeta_sum(3.0 / r) * (np_norms["R_r2"] * vx + np_norms["Pp_r"] * vxx),
    }
    if lhs > const * rhs * (1 + 1e-9) + 1e-12:
        raise RdeError(f"rough-integral remainder {lhs:.4g} exceeds bound {const * rhs:.4g}")
    return Z, diag


# -- rough differential equations ----------------------------------------------------


@dataclass
class RdeSolution:
    path: ControlledPath
    iterations: int
    final_metric: float
    metric_runs: list[list[float]]  # one Picard run per smallness window
    subdivisions: int
    diagnostics: dict = field(default_factory=dict)

    def strictly_decreasing(self, tol: float = 1e-12) -> bool:
        """Each run's contraction metric decreases strictly until below tol."""
        return all(
            b < a or b <= tol for run in self.metric_runs for a, b in zip(run, run[1:])
        )


def _metric(phi: SmoothFunction, A: float, Y: ControlledPath, Z: ControlledPath) -> float:
    r = Y.rough.r
    dvals = Y.values - Z.values
    dder = Y.deriv - Z.deriv
    drem = Y.remainder() - Z.remainder()
    m1 = two_param_variation(drem, r / 2.0)
    m2 = fn.variation(dder, r).value
    m3 = 2.0 * (phi.dphi_sup + A * phi.dphi_lip) * fn.variation(dvals[:, None], r).value
    return max(m1, m2, m3)


def default_smallness(phi: SmoothFunction) -> float:
    return 0.25 / (1.0 + phi.dphi_sup + phi.dphi_lip)


def rde_solve(
    phi: SmoothFunction,
    X: RoughPath,
    y0: float,
    eps: float | None = None,
    A: float | None = None,
    tol: float = 1e-12,
    max_iter: int = 80,
) -> RdeSolution:
    """Picard iteration Y -> (y0 + int phi(Y) dX, phi(Y)) on the grid.

    Intervals whose driver norms exceed the smallness threshold are split at
    the grid time halving the r-variation of X and solved left to right with
    matched initial data; every prefix and suffix control of the interval is
    read from one chain-DP table (``functionals.chain_dp_table``).  A single
    grid step already above the threshold is a jump the local theory cannot
    absorb and raises.  Each Picard step only sews on the grid: it computes
    no remainder diagnostics.  The contraction metric must decrease strictly
    until it falls below tol; the iterates after the first are checked to
    stay in the solution set of radius A (chosen from the first iterate when
    not supplied).
    """
    if eps is None:
        eps = default_smallness(phi)
    vx, vxx = X.variation_norms()
    n = X.times.size - 1
    if vx + vxx >= eps and n > 1:
        k = _halving_index(X)
        left = rde_solve(phi, X.restrict(0, k), y0, eps=eps, A=A, tol=tol, max_iter=max_iter)
        right = rde_solve(phi, X.restrict(k, n), float(left.path.values[-1]), eps=eps, A=A, tol=tol, max_iter=max_iter)
        values = np.concatenate([left.path.values, right.path.values[1:]])
        deriv = np.concatenate([left.path.deriv, right.path.deriv[1:]], axis=0)
        return RdeSolution(
            path=ControlledPath(X, values, deriv),
            iterations=left.iterations + right.iterations,
            final_metric=max(left.final_metric, right.final_metric),
            metric_runs=left.metric_runs + right.metric_runs,
            subdivisions=left.subdivisions + right.subdivisions + 1,
            diagnostics={"left": left.diagnostics, "right": right.diagnostics},
        )
    if vx + vxx >= eps:
        raise RdeError(
            f"single grid step carries variation {vx + vxx:.4g} >= smallness threshold {eps:.4g}: "
            "jump too large for the local solution theory"
        )

    Y = ControlledPath(X, np.full(X.times.size, float(y0)), np.zeros((X.times.size, X.dim)))
    metrics: list[float] = []
    A_auto = A
    increase_run = 0
    for it in range(1, max_iter + 1):
        P = compose(phi, Y, check=False)
        Z = _sew_on_grid(P, X)
        Z = ControlledPath(X, Z.values + y0, Z.deriv)
        if it == 1 and A_auto is None:
            nz = Z.norms()
            A_auto = 4.0 * max(1.0, nz["Yp_r"], math.sqrt(max(nz["R_r2"], 0.0)), phi.phi_lip * nz["Y_r"])
        if it >= 2:
            nz = Z.norms()
            sol_ok = (
                nz["Yp_r"] <= A_auto * (1 + 1e-9)
                and nz["R_r2"] <= A_auto**2 * (1 + 1e-9)
                and (phi.phi_lip == 0.0 or nz["Y_r"] <= A_auto / phi.phi_lip * (1 + 1e-9))
                and nz["Yp_sup"] <= phi.phi_sup * (1 + 1e-9)
            )
            if not sol_ok:
                raise RdeError(f"iterate left the solution set (A = {A_auto:.4g}): {nz}")
        m = _metric(phi, A_auto, Z, Y)
        metrics.append(m)
        Y = Z
        if m <= tol:
            return RdeSolution(Y, it, m, [metrics], 0, {"A": A_auto, "eps": eps})
        if len(metrics) >= 2 and metrics[-1] >= metrics[-2]:
            increase_run += 1
            if increase_run >= 3:
                raise RdeError("contraction metric non-decreasing for 3 iterations: smallness violated")
        else:
            increase_run = 0
    raise RdeError(f"no convergence within {max_iter} Picard iterations (last metric {metrics[-1]:.3e})")


def _halving_index(X: RoughPath) -> int:
    """First grid index k minimizing |omega(0, t_k) - omega(t_k, T)| for the
    r-variation control omega of X, read from one chain-DP table."""
    vals = X.path.values
    table = fn.chain_dp_table(fn.DistColumns(vals[:, 0] if X.dim == 1 else vals), X.r)
    prefix = np.maximum.accumulate(table[0])
    n = vals.shape[0] - 1
    best, arg = math.inf, n // 2
    for k in range(1, n):
        gap = abs(float(prefix[k]) - float(table[k, k:].max()))
        if gap < best:
            best, arg = gap, k
    return arg


def rde_stability(
    phi: SmoothFunction, X: RoughPath, X2: RoughPath, y0: float, y02: float, **kw
) -> dict:
    """Lipschitz-type sensitivity: solution distance over data distance."""
    s1 = rde_solve(phi, X, y0, **kw)
    s2 = rde_solve(phi, X2, y02, **kw)
    r = X.r
    num = max(
        two_param_variation(s1.path.remainder() - s2.path.remainder(), r / 2.0),
        fn.variation(s1.path.deriv - s2.path.deriv, r).value,
        fn.variation((s1.path.values - s2.path.values)[:, None], r).value,
    )
    den = max(
        fn.variation(X.path.values - X2.path.values, r).value,
        two_param_variation(X.xx - X2.xx, r / 2.0),
        abs(y0 - y02),
    )
    out = {"solution_distance": num, "data_distance": den}
    out["ratio"] = 0.0 if den == 0.0 and num == 0.0 else (math.inf if den == 0.0 else num / den)
    return out


# -- control partitions ----------------------------------------------------------


def control_partition(omega: Control, times: np.ndarray, eps: float) -> list[float]:
    """Greedy partition with min(omega(prev+, cur), omega(prev, cur-)) <= eps
    on a finite grid, where +/- step to the neighboring grid point."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    times = np.asarray(times, dtype=np.float64)
    n = times.size - 1
    pts = [0]
    guard = 0
    while pts[-1] < n:
        i = pts[-1]
        guard += 1
        if guard > n + 2:
            raise RuntimeError("control partition failed to terminate")
        if omega(times[i], times[i + 1]) < eps:
            k = i + 1
            while k < n and omega(times[i], times[k + 1]) < eps:
                k += 1
            pts.append(min(k + 1, n))
        else:
            k = i + 1
            while k < n and omega(times[i + 1], times[k + 1]) <= eps:
                k += 1
            pts.append(k)
    return [float(times[i]) for i in pts]


# -- CSV interfaces ----------------------------------------------------------------


def write_driver_csv(path: str, sp: SampledPath) -> None:
    header = f"# interpretation: {sp.interpretation}\n" + "t," + ",".join(f"x_{k+1}" for k in range(sp.dim))
    data = np.column_stack([sp.times, sp.values])
    np.savetxt(path, data, delimiter=",", header=header, comments="")


def read_driver_csv(path: str) -> SampledPath:
    interpretation = "step"
    with open(path) as fh:
        first = fh.readline()
        if first.startswith("#") and "interpretation" in first:
            interpretation = first.split(":", 1)[1].strip()
    data = np.loadtxt(path, delimiter=",", skiprows=2 if interpretation else 1)
    data = np.atleast_2d(data)
    return SampledPath(data[:, 0], data[:, 1:], interpretation)


def write_lift_csv(path: str, rp: RoughPath) -> None:
    d = rp.dim
    names = ",".join(f"m_{i+1}{j+1}" for i in range(d) for j in range(d))
    rows = []
    t = rp.times
    for s in range(t.size):
        for u in range(s + 1, t.size):
            rows.append(np.concatenate([[t[s], t[u]], rp.xx[s, u].ravel()]))
    np.savetxt(path, np.asarray(rows), delimiter=",", header="s,t," + names, comments="")


def read_lift_csv(path: str, driver: SampledPath, r: float = 2.5) -> RoughPath:
    """Rough path from a driver and an externally supplied second level."""
    data = np.atleast_2d(np.loadtxt(path, delimiter=",", skiprows=1))
    d = driver.dim
    if data.shape[1] != 2 + d * d:
        raise ValueError("second-level CSV has the wrong number of columns")
    n1 = driver.times.size
    xx = np.zeros((n1, n1, d, d))
    pos = {float(t): i for i, t in enumerate(driver.times)}
    for row in data:
        s, t = pos[float(row[0])], pos[float(row[1])]
        xx[s, t] = row[2:].reshape(d, d)
    return RoughPath(driver, xx, r)
