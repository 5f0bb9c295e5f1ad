"""Statements of the notes that the tests assert but no check or CLI command
reaches, so they live with the tests and not in ``martkit``:
the zero-only partition and tree-backed bundles of the Ito layer, Chen's
relation of a rough path, its driver norms over [0, T] (the RDE solver
returns those of each window it solves), the norms of a controlled
covector, the two composition estimates, the rough integral with its
asserted remainder estimate, a finite-difference check of a coefficient's
declared norms, and the path-aware splitter that saturates step paths at
their grid when sewing.  ``controlled_norms`` and ``picard_metric`` are the
controlled-path norms and the Picard contraction metric one variation at a
time, the oracles of the two stacked DPs of ``rough.picard_norms``.
"""

from __future__ import annotations

import warnings
from typing import Callable

import numpy as np

from martkit import functionals as fn
from martkit import ito, rough


def zero_only(path: ito.GridCadlagPath) -> ito.AdaptedGridPartition:
    """The partition {0} on every path."""
    mask = np.zeros_like(path.values, dtype=bool)
    mask[0] = True
    return ito.AdaptedGridPartition(mask, path.tree)


def from_tree_process(proc, T: float = 1.0) -> ito.GridCadlagPath:
    """The exact bundle of a tree process: one path per leaf, weighted by its
    probability."""
    return ito.GridCadlagPath(proc.paths().copy(), proc.tree.leaf_prob.copy(), T, proc.tree, False)


def chen_residual(X: rough.RoughPath) -> float:
    """max over grid triples s <= t <= u of |Chen defect| (Frobenius)."""
    x = X.path.values
    worst = 0.0
    for t in range(x.shape[0]):
        a = X.xx[: t + 1, t:]  # (s, u) block
        b = X.xx[: t + 1, t][:, None]
        c = X.xx[t, t:][None, :]
        cross = np.einsum("si,uj->suij", x[t] - x[: t + 1], x[t:] - x[t])
        worst = max(worst, float(np.abs(a - b - c - cross).max()))
    return worst


def variation_norms(X: rough.RoughPath) -> tuple[float, float]:
    """(V^r X, V^{r/2} XX) over [0, T] on the grid."""
    vx = float(rough._prefix_controls(X.path.values, X.r)[-1]) ** (1.0 / X.r)
    return vx, rough.two_param_variation(X.xx, X.r / 2.0)


def covector_remainder(P: rough.ControlledCovector) -> np.ndarray:
    """R_{s,t} = delta P_{s,t} - P'_s delta X_{s,t} on all grid pairs."""
    dp = P.values[None, :, :] - P.values[:, None, :]
    return dp - np.einsum("sed,std->ste", P.deriv, P.rough.increments())


def covector_norms(P: rough.ControlledCovector) -> dict:
    r = P.rough.r
    flat_deriv = P.deriv.reshape(P.deriv.shape[0], -1)
    return {
        "P_r": fn.variation(P.values, r),
        "Pp_r": fn.variation(flat_deriv, r),
        "Pp_sup": float(np.sqrt((flat_deriv**2).sum(axis=1)).max()),
        "P_sup": float(np.sqrt((P.values**2).sum(axis=1)).max()),
        "R_r2": rough.two_param_variation(covector_remainder(P), r / 2.0),
    }


def controlled_norms(Y: rough.ControlledPath) -> dict:
    """|Y|_r, |Y'|_r, sup |Y'| and |R^Y|_{r/2}, each by its own chain DP."""
    r = Y.rough.r
    return {
        "Y_r": fn.variation(Y.values[:, None], r),
        "Yp_r": fn.variation(Y.deriv, r),
        "Yp_sup": float(np.sqrt((Y.deriv**2).sum(axis=1)).max()),
        "R_r2": rough.two_param_variation(Y.remainder, r / 2.0),
    }


def metric_variations(Y: rough.ControlledPath, Z: rough.ControlledPath) -> tuple[float, float, float]:
    """|R^Y - R^Z|_{r/2}, |Y' - Z'|_r and |Y - Z|_r, each by its own chain DP."""
    r = Y.rough.r
    return (
        rough.two_param_variation(Y.remainder - Z.remainder, r / 2.0),
        fn.variation(Y.deriv - Z.deriv, r),
        fn.variation((Y.values - Z.values)[:, None], r),
    )


def picard_metric(phi: rough.SmoothFunction, A: float, Y: rough.ControlledPath, Z: rough.ControlledPath) -> float:
    """The contraction metric of the iterate Y against the previous one Z,
    inside the solution set of radius A."""
    m1, m2, m3 = metric_variations(Y, Z)
    return max(m1, m2, 2.0 * (phi.dphi_sup + A * phi.d2phi_sup) * m3)


def checked_compose(phi: rough.SmoothFunction, Y: rough.ControlledPath) -> rough.ControlledCovector:
    """``rough.compose(phi, Y)`` with the two composition estimates (with
    constant 1 in the declared norms) asserted:
        |phi(Y)'|_r   <= |Dphi|_sup |Y'|_r + |Dphi|_Lip |Y|_r |Y'|_sup
        |R^{phi(Y)}|_{r/2} <= |Dphi|_sup |R^Y|_{r/2} + 1/2 |Dphi|_Lip |Y|_r^2
    """
    out = rough.compose(phi, Y)
    ny = rough.picard_norms(Y, Y)[0]
    no = covector_norms(out)
    lhs1 = no["Pp_r"]
    rhs1 = phi.dphi_sup * ny["Yp_r"] + phi.d2phi_sup * ny["Y_r"] * ny["Yp_sup"]
    lhs2 = no["R_r2"]
    rhs2 = phi.dphi_sup * ny["R_r2"] + 0.5 * phi.d2phi_sup * ny["Y_r"] ** 2
    tol = 1e-9
    if lhs1 > rhs1 * (1 + tol) + 1e-12 or lhs2 > rhs2 * (1 + tol) + 1e-12:
        raise rough.RdeError(
            f"composition estimates violated: {lhs1:.4g} vs {rhs1:.4g}, {lhs2:.4g} vs {rhs2:.4g} "
            "(check the declared coefficient norms)"
        )
    return out


def validate_box(phi: rough.SmoothFunction, lo: float, hi: float) -> None:
    """Spot-check the declared norms of phi at 200 points of [lo, hi], the
    derivative by central finite differences; warn on exceedance."""
    y = np.random.default_rng(0).uniform(lo, hi, size=200)
    h = 1e-5 * max(1.0, hi - lo)
    fd = (phi.phi(y + h) - phi.phi(y - h)) / (2 * h)
    checks = [
        ("phi_sup", float(np.abs(phi.phi(y)).max()), phi.phi_sup),
        ("dphi_sup", float(np.abs(phi.dphi(y)).max()), phi.dphi_sup),
        ("dphi_fd", float(np.abs(fd - phi.dphi(y)).max()), 1e-3 * (1 + phi.d2phi_sup)),
    ]
    for name, got, declared in checks:
        if got > declared * (1 + 1e-6) + 1e-9:
            warnings.warn(f"declared norm {name} exceeded on box: {got:.4g} > {declared:.4g}", stacklevel=2)


def rough_integral(P: rough.ControlledCovector, X: rough.RoughPath) -> tuple[rough.ControlledPath, dict]:
    """Z_t = int_0^t P dX sewn on the grid, with its remainder diagnostics.

    The remainder estimate |R^Z|_{r/2} <= K (|R^P|_{r/2} |X|_r + |P'|_r |XX|_{r/2}
    + |P'|_sup |XX|_{r/2}) is asserted with the derived constant
    K = 2 (1 + sum_k (2/k)^{3/r}); the single-cell local error bound is
    reported in the diagnostics.
    """
    Z = rough._sew_on_grid(P, X, 0.0)
    r = X.r
    const = 2.0 * (1.0 + rough.zeta_sum(3.0 / r))
    np_norms = covector_norms(P)
    vx, vxx = variation_norms(X)
    rhs = np_norms["R_r2"] * vx + np_norms["Pp_r"] * vxx + np_norms["Pp_sup"] * vxx
    lhs = rough.picard_norms(Z, Z)[0]["R_r2"]
    diag = {
        "remainder_r2": lhs,
        "remainder_bound": const * rhs,
        "sewing_constant": const,
        "local_error_bound": rough.zeta_sum(3.0 / r) * (np_norms["R_r2"] * vx + np_norms["Pp_r"] * vxx),
    }
    if lhs > const * rhs * (1 + 1e-9) + 1e-12:
        raise rough.RdeError(f"rough-integral remainder {lhs:.4g} exceeds bound {const * rhs:.4g}")
    return Z, diag


def split_point(path: rough.SampledPath, u: float, v: float) -> float | None:
    """Refinement point inside (u, v), or None when the cell is resolved."""
    if path.interpretation == "linear":
        return 0.5 * (u + v)
    lo = np.searchsorted(path.times, u, side="right")
    hi = np.searchsorted(path.times, v, side="left")
    if lo >= hi:
        return None
    mid = path.times[lo:hi]
    return float(mid[np.argmin(np.abs(mid - 0.5 * (u + v)))])


def merge_split(*paths: rough.SampledPath) -> Callable[[float, float], float | None]:
    def split(u: float, v: float) -> float | None:
        pts = [split_point(p, u, v) for p in paths]
        pts = [p for p in pts if p is not None]
        return None if not pts else pts[0]

    return split
