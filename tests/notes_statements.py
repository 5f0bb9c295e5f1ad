"""Statements of the notes that several test modules assert but no check or
CLI command reaches, so they live with the tests and not in ``martkit``:
the zero-only partition and tree-backed bundles of the Ito layer, the rough
integral with its asserted remainder estimate, and the path-aware splitter
that saturates step paths at their grid when sewing.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

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


def rough_integral(P: rough.ControlledCovector, X: rough.RoughPath) -> tuple[rough.ControlledPath, dict]:
    """Z_t = int_0^t P dX sewn on the grid, with its remainder diagnostics.

    The remainder estimate |R^Z|_{r/2} <= K (|R^P|_{r/2} |X|_r + |P'|_r |XX|_{r/2}
    + |P'|_sup |XX|_{r/2}) is asserted with the derived constant
    K = 2 (1 + sum_k (2/k)^{3/r}); the single-cell local error bound is
    reported in the diagnostics.
    """
    Z = rough._sew_on_grid(P, X)
    r = X.r
    const = 2.0 * (1.0 + rough.zeta_sum(3.0 / r))
    np_norms = P.norms()
    vx, vxx = X.variation_norms()
    rhs = np_norms["R_r2"] * vx + np_norms["Pp_r"] * vxx + np_norms["Pp_sup"] * vxx
    lhs = Z.norms()["R_r2"]
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
