"""Check reports, corpus specifications, and exact-norm helpers.

The breakpoint scans sort their statistic with :func:`stable_argsort`, which
returns ``np.argsort(x, kind="stable")`` index for index.  numpy runs that
sort as a scalar merge sort, while its unstable argsort is a vectorised
quicksort whose order within a run of equal values depends on the SIMD level
numpy dispatches to.  From ``STABLE_SORT_CUTOFF`` entries on, the helper
takes the fast unstable order and then puts each run of equal values into
index order: the int64 key ``rank * n + index``, with ``rank`` the number of
distinct values below the entry's, orders entries by value first and by
index within a run, and the keys are distinct, so any sort of them gives the
same, stable, order.  Every scan therefore adds its masses in the order of
numpy's stable sort on every SIMD level, and no float it returns depends on
the sort.  Below the cutoff numpy's stable sort is the faster of the two.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, fields
from typing import Iterator

import numpy as np

from . import generators
from .generators import DISTS, KINDS, TRIAL_BITS, corpus_martingale
from .tree import MAX_DEPTH, Martingale

# Below this many entries stable_argsort calls numpy's stable sort itself.
# Measured on the scans' own statistics (2-core x86-64 host with AVX-512,
# numpy 2.4.6), numpy's stable sort against the fast path: 10-16 against
# 21-30 us at 512 entries, 19-22 against 31-36 us at 1,024; the two cross
# between 1,300 and 1,800 entries, and at 2,048 numpy's takes 87-152 against
# 56-72 us, at 131,070 (a depth-16 tree's nodes) 13 against 4.3 ms.
STABLE_SORT_CUTOFF = 1536

# A trial counts as a violation when LHS / (constant * RHS) exceeds this.
RATIO_TOL = 1e-9

REPORT_FIELDS = (
    "check",
    "params",
    "trials",
    "violations",
    "hypothesis_failures",
    "worst_ratio",
    "constant_used",
    "seed",
    "runtime_ms",
)


@dataclass
class CheckReport:
    check: str
    params: dict
    trials: int
    violations: int
    worst_ratio: float
    constant_used: float
    seed: int
    runtime_ms: float
    hypothesis_failures: int = 0
    measured: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.violations == 0

    def to_dict(self) -> dict:
        out = {k: getattr(self, k) for k in REPORT_FIELDS}
        out["measured"] = self.measured
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def run_trials(name, params, spec, constant, trial, measured=None) -> CheckReport:
    """Run ``trial(tracker, i, mart)`` on every trial of ``spec``, commit each
    trial and build the check's report.  ``measured`` seeds the tracker's
    measured quantities, each at its initial value, and the report holds
    them as the trials left them."""
    t0 = time.perf_counter()
    tracker = RatioTracker(measured)
    for i, mart in enumerate(spec.martingales()):
        trial(tracker, i, mart)
        tracker.commit_trial()
    return CheckReport(
        check=name,
        params=params,
        trials=spec.trials,
        violations=tracker.violations,
        worst_ratio=tracker.worst,
        constant_used=constant,
        seed=spec.seed,
        runtime_ms=(time.perf_counter() - t0) * 1000.0,
        hypothesis_failures=tracker.hypothesis_failures,
        measured=tracker.measured,
    )


def validate_report_dict(data: dict) -> None:
    missing = [k for k in REPORT_FIELDS if k not in data]
    if missing:
        raise ValueError(f"report missing fields: {missing}")


@dataclass(frozen=True)
class CorpusSpec:
    """Deterministic corpus: same spec, same instances, bit for bit."""

    kind: str = "mixed"
    depth: int = 8
    trials: int = 1000
    seed: int = 0
    dist: str = "normal"
    width: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown corpus kind {self.kind!r}; known: {list(KINDS)}")
        if self.dist not in DISTS:
            raise ValueError(f"unknown distribution {self.dist!r}; known: {list(DISTS)}")
        if self.kind == "mixed" and not 2 <= self.depth <= MAX_DEPTH:
            raise ValueError(f"a mixed corpus needs depth 2..{MAX_DEPTH}, got {self.depth}")
        if self.trials < 0:
            raise ValueError(f"trials must be at least 0, got {self.trials}")
        if self.trials >= 1 << TRIAL_BITS:
            raise ValueError(f"trials must be below 2**{TRIAL_BITS}, or per-trial seeds overlap the next seed's")

    def martingales(self) -> Iterator[Martingale]:
        for i in range(self.trials):
            yield corpus_martingale(self.kind, self.depth, self.seed, i, self.dist, self.width)

    def rng(self, index: int) -> np.random.Generator:
        return generators.rng_for(self.seed, index)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "depth": self.depth,
            "trials": self.trials,
            "seed": self.seed,
            "dist": self.dist,
            "width": self.width,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CorpusSpec":
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown corpus keys {unknown}")
        return cls(**data)


class RatioTracker:
    """Accumulates LHS/(C*RHS) ratios with the 0/0 -> 0 convention of
    :func:`ratio`, the measured quantities of a check and its count of
    trials that fail a hypothesis.

    ``violations`` counts trials, not individual ratios: every failed
    assertion of one trial raises a flag that ``commit_trial`` folds into
    the count.  So worst_ratio > 1 + RATIO_TOL implies violations >= 1, but
    not conversely: a NaN ratio, from a side that overflowed, and a
    ``flag`` are violations that leave worst_ratio unmoved, so a report can
    read violations >= 1 beside a worst_ratio within 1 + RATIO_TOL.
    """

    def __init__(self, measured: dict | None = None):
        self.worst = 0.0
        self.violations = 0
        self.hypothesis_failures = 0
        self.measured = dict(measured or {})
        self._trial_bad = False

    def add(self, lhs: float, rhs: float) -> float:
        r = ratio(lhs, rhs)
        if r > self.worst:
            self.worst = float(r)
        if not r <= 1.0 + RATIO_TOL:
            self._trial_bad = True
        return r

    def add_many(self, lhs: np.ndarray, rhs: np.ndarray) -> None:
        lhs = np.asarray(lhs, dtype=np.float64)
        rhs = np.asarray(rhs, dtype=np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            # a NaN side fails both tests <= 0, so it gives NaN or inf, as in ratio()
            ratio = np.where(rhs <= 0, np.where(lhs <= 0, 0.0, np.inf), lhs / rhs)
        if ratio.size:
            self.worst = max(self.worst, float(np.fmax.reduce(ratio)))
            if not (ratio <= 1.0 + RATIO_TOL).all():
                self._trial_bad = True

    def measure(self, key: str, value: float) -> None:
        """Keep the largest value of the measured quantity ``key``."""
        self.measured[key] = max(self.measured[key], value)

    def flag(self) -> None:
        self._trial_bad = True

    def commit_trial(self) -> None:
        if self._trial_bad:
            self.violations += 1
        self._trial_bad = False


def ratio(lhs: float, rhs: float) -> float:
    if rhs == 0.0:
        return 0.0 if lhs <= 0.0 else float("inf")
    return lhs / rhs


def lq_norm(values: np.ndarray, q: float, weights: np.ndarray) -> float:
    """Exact L^q quasi-norm on a finite weighted space, 0 < q < inf."""
    if not 0 < q < np.inf:
        raise ValueError(f"q must be positive and finite, got {q}")
    x = np.abs(np.asarray(values, dtype=np.float64))
    return float((weights @ x**q) ** (1.0 / q))


def closed_tail_scan(stat: np.ndarray, *mass_arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """Cumulative masses of the closed sets {stat >= v} at each distinct v > 0.

    Returns (levels, tail_1, ..., tail_k), with levels the distinct positive
    values of ``stat`` and tail_i the total of mass_arrays[i] over the set.
    On a finite space every weak-type inequality with a right-continuous tail
    attains its supremum on these sets, so scanning them decides "for all
    lambda > 0" exactly.
    """
    stat = np.asarray(stat, dtype=np.float64)
    order = stable_argsort(-stat)
    sorted_stat = stat[order]
    last = _run_ends(sorted_stat)
    levels = sorted_stat[last]
    keep = levels > 0
    cums = (np.cumsum(np.asarray(m, dtype=np.float64)[order]) for m in mass_arrays)
    return (levels[keep],) + tuple(c[last][keep] for c in cums)


def closed_sublevel_block_scan(
    stat: np.ndarray, node_mass: np.ndarray, start: np.ndarray, count: np.ndarray, leaf_mass: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative masses of the closed sets {stat <= v} at each distinct v > 0,
    in ascending order of v, where entry j stands for the leaf block
    [start[j], start[j] + count[j]) and weighs node_mass[j] * leaf_mass[i]
    at each leaf i of it.

    The entries must be blocks of a raveled (N, L) matrix in index order, as
    the nodes of levels 1..N of a tree are, level after level.  Then the
    stable sort of the entries, each block expanded into its leaves, is the
    stable sort of the matrix, and one cumulative sum adds the masses in the
    order that a scan of the matrix adds them; only that sum runs over all
    N L terms.  Returns (levels, heads) for finite ``stat``.
    """
    order = stable_argsort(stat)
    sorted_stat = stat[order]
    count = count[order]
    ends = np.cumsum(count)  # one past each expanded block
    leaf = np.arange(ends[-1] if ends.size else 0)
    leaf += np.repeat(start[order] - (ends - count), count)
    mass = np.repeat(node_mass[order], count)
    mass *= leaf_mass[leaf]
    cums = np.cumsum(mass, out=mass)
    last = _run_ends(sorted_stat)
    levels = sorted_stat[last]
    keep = levels > 0
    return levels[keep], cums[ends[last] - 1][keep]


def stable_argsort(x: np.ndarray) -> np.ndarray:
    """``np.argsort(x, kind="stable")`` of a 1-d float array, index for index.

    From STABLE_SORT_CUTOFF entries on: order by numpy's unstable argsort,
    rank the runs of equal sorted values (NaNs sort last and form one run;
    -0.0 and 0.0 are equal), then sort the distinct keys rank * n + index,
    which stay below n**2 < 2**63.  The sort moves each key only within its
    run, so subtracting rank * n leaves the run's indices ascending, which
    is the stable order.
    """
    n = x.size
    if n < STABLE_SORT_CUTOFF:
        return np.argsort(x, kind="stable")
    order = np.argsort(x)
    xs = x[order]
    new_run = xs[1:] != xs[:-1]
    if np.isnan(xs[-1]):
        new_run[np.searchsorted(xs, np.nan) :] = False
    del xs
    base = np.zeros(n, dtype=np.int64)
    np.cumsum(new_run, out=base[1:])
    del new_run
    base *= n
    order += base
    order.sort()
    order -= base
    return order


def _run_ends(sorted_stat: np.ndarray) -> np.ndarray:
    """Index of the last member of each run of equal values in a sorted array."""
    ends = np.flatnonzero(np.diff(sorted_stat) != 0)
    return np.append(ends, sorted_stat.size - 1) if sorted_stat.size else ends


# Unit roundoff of IEEE double precision.
_UNIT_ROUNDOFF = 2.0**-53


def _gamma(n: int) -> float:
    """Higham's gamma_n = n u / (1 - n u).  A sum of nonnegative terms, each
    rounded at most n times (products and additions, in any order), is within
    gamma_n of its exact value relatively (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., Lemma 3.1 and ch. 4), barring underflow."""
    return n * _UNIT_ROUNDOFF / (1.0 - n * _UNIT_ROUNDOFF)


def truncation_ratio_at(z: np.ndarray, v: np.ndarray, w: np.ndarray, lam: float) -> float:
    """E min(z, lam) / E min(v, lam) from two dot products."""
    return float(w @ np.minimum(z, lam)) / float(w @ np.minimum(v, lam))


def _truncated_means(x: np.ndarray, w: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """E min(x, lam) at every lam: the mass of w * x on {x < lam} plus lam times
    the weight of {x >= lam}, read from a prefix and a suffix cumsum of the
    sorted nonnegative terms."""
    order = np.argsort(x)
    xs, ws = x[order], w[order]
    below = np.concatenate(([0.0], np.cumsum(ws * xs)))
    above = np.concatenate((np.cumsum(ws[::-1])[::-1], [0.0]))
    k = np.searchsorted(xs, lams)
    return below[k] + lams * above[k]


def truncation_ratio_sup(z: np.ndarray, v: np.ndarray, w: np.ndarray, lams: np.ndarray) -> float:
    """max over ``lams`` of ``truncation_ratio_at(z, v, w, lam)``, bit for bit,
    for nonnegative z and v, positive weights and v of positive mass.

    Each truncated mean, from the cumsums or from the dot product, rounds
    every term at most n + 1 times, so both ratios lie within
    G = gamma_{2n+3} of the exact ratio.  The lam that attains the dot-product
    maximum therefore has a cumsum ratio of at least (1 - G)^2 / (1 + G)^2 >=
    1 - 4G times the cumsum maximum.  The band below is twice as wide, which
    also covers the rounding of the test itself, and only the lam inside it
    are evaluated with dot products.
    """
    fast = _truncated_means(z, w, lams) / _truncated_means(v, w, lams)
    band = fast.max() * (1.0 - 8.0 * _gamma(2 * w.size + 3))
    return max(truncation_ratio_at(z, v, w, lam) for lam in lams[fast >= band])


def good_lambda_ratio_at(g: np.ndarray, f: np.ndarray, w: np.ndarray, lam: float, beta: float, delta: float) -> float:
    """P(g > beta lam, f <= delta lam) / P(g > lam) from two dot products;
    P(g > lam) must be positive."""
    denom = float(w @ (g > lam))
    return float(w @ ((g > beta * lam) & (f <= delta * lam))) / denom


def good_lambda_sup(g: np.ndarray, f: np.ndarray, w: np.ndarray, lams: np.ndarray, beta: float, delta: float) -> float:
    """max(0, max of ``good_lambda_ratio_at`` over the lam in ``lams`` with
    P(g > lam) > 0), bit for bit, for positive weights and beta, delta > 0.

    ``lams`` ascends, so do beta * lams and delta * lams (the same products the
    per-lam sets use), and leaf i lies in the numerator set exactly at the
    candidates j in [lo_i, hi_i) with lo_i = #{delta lam_j < f_i} and
    hi_i = #{beta lam_j < g_i}.  Integer counts of both sets decide empty sets
    exactly: an empty denominator is skipped and an empty numerator gives 0.
    Elsewhere the numerator mass is the difference of two cumulative masses,
    within 2 gamma_n of their sum, and the denominator a suffix mass of the
    sorted g, within gamma_n of itself.  The dot-product ratio is within
    gamma_{2n} of the exact one, and gamma_{4n+8} covers that, the
    denominator's error and the rounding of the bounds, so every candidate
    gets an interval [L, U] that holds its dot-product ratio.  Only
    candidates with U >= max L can attain the maximum, and of a run of
    candidates with the same two sets only the first is evaluated.
    """
    if not (beta > 0 and delta > 0):
        raise ValueError("good-lambda scan needs beta > 0 and delta > 0")
    n, m = w.size, lams.size
    order = np.argsort(g)
    g_tail = np.concatenate((np.cumsum(w[order][::-1])[::-1], [0.0]))
    g_below = np.searchsorted(g[order], lams, side="right")  # #{g <= lam}
    lo = np.searchsorted(delta * lams, f)
    hi = np.searchsorted(beta * lams, g)
    live = lo < hi
    lo, hi, w_live = lo[live], hi[live], w[live]
    starts = np.bincount(lo, minlength=m + 1)[:m]
    ends = np.bincount(hi, minlength=m + 1)[:m]
    members = np.cumsum(starts - ends)
    first = np.ones(m, dtype=bool)
    first[1:] = (starts[1:] + ends[1:] > 0) | (g_below[1:] != g_below[:-1])
    cand = np.flatnonzero((members > 0) & (g_below < n))
    if cand.size == 0:
        return 0.0
    enter = np.cumsum(np.bincount(lo, w_live, minlength=m + 1))[cand]
    leave = np.cumsum(np.bincount(hi, w_live, minlength=m + 1))[cand]
    denom = g_tail[g_below[cand]]
    err = 2.0 * _gamma(n) * (enter + leave)
    spread = _gamma(4 * n + 8)
    upper = (enter - leave + err) / denom * (1.0 + spread)
    lower = (enter - leave - err) / denom * (1.0 - spread)
    keep = cand[(upper >= lower.max()) & first[cand]]
    return max(0.0, *(good_lambda_ratio_at(g, f, w, lam, beta, delta) for lam in lams[keep]))


def lambda_candidates(*value_arrays: np.ndarray) -> np.ndarray:
    """Breakpoints-and-midpoints scan grid built from finite value sets: the
    distinct positive values, the midpoint of each neighbouring pair and the
    padding points vals[0] / 2 and vals[-1] * 2, ascending and distinct.

    One sort suffices: fl((a + b) / 2) lies in [a, b] for 0 < a <= b, since
    rounding is monotone, unless a + b overflows to inf.  Then b >= 2**1023,
    so the padding point vals[-1] * 2 is inf already, and the midpoint is
    clamped to b.  Adjacent duplicates, such as a midpoint that rounds onto a
    breakpoint, are dropped.
    """
    vals = np.unique(np.concatenate([np.asarray(v, dtype=np.float64).ravel() for v in value_arrays]))
    vals = vals[vals > 0]
    if vals.size == 0:
        return np.array([1.0])
    grid = np.empty(2 * vals.size + 1)
    with np.errstate(over="ignore"):
        grid[0] = vals[0] / 2.0
        grid[1::2] = vals
        np.minimum((vals[1:] + vals[:-1]) / 2.0, vals[1:], out=grid[2:-1:2])
        grid[-1] = vals[-1] * 2.0
    return grid[np.append(True, grid[1:] != grid[:-1])]
