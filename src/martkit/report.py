"""Check reports, corpus specifications, and exact-norm helpers."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, fields
from typing import Iterator

import numpy as np

from .generators import TRIAL_BITS, corpus_martingale, corpus_rng
from .tree import Martingale

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


def finish_report(name, params, spec, tracker, t0, constant, hypothesis_failures=0, measured=None, trials=None):
    """Close the tracker's last trial and build the check's report; ``t0`` is
    the check's ``time.perf_counter()`` start."""
    tracker.commit_trial()
    return CheckReport(
        check=name,
        params=params,
        trials=spec.trials if trials is None else trials,
        violations=tracker.violations,
        worst_ratio=tracker.worst,
        constant_used=constant,
        seed=spec.seed,
        runtime_ms=(time.perf_counter() - t0) * 1000.0,
        hypothesis_failures=hypothesis_failures,
        measured=measured or {},
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
        if self.trials >= 1 << TRIAL_BITS:
            raise ValueError(f"trials must be below 2**{TRIAL_BITS}, or per-trial seeds overlap the next seed's")

    def martingales(self) -> Iterator[Martingale]:
        for i in range(self.trials):
            yield corpus_martingale(self.kind, self.depth, self.seed, i, self.dist, self.width)

    def rng(self, index: int) -> np.random.Generator:
        return corpus_rng(self.seed, index)

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
    """Accumulates LHS/(C*RHS) ratios with the 0/0 -> 0 convention.

    ``violations`` counts trials, not individual ratios: every assertion of
    one trial raises a flag that ``commit_trial`` folds into the count, so
    the report invariant "worst_ratio <= 1 + RATIO_TOL iff violations = 0"
    holds with trial-level semantics.
    """

    def __init__(self):
        self.worst = 0.0
        self.violations = 0
        self._trial_bad = False

    def add(self, lhs: float, rhs: float) -> float:
        if rhs == 0.0:
            ratio = 0.0 if lhs <= 0.0 else np.inf
        else:
            ratio = lhs / rhs
        if ratio > self.worst:
            self.worst = float(ratio)
        if ratio > 1.0 + RATIO_TOL:
            self._trial_bad = True
        return ratio

    def add_many(self, lhs: np.ndarray, rhs: np.ndarray) -> None:
        lhs = np.asarray(lhs, dtype=np.float64)
        rhs = np.asarray(rhs, dtype=np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(rhs > 0, lhs / np.where(rhs > 0, rhs, 1.0), np.where(lhs > 0, np.inf, 0.0))
        if ratio.size:
            self.worst = max(self.worst, float(ratio.max()))
            if (ratio > 1.0 + RATIO_TOL).any():
                self._trial_bad = True

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
    """Exact L^q quasi-norm on a finite weighted space (q = inf is the max)."""
    x = np.abs(np.asarray(values, dtype=np.float64))
    if np.isinf(q):
        return float(x.max(initial=0.0))
    if q <= 0:
        raise ValueError("q must be positive")
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
    return _group_scan(stat, np.argsort(-stat, kind="stable"), mass_arrays)


def closed_sublevel_scan(stat: np.ndarray, *mass_arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """Cumulative masses of the closed sets {stat <= v} at each distinct v > 0,
    in ascending order of v; the return layout is that of closed_tail_scan."""
    stat = np.asarray(stat, dtype=np.float64)
    return _group_scan(stat, np.argsort(stat, kind="stable"), mass_arrays)


def _group_scan(stat: np.ndarray, order: np.ndarray, mass_arrays) -> tuple[np.ndarray, ...]:
    """Cumulative masses along ``order`` (a stable sort of ``stat``), read at
    the last member of each run of equal values, for the positive values."""
    sorted_stat = stat[order]
    cums = [np.cumsum(np.asarray(m, dtype=np.float64)[order]) for m in mass_arrays]
    boundaries = np.nonzero(np.diff(sorted_stat) != 0)[0]
    idx = np.append(boundaries, stat.size - 1)
    levels = sorted_stat[idx]
    keep = levels > 0
    return (levels[keep],) + tuple(c[idx][keep] for c in cums)


def lambda_candidates(*value_arrays: np.ndarray) -> np.ndarray:
    """Breakpoints-and-midpoints scan grid built from finite value sets."""
    vals = np.unique(np.concatenate([np.asarray(v, dtype=np.float64).ravel() for v in value_arrays]))
    vals = vals[vals > 0]
    if vals.size == 0:
        return np.array([1.0])
    mids = (vals[1:] + vals[:-1]) / 2.0
    return np.unique(np.concatenate([vals, mids, [vals[0] / 2.0, vals[-1] * 2.0]]))
