"""Span tracer for the traced benchmark run.

The tracer wraps the public functions of each martkit layer from outside the
package, by substituting module, class and registry attributes; no file of
the package changes.  Names that a module re-binds at import time
(``report.corpus_martingale``, ``rough.chain_dp``, ``checks.lq_norm``, ...)
are substituted where they are looked up.  Functions reached through a module
reference (``fn.maximal_paths`` in checks, bellman and ito) or through a class
(``FiltrationTree.__init__``) need only one substitution.

Every call of a wrapped function records one span: name, start, end, index of
the enclosing span (-1 at the top) and the operation id current at its start.
Spans stay in memory until the run writes them out.  A span's self time is its
duration minus the durations of its direct children; the calls are nested on
one thread, so the children never overlap.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter

import numpy as np

# Exact counts the traced run checks for repetition between two passes.
EXACT_COUNTS = (
    "tree.build_calls",
    "generators.rng_calls",
    "report.ratios",
    "tree.path_bytes",
    "rough.chain_dp_calls",
    "rough.picard_iterations",
    "rough.sew_levels",
)

# functionals metric bucket -> module attributes
_FUNCTIONALS = {
    "functionals.maxsq_us": (
        "maximal_paths",
        "maximal",
        "increments",
        "square_function_paths",
        "square_function",
        "predictable_square_paths",
        "predictable_square",
        "weighted_maximal_data",
    ),
    "functionals.davis_us": ("davis_decompose",),
    "functionals.variation_us": ("variation", "variation_paths", "two_param_variation_paths"),
    "functionals.lepingle_us": ("lepingle_pathwise_bound",),
    "functionals.paraproduct_us": ("paraproduct_pairs", "paraproduct_deltaf_pairs"),
}

# (module, class or None, attribute, metric bucket); the check registry's
# entries are substituted separately
INSTRUMENTS = (
    [
        ("generators", None, "corpus_martingale", "generators.corpus_us"),
        ("report", None, "corpus_martingale", "generators.corpus_us"),
        ("generators", None, "rng_for", "generators.rng_us"),
        ("tree", "FiltrationTree", "__init__", "tree.build_us"),
        ("tree", "FiltrationTree", "dyadic", "tree.build_us"),
        ("tree", "FiltrationTree", "uniform", "tree.build_us"),
        ("tree", "Martingale", "from_leaf_values", "tree.backprop_us"),
        ("tree", "Martingale", "validate_martingale", "tree.validate_us"),
        ("tree", "TreeProcess", "paths", "tree.paths_us"),
        ("tree", "TreeProcess", "from_paths", "tree.paths_us"),
    ]
    + [("functionals", None, attr, bucket) for bucket, attrs in _FUNCTIONALS.items() for attr in attrs]
    + [
        ("report", None, "closed_tail_scan", "report.scan_us"),
        ("checks", None, "closed_tail_scan", "report.scan_us"),
        ("report", None, "lambda_candidates", "report.scan_us"),
        ("checks", None, "lambda_candidates", "report.scan_us"),
        ("report", None, "lq_norm", "report.norm_us"),
        ("checks", None, "lq_norm", "report.norm_us"),
        ("report", "RatioTracker", "add", "report.tracker_us"),
        ("report", "RatioTracker", "add_many", "report.tracker_us"),
        ("report", "RatioTracker", "flag", "report.tracker_us"),
        ("report", "RatioTracker", "commit_trial", "report.tracker_us"),
        ("bellman", None, "pathwise_sharp_sides", "bellman.pathwise_us"),
        ("bellman", None, "pathwise_sharp_check", "bellman.pathwise_us"),
        ("bellman", None, "induction_values", "bellman.pathwise_us"),
        ("bellman", None, "concavity_grid_min", "bellman.grid_us"),
        ("bellman", None, "concavity_counterexample", "bellman.grid_us"),
        ("bellman", None, "extremal_search", "bellman.extremal_us"),
        ("bellman", None, "extremal_ratio", "bellman.extremal_us"),
        ("bellman", None, "extremal_tree", "bellman.extremal_us"),
        ("rough", None, "chain_dp", "rough.chain_dp_us"),
        ("rough", "Control", "__call__", "rough.control_us"),
        ("rough", None, "rde_solve", "rough.rde_us"),
        ("rough", None, "rde_stability", "rough.rde_us"),
        ("rough", None, "sew", "rough.sew_us"),
        ("rough", None, "young_integral", "rough.sew_us"),
        ("ito", None, "ito_sum", "ito.sum_us"),
        ("ito", None, "ito_sum_from", "ito.sum_us"),
        ("ito", None, "ito_pairs", "ito.sum_us"),
        ("ito", None, "covariation_sum", "ito.sum_us"),
        ("ito", None, "integration_by_parts_residual", "ito.sum_us"),
        ("ito", None, "chen_residual", "ito.sum_us"),
        ("ito", "AdaptedGridPartition", "full", "ito.partition_us"),
        ("ito", "AdaptedGridPartition", "from_oscillation", "ito.partition_us"),
        ("ito", "AdaptedGridPartition", "union_grid", "ito.partition_us"),
        ("ito", None, "refine_converge", "ito.refine_us"),
    ]
)

CHECK_NAMES = (
    "doob",
    "square_weak",
    "davis_decomposition",
    "davis_bdg",
    "garsia_neveu",
    "aux_lemmas",
    "lepingle",
    "vector_valued",
    "paraproduct",
    "sharp_davis",
)

LAYERS = ("generators", "tree", "functionals", "report", "checks", "bellman", "rough", "ito")

SELF_BUCKETS = sorted({bucket for *_, bucket in INSTRUMENTS} | {"checks.self_us"})


def _count_ratios(tracer, args, result, before):
    tracer.counts["report.ratios"] += 1


def _count_many_ratios(tracer, args, result, before):
    tracer.counts["report.ratios"] += int(np.size(args[1]))


def _fresh_paths(args):
    return args[0]._paths is None


def _count_path_bytes(tracer, args, result, fresh):
    if fresh:
        tracer.counts["tree.path_bytes"] += int(result.nbytes)


def _count_picard(tracer, args, result, before):
    # nested calls solve sub-intervals whose iterations the outer result sums
    if not any(tracer.spans[i][0] == "rough.rde_solve" for i in tracer.stack):
        tracer.counts["rough.picard_iterations"] += int(result.iterations)


def _count_sew_levels(tracer, args, result, before):
    tracer.counts["rough.sew_levels"] += int(result.levels)


# span name -> (count hook, pre-call hook); call counts are kept for every span
_HOOKS = {
    "report.RatioTracker.add": (_count_ratios, None),
    "report.RatioTracker.add_many": (_count_many_ratios, None),
    "tree.TreeProcess.paths": (_count_path_bytes, _fresh_paths),
    "rough.rde_solve": (_count_picard, None),
    "rough.sew": (_count_sew_levels, None),
}

_CALL_COUNTS = {
    "tree.build_calls": "tree.FiltrationTree.__init__",
    "generators.rng_calls": "generators.rng_for",
    "rough.chain_dp_calls": "rough.chain_dp",
}


class Tracer:
    """Records spans and counts around substituted layer functions."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op = 0
        self._bucket: dict[str, str] = {}
        self._saved: list[tuple] = []

    def _wrap(self, name, fn):
        spans, stack, counts, clock = self.spans, self.stack, self.counts, time.perf_counter
        count, pre = _HOOKS.get(name, (None, None))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            before = pre(args) if pre is not None else None
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            counts[name] += 1
            if count is not None:
                count(self, args, result, before)
            return result

        return traced

    def _substitute(self, owner, attr, name, bucket):
        if isinstance(owner, dict):
            raw = owner[attr]
            owner[attr] = self._wrap(name, raw)
        else:
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(name, raw.__func__))
            else:
                new = self._wrap(name, raw)
            setattr(owner, attr, new)
        self._saved.append((owner, attr, raw))
        self._bucket[name] = bucket

    def install(self, modules: dict) -> None:
        """Substitute every instrumented attribute; ``modules`` maps the
        martkit module names to the imported modules."""
        for mod_name, owner_name, attr, bucket in INSTRUMENTS:
            module = modules[mod_name]
            owner = module if owner_name is None else getattr(module, owner_name)
            name = f"{mod_name}.{attr}" if owner_name is None else f"{mod_name}.{owner_name}.{attr}"
            self._substitute(owner, attr, name, bucket)
        registry = modules["checks"].REGISTRY
        for check in CHECK_NAMES:
            self._substitute(registry, check, f"checks.{check}", "checks.self_us")

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            if isinstance(owner, dict):
                owner[attr] = raw
            else:
                setattr(owner, attr, raw)

    def exact_counts(self) -> dict:
        out = {key: int(self.counts[name]) for key, name in _CALL_COUNTS.items()}
        for key in EXACT_COUNTS:
            out.setdefault(key, int(self.counts[key]))
        return out

    def summary(self, ops: int, wall_s: float) -> dict:
        """Per-layer metrics: self time in microseconds per operation, each
        layer's share of the traced wall time, and the exact counts."""
        n = len(self.spans)
        child = [0.0] * n
        for _name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: Counter = Counter()
        for i, (name, start, end, _parent, _op) in enumerate(self.spans):
            self_s[self._bucket[name]] += end - start - child[i]
        out = {bucket: self_s[bucket] * 1e6 / ops for bucket in SELF_BUCKETS}
        for layer in LAYERS:
            layer_s = sum(v for k, v in self_s.items() if k.split(".")[0] == layer)
            out[f"{layer}.self_share"] = layer_s / wall_s
        out.update(self.exact_counts())
        return out

    def dump(self, path: str) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {name: i for i, name in enumerate(names)}
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start_s", "end_s", "parent", "op"],
                    "names": names,
                    "spans": [[index[s[0]], s[1], s[2], s[3], s[4]] for s in self.spans],
                },
                fh,
                separators=(",", ":"),
            )
