"""Named verification procedures, one per inequality.

Every check validates its parameters, then hands one per-trial function
``trial(tracker, i, mart)`` to :func:`~martkit.report.run_trials`, which runs
it on each trial of a deterministic seeded corpus, commits the trial and
returns the :class:`~martkit.report.CheckReport`.  Inequalities with an
explicit constant are asserted through the tracker (a trial whose ratio
exceeds 1 + 1e-9 counts as a violation); inequalities stated only up to an
unspecified constant are measured with ``tracker.measure``, which keeps each
quantity's worst value for the report's ``measured``.  Checks with a
hypothesis (Garsia-Neveu, truncation, good-lambda) verify it at every scan
point first and count non-qualifying trials in
``tracker.hypothesis_failures``.
"""

from __future__ import annotations

import inspect
import math
from typing import Callable

import numpy as np

from . import bellman
from . import functionals as fn
from .report import CheckReport, CorpusSpec, closed_sublevel_block_scan, closed_tail_scan, good_lambda_sup, lambda_candidates, lq_norm, ratio, run_trials, truncation_ratio_sup
from .tree import MAX_VECTOR_DIM, Martingale, StoppingRule, accumulate_levels


def _conjugate(p: float) -> float:
    return p / (p - 1.0)


def _exponents(p, ok: Callable[[float], bool], what: str) -> tuple:
    """One exponent or a sequence of them, as a tuple whose every entry is
    finite and satisfies ``ok``; ``what`` names the condition in the error."""
    ps = (p,) if np.isscalar(p) else tuple(p)
    if not all(math.isfinite(x) and ok(x) for x in ps):
        raise ValueError(f"{what}, each finite, got {list(ps)}")
    return ps


# -- Doob ---------------------------------------------------------------


def check_doob(spec: CorpusSpec, p: float | tuple = (1.5, 2.0, 4.0)) -> CheckReport:
    """Maximal inequality ||Mf||_p <= p' ||f||_p for nonnegative submartingales
    (here |martingale|), plus the weak form with constant 1 at every level."""
    ps = _exponents(p, lambda x: x > 1, "strong maximal inequality needs p > 1")

    def trial(tracker, i, mart):
        layout = mart.tree.layout
        w = mart.tree.leaf_prob
        mf = layout.leaves(fn.maximal_paths(mart.flat, layout))
        f_n = np.abs(mart.leaf_values())
        for pp in ps:
            tracker.add(lq_norm(mf, pp, w), _conjugate(pp) * lq_norm(f_n, pp, w))
        levels, tail_mu, tail_f = closed_tail_scan(mf, w, w * f_n)
        tracker.add_many(levels * tail_mu, tail_f)

    return run_trials("doob", {"p": list(ps)}, spec, max(_conjugate(pp) for pp in ps), trial)


# -- weak square function -------------------------------------------------


def check_square_weak(spec: CorpusSpec) -> CheckReport:
    """|{Sf > lam}| <= 3 ||f||_1 / lam at every breakpoint, plus the
    look-ahead bound sum_k E(|df_k|^2 1_{tau > k}) <= 2 lam ||f||_1 with
    tau the first entry of |f| above lam."""

    def trial(tracker, i, mart):
        tree = mart.tree
        layout = tree.layout
        w = tree.leaf_prob
        f1 = float(w @ np.abs(mart.leaf_values()))
        sf = layout.leaves(fn.square_function_paths(mart.flat, layout))
        levels, tail_mu = closed_tail_scan(sf, w)
        tracker.add_many(levels * tail_mu, np.full_like(levels, 3.0 * f1))

        # look-ahead: tau > k  <=>  running max R_k <= lam, for the nodes of
        # levels k = 1..N, each standing for its block of leaves
        first = layout.offsets[1]
        run = fn.maximal_paths(mart.flat, layout)[first:]
        df2 = np.square(fn.increments(mart.flat, layout)[first:])
        start, count = np.concatenate(tree.leaf_start)[first:], np.concatenate(tree.leaf_count)[first:]
        lams, head = closed_sublevel_block_scan(run, df2, start, count, w)
        tracker.add_many(head, 2.0 * lams * f1)

    return run_trials("square_weak", {}, spec, 3.0, trial)


# -- Davis decomposition ----------------------------------------------------


def check_davis_decomposition(spec: CorpusSpec) -> CheckReport:
    """Exactness and size bounds of the decomposition: f = f_pred + f_bv to
    1e-12, |df_pred_n| <= 2 M df_{n-1} pathwise, E sum |df_bv| <= 2 E M df.

    Every quantity is F_n-measurable, so the pathwise bounds are asserted
    once per node: a ratio and its violation flag do not depend on how many
    leaves repeat it."""

    def trial(tracker, i, mart):
        layout = mart.tree.layout
        w = mart.tree.leaf_prob
        f = mart.flat
        pred, bv = fn.davis_decompose(mart)
        scale = max(1.0, float(np.abs(f).max()))
        split = float(np.abs(f - pred.flat - bv.flat).max()) / scale
        tracker.measure("worst_split_residual", split)
        if split > 1e-12:
            tracker.flag()
        mdf = layout.accumulate(np.maximum, np.abs(fn.increments(f, layout)))  # M df_n, from M df_0 = 0
        first = layout.offsets[1]
        dpred = fn.increments(pred.flat, layout)[first:]
        tracker.add_many(np.abs(dpred), 2.0 * mdf[layout.up[first:]])
        tv = layout.accumulate(np.add, np.abs(fn.increments(bv.flat, layout)), start=2)
        tracker.add(float(w @ layout.leaves(tv)), 2.0 * float(w @ layout.leaves(mdf)))

    return run_trials("davis_decomposition", {}, spec, 2.0, trial, {"worst_split_residual": 0.0})


# -- Davis / BDG --------------------------------------------------------------


def check_davis_bdg(spec: CorpusSpec, p: float = 2.0) -> CheckReport:
    """E Sf <= sqrt(3) E f* asserted; the remaining BDG directions carry no
    explicit constant and are only measured (in L^1 and L^p)."""
    _exponents(p, lambda x: x > 0, "the L^p exponent p must be positive")

    def trial(tracker, i, mart):
        layout = mart.tree.layout
        w = mart.tree.leaf_prob
        sf = layout.leaves(fn.square_function_paths(mart.flat, layout))
        mf = layout.leaves(fn.maximal_paths(mart.flat, layout))
        e_s, e_m = bellman.sharp_davis_clause(tracker, sf, mf, w)
        tracker.measure("max_EM_over_ES", ratio(e_m, e_s))
        tracker.measure("max_Lp_S_over_M", ratio(lq_norm(sf, p, w), lq_norm(mf, p, w)))
        tracker.measure("max_Lp_M_over_S", ratio(lq_norm(mf, p, w), lq_norm(sf, p, w)))

    measured = {"max_EM_over_ES": 0.0, "max_Lp_S_over_M": 0.0, "max_Lp_M_over_S": 0.0}
    return run_trials("davis_bdg", {"p": p}, spec, bellman.SQRT3, trial, measured)


# -- Garsia-Neveu -------------------------------------------------------------


def _predictable_pair(spec: CorpusSpec, index: int, mart: Martingale):
    """Increasing predictable A (from the martingale's past) and xi >= A_N.
    A_n = A_{n-1} + scale_n |f_{n-1}| from A_0 = 0, per node."""
    tree = mart.tree
    layout = tree.layout
    rng = spec.rng(index)
    scale = rng.uniform(0.2, 1.0, size=tree.depth)
    steps = np.repeat(np.append(0.0, scale), np.diff(layout.offsets)) * np.abs(mart.flat[layout.up])
    a = layout.leaves(layout.accumulate(np.add, steps))
    noise = np.abs(rng.normal(size=tree.n_leaves))
    return a, a + noise


def check_garsia_neveu(spec: CorpusSpec, p: float | tuple = (1.0, 2.0, 3.0)) -> CheckReport:
    """||W||_p <= p ||Z||_p for pairs satisfying E((W - lam)+) <= E(Z 1_{W > lam});
    the hypothesis is verified at every breakpoint and failures are skipped."""
    ps = _exponents(p, lambda x: x >= 1, "the Garsia-Neveu bound needs p >= 1")

    def trial(tracker, i, mart):
        w = mart.tree.leaf_prob
        big_w, xi = _predictable_pair(spec, i, mart)
        levels, tail_w, tail_mu, tail_xi = closed_tail_scan(big_w, w * big_w, w, w * xi)
        # E((W - lam) 1_{W >= lam}) computed from tail sums
        lhs = tail_w - levels * tail_mu
        scale = max(1.0, float(np.abs(big_w).max(initial=0.0)))
        if np.any(lhs > tail_xi + 1e-12 * scale):
            tracker.hypothesis_failures += 1
            return
        tracker.measured["qualifying_trials"] += 1
        for pp in ps:
            tracker.add(lq_norm(big_w, pp, w), pp * lq_norm(xi, pp, w))

    return run_trials("garsia_neveu", {"p": list(ps)}, spec, max(ps), trial, {"qualifying_trials": 0})


# -- auxiliary lemmas ----------------------------------------------------------


def check_aux_lemmas(
    spec: CorpusSpec,
    sum_ek_p: tuple = (1.0, 1.5, 2.0, 3.0),
    concave_p: tuple = (0.3, 0.5, 1.0),
    good_lambda: tuple = (2.0, 1.0, 2.0),  # (beta, delta, p)
    s_vs_S_p: tuple = (2.0, 4.0),
    m_vs_s_p: tuple = (0.5, 1.0, 2.0),
) -> CheckReport:
    """Bundle of positive-variable lemmas with explicit constants:

    - conditional-sum bound  E(sum E_{k-1} z_k)^p <= p^p E(sum z_k)^p;
    - truncated-moment comparison with the measured best constant C;
    - good-lambda extrapolation with the measured epsilon;
    - predictable square bound ||sf||_p <= (p/2)^{1/2} ||Sf||_p, p >= 2;
    - maximal-vs-predictable ||Mf||_p <= 5^{1/p} ||sf||_p, p <= 2.
    """
    sum_ek_p = _exponents(sum_ek_p, lambda x: x >= 1, "the conditional-sum bound needs p >= 1")
    concave_p = _exponents(concave_p, lambda x: 0 < x <= 1, "the truncated-moment comparison needs 0 < p <= 1")
    s_vs_S_p = _exponents(s_vs_S_p, lambda x: x >= 2, "the predictable square bound needs p >= 2")
    # 5^(1/p) overflows a double below p = 1/441
    m_vs_s_p = _exponents(m_vs_s_p, lambda x: 1 / 441 <= x <= 2, "the maximal-vs-predictable bound needs 1/441 <= p <= 2")
    if np.isscalar(good_lambda) or len(good_lambda) != 3:
        raise ValueError(f"good_lambda must be (beta, delta, p), got {good_lambda}")
    beta, delta, gl_p = good_lambda
    # the box keeps beta^p, delta^-p and the scan grid's sf / delta finite
    if not (1 < beta <= 1e3 and 1e-3 <= delta <= 1e3 and 0 < gl_p <= 32):
        raise ValueError(f"good_lambda needs (beta, delta, p) in (1, 1e3] x [1e-3, 1e3] x (0, 32], got {good_lambda}")

    def trial(tracker, i, mart):
        tree = mart.tree
        layout = tree.layout
        w = tree.leaf_prob
        rng = spec.rng(index=i)

        # sum of conditional expectations of positive variables z_k = |df_k|^2,
        # each level's average over the leaves in leaf order
        z = fn.increments(mart.flat, layout) ** 2
        z_levels = layout.levels(z)
        big_w = np.zeros(tree.n_leaves)
        for k in range(1, tree.depth + 1):
            big_w = big_w + tree.atom_average_leaves(k - 1, tree.to_leaves(k, z_levels[k]))
        big_z = layout.leaves(layout.accumulate(np.add, z, start=2))
        for pp in sum_ek_p:
            tracker.add(float(w @ big_w**pp), pp**pp * float(w @ big_z**pp))

        # truncated-moment comparison: measure the best C, then assert with it
        zz = np.abs(mart.leaf_values()) + rng.uniform(0, 0.5, size=tree.n_leaves)
        ww = np.abs(rng.normal(size=tree.n_leaves)) + 0.1
        c_star = truncation_ratio_sup(zz, ww, w, lambda_candidates(zz, ww))
        tracker.measure("best_truncation_C", c_star)
        for pp in concave_p:
            tracker.add(float(w @ zz**pp), c_star * float(w @ ww**pp))

        # good-lambda: g = Mf, f = Sf, epsilon measured at every scan point
        mf = layout.leaves(fn.maximal_paths(mart.flat, layout))
        sf = layout.leaves(fn.square_function_paths(mart.flat, layout))
        eps_star = good_lambda_sup(mf, sf, w, lambda_candidates(mf / beta, mf, sf / delta), beta, delta)
        tracker.measure("worst_good_lambda_eps", eps_star)
        if beta**gl_p * eps_star >= 1.0:
            tracker.hypothesis_failures += 1
        else:
            const = delta**-gl_p / (beta**-gl_p - eps_star)
            tracker.add(float(w @ mf**gl_p), const * float(w @ sf**gl_p))

        # predictable square function comparisons; big_w is sf_pred^2
        sf_pred = np.sqrt(big_w)
        for pp in s_vs_S_p:
            tracker.add(lq_norm(sf_pred, pp, w), math.sqrt(pp / 2.0) * lq_norm(sf, pp, w))
        for pp in m_vs_s_p:
            tracker.add(lq_norm(mf, pp, w), 5.0 ** (1.0 / pp) * lq_norm(sf_pred, pp, w))

    params = {
        "sum_ek_p": list(sum_ek_p),
        "concave_p": list(concave_p),
        "good_lambda": list(good_lambda),
        "s_vs_S_p": list(s_vs_S_p),
        "m_vs_s_p": list(m_vs_s_p),
    }
    measured = {"best_truncation_C": 0.0, "worst_good_lambda_eps": 0.0}
    return run_trials("aux_lemmas", params, spec, float("nan"), trial, measured)


# -- Lepingle -------------------------------------------------------------------


def check_lepingle(spec: CorpusSpec, r: float | tuple = (2.5, 3.0, 4.0), p: float = 1.0) -> CheckReport:
    """Pathwise square-scale domination with constant 8 (rho = 2) asserted on
    every path; the moment inequality against (r/(r-2)) ||Mf||_p is measured."""
    rs = _exponents(r, lambda x: x > 2, "variation exponent must exceed 2")
    _exponents(p, lambda x: x > 0, "the L^p exponent p must be positive")

    def trial(tracker, i, mart):
        layout = mart.tree.layout
        w = mart.tree.leaf_prob
        mf = layout.leaves(fn.maximal_paths(mart.flat, layout))
        bounds = fn.lepingle_pathwise_bound(mart.flat, rs, layout)
        for rr, (vr, rhs) in zip(rs, bounds):
            tracker.add_many(vr**2, rhs)
            tracker.measure(f"moment_ratio_r={rr}", ratio(lq_norm(vr, p, w), rr / (rr - 2.0) * lq_norm(mf, p, w)))

    moment = {f"moment_ratio_r={rr}": 0.0 for rr in rs}
    return run_trials("lepingle", {"r": list(rs), "p": p}, spec, 8.0, trial, moment)


# -- vector-valued inequalities ---------------------------------------------------


def check_vector_valued(spec: CorpusSpec, q: float = 3.0, r: float = 1.5, p: float = 2.0) -> CheckReport:
    """Families of martingales on a shared tree.

    Asserted with explicit constants: the r = q case (Fubini plus the scalar
    maximal inequality) and the r = infinity case (the componentwise sup is a
    submartingale), both with the conjugate exponent; and the weighted weak
    maximal bound with constant 1.  The general (q, r) combinations are
    measured only.
    """
    if spec.width < 1:
        raise ValueError("vector-valued checks need a family corpus (width >= 1)")
    if not (1 < q < math.inf and 1 < p < math.inf and 1 <= r < math.inf):
        raise ValueError(f"vector-valued checks need q > 1, p > 1 and r >= 1, each finite, got q={q}, p={p}, r={r}")

    def trial(tracker, i, mart):
        tree = mart.tree
        layout = tree.layout
        w = tree.leaf_prob
        m_comp = layout.leaves(fn.maximal_paths(mart.flat, layout))
        s_comp = layout.leaves(fn.square_function_paths(mart.flat, layout))
        f_comp = np.abs(mart.leaf_values())  # componentwise |martingale|: submartingales

        tracker.measure(
            "bdg_lq_lr", ratio(lq_norm(fn.component_norm(m_comp, r), q, w), lq_norm(fn.component_norm(s_comp, r), q, w))
        )
        tracker.measure(
            "maximal_lp_lr", ratio(lq_norm(fn.component_norm(m_comp, r), p, w), lq_norm(fn.component_norm(f_comp, r), p, w))
        )
        # exact special cases
        tracker.add(
            lq_norm(fn.component_norm(m_comp, q), q, w),
            _conjugate(q) * lq_norm(fn.component_norm(f_comp, q), q, w),
        )
        tracker.add(
            lq_norm(m_comp.max(axis=-1), p, w),
            _conjugate(p) * lq_norm(f_comp.max(axis=-1), p, w),
        )
        # weighted weak maximal bound, constant 1, on the first component
        rng = spec.rng(i)
        weight = np.abs(rng.normal(size=tree.n_leaves)) + 0.05
        _, lhs, rhs, w_star = fn.weighted_maximal_data(np.abs(mart.flat[:, 0]), weight, tree)
        tracker.add_many(lhs, rhs)
        tracker.measure(
            "weighted_strong_p", ratio(lq_norm(m_comp[:, 0], p, w * weight), lq_norm(f_comp[:, 0], p, w * w_star))
        )

    measured = {"bdg_lq_lr": 0.0, "maximal_lp_lr": 0.0, "weighted_strong_p": 0.0}
    constant = max(_conjugate(q), _conjugate(p), 1.0)
    return run_trials("vector_valued", {"q": q, "r": r, "p": p, "K": spec.width}, spec, constant, trial, measured)


# -- paraproducts -----------------------------------------------------------------


def _random_stopping_pair(tree, rng) -> tuple[StoppingRule, StoppingRule]:
    marks_lo = [rng.random(s) < 0.25 for s in tree.level_sizes]
    marks_hi = [rng.random(s) < 0.15 for s in tree.level_sizes]
    tau = StoppingRule(tree, marks_hi)
    tau_lo = StoppingRule(tree, marks_lo).minimum(tau)
    return tau_lo, tau


def check_paraproduct(
    spec: CorpusSpec, q0: float = 2.0, q1: float = 2.0, r0: float = 2.0, r1: float = 2.0, families: int = 4
) -> CheckReport:
    """Discrete paraproduct estimates over random stopping windows.

    The vector-valued window bound, its delta-f form, and the r-variation
    form carry unspecified constants and are measured.  The L^q Davis
    decomposition bounds (constants q+1 and q+2) are asserted.
    """
    if not all(1 <= x < math.inf for x in (q0, q1, r0, r1)):
        raise ValueError("q0, q1, r0 and r1 must be at least 1 and finite")
    if not (1 <= families <= MAX_VECTOR_DIM and float(families).is_integer()):
        raise ValueError(f"families must be a positive integer at most {MAX_VECTOR_DIM}, got {families}")
    families = int(families)
    q = 1.0 / (1.0 / q0 + 1.0 / q1)
    r = 1.0 / (1.0 / r0 + 1.0 / r1)
    r_var = 1.25 / (0.5 + 1.0 / r1)

    def trial(tracker, i, mart):
        tree = mart.tree
        layout = tree.layout
        w = tree.leaf_prob
        depth = tree.depth
        rng = spec.rng(i)

        # -- vector-valued window estimate over stopping pairs
        lhs_pow = np.zeros(tree.n_leaves)
        f_pow = np.zeros(tree.n_leaves)
        g_pow = np.zeros(tree.n_leaves)
        cols = np.arange(tree.n_leaves)
        t = np.arange(depth + 1)[:, None]
        for k in range(families):
            g_k = Martingale.from_leaf_values(tree, spec.rng(i * 1000 + k).normal(size=tree.n_leaves))
            u_k = np.abs(
                Martingale.from_leaf_values(tree, spec.rng(i * 1000 + 500 + k).normal(size=tree.n_leaves)).paths()
            )
            dg = np.diff(g_k.paths(), axis=0)
            lo, hi = _random_stopping_pair(tree, rng)
            lo_t = np.minimum(lo.times, depth)
            hi_t = np.minimum(hi.times, depth)
            # Pi(F, g) with F[s, t] = u_t - u_s is Pi(delta u, g): row lo of each path sums
            # the row kernel's terms du_{j-1} dg_j in time order, 0 outside lo <= j - 1 < hi
            du = u_k - u_k[lo_t, cols]
            win = (lo_t <= t) & (t < hi_t)
            terms = np.where(win[:-1], du[:-1] * dg, 0.0)
            accumulate_levels(np.add, terms)
            sup_pi = np.abs(terms).max(axis=0, initial=0.0)
            sup_f = np.abs(du).max(axis=0, where=win, initial=0.0)
            cums = np.vstack([np.zeros(tree.n_leaves), dg**2])
            accumulate_levels(np.add, cums)
            s_win = np.sqrt(np.maximum(cums[hi_t, cols] - cums[lo_t, cols], 0.0))
            lhs_pow += sup_pi**r
            f_pow += sup_f**r1
            g_pow += s_win**r0
        lhs = lq_norm(lhs_pow ** (1.0 / r), q, w)
        rhs = lq_norm(f_pow ** (1.0 / r1), q1, w) * lq_norm(g_pow ** (1.0 / r0), q0, w)
        tracker.measure("window_bound", ratio(lhs, rhs))

        # -- delta-f form over an adapted partition (r0 = 2 structure)
        f_m = Martingale.from_leaf_values(tree, spec.rng(i * 1000 + 777).normal(size=tree.n_leaves))
        f_pm = np.abs(f_m.paths())
        g_pm = mart.paths()
        dg = np.diff(g_pm, axis=0)
        cuts = sorted(rng.choice(np.arange(1, depth + 1), size=min(families - 1, depth), replace=False))
        bounds = [0] + list(cuts) + [depth]
        r_df = 1.0 / (0.5 + 1.0 / r1)
        lhs_pow = np.zeros(tree.n_leaves)
        f_pow = np.zeros(tree.n_leaves)
        for a, b in zip(bounds, bounds[1:]):
            # the sup of |Pi(delta f, g)_{s,t}| over a <= s <= t <= b: rows s < b
            # of the row kernel on t <= b (0 for t <= s), and Pi_{b,b} = 0
            rows = [np.abs(fn.paraproduct_deltaf_row(f_pm[: b + 1], dg[:b], s)).max(axis=0) for s in range(a, b)]
            lhs_pow += np.max(rows, axis=0, initial=0.0) ** r_df
            f_pow += np.abs(f_pm[a:b] - f_pm[a]).max(axis=0, initial=0.0) ** r1
        sg = layout.leaves(fn.square_function_paths(mart.flat, layout))
        lhs = lq_norm(lhs_pow ** (1.0 / r_df), q, w)
        rhs = lq_norm(f_pow ** (1.0 / r1), q1, w) * lq_norm(sg, q0, w)
        tracker.measure("delta_f_bound", ratio(lhs, rhs))

        # -- r-variation form: the gaps to the sums of a zero path are the sums
        best = fn.chain_dp(fn.ParaproductGaps(np.stack([f_pm, np.zeros_like(f_pm)], axis=1), dg), r_var)
        vr_pi = best[:, 0].max(axis=0) ** (1.0 / r_var)
        vr_f = fn.variation_paths(np.abs(f_m.flat), r1, layout)
        lhs = lq_norm(vr_pi, q, w)
        rhs = lq_norm(vr_f, q1, w) * lq_norm(sg, q0, w)
        tracker.measure("variation_bound", ratio(lhs, rhs))

        # -- L^q Davis decomposition bounds with explicit constants, per node
        fam = Martingale.from_leaf_values(
            tree, spec.rng(i * 1000 + 888).normal(size=(tree.n_leaves, max(2, families)))
        )
        pred, bv = fn.davis_decompose(fam, norm_exponent=r0)
        x_dbv = layout.accumulate(np.add, fn.component_norm(fn.increments(bv.flat, layout), r0), start=2)
        m_x_df = layout.accumulate(np.maximum, fn.component_norm(fn.increments(fam.flat, layout), r0))
        tracker.add(lq_norm(layout.leaves(x_dbv), q0, w), (q0 + 1.0) * lq_norm(layout.leaves(m_x_df), q0, w))
        s_pred = fn.component_norm(layout.leaves(fn.square_function_paths(pred.flat, layout)), r0)
        s_full = fn.component_norm(layout.leaves(fn.square_function_paths(fam.flat, layout)), r0)
        tracker.add(lq_norm(s_pred, q0, w), (q0 + 2.0) * lq_norm(s_full, q0, w))

    params = {"q0": q0, "q1": q1, "r0": r0, "r1": r1, "q": q, "r": r, "r_var": r_var}
    measured = {"window_bound": 0.0, "delta_f_bound": 0.0, "variation_bound": 0.0}
    return run_trials("paraproduct", params, spec, q0 + 2.0, trial, measured)


REGISTRY: dict[str, Callable[..., CheckReport]] = {
    "doob": check_doob,
    "square_weak": check_square_weak,
    "davis_decomposition": check_davis_decomposition,
    "davis_bdg": check_davis_bdg,
    "garsia_neveu": check_garsia_neveu,
    "aux_lemmas": check_aux_lemmas,
    "lepingle": check_lepingle,
    "vector_valued": check_vector_valued,
    "paraproduct": check_paraproduct,
    "sharp_davis": bellman.sharp_davis_check,
}


def _is_real(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def run_check(name: str, spec: CorpusSpec, **params) -> CheckReport:
    """Run a registry check.  Every parameter must be a finite real number,
    or a non-empty list of them where the check's default is a tuple."""
    if name not in REGISTRY:
        raise KeyError(f"unknown check {name!r}; known: {sorted(REGISTRY)}")
    check = REGISTRY[name]
    signature = inspect.signature(check)
    try:
        signature.bind(spec, **params)
    except TypeError as exc:
        raise ValueError(f"bad parameters for check {name!r}: {exc}") from None
    for key, value in params.items():
        listed = isinstance(signature.parameters[key].default, tuple)
        values = value if listed and isinstance(value, (list, tuple)) else [value]
        if not (values and all(map(_is_real, values))):
            what = "a real number or a non-empty list of them" if listed else "a real number"
            raise ValueError(f"check {name!r} parameter {key!r} must be {what}, got {value!r}")
    return check(spec, **params)


def default_suite(seed: int = 20240, trials_scale: float = 1.0) -> list[dict]:
    """The acceptance-scale suite configuration."""
    if not (math.isfinite(trials_scale) and trials_scale > 0):
        raise ValueError(f"trial-count scale must be finite and positive, got {trials_scale}")

    def n(k):
        return max(1, int(round(k * trials_scale)))

    return [
        {"check": "doob", "params": {"p": [1.5, 2.0, 4.0]}, "corpus": {"kind": "mixed", "depth": 8, "trials": n(10000), "seed": seed}},
        {"check": "square_weak", "params": {}, "corpus": {"kind": "mixed", "depth": 8, "trials": n(10000), "seed": seed}},
        {"check": "davis_decomposition", "params": {}, "corpus": {"kind": "mixed", "depth": 8, "trials": n(10000), "seed": seed + 1}},
        {"check": "davis_bdg", "params": {"p": 2.0}, "corpus": {"kind": "mixed", "depth": 8, "trials": n(2000), "seed": seed + 2}},
        {"check": "garsia_neveu", "params": {"p": [1.0, 2.0, 3.0]}, "corpus": {"kind": "mixed", "depth": 7, "trials": n(1000), "seed": seed + 3}},
        {"check": "aux_lemmas", "params": {}, "corpus": {"kind": "mixed", "depth": 7, "trials": n(1050), "seed": seed + 4}},
        {"check": "lepingle", "params": {"r": [2.5, 3.0, 4.0], "p": 1.0}, "corpus": {"kind": "walk", "depth": 10, "trials": n(1000), "seed": seed + 5}},
        {"check": "vector_valued", "params": {"q": 3.0, "r": 1.5, "p": 2.0}, "corpus": {"kind": "family", "depth": 6, "trials": n(1000), "seed": seed + 6, "width": 8}},
        {"check": "paraproduct", "params": {"q0": 2.0, "q1": 2.0, "r0": 2.0, "r1": 2.0}, "corpus": {"kind": "mixed", "depth": 6, "trials": n(100), "seed": seed + 7}},
        {"check": "sharp_davis", "params": {}, "corpus": {"kind": "mixed", "depth": 8, "trials": n(10000), "seed": seed + 8}},
    ]
