"""Named verification procedures, one per inequality.

Every check runs over a deterministic seeded corpus and returns a
:class:`~martkit.report.CheckReport`.  Inequalities with an explicit
constant are asserted (a trial whose ratio exceeds 1 + 1e-9 counts as a
violation); inequalities stated only up to an unspecified constant are
measured and their worst ratios reported under ``measured``.  Checks with a
hypothesis (Garsia-Neveu, truncation, good-lambda) verify it at every
scan point first and count non-qualifying trials separately.
"""

from __future__ import annotations

import inspect
import math
import time
from typing import Callable

import numpy as np

from . import bellman
from . import functionals as fn
from .report import CheckReport, CorpusSpec, RatioTracker, closed_sublevel_scan, closed_tail_scan, finish_report, good_lambda_sup, lambda_candidates, lq_norm, ratio, truncation_ratio_sup
from .tree import Martingale, StoppingRule


def _conjugate(p: float) -> float:
    if np.isinf(p):
        return 1.0
    return p / (p - 1.0)


# -- Doob ---------------------------------------------------------------


def check_doob(spec: CorpusSpec, p: float | tuple = (1.5, 2.0, 4.0)) -> CheckReport:
    """Maximal inequality ||Mf||_p <= p' ||f||_p for nonnegative submartingales
    (here |martingale|), plus the weak form with constant 1 at every level."""
    ps = (p,) if np.isscalar(p) else tuple(p)
    for pp in ps:
        if not pp > 1:
            raise ValueError("strong maximal inequality needs p > 1")
    t0 = time.perf_counter()
    tracker = RatioTracker()
    for mart in spec.martingales():
        w = mart.tree.leaf_prob
        f = np.abs(mart.paths())
        mf = fn.maximal_paths(f)[-1]
        f_n = f[-1]
        for pp in ps:
            tracker.add(lq_norm(mf, pp, w), _conjugate(pp) * lq_norm(f_n, pp, w))
        levels, tail_mu, tail_f = closed_tail_scan(mf, w, w * f_n)
        tracker.add_many(levels * tail_mu, tail_f)
        tracker.commit_trial()
    return finish_report("doob", {"p": list(ps)}, spec, tracker, t0, constant=max(_conjugate(pp) for pp in ps))


# -- weak square function -------------------------------------------------


def check_square_weak(spec: CorpusSpec) -> CheckReport:
    """|{Sf > lam}| <= 3 ||f||_1 / lam at every breakpoint, plus the
    look-ahead bound sum_k E(|df_k|^2 1_{tau > k}) <= 2 lam ||f||_1 with
    tau the first entry of |f| above lam."""
    t0 = time.perf_counter()
    tracker = RatioTracker()
    for mart in spec.martingales():
        w = mart.tree.leaf_prob
        pm = mart.paths()
        f1 = float(w @ np.abs(pm[-1]))
        sf = fn.square_function_paths(pm)[-1]
        levels, tail_mu = closed_tail_scan(sf, w)
        tracker.add_many(levels * tail_mu, np.full_like(levels, 3.0 * f1))

        # look-ahead: tau > k  <=>  running max R_k <= lam
        run = fn.maximal_paths(pm)[1:]  # R_k for k = 1..N
        df2 = fn.increments(pm) ** 2
        lams, head = closed_sublevel_scan(run.ravel(), (df2 * w[None, :]).ravel())
        tracker.add_many(head, 2.0 * lams * f1)
        tracker.commit_trial()
    return finish_report("square_weak", {}, spec, tracker, t0, constant=3.0)


# -- Davis decomposition ----------------------------------------------------


def check_davis_decomposition(spec: CorpusSpec) -> CheckReport:
    """Exactness and size bounds of the decomposition: f = f_pred + f_bv to
    1e-12, |df_pred_n| <= 2 M df_{n-1} pathwise, E sum |df_bv| <= 2 E M df."""
    t0 = time.perf_counter()
    tracker = RatioTracker()
    worst_split = 0.0
    for mart in spec.martingales():
        w = mart.tree.leaf_prob
        pm = mart.paths()
        pred, bv = fn.davis_decompose(mart)
        scale = max(1.0, float(np.abs(pm).max()))
        split = float(np.abs(pm - pred - bv).max()) / scale
        worst_split = max(worst_split, split)
        if split > 1e-12:
            tracker.flag()
        size = np.abs(fn.increments(pm))
        mdf_prev = np.zeros_like(size)  # M df_{n-1} for n = 1..N, from M df_0 = 0
        fn.accumulate_rows(np.maximum, size[:-1], out=mdf_prev[1:])
        dpred = fn.increments(pred)
        tracker.add_many(np.abs(dpred).ravel(), 2.0 * mdf_prev.ravel())
        tv = np.abs(fn.increments(bv)).sum(axis=0)
        tracker.add(float(w @ tv), 2.0 * float(w @ size.max(axis=0)))
        tracker.commit_trial()
    return finish_report(
        "davis_decomposition", {}, spec, tracker, t0, constant=2.0, measured={"worst_split_residual": worst_split}
    )


# -- Davis / BDG --------------------------------------------------------------


def check_davis_bdg(spec: CorpusSpec, p: float = 2.0) -> CheckReport:
    """E Sf <= sqrt(3) E f* asserted; the remaining BDG directions carry no
    explicit constant and are only measured (in L^1 and L^p)."""
    t0 = time.perf_counter()
    tracker = RatioTracker()
    m_over_s = 0.0
    lp_s_over_m = 0.0
    lp_m_over_s = 0.0
    for mart in spec.martingales():
        w = mart.tree.leaf_prob
        pm = mart.paths()
        sf, mf, e_s, e_m = bellman.sharp_davis_clause(tracker, fn.maximal_paths(pm), fn.increments(pm), w)
        m_over_s = max(m_over_s, ratio(e_m, e_s))
        lp_s_over_m = max(lp_s_over_m, ratio(lq_norm(sf, p, w), lq_norm(mf, p, w)))
        lp_m_over_s = max(lp_m_over_s, ratio(lq_norm(mf, p, w), lq_norm(sf, p, w)))
        tracker.commit_trial()
    return finish_report(
        "davis_bdg",
        {"p": p},
        spec,
        tracker,
        t0,
        constant=bellman.SQRT3,
        measured={
            "max_EM_over_ES": m_over_s,
            "max_Lp_S_over_M": lp_s_over_m,
            "max_Lp_M_over_S": lp_m_over_s,
        },
    )


# -- Garsia-Neveu -------------------------------------------------------------


def _predictable_pair(spec: CorpusSpec, index: int, mart: Martingale):
    """Increasing predictable A (from the martingale's past) and xi >= A_N."""
    tree = mart.tree
    rng = spec.rng(index)
    pm = mart.paths()
    a = np.zeros(tree.n_leaves)
    scale = rng.uniform(0.2, 1.0, size=tree.depth)
    for k in range(1, tree.depth + 1):
        a = a + scale[k - 1] * np.abs(pm[k - 1])  # F_{k-1}-measurable increment
    noise = np.abs(rng.normal(size=tree.n_leaves))
    return a, a + noise


def check_garsia_neveu(spec: CorpusSpec, p: float | tuple = (1.0, 2.0, 3.0)) -> CheckReport:
    """||W||_p <= p ||Z||_p for pairs satisfying E((W - lam)+) <= E(Z 1_{W > lam});
    the hypothesis is verified at every breakpoint and failures are skipped."""
    ps = (p,) if np.isscalar(p) else tuple(p)
    t0 = time.perf_counter()
    tracker = RatioTracker()
    hyp_failures = 0
    qualifying = 0
    for i, mart in enumerate(spec.martingales()):
        w = mart.tree.leaf_prob
        big_w, xi = _predictable_pair(spec, i, mart)
        levels, tail_w, tail_mu, tail_xi = closed_tail_scan(big_w, w * big_w, w, w * xi)
        # E((W - lam) 1_{W >= lam}) computed from tail sums
        lhs = tail_w - levels * tail_mu
        scale = max(1.0, float(np.abs(big_w).max(initial=0.0)))
        if np.any(lhs > tail_xi + 1e-12 * scale):
            hyp_failures += 1
            continue
        qualifying += 1
        for pp in ps:
            tracker.add(lq_norm(big_w, pp, w), pp * lq_norm(xi, pp, w))
        tracker.commit_trial()
    return finish_report(
        "garsia_neveu",
        {"p": list(ps)},
        spec,
        tracker,
        t0,
        constant=max(ps),
        hypothesis_failures=hyp_failures,
        measured={"qualifying_trials": qualifying},
    )


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
    beta, delta, gl_p = good_lambda
    t0 = time.perf_counter()
    tracker = RatioTracker()
    hyp_failures = 0
    measured = {"best_truncation_C": 0.0, "worst_good_lambda_eps": 0.0}
    for i, mart in enumerate(spec.martingales()):
        tree = mart.tree
        w = tree.leaf_prob
        pm = mart.paths()
        rng = spec.rng(index=i)

        # sum of conditional expectations of positive variables
        z = fn.increments(pm) ** 2
        big_z = z.sum(axis=0)
        big_w = np.zeros(tree.n_leaves)
        for k in range(1, tree.depth + 1):
            big_w = big_w + tree.atom_average_leaves(k - 1, z[k - 1])
        for pp in sum_ek_p:
            tracker.add(float(w @ big_w**pp), pp**pp * float(w @ big_z**pp))

        # truncated-moment comparison: measure the best C, then assert with it
        zz = np.abs(pm[-1]) + rng.uniform(0, 0.5, size=tree.n_leaves)
        ww = np.abs(rng.normal(size=tree.n_leaves)) + 0.1
        c_star = truncation_ratio_sup(zz, ww, w, lambda_candidates(zz, ww))
        measured["best_truncation_C"] = max(measured["best_truncation_C"], c_star)
        for pp in concave_p:
            tracker.add(float(w @ zz**pp), c_star * float(w @ ww**pp))

        # good-lambda: g = Mf, f = Sf, epsilon measured at every scan point
        mf = fn.maximal_paths(pm)[-1]
        sf = fn.square_function_paths(pm)[-1]
        eps_star = good_lambda_sup(mf, sf, w, lambda_candidates(mf / beta, mf, sf / delta), beta, delta)
        measured["worst_good_lambda_eps"] = max(measured["worst_good_lambda_eps"], eps_star)
        if beta**gl_p * eps_star >= 1.0:
            hyp_failures += 1
        else:
            const = delta**-gl_p / (beta**-gl_p - eps_star)
            tracker.add(float(w @ mf**gl_p), const * float(w @ sf**gl_p))

        # predictable square function comparisons; big_w is sf_pred^2
        sf_pred = np.sqrt(big_w)
        for pp in s_vs_S_p:
            tracker.add(lq_norm(sf_pred, pp, w), math.sqrt(pp / 2.0) * lq_norm(sf, pp, w))
        for pp in m_vs_s_p:
            tracker.add(lq_norm(mf, pp, w), 5.0 ** (1.0 / pp) * lq_norm(sf_pred, pp, w))
        tracker.commit_trial()
    return finish_report(
        "aux_lemmas",
        {
            "sum_ek_p": list(sum_ek_p),
            "concave_p": list(concave_p),
            "good_lambda": list(good_lambda),
            "s_vs_S_p": list(s_vs_S_p),
            "m_vs_s_p": list(m_vs_s_p),
        },
        spec,
        tracker,
        t0,
        constant=float("nan"),
        hypothesis_failures=hyp_failures,
        measured=measured,
    )


# -- Lepingle -------------------------------------------------------------------


def check_lepingle(spec: CorpusSpec, r: float | tuple = (2.5, 3.0, 4.0), p: float = 1.0) -> CheckReport:
    """Pathwise square-scale domination with constant 8 (rho = 2) asserted on
    every path; the moment inequality against (r/(r-2)) ||Mf||_p is measured."""
    rs = (r,) if np.isscalar(r) else tuple(r)
    for rr in rs:
        if not rr > 2:
            raise ValueError("variation exponent must exceed 2")
    t0 = time.perf_counter()
    tracker = RatioTracker()
    moment = {f"moment_ratio_r={rr}": 0.0 for rr in rs}
    for mart in spec.martingales():
        w = mart.tree.leaf_prob
        pm = mart.paths()
        mf = fn.maximal_paths(pm)[-1]
        for rr, (vr, rhs) in zip(rs, fn.lepingle_pathwise_bound(pm, rs)):
            tracker.add_many(vr**2, rhs)
            key = f"moment_ratio_r={rr}"
            moment[key] = max(
                moment[key],
                ratio(lq_norm(vr, p, w), rr / (rr - 2.0) * lq_norm(mf, p, w)),
            )
        tracker.commit_trial()
    return finish_report("lepingle", {"r": list(rs), "p": p}, spec, tracker, t0, constant=8.0, measured=moment)


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
    t0 = time.perf_counter()
    tracker = RatioTracker()
    measured = {"bdg_lq_lr": 0.0, "maximal_lp_lr": 0.0, "weighted_strong_p": 0.0}
    for i, mart in enumerate(spec.martingales()):
        tree = mart.tree
        w = tree.leaf_prob
        pm = np.abs(mart.paths())  # componentwise |martingale|: submartingales
        m_comp = fn.maximal_paths(pm)[-1]
        s_comp = fn.square_function_paths(mart.paths())[-1]
        f_comp = pm[-1]

        measured["bdg_lq_lr"] = max(
            measured["bdg_lq_lr"],
            ratio(lq_norm(fn.component_norm(m_comp, r), q, w), lq_norm(fn.component_norm(s_comp, r), q, w)),
        )
        measured["maximal_lp_lr"] = max(
            measured["maximal_lp_lr"],
            ratio(lq_norm(fn.component_norm(m_comp, r), p, w), lq_norm(fn.component_norm(f_comp, r), p, w)),
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
        f0 = pm[:, :, 0]
        lams, lhs, rhs = fn.weighted_maximal_data(f0, weight, tree)
        tracker.add_many(lhs, rhs)
        w_mart = Martingale.from_leaf_values(tree, weight)
        w_star = fn.maximal_paths(w_mart.paths())[-1]
        measured["weighted_strong_p"] = max(
            measured["weighted_strong_p"],
            ratio(
                lq_norm(fn.maximal_paths(f0)[-1], p, w * weight),
                lq_norm(f0[-1], p, w * w_star),
            ),
        )
        tracker.commit_trial()
    return finish_report(
        "vector_valued",
        {"q": q, "r": r, "p": p, "K": spec.width},
        spec,
        tracker,
        t0,
        constant=max(_conjugate(q), _conjugate(p), 1.0),
        measured=measured,
    )


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
    if q0 < 1 or r0 < 1:
        raise ValueError("q0 and r0 must be at least 1")
    q = 1.0 / (1.0 / q0 + 1.0 / q1)
    r = 1.0 / (1.0 / r0 + 1.0 / r1)
    r_var = 1.25 / (0.5 + 1.0 / r1)
    t0 = time.perf_counter()
    tracker = RatioTracker()
    measured = {"window_bound": 0.0, "delta_f_bound": 0.0, "variation_bound": 0.0}
    for i, mart in enumerate(spec.martingales()):
        tree = mart.tree
        w = tree.leaf_prob
        depth = tree.depth
        rng = spec.rng(i)

        # -- vector-valued window estimate over stopping pairs
        lhs_pow = np.zeros(tree.n_leaves)
        f_pow = np.zeros(tree.n_leaves)
        g_pow = np.zeros(tree.n_leaves)
        for k in range(families):
            g_k = Martingale.from_leaf_values(tree, spec.rng(i * 1000 + k).normal(size=tree.n_leaves))
            u_k = np.abs(
                Martingale.from_leaf_values(tree, spec.rng(i * 1000 + 500 + k).normal(size=tree.n_leaves)).paths()
            )
            g_pm = g_k.paths()
            lo, hi = _random_stopping_pair(tree, rng)
            lo_t = np.minimum(lo.times, depth)
            hi_t = np.minimum(hi.times, depth)
            F = u_k[None, :, :] - u_k[:, None, :]  # F[s, t] = u_t - u_s, adapted in t
            pi = fn.paraproduct_pairs(F, g_pm)
            cols = np.arange(tree.n_leaves)
            sup_pi = np.zeros(tree.n_leaves)
            sup_f = np.zeros(tree.n_leaves)
            for t in range(depth + 1):
                in_win = (lo_t <= t) & (t <= hi_t)
                sup_pi = np.where(in_win, np.maximum(sup_pi, np.abs(pi[lo_t, t, cols])), sup_pi)
                strict = (lo_t <= t) & (t < hi_t)
                sup_f = np.where(strict, np.maximum(sup_f, np.abs(F[lo_t, t, cols])), sup_f)
            dg2 = np.vstack([np.zeros(tree.n_leaves), np.diff(g_pm, axis=0) ** 2])
            cums = fn.accumulate_rows(np.add, dg2, out=dg2)
            s_win = np.sqrt(np.maximum(cums[hi_t, cols] - cums[lo_t, cols], 0.0))
            lhs_pow += sup_pi**r
            f_pow += sup_f**r1
            g_pow += s_win**r0
        lhs = lq_norm(lhs_pow ** (1.0 / r), q, w)
        rhs = lq_norm(f_pow ** (1.0 / r1), q1, w) * lq_norm(g_pow ** (1.0 / r0), q0, w)
        measured["window_bound"] = max(measured["window_bound"], ratio(lhs, rhs))

        # -- delta-f form over an adapted partition (r0 = 2 structure)
        f_m = Martingale.from_leaf_values(tree, spec.rng(i * 1000 + 777).normal(size=tree.n_leaves))
        f_pm = np.abs(f_m.paths())
        g_pm = mart.paths()
        pi = fn.paraproduct_deltaf_pairs(f_pm, g_pm)
        cuts = sorted(rng.choice(np.arange(1, depth + 1), size=min(families - 1, depth), replace=False))
        bounds = [0] + list(cuts) + [depth]
        r_df = 1.0 / (0.5 + 1.0 / r1)
        lhs_pow = np.zeros(tree.n_leaves)
        f_pow = np.zeros(tree.n_leaves)
        for a, b in zip(bounds, bounds[1:]):
            span_sup = np.zeros(tree.n_leaves)
            for s in range(a, b + 1):
                for t in range(s, b + 1):
                    span_sup = np.maximum(span_sup, np.abs(pi[s, t]))
            lhs_pow += span_sup**r_df
            df_sup = np.zeros(tree.n_leaves)
            for t in range(a, b):
                df_sup = np.maximum(df_sup, np.abs(f_pm[t] - f_pm[a]))
            f_pow += df_sup**r1
        sg = fn.square_function_paths(g_pm)[-1]
        lhs = lq_norm(lhs_pow ** (1.0 / r_df), q, w)
        rhs = lq_norm(f_pow ** (1.0 / r1), q1, w) * lq_norm(sg, q0, w)
        measured["delta_f_bound"] = max(measured["delta_f_bound"], ratio(lhs, rhs))

        # -- r-variation form
        vr_pi = fn.two_param_variation_paths(pi, r_var)
        vr_f = fn.variation_paths(f_pm, r1)
        lhs = lq_norm(vr_pi, q, w)
        rhs = lq_norm(vr_f, q1, w) * lq_norm(sg, q0, w)
        measured["variation_bound"] = max(measured["variation_bound"], ratio(lhs, rhs))

        # -- L^q Davis decomposition bounds with explicit constants
        fam = Martingale.from_leaf_values(
            tree, spec.rng(i * 1000 + 888).normal(size=(tree.n_leaves, max(2, families)))
        )
        pred, bv = fn.davis_decompose(fam, norm_exponent=r0)
        x_dbv = fn.component_norm(fn.increments(bv), r0).sum(axis=0)
        x_df = fn.component_norm(fn.increments(fam.paths()), r0)
        m_x_df = np.zeros(tree.n_leaves)
        for row in x_df:
            np.maximum(m_x_df, row, out=m_x_df)
        tracker.add(lq_norm(x_dbv, q0, w), (q0 + 1.0) * lq_norm(m_x_df, q0, w))
        s_pred = fn.component_norm(fn.square_function_paths(pred)[-1], r0)
        s_full = fn.component_norm(fn.square_function_paths(fam.paths())[-1], r0)
        tracker.add(lq_norm(s_pred, q0, w), (q0 + 2.0) * lq_norm(s_full, q0, w))
        tracker.commit_trial()
    return finish_report(
        "paraproduct",
        {"q0": q0, "q1": q1, "r0": r0, "r1": r1, "q": q, "r": r, "r_var": r_var},
        spec,
        tracker,
        t0,
        constant=q0 + 2.0,
        measured=measured,
    )


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


def run_check(name: str, spec: CorpusSpec, **params) -> CheckReport:
    if name not in REGISTRY:
        raise KeyError(f"unknown check {name!r}; known: {sorted(REGISTRY)}")
    check = REGISTRY[name]
    try:
        inspect.signature(check).bind(spec, **params)
    except TypeError as exc:
        raise ValueError(f"bad parameters for check {name!r}: {exc}") from None
    return check(spec, **params)


def default_suite(seed: int = 20240, trials_scale: float = 1.0) -> list[dict]:
    """The acceptance-scale suite configuration."""

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
