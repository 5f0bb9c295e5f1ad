"""The node-array checks, lepingle and vector_valued as they were written on
path matrices, and the paraproduct check as it was written on pair tensors.

Each oracle is the path-matrix body of its check: every functional is formed
per leaf on the (N+1, L) matrix of ``mart.paths()`` by numpy's own time scans
(``maximal``, ``increments``, ``square_function``), and both breakpoint
scans sort with numpy's stable argsort.  The paraproduct oracle also builds
the (N+1, N+1, L) pair tensor Pi(delta f, g) and runs the chain DP on it;
the lepingle oracle runs the chain DP and the greedy partitions along every
column of the path matrix and takes each path's smallest jump from its
sorted values.
The checks must reproduce their reports float for float (``runtime_ms``
aside).
"""

import math

import numpy as np

from martkit import bellman
from martkit import functionals as fn
from martkit.checks import _random_stopping_pair
from martkit.report import good_lambda_sup, lambda_candidates, lq_norm, ratio, run_trials, truncation_ratio_sup
from martkit.tree import Martingale, NodeLayout


def rows_layout(n_rows, n_paths):
    """The layout of the rows of an (n_rows, n_paths) path matrix raveled:
    every parent map is the identity."""
    same = np.arange(n_paths)
    return NodeLayout((n_paths,) * n_rows, [np.empty(0, dtype=np.int64)] + [same] * (n_rows - 1))


def variation_paths(pm, r):
    """Per-path r-variation of a path matrix: one chain DP over its gaps,
    the paths independent problems."""
    return fn.chain_dp(fn.DistColumns(np.asarray(pm, dtype=np.float64)[..., None]), r).max(axis=0) ** (1.0 / r)


def min_nonzero_pairwise(pm):
    """Smallest nonzero |f_i - f_j| over index pairs, per path (inf if
    none), from the sorted neighbours of each path."""
    gaps = np.diff(np.sort(pm, axis=0), axis=0)
    gaps[gaps == 0] = np.inf
    return gaps.min(axis=0, initial=np.inf)


def maximal(pm):
    """Running maximum of |f_k|, k <= n, along each path (axis 0)."""
    return np.maximum.accumulate(np.abs(pm), axis=0)


def increments(pm):
    """df_k = f_k - f_{k-1}, k = 1..N, along each path."""
    return np.diff(pm, axis=0)


def square_function(pm):
    """Sf_n = (sum_{k<=n} |df_k|^2)^(1/2) along each path, 0 at n = 0."""
    sf = np.zeros_like(pm)
    sf[1:] = np.sqrt(np.cumsum(increments(pm) ** 2, axis=0))
    return sf


def closed_tail_scan(stat, *mass_arrays):
    """The tail scan over {stat >= v}, one stable argsort of ``-stat``."""
    stat = np.asarray(stat, dtype=np.float64)
    return _scan(stat, np.argsort(-stat, kind="stable"), mass_arrays)


def closed_sublevel_scan(stat, *mass_arrays):
    """The sublevel scan over a raveled path matrix, one stable argsort of all
    its entries."""
    stat = np.asarray(stat, dtype=np.float64)
    return _scan(stat, np.argsort(stat, kind="stable"), mass_arrays)


def _scan(stat, order, mass_arrays):
    sorted_stat = stat[order]
    cums = [np.cumsum(np.asarray(m, dtype=np.float64)[order]) for m in mass_arrays]
    idx = np.append(np.nonzero(np.diff(sorted_stat) != 0)[0], stat.size - 1)
    levels = sorted_stat[idx]
    keep = levels > 0
    return (levels[keep],) + tuple(c[idx][keep] for c in cums)


def davis_decompose(f, norm_exponent=2.0):
    """The (f_pred, f_bv) path matrices, formed per leaf."""
    tree = f.tree
    pm = f.paths()
    df = increments(pm)
    size = np.abs(df) if df.ndim == 2 else fn.component_norm(df, norm_exponent)
    mdf_prev = np.zeros(tree.n_leaves)
    pred = np.zeros_like(pm)
    bv = np.zeros_like(pm)
    bv[0] = pm[0]
    for n in range(1, tree.depth + 1):
        dfn = df[n - 1]
        sz = size[n - 1]
        factor = np.minimum(1.0, fn.quotient(mdf_prev, sz))
        dg = (factor if dfn.ndim == 1 else factor[:, None]) * dfn
        dh = dfn - dg
        pred[n] = pred[n - 1] + dg - tree.atom_average_leaves(n - 1, dg)
        bv[n] = bv[n - 1] + dh - tree.atom_average_leaves(n - 1, dh)
        mdf_prev = np.maximum(mdf_prev, sz)
    return pred, bv


def pathwise_sharp_sides(pm, fstar, df):
    quot = fn.quotient(df**2, fstar[1:])
    drift = fn.quotient(2.0 * pm[:-1] * df, fstar[:-1])
    final = fn.quotient(pm[-1] ** 2, fstar[-1])
    lhs = 3.0 * np.abs(pm[0]) + quot.sum(axis=0)
    rhs = 2.0 * fstar[-1] + final - drift.sum(axis=0)
    return lhs, rhs


def sharp_davis_clause(tracker, fstar, df, w):
    sf = np.square(df[0])
    for d in df[1:]:
        sf += np.square(d)
    np.sqrt(sf, out=sf)
    fstar = fstar[-1]
    e_s = float(w @ sf)
    e_star = float(w @ fstar)
    tracker.add(e_s, bellman.SQRT3 * e_star)
    return sf, fstar, e_s, e_star


def _conjugate(p):
    return 1.0 if np.isinf(p) else p / (p - 1.0)


def check_doob(spec, p=(1.5, 2.0, 4.0)):
    ps = (p,) if np.isscalar(p) else tuple(p)

    def trial(tracker, i, mart):
        w = mart.tree.leaf_prob
        f = np.abs(mart.paths())
        mf = maximal(f)[-1]
        f_n = f[-1]
        for pp in ps:
            tracker.add(lq_norm(mf, pp, w), _conjugate(pp) * lq_norm(f_n, pp, w))
        levels, tail_mu, tail_f = closed_tail_scan(mf, w, w * f_n)
        tracker.add_many(levels * tail_mu, tail_f)

    return run_trials("doob", {"p": list(ps)}, spec, max(_conjugate(pp) for pp in ps), trial)


def check_square_weak(spec):
    def trial(tracker, i, mart):
        w = mart.tree.leaf_prob
        pm = mart.paths()
        f1 = float(w @ np.abs(pm[-1]))
        sf = square_function(pm)[-1]
        levels, tail_mu = closed_tail_scan(sf, w)
        tracker.add_many(levels * tail_mu, np.full_like(levels, 3.0 * f1))
        run = maximal(pm)[1:]
        df2 = increments(pm) ** 2
        lams, head = closed_sublevel_scan(run.ravel(), (df2 * w[None, :]).ravel())
        tracker.add_many(head, 2.0 * lams * f1)

    return run_trials("square_weak", {}, spec, 3.0, trial)


def check_davis_decomposition(spec):
    def trial(tracker, i, mart):
        w = mart.tree.leaf_prob
        pm = mart.paths()
        pred, bv = davis_decompose(mart)
        scale = max(1.0, float(np.abs(pm).max()))
        split = float(np.abs(pm - pred - bv).max()) / scale
        tracker.measure("worst_split_residual", split)
        if split > 1e-12:
            tracker.flag()
        size = np.abs(increments(pm))
        mdf_prev = np.zeros_like(size)
        np.maximum.accumulate(size[:-1], axis=0, out=mdf_prev[1:])
        dpred = increments(pred)
        tracker.add_many(np.abs(dpred).ravel(), 2.0 * mdf_prev.ravel())
        tv = np.abs(increments(bv)).sum(axis=0)
        tracker.add(float(w @ tv), 2.0 * float(w @ size.max(axis=0)))

    return run_trials("davis_decomposition", {}, spec, 2.0, trial, {"worst_split_residual": 0.0})


def check_davis_bdg(spec, p=2.0):
    def trial(tracker, i, mart):
        w = mart.tree.leaf_prob
        pm = mart.paths()
        sf, mf, e_s, e_m = sharp_davis_clause(tracker, maximal(pm), increments(pm), w)
        tracker.measure("max_EM_over_ES", ratio(e_m, e_s))
        tracker.measure("max_Lp_S_over_M", ratio(lq_norm(sf, p, w), lq_norm(mf, p, w)))
        tracker.measure("max_Lp_M_over_S", ratio(lq_norm(mf, p, w), lq_norm(sf, p, w)))

    measured = {"max_EM_over_ES": 0.0, "max_Lp_S_over_M": 0.0, "max_Lp_M_over_S": 0.0}
    return run_trials("davis_bdg", {"p": p}, spec, bellman.SQRT3, trial, measured)


def sharp_davis_check(spec):
    def trial(tracker, i, mart):
        w = mart.tree.leaf_prob
        pm = mart.paths()
        fstar = maximal(pm)
        df = increments(pm)
        _, _, e_s, e_star = sharp_davis_clause(tracker, fstar, df, w)
        if e_star > 0:
            tracker.measure("max_ES_over_Estar", e_s / e_star)
        lhs, rhs = pathwise_sharp_sides(pm, fstar, df)
        tracker.add(float(w @ lhs), float(w @ rhs))

    return run_trials("sharp_davis", {}, spec, bellman.SQRT3, trial, {"max_ES_over_Estar": 0.0})


def _predictable_pair(spec, index, mart):
    tree = mart.tree
    rng = spec.rng(index)
    pm = mart.paths()
    a = np.zeros(tree.n_leaves)
    scale = rng.uniform(0.2, 1.0, size=tree.depth)
    for k in range(1, tree.depth + 1):
        a = a + scale[k - 1] * np.abs(pm[k - 1])
    noise = np.abs(rng.normal(size=tree.n_leaves))
    return a, a + noise


def check_garsia_neveu(spec, p=(1.0, 2.0, 3.0)):
    ps = (p,) if np.isscalar(p) else tuple(p)

    def trial(tracker, i, mart):
        w = mart.tree.leaf_prob
        big_w, xi = _predictable_pair(spec, i, mart)
        levels, tail_w, tail_mu, tail_xi = closed_tail_scan(big_w, w * big_w, w, w * xi)
        lhs = tail_w - levels * tail_mu
        scale = max(1.0, float(np.abs(big_w).max(initial=0.0)))
        if np.any(lhs > tail_xi + 1e-12 * scale):
            tracker.hypothesis_failures += 1
            return
        tracker.measured["qualifying_trials"] += 1
        for pp in ps:
            tracker.add(lq_norm(big_w, pp, w), pp * lq_norm(xi, pp, w))

    return run_trials("garsia_neveu", {"p": list(ps)}, spec, max(ps), trial, {"qualifying_trials": 0})


def check_aux_lemmas(
    spec,
    sum_ek_p=(1.0, 1.5, 2.0, 3.0),
    concave_p=(0.3, 0.5, 1.0),
    good_lambda=(2.0, 1.0, 2.0),
    s_vs_S_p=(2.0, 4.0),
    m_vs_s_p=(0.5, 1.0, 2.0),
):
    beta, delta, gl_p = good_lambda

    def trial(tracker, i, mart):
        tree = mart.tree
        w = tree.leaf_prob
        pm = mart.paths()
        rng = spec.rng(index=i)

        z = increments(pm) ** 2
        big_z = z.sum(axis=0)
        big_w = np.zeros(tree.n_leaves)
        for k in range(1, tree.depth + 1):
            big_w = big_w + tree.atom_average_leaves(k - 1, z[k - 1])
        for pp in sum_ek_p:
            tracker.add(float(w @ big_w**pp), pp**pp * float(w @ big_z**pp))

        zz = np.abs(pm[-1]) + rng.uniform(0, 0.5, size=tree.n_leaves)
        ww = np.abs(rng.normal(size=tree.n_leaves)) + 0.1
        c_star = truncation_ratio_sup(zz, ww, w, lambda_candidates(zz, ww))
        tracker.measure("best_truncation_C", c_star)
        for pp in concave_p:
            tracker.add(float(w @ zz**pp), c_star * float(w @ ww**pp))

        mf = maximal(pm)[-1]
        sf = square_function(pm)[-1]
        eps_star = good_lambda_sup(mf, sf, w, lambda_candidates(mf / beta, mf, sf / delta), beta, delta)
        tracker.measure("worst_good_lambda_eps", eps_star)
        if beta**gl_p * eps_star >= 1.0:
            tracker.hypothesis_failures += 1
        else:
            const = delta**-gl_p / (beta**-gl_p - eps_star)
            tracker.add(float(w @ mf**gl_p), const * float(w @ sf**gl_p))

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


def weighted_maximal_data(f_sub, w_leaf, tree):
    """Weighted weak-type data of a nonnegative submartingale path matrix."""
    mw = maximal(Martingale.from_leaf_values(tree, w_leaf).paths())[-1]
    mf = maximal(f_sub)[-1]
    lams, w_mass, mix_mass = closed_tail_scan(mf, tree.leaf_prob * w_leaf, tree.leaf_prob * f_sub[-1] * mw)
    return lams, lams * w_mass, mix_mass, mw


def check_vector_valued(spec, q=3.0, r=1.5, p=2.0):
    def trial(tracker, i, mart):
        tree = mart.tree
        w = tree.leaf_prob
        pm = np.abs(mart.paths())
        m_comp = maximal(pm)[-1]
        s_comp = square_function(mart.paths())[-1]
        f_comp = pm[-1]
        tracker.measure(
            "bdg_lq_lr", ratio(lq_norm(fn.component_norm(m_comp, r), q, w), lq_norm(fn.component_norm(s_comp, r), q, w))
        )
        tracker.measure(
            "maximal_lp_lr", ratio(lq_norm(fn.component_norm(m_comp, r), p, w), lq_norm(fn.component_norm(f_comp, r), p, w))
        )
        tracker.add(lq_norm(fn.component_norm(m_comp, q), q, w), _conjugate(q) * lq_norm(fn.component_norm(f_comp, q), q, w))
        tracker.add(lq_norm(m_comp.max(axis=-1), p, w), _conjugate(p) * lq_norm(f_comp.max(axis=-1), p, w))
        rng = spec.rng(i)
        weight = np.abs(rng.normal(size=tree.n_leaves)) + 0.05
        f0 = pm[:, :, 0]
        _, lhs, rhs, w_star = weighted_maximal_data(f0, weight, tree)
        tracker.add_many(lhs, rhs)
        tracker.measure("weighted_strong_p", ratio(lq_norm(maximal(f0)[-1], p, w * weight), lq_norm(f0[-1], p, w * w_star)))

    measured = {"bdg_lq_lr": 0.0, "maximal_lp_lr": 0.0, "weighted_strong_p": 0.0}
    constant = max(_conjugate(q), _conjugate(p), 1.0)
    return run_trials("vector_valued", {"q": q, "r": r, "p": p, "K": spec.width}, spec, constant, trial, measured)


def check_paraproduct(spec, q0=2.0, q1=2.0, r0=2.0, r1=2.0, families=4):
    q = 1.0 / (1.0 / q0 + 1.0 / q1)
    r = 1.0 / (1.0 / r0 + 1.0 / r1)
    r_var = 1.25 / (0.5 + 1.0 / r1)

    def trial(tracker, i, mart):
        tree = mart.tree
        w = tree.leaf_prob
        depth = tree.depth
        rng = spec.rng(i)

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
            pi_lo = np.take_along_axis(fn.paraproduct_deltaf_pairs(u_k, g_pm), lo_t[None, None, :], axis=0)[0]
            cols = np.arange(tree.n_leaves)
            t = np.arange(depth + 1)[:, None]
            sup_pi = np.abs(pi_lo).max(axis=0, where=(lo_t <= t) & (t <= hi_t), initial=0.0)
            sup_f = np.abs(u_k - u_k[lo_t, cols]).max(axis=0, where=(lo_t <= t) & (t < hi_t), initial=0.0)
            dg2 = np.vstack([np.zeros(tree.n_leaves), np.diff(g_pm, axis=0) ** 2])
            cums = np.add.accumulate(dg2, axis=0)
            s_win = np.sqrt(np.maximum(cums[hi_t, cols] - cums[lo_t, cols], 0.0))
            lhs_pow += sup_pi**r
            f_pow += sup_f**r1
            g_pow += s_win**r0
        lhs = lq_norm(lhs_pow ** (1.0 / r), q, w)
        rhs = lq_norm(f_pow ** (1.0 / r1), q1, w) * lq_norm(g_pow ** (1.0 / r0), q0, w)
        tracker.measure("window_bound", ratio(lhs, rhs))

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
            lhs_pow += np.abs(pi[a : b + 1, a : b + 1]).max(axis=(0, 1)) ** r_df
            f_pow += np.abs(f_pm[a:b] - f_pm[a]).max(axis=0, initial=0.0) ** r1
        sg = square_function(g_pm)[-1]
        lhs = lq_norm(lhs_pow ** (1.0 / r_df), q, w)
        rhs = lq_norm(f_pow ** (1.0 / r1), q1, w) * lq_norm(sg, q0, w)
        tracker.measure("delta_f_bound", ratio(lhs, rhs))

        vr_pi = fn.two_param_variation_paths(pi, r_var)
        vr_f = variation_paths(f_pm, r1)
        lhs = lq_norm(vr_pi, q, w)
        rhs = lq_norm(vr_f, q1, w) * lq_norm(sg, q0, w)
        tracker.measure("variation_bound", ratio(lhs, rhs))

        fam = Martingale.from_leaf_values(
            tree, spec.rng(i * 1000 + 888).normal(size=(tree.n_leaves, max(2, families)))
        )
        pred, bv = fn.davis_decompose(fam, norm_exponent=r0)
        x_dbv = fn.component_norm(increments(bv.paths()), r0).sum(axis=0)
        x_df = fn.component_norm(increments(fam.paths()), r0)
        m_x_df = x_df.max(axis=0, initial=0.0)
        tracker.add(lq_norm(x_dbv, q0, w), (q0 + 1.0) * lq_norm(m_x_df, q0, w))
        s_pred = fn.component_norm(square_function(pred.paths())[-1], r0)
        s_full = fn.component_norm(square_function(fam.paths())[-1], r0)
        tracker.add(lq_norm(s_pred, q0, w), (q0 + 2.0) * lq_norm(s_full, q0, w))

    params = {"q0": q0, "q1": q1, "r0": r0, "r1": r1, "q": q, "r": r, "r_var": r_var}
    measured = {"window_bound": 0.0, "delta_f_bound": 0.0, "variation_bound": 0.0}
    return run_trials("paraproduct", params, spec, q0 + 2.0, trial, measured)


def running_oscillation(pm):
    """M_t = sup_{t'' <= t' <= t} |f_{t'} - f_{t''}| along each path."""
    return np.maximum.accumulate(pm, axis=0) - np.minimum.accumulate(pm, axis=0)


def lepingle_pathwise_bound(pathmat, rs):
    """Per r in ``rs``, (V^r(f), rhs) per path: the chain DP and the greedy
    partitions along every column of the path matrix."""
    pm = np.asarray(pathmat, dtype=np.float64)
    n = pm.shape[0]
    osc = running_oscillation(pm)
    m_inf = osc[-1]
    d_min = min_nonzero_pairwise(pm)
    with np.errstate(divide="ignore", invalid="ignore"):
        m_star = np.where(m_inf > 0, np.floor(np.log2(4.0 * m_inf / d_min)), 1.0)
    m_star = np.where(np.isfinite(m_star), np.maximum(m_star, 2), 2).astype(np.int64)
    out = [(variation_paths(pm, r), np.zeros(pm.shape[1])) for r in rs]
    m_max = int(m_star.max(initial=2))
    for lo in range(2, m_max + 1, n):
        ms = np.arange(lo, min(lo + n, m_max + 1))
        thr = np.ldexp(1.0, -ms)[:, None]
        active = (ms[:, None] <= m_star) & (m_inf > 0)
        anchor = np.repeat(pm[:1], len(ms), axis=0)
        s2 = np.zeros(anchor.shape)
        for t in range(1, n):
            jump = pm[t] - anchor
            trig = active & (osc[t] > 0) & (np.abs(jump) >= thr * osc[t])
            np.add(s2, np.square(jump), out=s2, where=trig)
            np.copyto(anchor, pm[t], where=trig)
        for r, (_, rhs) in zip(rs, out):
            for m, s2_m in zip(ms.tolist(), s2):
                rhs += 2.0 ** (-(m - 2) * (r - 2)) * s2_m
    for _, rhs in out:
        rhs *= 64.0
    return out


def check_lepingle(spec, r=(2.5, 3.0, 4.0), p=1.0):
    rs = (r,) if np.isscalar(r) else tuple(r)

    def trial(tracker, i, mart):
        w = mart.tree.leaf_prob
        pm = mart.paths()
        mf = maximal(pm)[-1]
        for rr, (vr, rhs) in zip(rs, lepingle_pathwise_bound(pm, rs)):
            tracker.add_many(vr**2, rhs)
            tracker.measure(f"moment_ratio_r={rr}", ratio(lq_norm(vr, p, w), rr / (rr - 2.0) * lq_norm(mf, p, w)))

    moment = {f"moment_ratio_r={rr}": 0.0 for rr in rs}
    return run_trials("lepingle", {"r": list(rs), "p": p}, spec, 8.0, trial, moment)


ORACLES = {
    "aux_lemmas": check_aux_lemmas,
    "doob": check_doob,
    "garsia_neveu": check_garsia_neveu,
    "square_weak": check_square_weak,
    "davis_decomposition": check_davis_decomposition,
    "davis_bdg": check_davis_bdg,
    "sharp_davis": sharp_davis_check,
    "lepingle": check_lepingle,
}
