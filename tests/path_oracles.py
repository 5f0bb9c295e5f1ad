"""The five node-array checks as they were written on path matrices.

Each oracle is the path-matrix body of its check: every functional is formed
per leaf on the (N+1, L) matrix of ``mart.paths()``.  The node-array checks
must reproduce their reports float for float (``runtime_ms`` aside).
"""

import time

import numpy as np

from martkit import bellman
from martkit import functionals as fn
from martkit.report import RatioTracker, closed_tail_scan, finish_report, lq_norm, ratio


def closed_sublevel_scan(stat, *mass_arrays):
    """The sublevel scan over a raveled path matrix, one stable argsort of all
    its entries."""
    stat = np.asarray(stat, dtype=np.float64)
    order = np.argsort(stat, kind="stable")
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
    df = fn.increments(pm)
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


def check_square_weak(spec):
    t0 = time.perf_counter()
    tracker = RatioTracker()
    for mart in spec.martingales():
        w = mart.tree.leaf_prob
        pm = mart.paths()
        f1 = float(w @ np.abs(pm[-1]))
        sf = fn.square_function_paths(pm)[-1]
        levels, tail_mu = closed_tail_scan(sf, w)
        tracker.add_many(levels * tail_mu, np.full_like(levels, 3.0 * f1))
        run = fn.maximal_paths(pm)[1:]
        df2 = fn.increments(pm) ** 2
        lams, head = closed_sublevel_scan(run.ravel(), (df2 * w[None, :]).ravel())
        tracker.add_many(head, 2.0 * lams * f1)
        tracker.commit_trial()
    return finish_report("square_weak", {}, spec, tracker, t0, constant=3.0)


def check_davis_decomposition(spec):
    t0 = time.perf_counter()
    tracker = RatioTracker()
    worst_split = 0.0
    for mart in spec.martingales():
        w = mart.tree.leaf_prob
        pm = mart.paths()
        pred, bv = davis_decompose(mart)
        scale = max(1.0, float(np.abs(pm).max()))
        split = float(np.abs(pm - pred - bv).max()) / scale
        worst_split = max(worst_split, split)
        if split > 1e-12:
            tracker.flag()
        size = np.abs(fn.increments(pm))
        mdf_prev = np.zeros_like(size)
        fn.accumulate_rows(np.maximum, size[:-1], out=mdf_prev[1:])
        dpred = fn.increments(pred)
        tracker.add_many(np.abs(dpred).ravel(), 2.0 * mdf_prev.ravel())
        tv = np.abs(fn.increments(bv)).sum(axis=0)
        tracker.add(float(w @ tv), 2.0 * float(w @ size.max(axis=0)))
        tracker.commit_trial()
    return finish_report(
        "davis_decomposition", {}, spec, tracker, t0, constant=2.0, measured={"worst_split_residual": worst_split}
    )


def check_davis_bdg(spec, p=2.0):
    t0 = time.perf_counter()
    tracker = RatioTracker()
    m_over_s = lp_s_over_m = lp_m_over_s = 0.0
    for mart in spec.martingales():
        w = mart.tree.leaf_prob
        pm = mart.paths()
        sf, mf, e_s, e_m = sharp_davis_clause(tracker, fn.maximal_paths(pm), fn.increments(pm), w)
        m_over_s = max(m_over_s, ratio(e_m, e_s))
        lp_s_over_m = max(lp_s_over_m, ratio(lq_norm(sf, p, w), lq_norm(mf, p, w)))
        lp_m_over_s = max(lp_m_over_s, ratio(lq_norm(mf, p, w), lq_norm(sf, p, w)))
        tracker.commit_trial()
    measured = {"max_EM_over_ES": m_over_s, "max_Lp_S_over_M": lp_s_over_m, "max_Lp_M_over_S": lp_m_over_s}
    return finish_report("davis_bdg", {"p": p}, spec, tracker, t0, constant=bellman.SQRT3, measured=measured)


def sharp_davis_check(spec):
    t0 = time.perf_counter()
    tracker = RatioTracker()
    worst_ratio_s = 0.0
    for mart in spec.martingales():
        w = mart.tree.leaf_prob
        pm = mart.paths()
        fstar = fn.maximal_paths(pm)
        df = fn.increments(pm)
        _, _, e_s, e_star = sharp_davis_clause(tracker, fstar, df, w)
        if e_star > 0:
            worst_ratio_s = max(worst_ratio_s, e_s / e_star)
        lhs, rhs = pathwise_sharp_sides(pm, fstar, df)
        tracker.add(float(w @ lhs), float(w @ rhs))
        tracker.commit_trial()
    return finish_report("sharp_davis", {}, spec, tracker, t0, bellman.SQRT3, measured={"max_ES_over_Estar": worst_ratio_s})


ORACLES = {
    "doob": check_doob,
    "square_weak": check_square_weak,
    "davis_decomposition": check_davis_decomposition,
    "davis_bdg": check_davis_bdg,
    "sharp_davis": sharp_davis_check,
}
