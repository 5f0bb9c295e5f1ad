"""The five node-array checks as they were written on path matrices.

Each oracle is the path-matrix body of its check: every functional is formed
per leaf on the (N+1, L) matrix of ``mart.paths()``, and both breakpoint
scans sort with numpy's stable argsort.  The node-array checks must
reproduce their reports float for float (``runtime_ms`` aside).
"""

import numpy as np

from martkit import bellman
from martkit import functionals as fn
from martkit.report import lq_norm, ratio, run_trials


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

    def trial(tracker, i, mart):
        w = mart.tree.leaf_prob
        f = np.abs(mart.paths())
        mf = fn.maximal_paths(f)[-1]
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
        sf = fn.square_function_paths(pm)[-1]
        levels, tail_mu = closed_tail_scan(sf, w)
        tracker.add_many(levels * tail_mu, np.full_like(levels, 3.0 * f1))
        run = fn.maximal_paths(pm)[1:]
        df2 = fn.increments(pm) ** 2
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
        size = np.abs(fn.increments(pm))
        mdf_prev = np.zeros_like(size)
        fn.accumulate_rows(np.maximum, size[:-1], out=mdf_prev[1:])
        dpred = fn.increments(pred)
        tracker.add_many(np.abs(dpred).ravel(), 2.0 * mdf_prev.ravel())
        tv = np.abs(fn.increments(bv)).sum(axis=0)
        tracker.add(float(w @ tv), 2.0 * float(w @ size.max(axis=0)))

    return run_trials("davis_decomposition", {}, spec, 2.0, trial, {"worst_split_residual": 0.0})


def check_davis_bdg(spec, p=2.0):
    def trial(tracker, i, mart):
        w = mart.tree.leaf_prob
        pm = mart.paths()
        sf, mf, e_s, e_m = sharp_davis_clause(tracker, fn.maximal_paths(pm), fn.increments(pm), w)
        tracker.measure("max_EM_over_ES", ratio(e_m, e_s))
        tracker.measure("max_Lp_S_over_M", ratio(lq_norm(sf, p, w), lq_norm(mf, p, w)))
        tracker.measure("max_Lp_M_over_S", ratio(lq_norm(mf, p, w), lq_norm(sf, p, w)))

    measured = {"max_EM_over_ES": 0.0, "max_Lp_S_over_M": 0.0, "max_Lp_M_over_S": 0.0}
    return run_trials("davis_bdg", {"p": p}, spec, bellman.SQRT3, trial, measured)


def sharp_davis_check(spec):
    def trial(tracker, i, mart):
        w = mart.tree.leaf_prob
        pm = mart.paths()
        fstar = fn.maximal_paths(pm)
        df = fn.increments(pm)
        _, _, e_s, e_star = sharp_davis_clause(tracker, fstar, df, w)
        if e_star > 0:
            tracker.measure("max_ES_over_Estar", e_s / e_star)
        lhs, rhs = pathwise_sharp_sides(pm, fstar, df)
        tracker.add(float(w @ lhs), float(w @ rhs))

    return run_trials("sharp_davis", {}, spec, bellman.SQRT3, trial, {"max_ES_over_Estar": 0.0})


ORACLES = {
    "doob": check_doob,
    "square_weak": check_square_weak,
    "davis_decomposition": check_davis_decomposition,
    "davis_bdg": check_davis_bdg,
    "sharp_davis": sharp_davis_check,
}
