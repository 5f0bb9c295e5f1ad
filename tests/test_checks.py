import json
import math

import numpy as np
import pytest

from martkit import checks as C
from martkit import generators as G
from martkit.report import RATIO_TOL, CheckReport, CorpusSpec, RatioTracker, closed_sublevel_scan, closed_tail_scan, validate_report_dict
from martkit.tree import FiltrationTree, Martingale


def small(kind="mixed", depth=6, trials=60, seed=123, **kw):
    return CorpusSpec(kind=kind, depth=depth, trials=trials, seed=seed, **kw)


def test_ratio_tracker_conventions():
    t = RatioTracker()
    assert t.add(0.0, 0.0) == 0.0
    assert t.add(1.0, 2.0) == 0.5
    assert math.isinf(t.add(1.0, 0.0))
    t.commit_trial()
    assert t.violations == 1  # one trial, however many assertions failed
    t.add(0.5, 1.0)
    t.commit_trial()
    assert t.violations == 1
    # report invariant: worst <= 1 + tol iff violations == 0
    assert (t.worst <= 1 + RATIO_TOL) == (t.violations == 0)


def test_closed_tail_scan():
    stat = np.array([3.0, 1.0, 3.0, 2.0])
    mass = np.array([0.25, 0.25, 0.25, 0.25])
    levels, tails = closed_tail_scan(stat, mass)
    assert levels.tolist() == [3.0, 2.0, 1.0]
    assert tails.tolist() == [0.5, 0.75, 1.0]


def test_closed_sublevel_scan():
    stat = np.array([3.0, 0.0, 3.0, 1.0])
    mass = np.array([0.25, 0.25, 0.25, 0.25])
    levels, heads = closed_sublevel_scan(stat, mass)
    assert levels.tolist() == [1.0, 3.0]
    assert heads.tolist() == [0.5, 1.0]  # the zero's mass counts, its level does not


def test_doob_constant_parametrization():
    # constant submartingale c: ratio ||Mf||_p / (p' ||f||_p) = 1/p'
    tree = FiltrationTree.dyadic(2)
    mart = Martingale(tree, [np.full(1, 3.0), np.full(2, 3.0), np.full(4, 3.0)])
    spec = small(trials=0)
    rep = C.check_doob(spec, p=2.0)
    assert rep.trials == 0 and rep.violations == 0
    # direct evaluation on the constant martingale
    w = tree.leaf_prob
    from martkit import functionals as fn
    from martkit.report import lq_norm

    mf = fn.maximal_paths(np.abs(mart.paths()))[-1]
    assert np.isclose(lq_norm(mf, 2.0, w) / (2.0 * lq_norm(np.abs(mart.paths()[-1]), 2.0, w)), 0.5)
    assert w.sum() == 1.0


def test_doob_clean_pass_and_doubling():
    rep = C.check_doob(small(trials=300), p=(1.5, 2.0, 4.0))
    assert rep.violations == 0
    assert rep.worst_ratio <= 1 + 1e-9
    # the doubling martingale at p = 1.5 (conjugate 3) stays within the bound
    doubling = CorpusSpec(kind="doubling", depth=10, trials=1, seed=0)
    rep2 = C.check_doob(doubling, p=1.5)
    assert rep2.violations == 0


def test_doob_rejects_bad_exponent():
    with pytest.raises(ValueError):
        C.check_doob(small(trials=1), p=1.0)


def test_square_weak_and_doubling():
    assert C.check_square_weak(small(trials=300)).violations == 0
    assert C.check_square_weak(CorpusSpec(kind="doubling", depth=10, trials=1, seed=0)).violations == 0
    assert C.check_square_weak(CorpusSpec(kind="scaled_walk", depth=16, trials=1, seed=0)).violations == 0


def test_davis_decomposition_check():
    rep = C.check_davis_decomposition(small(trials=300))
    assert rep.violations == 0
    assert rep.measured["worst_split_residual"] <= 1e-12


def test_davis_bdg_sqrt3():
    rep = C.check_davis_bdg(small(trials=300), p=2.0)
    assert rep.violations == 0
    assert rep.constant_used == pytest.approx(math.sqrt(3.0))
    assert rep.measured["max_EM_over_ES"] > 0


def test_garsia_neveu_qualifying():
    rep = C.check_garsia_neveu(small(trials=200), p=(1.0, 2.0, 3.0))
    assert rep.violations == 0
    assert rep.measured["qualifying_trials"] + rep.hypothesis_failures == 200
    assert rep.measured["qualifying_trials"] >= 195  # construction satisfies the hypothesis


def test_garsia_neveu_equality_case():
    # A increasing predictable with xi = A_inf qualifies and satisfies the bound
    mart = G.gen_leaf_backprop("normal", 5, seed=3)
    tree = mart.tree
    pm = mart.paths()
    a = np.abs(pm[:-1]).sum(axis=0)
    from martkit.report import lq_norm

    for p in (1.0, 2.0):
        assert lq_norm(a, p, tree.leaf_prob) <= p * lq_norm(a, p, tree.leaf_prob) + 1e-12


def test_aux_lemmas():
    rep = C.check_aux_lemmas(small(trials=150))
    assert rep.violations == 0
    assert rep.measured["best_truncation_C"] > 0


def test_lepingle_check():
    rep = C.check_lepingle(small("walk", depth=10, trials=150), r=(2.5, 3.0, 4.0), p=1.0)
    assert rep.violations == 0
    assert all(v < math.inf for v in rep.measured.values())
    with pytest.raises(ValueError):
        C.check_lepingle(small(trials=1), r=2.0)


def test_lepingle_moment_ratio_bounded_as_r_drops():
    # the r/(r-2) normalization absorbs the blow-up as r decreases to 2
    ratios = []
    for r in (2.5, 2.25, 2.1):
        rep = C.check_lepingle(small("walk", depth=10, trials=60), r=r, p=1.0)
        ratios.append(rep.measured[f"moment_ratio_r={r}"])
    assert max(ratios) < 2.0


def test_vector_valued_check():
    rep = C.check_vector_valued(small("family", depth=6, trials=60, width=8), q=3.0, r=1.5, p=2.0)
    assert rep.violations == 0
    assert rep.measured["bdg_lq_lr"] < math.inf
    with pytest.raises(ValueError):
        C.check_vector_valued(small(trials=1), q=2.0, r=2.0, p=2.0)


def test_vector_valued_k1_reduces_to_scalar():
    rep = C.check_vector_valued(small("family", depth=6, trials=30, width=1), q=2.0, r=2.0, p=2.0)
    assert rep.violations == 0
    assert rep.worst_ratio <= 1 + 1e-9


def test_paraproduct_check():
    rep = C.check_paraproduct(small(trials=15), q0=2.0, q1=2.0, r0=2.0, r1=2.0)
    assert rep.violations == 0
    assert 0 < rep.measured["window_bound"] < math.inf
    assert 0 < rep.measured["variation_bound"] < math.inf
    with pytest.raises(ValueError):
        C.check_paraproduct(small(trials=1), q0=0.5)


def test_sharp_davis_registry_entry():
    rep = C.run_check("sharp_davis", small(trials=200))
    assert rep.violations == 0
    assert rep.measured["max_ES_over_Estar"] <= math.sqrt(3.0) + 1e-9


def test_registry_and_unknown_name():
    assert set(C.REGISTRY) >= {
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
    }
    with pytest.raises(KeyError):
        C.run_check("nope", small(trials=1))


def test_report_schema_and_json():
    rep = C.check_doob(small(trials=10), p=2.0)
    data = json.loads(rep.to_json())
    validate_report_dict(data)
    assert data["check"] == "doob"
    assert data["violations"] == 0
    assert isinstance(data["runtime_ms"], float)


def test_reports_deterministic_given_spec():
    a = C.check_doob(small(trials=40), p=2.0).to_dict()
    b = C.check_doob(small(trials=40), p=2.0).to_dict()
    a.pop("runtime_ms"), b.pop("runtime_ms")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_erratum_power_formula_constants():
    # quadrature check of t^p = c int_0^t (t - lam) lam^{p-2} dlam: the
    # correct prefactor is p(p-1) for p > 1, not p(1-p)
    from scipy.integrate import quad

    t, p = 2.0, 2.5
    integral, err = quad(lambda lam: (t - lam) * lam ** (p - 2.0), 0.0, t)
    assert err < 1e-8
    assert abs(p * (p - 1.0) * integral - t**p) < 1e-6
    assert abs(p * (1.0 - p) * integral - t**p) > 1.0
    # for p < 1 the truncated form t^p = p(1-p) int (t ^ lam) lam^{p-2} is as printed
    p = 0.5
    head, e1 = quad(lambda lam: lam ** (p - 1.0), 0.0, t)
    tail, e2 = quad(lambda lam: t * lam ** (p - 2.0), t, np.inf)
    assert e1 + e2 < 1e-7
    assert abs(p * (1.0 - p) * (head + tail) - t**p) < 1e-6


def test_planted_violation_detected():
    tree = FiltrationTree.dyadic(1)
    broken = Martingale(tree, [np.array([10.0]), np.array([0.0, 0.0])], validate=False)

    class Fake:
        trials = 1
        seed = 0
        width = 0

        def martingales(self):
            yield broken

        def rng(self, i):
            return np.random.default_rng(i)

    rep = C.check_doob(Fake(), p=2.0)
    assert rep.violations >= 1
