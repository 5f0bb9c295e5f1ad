"""Acceptance gate: one test per criterion, each at its stated tolerance,
printing a PASS line with the measured quantities (run with -s to see them).
"""

import json
import math
import time

import numpy as np
import pytest

from martkit import bellman, checks, ito, rough
from martkit.cli import main as cli_main
from martkit.report import CorpusSpec
from notes_statements import chen_residual, merge_split, rough_integral

SEED = 20240
CORPUS = CorpusSpec(kind="mixed", depth=8, trials=10_000, seed=SEED)


def report(criterion: str, detail: str) -> None:
    print(f"[PASS] {criterion}: {detail}")


def test_criterion_01_doob_maximal():
    t0 = time.perf_counter()
    rep = checks.check_doob(CORPUS, p=(1.5, 2.0, 4.0))
    elapsed = time.perf_counter() - t0
    assert rep.trials == 10_000
    assert rep.violations == 0
    assert rep.worst_ratio <= 1.0 + 1e-9
    assert elapsed < 60.0
    report(
        "criterion 1 (Doob strong p in {1.5,2,4} + weak at all breakpoints)",
        f"0 violations / 10^4 trials, worst ratio {rep.worst_ratio:.12f}, runtime {elapsed:.1f}s < 60s",
    )


def test_criterion_02_square_function_weak():
    rep = checks.check_square_weak(CORPUS)
    assert rep.trials == 10_000
    assert rep.violations == 0
    assert rep.constant_used == 3.0
    report(
        "criterion 2 (weak square-function bound, constant 3, all breakpoints)",
        f"0 violations / 10^4 trials, worst ratio {rep.worst_ratio:.6f}",
    )


def test_criterion_03_davis_decomposition():
    rep = checks.check_davis_decomposition(CorpusSpec(kind="mixed", depth=8, trials=10_000, seed=SEED + 1))
    assert rep.trials == 10_000
    assert rep.violations == 0
    assert rep.measured["worst_split_residual"] <= 1e-12
    report(
        "criterion 3 (Davis split exact to 1e-12, |df_pred| <= 2 Mdf_{n-1}, E sum|df_bv| <= 2 E Mdf)",
        f"0 violations / 10^4 trials, worst split residual {rep.measured['worst_split_residual']:.2e}",
    )


def test_criterion_04_lepingle_pathwise():
    rep = checks.check_lepingle(
        CorpusSpec(kind="walk", depth=10, trials=1_000, seed=SEED + 5), r=(2.5, 3.0, 4.0), p=1.0
    )
    assert rep.trials == 1_000
    assert rep.violations == 0
    assert rep.worst_ratio <= 1.0 + 1e-9
    report(
        "criterion 4 (pathwise variation domination, constant 8, rho = 2, r in {2.5,3,4})",
        f"0 violations / 10^3 walks, worst ratio {rep.worst_ratio:.6f}",
    )


def test_criterion_05_sharp_davis_and_bellman():
    rep = bellman.sharp_davis_check(CorpusSpec(kind="mixed", depth=8, trials=10_000, seed=SEED + 8))
    assert rep.trials == 10_000
    assert rep.violations == 0
    assert rep.measured["max_ES_over_Estar"] < math.sqrt(3.0) + 1e-9

    worst, _ = bellman.concavity_grid_min(3.0, x_pts=41, h_pts=820, y_vals=(0.0, 1.0, 10.0))
    assert 41 * 820 * 3 >= 100_000
    assert worst >= -1e-12

    hit = bellman.concavity_counterexample(2.9)
    assert hit is not None and hit["residual"] < -1e-12
    report(
        "criterion 5 (E Sf <= sqrt(3) E f*; concavity >= -1e-12 on 10^5 grid; gamma=2.9 fails)",
        f"max ratio {rep.measured['max_ES_over_Estar']:.7f} < {math.sqrt(3):.7f}, "
        f"grid min {worst:.2e}, counterexample residual {hit['residual']:.4f}",
    )


def test_criterion_06_sewing_young():
    a = rough.SampledPath.line(1.0, 2**12)
    omega = rough.variation_control(a, 1.0) + rough.variation_control(a, 1.0)
    res = rough.sew(rough.young_germ(a, a), omega, theta=2.0, T=1.0, tol=1e-6)
    assert abs(res.value - 0.5) <= 1e-6
    assert abs(res.value - res.germ_value) <= res.error_bound

    rng = np.random.default_rng(SEED)
    exceeded = 0
    for trial in range(100):
        n = 48
        t = np.linspace(0.0, 1.0, n + 1)
        holder = lambda: np.concatenate([[0.0], np.cumsum(rng.choice([-1, 1], n) * (1.0 / n) ** 0.6)])  # noqa: E731
        pa = rough.SampledPath(t, holder(), "step")
        pg = rough.SampledPath(t, holder(), "step")
        om = rough.variation_control(pa, 1.5) + rough.variation_control(pg, 1.5)
        try:
            rough.sew(
                rough.young_germ(pa, pg), om, theta=2.0 / 1.5, T=1.0, tol=1e-11,
                split=merge_split(pa, pg), seed=trial,
            )
        except rough.SewingError:
            exceeded += 1
    assert exceeded == 0
    report(
        "criterion 6 (Young identity 0.5 +- 1e-6; a-priori sewing bound over 100 Hoelder-like paths)",
        f"integral {res.value:.8f}, bound exceedances {exceeded}/100",
    )


def test_criterion_07_rough_layer():
    # Chen relation of the left-point lift, scalar and vector drivers
    rng = np.random.default_rng(SEED + 2)
    vals = np.concatenate([[0.0], np.cumsum(rng.choice([-1 / 16, 1 / 16], size=256))])
    walk = rough.SampledPath(np.linspace(0, 1, 257), vals, "step")
    rp = rough.lift(walk, r=2.5)
    chen = chen_residual(rp)
    assert chen <= 1e-12
    vec = rough.SampledPath(
        np.linspace(0, 1, 129), np.cumsum(rng.choice([-0.125, 0.125], size=(129, 2)), axis=0) - 0.0, "step"
    )
    vec = rough.SampledPath(vec.times, vec.values - vec.values[0], "step")
    assert chen_residual(rough.lift(vec, r=2.5)) <= 1e-12

    # exact second-level reproduction
    P = rough.ControlledCovector(rp, rp.path.values - rp.path.values[0], np.ones((257, 1, 1)))
    Z, _ = rough_integral(P, rp)
    resid = abs(Z.values[-1] - rp.xx[0, -1, 0, 0])
    assert resid == 0.0

    # exponential oracle and strict metric decrease
    X = rough.rough_line(0.3, 256, r=2.5)
    sol = rough.rde_solve(rough.linear_coefficient(1.0, box=4.0), X, 1.0)
    sup_err = float(np.abs(sol.path.values - np.exp(X.times)).max())
    assert sup_err <= 1e-4
    assert sol.strictly_decreasing()
    report(
        "criterion 7 (Chen <= 1e-12; integral of (X-X0,1) equals the second level exactly; RDE vs e^t)",
        f"chen {chen:.2e}, identity residual {resid}, sup-error {sup_err:.2e}, "
        f"{sol.iterations} iterations strictly decreasing",
    )


def test_criterion_08_ito_layer():
    rng = np.random.default_rng(SEED + 3)
    n, paths = 10, 9
    f = ito.GridCadlagPath(rng.normal(size=(n + 1, paths)), np.full(paths, 1 / paths), 1.0, None, True)
    g = ito.GridCadlagPath(
        np.vstack([np.zeros(paths), np.cumsum(rng.choice([-1.0, 1.0], size=(n, paths)), axis=0)]),
        np.full(paths, 1 / paths), 1.0, None, True,
    )
    worst_ibp = worst_chen = 0.0
    for trial in range(25):
        mask = rng.random((n + 1, paths)) < 0.4
        mask[0] = True
        part = ito.AdaptedGridPartition(mask, None)
        worst_ibp = max(worst_ibp, ito.integration_by_parts_residual(f, g, part, 1, n - 1))
        worst_chen = max(worst_chen, ito.chen_residual(f, g, part))
    assert worst_ibp <= 1e-12 and worst_chen <= 1e-12

    walk = ito.GridCadlagPath.sampled_walk(256, 64, seed=SEED + 4)
    cov = ito.covariation_sum(walk, walk, ito.AdaptedGridPartition.full(walk), 0, 256)
    assert np.abs(cov - 1.0).max() == 0.0

    base = ito.AdaptedGridPartition.from_oscillation(walk, 0.5)
    diag = ito.refine_converge(walk, walk, base, levels=4)
    assert diag.nonincreasing
    report(
        "criterion 8 (pre-limit identities exact to 1e-12; [g,g]=1 exactly; Cauchy distances nonincreasing)",
        f"ibp {worst_ibp:.2e}, chen {worst_chen:.2e}, distances {['%.4f' % d for d in diag.pi_distances]}",
    )


def test_criterion_09_aux_lemmas():
    spec = CorpusSpec(kind="mixed", depth=7, trials=1_050, seed=SEED + 4)
    rep = checks.check_aux_lemmas(spec)
    assert rep.violations == 0
    assert rep.trials - rep.hypothesis_failures >= 1_000  # 10^3 qualifying trials
    assert rep.measured["worst_good_lambda_eps"] > 0  # the epsilon branch is exercised
    gn = checks.check_garsia_neveu(CorpusSpec(kind="mixed", depth=7, trials=1_000, seed=SEED + 3), p=(1.0, 2.0, 3.0))
    assert gn.violations == 0
    assert gn.measured["qualifying_trials"] == 1_000 - gn.hypothesis_failures
    assert gn.measured["qualifying_trials"] >= 1_000
    report(
        "criterion 9 (Garsia-Neveu p, conditional-sum p^p, truncation C, good-lambda, s/S corollaries)",
        f"aux violations {rep.violations} (hyp failures {rep.hypothesis_failures}, "
        f"good-lambda eps up to {rep.measured['worst_good_lambda_eps']:.3f}), "
        f"GN violations {gn.violations} over {gn.measured['qualifying_trials']} qualifying trials",
    )


def test_criterion_10_determinism(tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    args = ["suite", "--default", "--scale", "0.01", "--seed", str(SEED)]
    assert cli_main(args + ["--out", str(out1)]) == 0
    assert cli_main(args + ["--out", str(out2)]) == 0
    a = json.loads(out1.read_text())
    b = json.loads(out2.read_text())
    for ra, rb in zip(a["reports"], b["reports"]):
        ra.pop("runtime_ms"), rb.pop("runtime_ms")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    report(
        "criterion 10 (reruns with identical config reproduce every field except runtime_ms)",
        f"{len(a['reports'])} reports byte-identical",
    )
