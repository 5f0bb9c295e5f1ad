import hashlib
import inspect
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from martkit import checks
from martkit import generators as G
from martkit import rough
from martkit.cli import main
from martkit.report import CorpusSpec
from martkit.tree import load_tree, save_tree, tree_from_dict


def read(path):
    with open(path) as fh:
        return json.load(fh)


def test_gen_round_trip_and_determinism(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["gen", "--gen", "doubling", "--depth", "3", "--seed", "1", "--out", str(out1)]) == 0
    tree, procs = load_tree(str(out1))
    save_tree(str(out2), tree, procs)
    assert out1.read_bytes() == out2.read_bytes()  # bit-identical round trip
    # doubling levels are 2^n on the leftmost atom
    assert procs["f"].values[2].tolist() == [4.0, 0.0, 0.0, 0.0]


def test_gen_seed_changes_corpus(tmp_path):
    a, b, c = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
    for seed, path in [(7, a), (7, b), (8, c)]:
        main(["gen", "--gen", "backprop", "--depth", "4", "--seed", str(seed), "--out", str(path)])
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


# sha256 of the file that `martkit gen --gen G --depth 5 --seed 3` wrote when
# the command kept its own table of generators
GEN_SHA256 = {
    "backprop": "8e3794da8dbd648bbb8c64b226eb26bbdb6dfc5cfcafb6c92a25132d500fb424",
    "increment": "69b28c0f5c635859049ca3717d9e3f29696e589889b05560a5f1af227cb1fdca",
    "walk": "7ae049956dc7cee5ee92de6e836e7fe4452c7ab241286e58bafc0e7e2d247a67",
    "doubling": "077a8b28a6108c0edca3d9116ed65d1f39cb0d089006dfc7cc23ea8a5c178d47",
    "log_weight": "40c42ab91d8838fa544684a458afbcfc58e7ad366a8983ab9c2f6ececffe3bf9",
    "scaled_walk": "6b4263d0181a5d41bf0603bcbfc4fb1ab7ba85caf6f181ed8a3dd589796b0a72",
}


def test_gen_pins_every_generator():
    assert set(GEN_SHA256) == set(G.GENERATORS)


@pytest.mark.parametrize("gen", sorted(GEN_SHA256))
def test_gen_writes_the_pinned_bytes(tmp_path, gen):
    out = tmp_path / "g.json"
    assert main(["gen", "--gen", gen, "--depth", "5", "--seed", "3", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GEN_SHA256[gen]


@pytest.mark.parametrize("gen", ["backprop", "increment"])
def test_gen_passes_the_distribution(tmp_path, gen):
    def written(dist):
        out = tmp_path / f"{dist}.json"
        extra = ["--dist", dist] if dist else []
        assert main(["gen", "--gen", gen, "--depth", "5", "--seed", "3", "--out", str(out), *extra]) == 0
        return out

    default = written(None).read_bytes()
    assert written("normal").read_bytes() == default
    uniform = written("uniform")
    assert uniform.read_bytes() != default
    # the file holds the generator's own draws from that distribution
    _, procs = load_tree(str(uniform))
    if gen == "increment":
        mart = G.gen_increment(5, seed=3, dist="uniform")
    else:
        mart = G.gen_leaf_backprop("uniform", 5, seed=3)
    assert [v.tolist() for v in procs["f"].values] == [v.tolist() for v in mart.values]


@pytest.mark.parametrize("gen", ["walk", "doubling", "log_weight", "scaled_walk"])
def test_gen_rejects_a_distribution_it_does_not_take(tmp_path, capsys, gen):
    out = tmp_path / "c.json"
    assert main(["gen", "--gen", gen, "--depth", "4", "--seed", "1", "--dist", "normal", "--out", str(out)]) == 2
    assert "takes no --dist" in capsys.readouterr().err
    assert not out.exists()
    assert main(["gen", "--gen", gen, "--depth", "4", "--seed", "1", "--out", str(out)]) == 0


def test_gen_unknown_distribution_is_a_usage_error(tmp_path):
    for gen in ("backprop", "increment"):
        out = tmp_path / f"{gen}.json"
        for depth in ("3", "0"):  # a depth-0 increment shape draws nothing
            assert main(["gen", "--gen", gen, "--depth", depth, "--seed", "1", "--dist", "bogus", "--out", str(out)]) == 2
            assert not out.exists()


def test_check_exit_codes(tmp_path):
    rep = tmp_path / "rep.json"
    code = main(
        ["check", "doob", "--kind", "mixed", "--depth", "6", "--trials", "40", "--seed", "3",
         "--params", '{"p": 2.0}', "--out", str(rep)]
    )
    assert code == 0
    data = read(rep)
    assert data["violations"] == 0 and data["check"] == "doob"
    # at p = 1e5 both sides of the strong bound overflow: a NaN ratio decides nothing
    argv = ["check", "doob", "--seed", "1", "--trials", "3", "--depth", "6", "--params", '{"p": 1e5}', "--out", str(rep)]
    with np.errstate(over="ignore"):
        assert main(argv) == 1
    assert read(rep)["violations"] >= 1


def test_check_usage_error():
    assert main(["check", "doob", "--seed", "1", "--trials", "5", "--params", '{"p": 0.5}']) == 2
    assert main(["check", "doesnotexist", "--seed", "1", "--trials", "5"]) == 2
    assert main(["check", "doob", "--seed", "1", "--trials", "5", "--params", '{"q": 2}']) == 2
    # a corpus the generators would ignore or cut short
    for extra in (["--depth", "-1"], ["--depth", "1"], ["--depth", "40"], ["--dist", "bogus"], ["--kind", "bogus"]):
        assert main(["check", "doob", "--seed", "1", "--trials", "2", *extra]) == 2, extra


@pytest.mark.parametrize(
    "name, params, message",
    [
        pytest.param("doob", "[1]", "--params must be a JSON object", id="list"),
        pytest.param("doob", '"abc"', "--params must be a JSON object", id="string"),
        pytest.param("doob", '{"p": "x"}', "parameter 'p' must be a real number", id="p=x"),
        pytest.param("doob", '{"p": [1.5, null]}', "parameter 'p' must be a real number", id="p=null"),
        pytest.param("doob", '{"p": true}', "parameter 'p' must be a real number", id="p=true"),
        pytest.param("doob", '{"p": NaN}', "parameter 'p' must be a real number", id="p=nan"),
        pytest.param("davis_bdg", '{"p": [2.0]}', "parameter 'p' must be a real number", id="bdg-p=list"),
        pytest.param("lepingle", '{"r": []}', "parameter 'r' must be a real number", id="r=empty"),
        pytest.param("paraproduct", '{"r1": -2.0}', "q0, q1, r0 and r1 must be at least 1", id="r1<1"),
        pytest.param("paraproduct", '{"q1": 0}', "q0, q1, r0 and r1 must be at least 1", id="q1=0"),
        pytest.param("paraproduct", '{"families": 2.5}', "families must be a positive integer", id="families"),
        pytest.param("vector_valued", '{"q": 1.0}', "need q > 1, p > 1 and r >= 1", id="q=1"),
        pytest.param("vector_valued", '{"r": 0.001}', "need q > 1, p > 1 and r >= 1", id="r<1"),
        pytest.param("aux_lemmas", '{"good_lambda": [2.0, 1.0]}', "good_lambda must be (beta, delta, p)", id="good_lambda"),
        pytest.param("aux_lemmas", '{"good_lambda": [2.0, 1e-300, 2.0]}', "good_lambda needs (beta, delta, p) in", id="delta"),
        pytest.param("aux_lemmas", '{"m_vs_s_p": 0.001}', "needs 1/441 <= p <= 2", id="m_vs_s_p"),
        pytest.param("garsia_neveu", '{"p": 0.5}', "needs p >= 1", id="gn-p<1"),
        pytest.param("davis_bdg", '{"p": -1}', "the L^p exponent p must be positive", id="bdg-p<0"),
        pytest.param("lepingle", '{"p": 0}', "the L^p exponent p must be positive", id="lepingle-p=0"),
    ],
)
def test_bad_check_parameters_are_usage_errors(tmp_path, capsys, name, params, message):
    out = tmp_path / "rep.json"
    argv = ["check", name, "--seed", "1", "--trials", "2", "--depth", "3", "--params", params, "--out", str(out)]
    assert main(argv + (["--kind", "family", "--width", "2"] if name == "vector_valued" else [])) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name", ["davis_bdg", "lepingle"])
def test_a_bad_lp_exponent_is_a_usage_error_without_trials(tmp_path, name):
    # p only reaches the trials' norms, so it is checked before any trial runs
    out = tmp_path / "rep.json"
    assert main(["check", name, "--trials", "0", "--seed", "1", "--params", '{"p": -1}', "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("families", [65, 1e12])
def test_too_many_families_are_refused_before_any_trial(tmp_path, monkeypatch, families):
    # the Davis family is max(2, families) wide; a width above MAX_VECTOR_DIM
    # used to fail only after the window loop had run `families` times
    def no_trials(*args, **kwargs):
        raise AssertionError("a trial loop started")

    monkeypatch.setattr(checks, "run_trials", no_trials)
    spec = CorpusSpec(kind="mixed", depth=4, trials=1, seed=1)
    with pytest.raises(ValueError, match="families must be a positive integer at most 64"):
        checks.run_check("paraproduct", spec, families=families)
    out = tmp_path / "rep.json"
    argv = ["check", "paraproduct", "--trials", "1", "--depth", "4", "--seed", "1", "--out", str(out)]
    assert main(argv + ["--params", json.dumps({"families": families})]) == 2
    assert not out.exists()


REAL = st.integers(-2, 8) | st.floats(-3.0, 8.0) | st.sampled_from([0.5, 1, 1.5, 2, 2.5, 3, 4])
JUNK = st.sampled_from([None, True, "x", [], [[2.0]], float("nan"), float("inf")])
VALUE = st.one_of(REAL, REAL, st.lists(REAL, min_size=1, max_size=3), JUNK)


@pytest.mark.parametrize("name", sorted(checks.REGISTRY))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_check_parameters_always_meet_the_exit_contract(name, data):
    keys = [k for k in inspect.signature(checks.REGISTRY[name]).parameters if k != "spec"]
    params = data.draw(st.fixed_dictionaries({}, optional={k: VALUE for k in keys + ["bogus"]}))
    argv = ["check", name, "--seed", "1", "--trials", "1", "--depth", "3", "--params", json.dumps(params)]
    assert main(argv + (["--kind", "family", "--width", "2"] if name == "vector_valued" else [])) in (0, 1, 2)


def test_check_requires_seed():
    assert main(["check", "doob", "--trials", "5"]) == 2


def test_check_planted_violation(tmp_path):
    corpus = tmp_path / "broken.json"
    # averaging violated at the root: f_0 = 10 but children average to 0
    data = {
        "depth": 1,
        "parents": [[0, 0]],
        "leaf_probs": [0.5, 0.5],
        "processes": {"f": [10.0, 0.0, 0.0]},
    }
    corpus.write_text(json.dumps(data))
    tree_from_dict(data)  # loadable as a plain process
    code = main(["check", "doob", "--corpus-file", str(corpus), "--params", '{"p": 2.0}'])
    assert code == 1


GOOD_TREE = {"depth": 1, "parents": [[0, 0]], "leaf_probs": [0.5, 0.5], "processes": {"f": [0.0, 1.0, -1.0]}}


@pytest.mark.parametrize(
    "data, message",
    [
        pytest.param({**GOOD_TREE, "processes": {"f": 3.0}}, "process 'f' must be a list, got float", id="process=number"),
        pytest.param({**GOOD_TREE, "processes": {"f": {"a": 1}}}, "process 'f' must be a list, got dict", id="process=object"),
        pytest.param({**GOOD_TREE, "processes": {"f": None}}, "process 'f' must be a list, got NoneType", id="process=null"),
        pytest.param({**GOOD_TREE, "parents": 2}, "parents must be a list, got int", id="parents=number"),
        pytest.param({**GOOD_TREE, "leaf_probs": {"a": 0.5}}, "leaf_probs must be a list, got dict", id="leaf_probs=object"),
        pytest.param([GOOD_TREE], "tree JSON must be a dict, got list", id="file=list"),
    ],
)
def test_malformed_corpus_file_is_a_usage_error(tmp_path, capsys, data, message):
    corpus = tmp_path / "bad.json"
    corpus.write_text(json.dumps(data))
    assert main(["check", "doob", "--corpus-file", str(corpus)]) == 2
    assert message in capsys.readouterr().err


def test_suite_default_and_determinism(tmp_path):
    out1, out2 = tmp_path / "s1.json", tmp_path / "s2.json"
    args = ["suite", "--default", "--scale", "0.002", "--seed", "9"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    a, b = read(out1), read(out2)
    assert a["all_pass"] and b["all_pass"]
    for ra, rb in zip(a["reports"], b["reports"]):
        ra.pop("runtime_ms"), rb.pop("runtime_ms")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_suite_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "seed": 4,
                "checks": [
                    {"check": "doob", "params": {"p": 2.0}, "corpus": {"kind": "mixed", "depth": 5, "trials": 20}},
                    {"check": "square_weak", "corpus": {"kind": "mixed", "depth": 5, "trials": 20}},
                ],
            }
        )
    )
    out = tmp_path / "out.json"
    assert main(["suite", "--config", str(cfg), "--out", str(out)]) == 0
    assert len(read(out)["reports"]) == 2


@pytest.mark.parametrize(
    "entry, message",
    [
        ({"check": "doob", "corpus": {"kind": "mixed", "depth": 4, "trails": 3}}, "unknown corpus keys ['trails']"),
        ({"check": "doob", "parms": {"p": 2.0}, "corpus": {"depth": 4, "trials": 3}}, "unknown suite entry keys ['parms']"),
        ({"check": "doob", "params": {"q": 2.0}, "corpus": {"depth": 4, "trials": 3}}, "bad parameters for check 'doob'"),
        ({"check": "doob", "corpus": {"depth": 4, "trials": 2**20}}, "trials must be below 2**20"),
    ],
)
def test_suite_unknown_keys_are_usage_errors(tmp_path, capsys, entry, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 1, "checks": [entry]}))
    assert main(["suite", "--config", str(cfg), "--out", str(tmp_path / "out.json")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


def test_suite_empty_config_is_usage_error(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 1, "checks": []}))
    assert main(["suite", "--config", str(cfg)]) == 2
    assert main(["suite"]) == 2


def test_suite_has_no_tolerance_option():
    # the ratio tolerance is fixed at report.RATIO_TOL
    with pytest.raises(SystemExit) as exc:
        main(["suite", "--default", "--seed", "1", "--tol", "1e-6"])
    assert exc.value.code == 2


def test_rde_command(tmp_path):
    out = tmp_path / "rde.json"
    code = main(["rde", "--phi", "linear", "--driver", "line", "--y0", "1", "--T", "0.3", "--out", str(out)])
    assert code == 0
    diag = read(out)
    assert diag["sup_error_vs_oracle"] <= 1e-4
    assert diag["metric_strictly_decreasing"]
    assert set(diag) >= {"iterations", "final_metric", "subdivisions", "error_bound"}


@pytest.mark.parametrize("header", ["# interpretation: step\nt,x_1", "t,x_1"])
def test_rde_csv_driver(tmp_path, header):
    # the interpretation line is optional and defaults to step
    driver = tmp_path / "driver.csv"
    np.savetxt(driver, [[0.0, 0.0], [0.5, 0.1], [1.0, -0.05]], delimiter=",", header=header, comments="")
    out = tmp_path / "rde.json"
    assert main(["rde", "--phi", "const:2", "--driver", f"csv:{driver}", "--out", str(out)]) == 0
    assert read(out)["sup_error_vs_oracle"] <= 1e-12


@pytest.mark.parametrize("columns", [1, 3])
def test_rde_csv_driver_needs_one_value_column(tmp_path, capsys, monkeypatch, columns):
    # every coefficient takes a scalar driver, so the file is refused before
    # any solving, by its column count
    rows = np.column_stack([np.linspace(0.0, 1.0, 3)] + [[0.0, 0.1, -0.05]] * (columns - 1))
    driver = tmp_path / "driver.csv"
    np.savetxt(driver, rows, delimiter=",", header=",".join(["t"] + [f"x_{k}" for k in range(1, columns)]), comments="")
    monkeypatch.setattr(rough, "rde_solve", None)
    assert main(["rde", "--driver", f"csv:{driver}", "--out", str(tmp_path / "r.json")]) == 2
    assert f"CSV column count {columns}, but every --phi takes t and one driver column" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_rde_walk_driver_requires_seed(tmp_path):
    assert main(["rde", "--driver", "walk", "--n", "64"]) == 2
    assert main(["rde", "--driver", "walk", "--n", "64", "--seed", "3", "--out", str(tmp_path / "w.json")]) == 0


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(["--driver", "walk", "--seed", "1", "--n", "0"], "--n must be at least 1", id="n=0"),
        pytest.param(["--y0", "nan"], "--y0 must be finite", id="y0=nan"),
        pytest.param(["--y0", "inf"], "--y0 must be finite", id="y0=inf"),
        pytest.param(["--driver", "walk", "--seed", "1", "--amplitude", "nan"], "--amplitude must be finite", id="amplitude=nan"),
        pytest.param(["--driver", "walk", "--seed", "1", "--amplitude", "inf"], "--amplitude must be finite", id="amplitude=inf"),
        pytest.param(["--T", "nan"], "--T must be finite", id="T=nan"),
        pytest.param(["--phi", "linear:nan"], "must be finite", id="phi=linear:nan"),
        pytest.param(["--phi", "linear:inf"], "must be finite", id="phi=linear:inf"),
        pytest.param(["--phi", "const:inf"], "must be finite", id="phi=const:inf"),
        pytest.param(["--phi", "sin:3"], "sin takes no argument", id="phi=sin:3"),
        pytest.param(["--n", "100000"], "rough layer grid exceeds guard 512", id="n=100000"),
    ],
)
def test_rde_bad_numbers_are_usage_errors(tmp_path, capsys, argv, message):
    assert main(["rde", *argv, "--out", str(tmp_path / "r.json")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(["check", "doob", "--seed", "1", "--trials", "-3"], "trials must be at least 0", id="trials=-3"),
        pytest.param(["suite", "--default", "--seed", "1", "--scale", "inf"], "scale must be finite and positive", id="scale=inf"),
        pytest.param(["suite", "--default", "--seed", "1", "--scale", "nan"], "scale must be finite and positive", id="scale=nan"),
        pytest.param(["suite", "--default", "--seed", "1", "--scale", "-1"], "scale must be finite and positive", id="scale=-1"),
        pytest.param(["suite", "--default", "--seed", "1", "--scale", "0"], "scale must be finite and positive", id="scale=0"),
    ],
)
def test_bad_trial_counts_are_usage_errors(tmp_path, capsys, argv, message):
    assert main([*argv, "--out", str(tmp_path / "s.json")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "s.json").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(["--steps", "0"], "at least one grid step and one path", id="steps=0"),
        pytest.param(["--paths", "0"], "at least one grid step and one path", id="paths=0"),
        pytest.param(["--T", "nan"], "T must be finite and positive", id="T=nan"),
        pytest.param(["--T", "0"], "T must be finite and positive", id="T=0"),
        pytest.param(["--eps", "nan"], "eps must be >= 0", id="eps=nan"),
        pytest.param(["--levels", "-1"], "levels must be in 0..12", id="levels=-1"),
        pytest.param(["--levels", "13"], "levels must be in 0..12", id="levels=13"),
    ],
)
def test_ito_bad_numbers_are_usage_errors(tmp_path, capsys, argv, message):
    assert main(["ito", "--seed", "3", *argv, "--out", str(tmp_path / "i.json")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "i.json").exists()


def test_ito_command(tmp_path):
    out = tmp_path / "ito.json"
    code = main(["ito", "--steps", "256", "--paths", "32", "--seed", "3", "--out", str(out)])
    assert code == 0
    diag = read(out)
    assert diag["covariation_minus_one_max"] == 0.0
    assert diag["integration_by_parts_residual"] <= 1e-12
    assert diag["chen_residual"] <= 1e-12
    assert diag["cauchy_nonincreasing"]


def test_bellman_command(tmp_path):
    out = tmp_path / "bel.json"
    code = main(["bellman", "--gamma", "2.9", "--grid", "8000", "--depth", "6", "--out", str(out)])
    assert code == 0
    diag = read(out)
    assert diag["counterexample"]["residual"] < -1e-12
    assert main(["bellman", "--gamma", "3.0", "--grid", "27000", "--depth", "4", "--out", str(tmp_path / "b2.json")]) == 0


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(["--grid", "-5"], "--grid must be at least 0", id="grid=-5"),
        pytest.param(["--gamma", "nan"], "--gamma must be finite", id="gamma=nan"),
        pytest.param(["--gamma", "inf"], "--gamma must be finite", id="gamma=inf"),
        pytest.param(["--r-grid", "8:1"], "needs 1 <= lo <= hi", id="r-grid=8:1"),
        pytest.param(["--r-grid", "0:2"], "needs 1 <= lo <= hi", id="r-grid=0:2"),
        pytest.param(["--r-grid", "8"], "--r-grid takes lo:hi", id="r-grid=8"),
        pytest.param(["--r-grid", "2:x"], "--r-grid takes lo:hi", id="r-grid=2:x"),
        pytest.param(["--r-grid", "1:2:3"], "--r-grid takes lo:hi", id="r-grid=1:2:3"),
    ],
)
def test_bellman_bad_numbers_are_usage_errors(tmp_path, capsys, argv, message):
    assert main(["bellman", "--grid", "1000", "--depth", "3", *argv, "--out", str(tmp_path / "b.json")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "b.json").exists()


def test_list_checks(capsys):
    assert main(["list-checks"]) == 0
    out = capsys.readouterr().out
    assert "doob" in out and "lepingle" in out


def test_console_script_runs():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "martkit", "list-checks"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "sharp_davis" in proc.stdout
