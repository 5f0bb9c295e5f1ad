import json

import numpy as np
import pytest

from martkit import generators as G
from martkit.cli import main
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
        assert main(["gen", "--gen", gen, "--depth", "3", "--seed", "1", "--dist", "bogus", "--out", str(out)]) == 2
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


def test_check_usage_error():
    assert main(["check", "doob", "--seed", "1", "--trials", "5", "--params", '{"p": 0.5}']) == 2
    assert main(["check", "doesnotexist", "--seed", "1", "--trials", "5"]) == 2
    assert main(["check", "doob", "--seed", "1", "--trials", "5", "--params", '{"q": 2}']) == 2


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


def test_rde_walk_driver_requires_seed(tmp_path):
    assert main(["rde", "--driver", "walk", "--n", "64"]) == 2
    assert main(["rde", "--driver", "walk", "--n", "64", "--seed", "3", "--out", str(tmp_path / "w.json")]) == 0


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
