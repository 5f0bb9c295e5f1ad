"""Golden outputs: eight CLI runs pinned byte for byte.

The suite run covers every registry check on the default corpora; the rde
and ito demos reach the rough-path and Ito variation code, which the suite
does not.  The rde run with its defaults (linear phi, line driver) splits
its top window and compares with the closed-form solution.  The second ito run has 48 steps, so its walk values are not
dyadic and its sums round; the paraproduct run is at a shape where the
window and delta-f estimates read nonzero (the suite's one paraproduct
trial reads 0.0 for both).  The bellman run's grid argmin sits on a
rounding tie at -3.55e-15, so a change in the residuals' evaluation order
shows.  The sew run sews the Young integral of a line against itself; its
control omega(0, T) takes two r = 1 chain DPs over 4,097 points.  Timing
fields are stripped.  The files were written with the numpy version recorded in ``golden_manifest.json``; byte identity is only
promised on that version, so a different numpy fails the test outright.

Re-pin (and say why in CHANGES.md) with::

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import os
import sys
import tempfile

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from martkit.cli import main  # noqa: E402

DATA = os.path.join(os.path.dirname(__file__), "data")
MANIFEST = os.path.join(DATA, "golden_manifest.json")

GOLDEN = {
    "golden_suite.json": ["suite", "--default", "--scale", "0.01", "--seed", "20240"],
    "golden_rde.json": ["rde", "--driver", "walk", "--phi", "sin", "--seed", "7", "--n", "64"],
    "golden_rde_line.json": ["rde"],
    "golden_ito.json": ["ito", "--seed", "7", "--steps", "64", "--paths", "16"],
    "golden_ito48.json": ["ito", "--seed", "7", "--steps", "48", "--paths", "16"],
    "golden_paraproduct.json": ["check", "paraproduct", "--kind", "mixed", "--depth", "6", "--trials", "100", "--seed", "20247"],
    "golden_bellman.json": ["bellman", "--gamma", "2.9"],
    "golden_sew.json": ["sew"],
}


def render(argv: list[str]) -> str:
    """The JSON a CLI run writes, without its runtime_ms fields (top-level for
    one check, per report for a suite)."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out.json")
        code = main(argv + ["--out", out])
        if code != 0:
            raise RuntimeError(f"martkit {' '.join(argv)} exited {code}")
        with open(out) as fh:
            payload = json.load(fh)
    payload.pop("runtime_ms", None)
    for rep in payload.get("reports", []):
        rep.pop("runtime_ms")
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_output(name):
    with open(MANIFEST) as fh:
        manifest = json.load(fh)
    assert manifest["commands"] == GOLDEN
    if manifest["numpy"] != np.__version__:
        pytest.fail(f"golden outputs were pinned with numpy {manifest['numpy']}, this is numpy {np.__version__}")
    with open(os.path.join(DATA, name)) as fh:
        expected = fh.read()
    assert render(GOLDEN[name]) == expected, f"martkit {' '.join(GOLDEN[name])} no longer reproduces {name}"


@pytest.mark.parametrize("name, takes", [("golden_ito.json", True), ("golden_ito48.json", False)])
def test_ito_pins_take_power_tables_on_dyadic_walks(monkeypatch, name, takes):
    # a 64-step walk moves by 1/8, so both refinement DPs read their costs
    # from power tables; 1/sqrt(48) is not dyadic.  A table that silently
    # stopped certifying would keep the pin and lose the speed
    from martkit import functionals as fn

    real = fn._power_table
    taken = []
    monkeypatch.setattr(fn, "_power_table", lambda pairs, r: taken.append((r, (table := real(pairs, r)) is not None)) or table)
    render(GOLDEN[name])
    assert taken == [(2.5, takes), (3.0, takes)]


if __name__ == "__main__":
    os.makedirs(DATA, exist_ok=True)
    for name, argv in GOLDEN.items():
        text = render(argv)
        with open(os.path.join(DATA, name), "w") as fh:
            fh.write(text)
    with open(MANIFEST, "w") as fh:
        json.dump({"numpy": np.__version__, "commands": GOLDEN}, fh, indent=1, sort_keys=True)
        fh.write("\n")
