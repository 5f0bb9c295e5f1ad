"""The blocked chain DP against the column loop it replaced, float for float.

``chain_dp`` reads its costs a block of columns at a time, with a block width
set by ``functionals.CHAIN_BLOCK_ELEMENTS``.  The tests shrink that budget
so that small inputs cross every case: one block, several blocks that divide
the n - 1 columns exactly or not, and one column at a time.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import chain_dp_oracles as oracle
from martkit import functionals as fn

EXPONENTS = (1, 1.0, 1.5, 2.5, 3, 4)
DEFAULT = fn.CHAIN_BLOCK_ELEMENTS
BUDGETS = (DEFAULT, 96, 24)
# paths of the wide lattice walk: from 33 points on, the default budget
# reads its gaps one column at a time
WIDE = 64


def zero_heavy(n: int) -> list[tuple[str, np.ndarray]]:
    """Path matrices whose gaps hold many exact zeros, which the column path
    keeps out of the power: lattice walks of +-1/4 steps (exact ties, 0 at
    every return; with steps below 1, a zero raised as 1 would show in the
    best totals) and normal paths whose first half is 0, so the columns
    j < n // 2 are all zero."""
    rng = np.random.default_rng(n)
    zero_start = rng.normal(size=(n, 3))
    zero_start[: n // 2] = 0.0
    return [
        ("lattice walk", np.cumsum(rng.choice([-0.25, 0.25], size=(n, 4)), axis=0)),
        ("zero columns", zero_start),
        ("wide lattice walk", np.cumsum(rng.choice([-0.25, 0.25], size=(n, WIDE)), axis=0)),
    ]


def sources(n: int, rng):
    """(kind, package pairs, oracle pairs) on n points."""
    vals = rng.normal(size=n)
    yield "scalar", fn.DistColumns(vals), oracle.DistColumns(vals)
    rounded = np.round(vals)  # ties among distances
    yield "scalar ties", fn.DistColumns(rounded), oracle.DistColumns(rounded)
    for dim in (1, 3, 9):
        vec = rng.normal(size=(n, dim))
        yield f"vector d={dim}", fn.DistColumns(vec), oracle.DistColumns(vec)
    pm = rng.normal(size=(n, 3))
    yield "path gaps", fn._PathGaps(pm), oracle.PathGaps(pm)
    dense = rng.normal(size=(n, n, 2))
    yield "dense", dense, dense
    for kind, pm in zero_heavy(n):
        yield kind, fn._PathGaps(pm), oracle.PathGaps(pm)


def covered(budget: int, size: int, ns) -> set[str]:
    """The ways ``chain_dp`` splits the columns of the sizes ``ns``."""
    cases = set()
    for n in ns:
        width = budget // (n * size)
        if width < 2:
            cases.add("columns")
        elif width >= n - 1:
            cases.add("one block")
        elif (n - 1) % width == 0:
            cases.add("exact blocks")
        else:
            cases.add("ragged blocks")
    return cases


@pytest.mark.parametrize("budget", BUDGETS)
def test_chain_dp_equals_the_column_loop(monkeypatch, budget):
    monkeypatch.setattr(fn, "CHAIN_BLOCK_ELEMENTS", budget)
    rng = np.random.default_rng(40)
    ns = range(2, 71) if budget < DEFAULT else (2, 7, 64, 65, 257)
    if budget < DEFAULT:
        assert covered(budget, 1, ns) == {"columns", "one block", "exact blocks", "ragged blocks"}
    else:
        assert "columns" in covered(budget, WIDE, ns)
    for n in ns:
        for kind, pairs, ref in sources(n, rng):
            for r in EXPONENTS:
                assert np.array_equal(fn.chain_dp(pairs, r), oracle.chain_dp(ref, r)), (kind, n, r)


def test_variation_keeps_its_value():
    rng = np.random.default_rng(43)
    for n in (2, 9, 65):
        for vals in (rng.normal(size=n), rng.normal(size=(n, 1)), rng.normal(size=(n, 3))):
            for r in (1.0, 2.5, 4):
                best = oracle.chain_dp(oracle.DistColumns(vals), r)
                assert fn.variation(vals, r) == float(best.max()) ** (1.0 / r)


SIMD_PROBE = """
import json, sys
import numpy as np
sys.path.insert(0, {tests!r})
import chain_dp_oracles as oracle
from martkit import functionals as fn
from martkit import rough

from test_chain_dp import zero_heavy

rng = np.random.default_rng(44)
equal = []
for budget in (fn.CHAIN_BLOCK_ELEMENTS, 96):
    fn.CHAIN_BLOCK_ELEMENTS = budget
    for n in (9, 33, 65):
        vals, vec, pm = rng.normal(size=n), rng.normal(size=(n, 9)), rng.normal(size=(n, 5))
        dense = rng.normal(size=(n, n, 2))
        pairs = [(fn.DistColumns(vals), oracle.DistColumns(vals)), (fn.DistColumns(vec), oracle.DistColumns(vec)),
                 (fn._PathGaps(pm), oracle.PathGaps(pm)), (dense, dense)]
        pairs += [(fn._PathGaps(zm), oracle.PathGaps(zm)) for _, zm in zero_heavy(n)]
        for r in {exponents!r}:
            for new, ref in pairs:
                equal.append(bool(np.array_equal(fn.chain_dp(new, r), oracle.chain_dp(ref, r))))
        times = np.linspace(0.0, 0.3, n)
        walk = np.cumsum(rng.choice([-0.05, 0.05], size=n))
        for path in (rough.SampledPath(times, walk, "step"), rough.SampledPath(times, vec[:, :2], "linear")):
            X = rough.lift(path, r=2.5)
            equal.append(rough._halving_index(X, rough._prefix_controls(X.path.values, X.r)) == oracle.halving_one_interval_at_a_time(X))
print(json.dumps({{"cases": len(equal), "equal": sum(equal)}}))
"""


def test_blocks_equal_columns_at_every_simd_level():
    # numpy's power may take another code path at another SIMD level; a 2-D
    # block and a 1-D column must still raise each cost alike, a column's
    # zeros shifted to 1 and back must keep the plain power's floats, and the
    # RDE split from a forward and a reversed DP must stay the defined one
    root = Path(__file__).resolve().parents[1]
    probe = SIMD_PROBE.format(tests=str(root / "tests"), exponents=EXPONENTS)
    for disabled in ("", "X86_V4 AVX512_ICL AVX512_SPR", "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"):
        env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=disabled, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(root / "src"), env.get("PYTHONPATH"))))
        proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr[-2000:]
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        assert out["equal"] == out["cases"] > 0, (disabled, out)
