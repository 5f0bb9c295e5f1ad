"""The blocked chain DP against the column loop it replaced, float for float.

``chain_dp`` reads its costs a block of columns at a time, with a block width
set by ``functionals.CHAIN_BLOCK_ELEMENTS``.  The tests shrink that budget
so that small inputs cross every case: one block, several blocks that divide
the n - 1 columns exactly or not, and one column at a time.  For r = 1 the
prefix sums that replace the DP on certified inputs must equal the column
loop too, and inputs whose chain sums may round must be left to the DP.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def lattice_walk(rng, n: int, scale: int, width: int | None = None) -> np.ndarray:
    """A walk of integer steps in [-3, 3] times 2**scale: n points, or an
    (n, width) path matrix."""
    steps = rng.integers(-3, 4, size=(n,) if width is None else (n, width))
    return np.ldexp(np.cumsum(steps, axis=0).astype(np.float64), scale)


def both_sources(x: np.ndarray):
    """(kind, package pairs, oracle pairs): x as a scalar sequence, and as
    the one-path and, for 2-D x, the many-path matrix of path gaps."""
    flat = x if x.ndim == 1 else x[:, 0]
    yield "scalar", fn.DistColumns(flat), oracle.DistColumns(flat)
    pm = x if x.ndim == 2 else x[:, None]
    yield "path gaps", fn._PathGaps(pm), oracle.PathGaps(pm)


def certified_values():
    """Sequences whose r = 1 chain sums are all exact."""
    rng = np.random.default_rng(45)
    for scale in (-1074, -1060, -30, -8, -1, 0, 1, 8, 30, 900):
        yield f"lattice 2^{scale}", lattice_walk(rng, 65, scale, width=4)
    yield "integers", rng.integers(-(2**40), 2**40, size=(33, 3)).astype(np.float64)
    yield "zeros", np.zeros((9, 2))
    yield "subnormals", np.array([0.0, 5e-324, -1e-323, 2.5e-322, -0.0, 4.9e-322])
    yield "demo line", np.linspace(0.0, 1.0, 4097)
    yield "one point", np.array([[1.5, -2.0]])


def declined_values():
    """Sequences the certificate must refuse: chain sums that may round,
    or values that are not finite."""
    rng = np.random.default_rng(46)
    yield "0.3 linspace", np.linspace(0.0, 0.3, 65)
    yield "1/3 steps", np.cumsum(rng.choice([-1.0, 1.0], size=(65, 4)), axis=0) / 3.0
    yield "normals", rng.normal(size=(65, 3))
    yield "huge and tiny", np.array([0.0, 1e300, 1e-300, -1e300, 3.0])
    yield "tiny under a huge unit", np.array([0.0, 2.0**996, 5e-324, 2.0**996])  # k = 0 for 5e-324
    yield "past 2^53 units", np.array([0.0, 2.0**52 - 1, 0.0, 2.0**52 - 1, 0.0])
    yield "nan", np.array([0.0, 1.0, np.nan, 2.0])
    yield "inf", np.array([0.0, np.inf, 1.0, -np.inf])


@pytest.mark.parametrize("kind, x", list(certified_values()), ids=lambda v: v if isinstance(v, str) else "")
def test_exact_total_variation_takes_certified_sources(kind, x):
    for source, pairs, ref in both_sources(x):
        assert fn._exact_total_variation(pairs) is not None, (kind, source)
        assert np.array_equal(fn.chain_dp(pairs, 1), oracle.chain_dp(ref, 1)), (kind, source)


@pytest.mark.parametrize("kind, x", list(declined_values()), ids=lambda v: v if isinstance(v, str) else "")
def test_exact_total_variation_declines_inexact_sources(kind, x):
    for source, pairs, ref in both_sources(x):
        assert fn._exact_total_variation(pairs) is None, (kind, source)
        with np.errstate(invalid="ignore"):  # inf - inf
            assert np.array_equal(fn.chain_dp(pairs, 1.0), oracle.chain_dp(ref, 1.0), equal_nan=True), (kind, source)


def test_exact_total_variation_leaves_other_sources_to_the_dp():
    vec = np.ldexp(np.arange(12.0).reshape(6, 2), -3)
    assert fn._exact_total_variation(fn.DistColumns(vec)) is None  # Euclidean distances round
    assert fn._exact_total_variation(np.zeros((4, 4))) is None
    assert fn._exact_total_variation(fn.DistColumns(np.arange(5))) is None  # integer dtype
    assert fn.chain_dp(fn._PathGaps(np.zeros((5, 0))), 1).shape == (5, 0)  # no paths


@given(
    st.integers(-1074, 960),
    st.lists(st.integers(-(2**20), 2**20), min_size=1, max_size=40),
    st.integers(1, 3),
)
@settings(max_examples=200, deadline=None)
def test_lattice_walks_equal_the_oracle(scale, steps, width):
    # any k * 2^s walk with few enough units is certified, whatever s is
    k = np.cumsum(np.array([0] + steps, dtype=np.float64))
    x = np.ldexp(np.repeat(k[:, None], width, axis=1) * np.arange(1, width + 1), scale)
    for source, pairs, ref in both_sources(x):
        assert fn._exact_total_variation(pairs) is not None, source
        assert np.array_equal(fn.chain_dp(pairs, 1), oracle.chain_dp(ref, 1)), source


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
