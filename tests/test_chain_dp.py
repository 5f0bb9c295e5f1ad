"""The blocked chain DP against the column loop it replaced, float for float.

``chain_dp`` reads its costs a block of columns at a time, with a block width
set by ``functionals.CHAIN_BLOCK_ELEMENTS``.  The tests shrink that budget
so that small inputs cross every case: one block, several blocks that divide
the n - 1 columns exactly or not, and blocks of one column.  For r = 1 the
prefix sums that replace the DP on certified inputs must equal the column
loop too, and inputs whose chain sums may round must be left to the DP.
For r != 1 the costs of certified dyadic inputs come from one table of
powers, which must give every cost the float of the column loop's power;
inputs that the certificate cannot cover must be raised column by column.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chain_dp_oracles as oracle
import pair_sum_oracles
from martkit import functionals as fn
from martkit import ito
from simd_probe import SIMD_LEVELS, run_probe

EXPONENTS = (1, 1.0, 1.5, 2.5, 3, 4)
DEFAULT = fn.CHAIN_BLOCK_ELEMENTS
BUDGETS = (DEFAULT, 96, 24)
# paths of the wide lattice walk: from 33 points on, the default budget
# reads its gaps in blocks of one column
WIDE = 64


def zero_heavy(n: int) -> list[tuple[str, np.ndarray]]:
    """Path matrices whose gaps hold many exact zeros, which numpy's power
    raises on another code path than nonzero costs: lattice walks of +-1/4
    steps (exact ties, 0 at every return) and normal paths whose first half
    is 0, so the columns j < n // 2 are all zero."""
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
    yield "scalar", fn.PathGaps(vals), oracle.DistColumns(vals)
    rounded = np.round(vals)  # ties among distances
    yield "scalar ties", fn.PathGaps(rounded), oracle.DistColumns(rounded)
    for dim in (1, 3, 9):
        vec = rng.normal(size=(n, dim))
        yield f"vector d={dim}", fn.DistColumns(vec), oracle.DistColumns(vec)
    stack = rng.normal(size=(n, 4, 2))
    stack[:, ::2, 1] = 0.0  # scalars padded to d = 2, as a Picard step stacks them
    yield "stacked", fn.DistColumns(stack), oracle.DistColumns(stack)
    pm = rng.normal(size=(n, 3))
    yield "path gaps", fn.PathGaps(pm), oracle.PathGaps(pm)
    dense = rng.normal(size=(n, n, 2))
    yield "dense", dense, dense
    for kind, pm in zero_heavy(n):
        yield kind, fn.PathGaps(pm), oracle.PathGaps(pm)


def covered(budget: int, size: int, ns) -> set[str]:
    """The ways ``chain_dp`` splits the columns of the sizes ``ns``."""
    cases = set()
    for n in ns:
        width = budget // (n * size)
        if width < 2:
            cases.add("one-column blocks")
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
        assert covered(budget, 1, ns) == {"one-column blocks", "one block", "exact blocks", "ragged blocks"}
    else:
        assert "one-column blocks" in covered(budget, WIDE, ns)
    for n in ns:
        for kind, pairs, ref in sources(n, rng):
            for r in EXPONENTS:
                assert np.array_equal(fn.chain_dp(pairs, r), oracle.chain_dp(ref, r)), (kind, n, r)


def test_distance_blocks_stay_within_the_budget():
    # a DistColumns block makes w * n * B * d differences, and numpy adds
    # broadcast buffers of up to twice that; with d and the batch axis B
    # counted in the width, the costs, the differences and the buffers stay
    # within four budgets beside the (n, B) best totals
    rng = np.random.default_rng(45)
    for shape in ((257, 4, 1), (33, 16), (33, 4, 4), (65, 9), (17, 64), (65, 64)):
        values = rng.normal(size=shape)
        tracemalloc.start()
        try:
            fn.chain_dp(fn.DistColumns(values), 2.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 8 * DEFAULT + 16 * values[..., 0].size, shape


def test_a_stacked_problem_keeps_its_floats():
    # zero padding adds +0.0 to each sum of squares, which is exact
    rng = np.random.default_rng(46)
    for n in (2, 9, 65, 257):
        vec, scalar = rng.normal(size=(n, 3)), rng.normal(size=n)
        stack = np.zeros((n, 2, 3))
        stack[:, 0], stack[:, 1, 0] = vec, scalar
        for r in EXPONENTS:
            best = fn.chain_dp(fn.DistColumns(stack), r)
            assert np.array_equal(best[:, 0], fn.chain_dp(fn.DistColumns(vec), r)), (n, r)
            assert np.array_equal(best[:, 1], fn.chain_dp(fn.DistColumns(scalar[:, None]), r)), (n, r)


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
    yield "scalar", fn.PathGaps(flat), oracle.DistColumns(flat)
    pm = x if x.ndim == 2 else x[:, None]
    yield "path gaps", fn.PathGaps(pm), oracle.PathGaps(pm)


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
    assert fn._exact_total_variation(fn.PathGaps(np.arange(5))) is None  # integer dtype
    assert fn.chain_dp(fn.PathGaps(np.zeros((5, 0))), 1).shape == (5, 0)  # no paths


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


def at_the_span_bound(n: int, width: int, past: int) -> np.ndarray:
    """(n, width) paths of integers times 2^-3 whose largest per-path range
    is (n - 1) * width - 1 + past units: the widest range that still gets a
    power table (past = 0), or one past it (past = 1)."""
    rng = np.random.default_rng(n * width + past)
    span = (n - 1) * width - 1 + past
    k = rng.integers(0, span + 1, size=(n, width))
    k[:3, 0] = (0, span, 1)  # the range, and an odd value, so the unit is 2^-3
    return np.ldexp(k.astype(np.float64), -3)


def refinement_gaps(n_steps: int, n_paths: int, seed: int):
    """The refinement gaps of ``ito.refine_converge`` on a +-1/sqrt(N) walk
    against itself, at strides 8, 4, 2 and 1 over its oscillation partition:
    the package's ``ParaproductGaps`` and the dense tensor of the same gaps
    from the one-term-at-a-time pair sums of ``pair_sum_oracles``."""
    walk = ito.GridCadlagPath.sampled_walk(n_steps, n_paths, seed=seed)
    base = ito.AdaptedGridPartition.from_oscillation(walk, 0.5)
    fds = np.stack([ito.discretize(walk, base.union_grid(stride)).values for stride in (8, 4, 2, 1)], axis=1)
    sums = np.stack([pair_sum_oracles.paraproduct_deltaf_pairs(fds[:, k], walk.values) for k in range(4)], axis=2)
    return fn.ParaproductGaps(fds, np.diff(walk.values, axis=0)), sums[:, :, :-1] - sums[:, :, 1:]


def dyadic_sources(n: int):
    """(kind, package pairs, oracle pairs, takes a table) for dyadic sources
    on n points: the span bound of each source kind and one past it, and
    Ito refinements of walks with 16 and 64 steps (N a power of 4, so
    1/sqrt(N) is a power of two)."""
    for past in (0, 1):
        x = at_the_span_bound(n, 1, past)[:, 0]
        yield f"scalar, bound + {past}", fn.PathGaps(x), oracle.DistColumns(x), not past
        pm = at_the_span_bound(n, 5, past)
        yield f"path gaps, bound + {past}", fn.PathGaps(pm), oracle.PathGaps(pm), not past
    for steps, paths in ((16, 8), (64, 32)):
        gaps, dense = refinement_gaps(steps, paths, seed=n)
        yield f"refinement of {steps} steps", gaps, dense, True


@pytest.mark.parametrize("n", (9, 33))
def test_power_tables_equal_the_column_loop(n):
    for kind, pairs, ref, takes in dyadic_sources(n):
        for r in EXPONENTS:
            if r != 1:
                assert (fn._power_table(pairs, r) is not None) == takes, (kind, r)
            assert np.array_equal(fn.chain_dp(pairs, r), oracle.chain_dp(ref, r)), (kind, n, r)


def declined_tables():
    """(kind, package pairs, oracle pairs or None) that ``_power_table``
    must refuse, all of whose costs the power makes column by column."""
    rng = np.random.default_rng(47)
    steps = np.cumsum(rng.choice([-1.0, 1.0], size=(33, 4)), axis=0)
    for kind, pm in (("0.0125 steps", steps * 0.0125), ("1/sqrt(48) steps", steps / np.sqrt(48))):
        yield kind, fn.PathGaps(pm), oracle.PathGaps(pm)
        yield f"{kind}, scalar", fn.PathGaps(pm[:, 0]), oracle.DistColumns(pm[:, 0])
    gaps, dense = refinement_gaps(48, 4, seed=3)
    yield "refinement of 48 steps", gaps, dense
    for kind, bad in (("nan", np.nan), ("inf", np.inf)):
        pm = steps / 4.0
        pm[5, 1] = bad
        yield kind, fn.PathGaps(pm), None
    yield "integer dtype", fn.PathGaps(np.arange(9)), None
    vec = np.ldexp(steps[:, :2], -2)
    yield "vector", fn.DistColumns(vec), oracle.DistColumns(vec)
    dense = np.ldexp(np.abs(steps[:, None, :2] - steps[None, :, :2]), -2)
    yield "dense", dense, dense
    # certified units, but running sums near 2^53 of them: f ranges over
    # 2^26 units and the |dg| sum to 2^26 units
    f = np.zeros((9, 2, 1))
    f[1::2] = 2.0**26
    dg = np.full((8, 1), 2.0**23)
    yield "sums near 2^53 units", fn.ParaproductGaps(f, dg), None
    pm = np.array([[0.0], [2.0**52 - 1], [1.0]])
    yield "range near 2^53 units", fn.PathGaps(pm), oracle.PathGaps(pm)
    pm = np.ldexp(steps[:9], -1070)  # a unit of 2^-1070, whose inverse overflows
    yield "subnormal unit", fn.PathGaps(pm), oracle.PathGaps(pm)
    # one unit of 2^1023: the range of 2 units overflows
    yield "overflowing gaps", fn.PathGaps(np.ldexp(np.array([[0.0], [1.0], [-1.0], [0.0], [1.0]]), 1023)), None
    f = np.zeros((5, 2, 1))
    f[1::2] = 2.0**1023
    f[2::2] = -(2.0**1023)
    yield "overflowing f differences", fn.ParaproductGaps(f, np.zeros((4, 1))), None


@pytest.mark.parametrize("kind, pairs, ref", list(declined_tables()), ids=lambda v: v if isinstance(v, str) else "")
def test_power_table_declines_what_it_cannot_certify(kind, pairs, ref):
    for r in EXPONENTS:
        assert fn._power_table(pairs, r) is None, (kind, r)
        if ref is not None:
            assert np.array_equal(fn.chain_dp(pairs, r), oracle.chain_dp(ref, r)), (kind, r)


def test_dyadic_units_decline_on_the_last_row(monkeypatch):
    # a matrix whose last row is not dyadic on its own maximum is refused
    # before any pass over the whole matrix
    pm = np.ldexp(np.arange(60.0).reshape(20, 3), -4)
    pm[-1] = (0.1, 0.2, 0.3)
    seen = []
    real = np.ldexp

    def spy(x, e, *args, **kwargs):
        seen.append(np.shape(x))
        return real(x, e, *args, **kwargs)

    monkeypatch.setattr(np, "ldexp", spy)
    assert fn._dyadic_units(pm) is None
    assert seen == [(3,)]
    del seen[:]
    assert fn._dyadic_units(pm[:-1]) is not None and (19, 3) in seen


@given(
    st.integers(-1000, 200),  # no cost overflows at r = 4
    st.lists(st.integers(-3, 3), min_size=1, max_size=24),
    st.integers(1, 3),
)
@settings(max_examples=60, deadline=None)
def test_dyadic_walks_equal_the_oracle(scale, steps, width):
    # a table is made exactly when the largest range in units (the unit
    # being the largest power of two that divides every value) is below the
    # widest cost column; either way every float is the column loop's
    k = np.cumsum(np.array([0] + steps, dtype=np.int64))
    paths = k[:, None] * np.arange(1, width + 1)
    x = np.ldexp(paths.astype(np.float64), scale)
    low = np.bitwise_or.reduce(paths, axis=None)
    unit_bits = (int(low) & -int(low)).bit_length() - 1 if low else 0
    span = int(np.ptp(paths, axis=0).max()) >> unit_bits
    for source, pairs, ref in both_sources(x):
        trail = 1 if source == "scalar" else width
        flat = x if source != "scalar" else x[:, 0]
        span_here = span if source != "scalar" else int(np.ptp(k)) >> unit_bits
        takes = span_here + 1 <= (flat.shape[0] - 1) * trail
        for r in EXPONENTS:
            if r != 1:
                assert (fn._power_table(pairs, r) is not None) == takes, (source, r)
            assert np.array_equal(fn.chain_dp(pairs, r), oracle.chain_dp(ref, r)), (source, r)


SIMD_PROBE = """
import json
import numpy as np
import chain_dp_oracles as oracle
import pair_sum_oracles
import path_oracles
from martkit import functionals as fn
from martkit import generators as G
from martkit import ito
from martkit import rough

from test_chain_dp import EXPONENTS, dyadic_sources, zero_heavy
from test_rough import picard_cases, stacked_steps_equal_the_oracles

rng = np.random.default_rng(44)
equal = []
for budget in (fn.CHAIN_BLOCK_ELEMENTS, 96):
    fn.CHAIN_BLOCK_ELEMENTS = budget
    for n in (9, 33, 65):
        vals, vec, pm = rng.normal(size=n), rng.normal(size=(n, 9)), rng.normal(size=(n, 5))
        dense = rng.normal(size=(n, n, 2))
        pairs = [(fn.PathGaps(vals), oracle.DistColumns(vals)), (fn.DistColumns(vec), oracle.DistColumns(vec)),
                 (fn.PathGaps(pm), oracle.PathGaps(pm)), (dense, dense)]
        pairs += [(fn.PathGaps(zm), oracle.PathGaps(zm)) for _, zm in zero_heavy(n)]
        for r in EXPONENTS:
            for new, ref in pairs:
                equal.append(bool(np.array_equal(fn.chain_dp(new, r), oracle.chain_dp(ref, r))))
        times = np.linspace(0.0, 0.3, n)
        walk = np.cumsum(rng.choice([-0.05, 0.05], size=n))
        for _, new, ref, _ in dyadic_sources(n):
            for r in EXPONENTS:
                equal.append(bool(np.array_equal(fn.chain_dp(new, r), oracle.chain_dp(ref, r))))
        for path in (rough.SampledPath(times, walk, "step"), rough.SampledPath(times, vec[:, :2], "linear")):
            X = rough.lift(path, r=2.5)
            equal.append(rough._halving_index(X, rough._prefix_controls(X.path.values, X.r)) == oracle.halving_one_interval_at_a_time(X))
    equal += [stacked_steps_equal_the_oracles(*case) for case in picard_cases()]
    trees = (G.gen_increment(6, seed=3), G.gen_leaf_backprop("normal", 8, seed=5), G.gen_walk_increments(8, seed=4),
             G.gen_scaled_walk(4), G.gen_doubling(7), G.gen_log_weight(7))
    for mart in trees:
        pm, layout = mart.paths(), mart.tree.layout
        for r in EXPONENTS + (4 / 3, 2):
            equal.append(bool(np.array_equal(fn.variation_paths(mart.flat, r, layout), fn.variation_paths(pm, r))))
        rs = (2.5, 3.0, 4.0)
        node = fn.lepingle_pathwise_bound(mart.flat, rs, layout, fn.min_nonzero_pairwise(pm))
        for (vr, rhs), (vr_ref, rhs_ref) in zip(node, path_oracles.lepingle_pathwise_bound(pm, rs)):
            equal.append(bool(np.array_equal(vr, vr_ref) and np.array_equal(rhs, rhs_ref)))
print(json.dumps({"cases": len(equal), "equal": sum(equal)}))
"""


def test_blocks_equal_columns_at_every_simd_level():
    # numpy's power may take another code path at another SIMD level, and
    # on exact zeros; a 2-D block and a 1-D column must still raise each cost
    # alike, a power table read by index must give each cost the float of its
    # own power, the RDE split from a forward and a reversed DP must stay
    # the defined one, the (n, size_n) cost block of a tree level must
    # raise each cost as the columns of the path matrix do, and the two
    # stacked DPs of a Picard step must give the floats of its six DPs
    for disabled in SIMD_LEVELS:
        out = run_probe(SIMD_PROBE, disabled)
        assert out["equal"] == out["cases"] > 0, (disabled, out)
