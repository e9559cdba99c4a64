"""Scalar net arithmetic, valuation, order tests, idempotents, infima."""

import itertools
import math
import operator
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from _oracles import net_verdicts_per_net
from gennet import (
    BasicFunctional,
    BasicOperator,
    CloseInfimumResult,
    EmptyTailIntersection,
    EpsGrid,
    GenScalar,
    GenVector,
    GridMismatch,
    IndexSet,
    NotNonnegative,
    NumericPolicy,
    OrthoBasis,
    adjoint,
    apply,
    close_infimum_check,
    eq,
    format_cells,
    ge,
    ge_zero,
    idempotent,
    idempotent_normalize,
    inner,
    invertible_wrt,
    is_moderate,
    is_negligible,
    le,
    lincomb,
    make_power_net,
    net_verdicts,
    normalize,
    project_submodule,
    riesz_representer,
    sharp_norm,
    sqrt_nonneg,
    valuation_estimate,
    write_grid_csv,
    zero_divisor_split,
    zero_wrt,
)

GRID = EpsGrid.geometric(24)
POLICY = NumericPolicy()

VALUATION_TOL = 1e-9
POWER_IDENTITY_TOL = 1e-6  # |r^2|_e = |r|_e^2 and the square-root twin
N_RANDOM_NETS = 100


def _random_moderate_net(rng):
    """c * eps**a with mild multiplicative noise; moderate by construction."""
    c = rng.uniform(0.5, 2.0)
    a = rng.uniform(-3.0, 3.0)
    noise = np.exp(rng.uniform(-0.05, 0.05, GRID.K))
    return GenScalar(GRID, c * GRID.values**a * noise)


# ---------------------------------------------------------------------------
# valuation / sharp norm
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("a", [-3.0, 0.0, 1.0, 2.5])
def test_valuation_exact_on_power_nets(a):
    net = make_power_net(1.0, a, GRID)
    assert valuation_estimate(net, POLICY) == pytest.approx(a, abs=VALUATION_TOL)
    assert sharp_norm(net, POLICY) == pytest.approx(math.exp(-a), abs=VALUATION_TOL)


def test_valuation_ignores_prefactor():
    for c in (0.3, 7.0, -2.0):
        net = make_power_net(c, 1.5, GRID)
        assert valuation_estimate(net, POLICY) == pytest.approx(1.5, abs=VALUATION_TOL)


def test_valuation_of_zero_net_is_infinite():
    zero = GenScalar.constant(0.0, GRID)
    assert math.isinf(valuation_estimate(zero, POLICY))
    assert sharp_norm(zero, POLICY) == 0.0


def test_valuation_skips_exact_zeros():
    samples = GRID.values.copy()
    samples[::2] = 0.0  # punch holes; the slope on the survivors is still 1
    net = GenScalar(GRID, samples)
    assert valuation_estimate(net, POLICY) == pytest.approx(1.0, abs=VALUATION_TOL)


@seed(20240913)
@settings(max_examples=30, deadline=None)
@given(
    c=st.floats(min_value=0.1, max_value=10.0),
    a=st.floats(min_value=-5.0, max_value=5.0),
)
def test_valuation_power_net_property(c, a):
    net = make_power_net(c, a, GRID)
    assert abs(valuation_estimate(net, POLICY) - a) < 1e-8


@seed(20261020)
@settings(max_examples=200, deadline=None)
@given(
    c=st.floats(min_value=1e-3, max_value=1e3),
    a=st.floats(min_value=-20.0, max_value=20.0),
    noise=st.lists(st.floats(min_value=-30.0, max_value=30.0),
                   min_size=GRID.K, max_size=GRID.K),
    zeros=st.lists(st.booleans(), min_size=POLICY.tail, max_size=POLICY.tail),
)
def test_closed_form_slope_matches_polyfit(c, a, noise, zeros):
    # relative to max(1, |slope|): on constant-scale nets polyfit leaves a
    # ~1e-17 residue where the closed form gives 0, so no relative bound holds
    samples = c * GRID.values**a * np.exp(np.asarray(noise))
    samples[GRID.K - POLICY.tail:][np.asarray(zeros)] = 0.0
    tail = slice(GRID.K - POLICY.tail, GRID.K)
    keep = samples[tail] != 0.0
    if np.count_nonzero(keep) < 2:
        return
    fitted = np.polyfit(np.log(GRID.values[tail][keep]), np.log(samples[tail][keep]), 1)[0]
    slope = valuation_estimate(GenScalar(GRID, samples), POLICY)
    assert abs(slope - fitted) <= 1e-12 * max(1.0, abs(fitted))


# ---------------------------------------------------------------------------
# the stacked verdict pass against per-net oracles
# ---------------------------------------------------------------------------

_NET_KINDS = ["power", "negative", "complex", "zeros_in_tail", "one_in_tail", "zero_tail",
              "negligible", "huge"]


def _net(rng, kind, grid, tail):
    """One net of ``kind``: c eps^a with noise, signs, phases or tail zeros."""
    K = grid.K
    a = {"negligible": 12.0, "huge": -25.0}.get(kind, rng.uniform(-5.0, 5.0))
    s = rng.uniform(0.1, 10.0) * grid.values ** a * np.exp(rng.uniform(-1.0, 1.0, K))
    if kind == "negative":
        s = s * rng.choice([-1.0, 1.0], K)
    elif kind == "complex":
        s = s * np.exp(2j * np.pi * rng.random(K))
    elif kind == "zeros_in_tail":
        s[K - tail:][rng.random(tail) < 0.5] = 0.0
    elif kind == "one_in_tail":
        one = s[K - tail + rng.integers(tail)]
        s[K - tail:] = 0.0
        s[K - tail + rng.integers(tail)] = one
    elif kind == "zero_tail":
        s[K - tail:] = 0.0
    return s


def _assert_matches_per_net(samples, grid, policy):
    got = net_verdicts(samples, grid, policy)
    for j, row in enumerate(samples):
        nu, sharp, negligible, moderate = net_verdicts_per_net(row, grid.values, policy)
        if math.isinf(nu):
            assert got.valuation[j] == nu and got.sharp_norm[j] == 0.0
        else:  # a few ulp of the logs' size: the sums run in another order
            assert abs(got.valuation[j] - nu) <= 1e-13 * max(1.0, abs(nu))
            assert abs(got.sharp_norm[j] - sharp) <= 1e-12 * sharp
        assert (got.negligible[j], got.moderate[j]) == (negligible, moderate)


@seed(20261022)
@settings(max_examples=150, deadline=None)
@given(data=st.integers(0, 2**32 - 1), K=st.sampled_from([8, 12, 24]),
       kinds=st.lists(st.sampled_from(_NET_KINDS), min_size=1, max_size=6),
       tail_frac=st.floats(0.0, 1.0))
def test_stacked_verdicts_match_the_per_net_oracle(data, K, kinds, tail_frac):
    rng = np.random.default_rng(data)
    grid = EpsGrid.geometric(K)
    tail = 1 + round(tail_frac * (K - 1))  # 1 .. K
    samples = np.array([_net(rng, kind, grid, tail) for kind in kinds])
    _assert_matches_per_net(samples, grid, NumericPolicy(tail=tail))


def test_stacked_verdicts_keep_every_per_net_rule():
    # K = 8 with tail == K: an all-zero tail, one nonzero tail sample,
    # zeros inside the tail, a negative and a complex net in one stack
    grid = EpsGrid.geometric(8)
    policy = NumericPolicy(tail=8)
    power = 3.0 * grid.values ** 1.5
    one = np.zeros(8)
    one[5] = grid.values[5] ** 2.0
    holes = power.copy()
    holes[::3] = 0.0
    samples = np.array([np.zeros(8), one, holes, -power, power * np.exp(1j * np.arange(8))])
    got = net_verdicts(samples, grid, policy)
    assert got.valuation[0] == math.inf and got.sharp_norm[0] == 0.0
    assert got.valuation[1] == 2.0  # log|a| / log eps at the one sample
    assert np.allclose(got.valuation[2:], 1.5, rtol=0.0, atol=1e-13)
    assert got.negligible.tolist() == [True, False, False, False, False]
    _assert_matches_per_net(samples, grid, policy)
    for j, row in enumerate(samples):  # the one-net functions read the same pass
        net = GenScalar(grid, row)
        assert valuation_estimate(net, policy) == got.valuation[j]
        assert sharp_norm(net, policy) == got.sharp_norm[j]
        assert is_negligible(net, policy) == got.negligible[j]
        assert is_moderate(net, policy) == got.moderate[j]


def test_square_and_sqrt_sharp_norm_identities():
    rng = np.random.default_rng(7)
    for _ in range(N_RANDOM_NETS):
        r = _random_moderate_net(rng).abs()
        nr = sharp_norm(r, POLICY)
        nsq = sharp_norm(r * r, POLICY)
        assert abs(nsq - nr**2) <= POWER_IDENTITY_TOL * (1.0 + nr**2)
        nroot = sharp_norm(sqrt_nonneg(r, POLICY), POLICY)
        assert abs(nroot - math.sqrt(nr)) <= POWER_IDENTITY_TOL * (1.0 + math.sqrt(nr))


# ---------------------------------------------------------------------------
# membership predicates
# ---------------------------------------------------------------------------

def test_negligible_moderate_examples():
    net = make_power_net(1.0, -2.0, GRID)
    assert not is_negligible(net, POLICY)
    assert is_moderate(net, POLICY)

    # samples 2^{-k*k} = eps_k^k: beats eps^q_neg on the whole tail
    ks = np.arange(1, GRID.K + 1, dtype=float)
    steep = GenScalar(GRID, GRID.values**ks)
    assert is_negligible(steep, POLICY)

    huge = make_power_net(1.0, -25.0, GRID)
    assert not is_moderate(huge, POLICY)  # N_mod = 20


def test_ge_zero_boundary_is_non_strict():
    assert ge_zero(make_power_net(1.0, 3.0, GRID), POLICY)
    # -eps^q_neg >= -eps^q_neg holds on the boundary
    assert ge_zero(make_power_net(-1.0, float(POLICY.q_neg), GRID), POLICY)
    assert not ge_zero(make_power_net(-1.0, 5.0, GRID), POLICY)


def test_ge_zero_requires_real_tag():
    z = GenScalar(GRID, np.full(GRID.K, 1.0 + 0.0j))  # complex, though every imaginary part is 0
    with pytest.raises(ValueError):
        ge_zero(z, POLICY)


def test_two_sided_ge_zero_forces_negligible():
    rng = np.random.default_rng(11)
    for _ in range(50):
        q = rng.integers(POLICY.q_neg, POLICY.q_neg + 5)
        a = GenScalar(GRID, rng.uniform(-1.0, 1.0, GRID.K) * GRID.values**q)
        if ge_zero(a, POLICY) and ge_zero(-a, POLICY):
            assert is_negligible(a, POLICY)


def test_square_order_implies_order():
    # a >= 0, b >= 0, b^2 >= a^2  =>  b >= a
    rng = np.random.default_rng(13)
    checked = 0
    for _ in range(200):
        a = _random_moderate_net(rng).abs()
        b = _random_moderate_net(rng).abs()
        if ge_zero(a, POLICY) and ge_zero(b, POLICY) and ge(b * b, a * a, POLICY):
            assert ge(b, a, POLICY)
            checked += 1
    assert checked > 0


def test_sqrt_rejects_genuinely_negative():
    with pytest.raises(NotNonnegative):
        sqrt_nonneg(make_power_net(-1.0, 2.0, GRID), POLICY)


def test_order_helpers_consistent():
    a = make_power_net(1.0, 2.0, GRID)
    b = make_power_net(1.0, 1.0, GRID)
    assert le(a, b, POLICY) and ge(b, a, POLICY)
    assert eq(a, a + make_power_net(1.0, float(POLICY.q_neg + 2), GRID), POLICY)


def test_geometric_grid_size_is_checked_against_its_bound():
    from gennet.gennum import max_geometric_K

    # 0.5**1074 is the least subnormal; 0.5**1075 rounds to 0
    assert max_geometric_K(0.5) == 1074
    assert EpsGrid.geometric(1074).values[-1] == 5e-324
    for K in (4, 2000):
        with pytest.raises(ValueError, match=rf"K must lie in \[8, 1074\] for base 0.5, got {K}$"):
            EpsGrid.geometric(K)
    # elsewhere the bound is where EpsGrid's own checks start to refuse:
    # rounded subnormal powers stop decreasing before they reach 0
    for base in (0.25, 0.7, 0.9):
        most = max_geometric_K(base)
        powers = base ** np.arange(1, most + 2)
        EpsGrid(powers[:most])
        with pytest.raises(ValueError):
            EpsGrid(powers[:most + 1])
    with pytest.raises(ValueError, match="base must be in"):
        max_geometric_K(1.0)


@pytest.mark.parametrize("base", [1 - 1e-7, 1 - 1e-9, np.nextafter(1.0, 0.0)])
def test_geometric_bound_of_a_base_near_1_computes_few_powers(base):
    from gennet.gennum import max_geometric_K

    tracemalloc.start()
    try:
        most = max_geometric_K.__wrapped__(base)  # past the cache
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20  # a window of 2**20 powers, not all of them
    # the bound lies at or above the true one: every K the grid takes is accepted
    assert most >= 10 ** 6 and EpsGrid.geometric(24, base).K == 24


def test_grid_mismatch_raises():
    other = EpsGrid.geometric(16)
    with pytest.raises(GridMismatch):
        make_power_net(1.0, 1.0, GRID) + make_power_net(1.0, 1.0, other)


def _operand(cls, complex_):
    """A net of ``cls`` on GRID, complex128 if ``complex_`` else float64."""
    shape = {GenScalar: (), GenVector: (3,), BasicOperator: (3, 3), BasicFunctional: (3,)}[cls]
    samples = np.linspace(0.5, 2.0, GRID.K * math.prod(shape)).reshape(GRID.K, *shape)
    return cls(GRID, samples * (1.0 - 2.0j) if complex_ else samples)


# per class: operation -> (the classes of its operands, the operation)
_OPERATIONS = {
    GenScalar: {
        "add": ((GenScalar, GenScalar), operator.add),
        "sub": ((GenScalar, GenScalar), operator.sub),
        "mul": ((GenScalar, GenScalar), operator.mul),
        "neg": ((GenScalar,), operator.neg),
        "conj": ((GenScalar,), GenScalar.conj),
    },
    GenVector: {
        "add": ((GenVector, GenVector), operator.add),
        "sub": ((GenVector, GenVector), operator.sub),
        "mul": ((GenVector, GenScalar), operator.mul),
        "neg": ((GenVector,), operator.neg),
        "inner": ((GenVector, GenVector), inner),
        "lincomb": ((GenScalar, GenVector, GenScalar, GenVector),
                    lambda a, u, b, v: lincomb([a, b], [u, v])),
        "normalize": ((GenVector,), normalize),
        "idempotent_normalize": ((GenVector,), lambda u: idempotent_normalize(u, POLICY)[0]),
        "project_submodule": ((GenVector,), lambda u: project_submodule(OrthoBasis((), ()), u)),
    },
    BasicOperator: {
        "sub": ((BasicOperator, BasicOperator), operator.sub),
        "compose": ((BasicOperator, BasicOperator), BasicOperator.compose),
        "adjoint": ((BasicOperator,), adjoint),
        "apply": ((BasicOperator, GenVector), apply),
    },
    BasicFunctional: {
        "call": ((BasicFunctional, GenVector), BasicFunctional.__call__),
        "riesz_representer": ((BasicFunctional,), riesz_representer),
    },
}


@pytest.mark.parametrize("cls", list(_OPERATIONS), ids=lambda cls: cls.__name__)
def test_operations_are_complex_exactly_when_an_operand_is(cls):
    for name, (classes, op) in _OPERATIONS[cls].items():
        for fields in itertools.product((False, True), repeat=len(classes)):
            net = op(*(_operand(c, complex_) for c, complex_ in zip(classes, fields)))
            dtype = np.complex128 if any(fields) else np.float64
            assert (name, net.samples.dtype, net.is_real()) == (name, dtype, not any(fields))
    z = _operand(GenScalar, True)
    assert z.abs().is_real() and z.conj().samples[0] == np.conj(z.samples[0])
    # a complex number is a complex operand, even with a zero imaginary part
    assert not (_operand(GenScalar, False) * (1.0 + 0.0j)).is_real()
    assert not GenScalar.constant(1.0 + 0.0j, GRID).is_real()


@pytest.mark.parametrize("cls,shape", [(GenScalar, ()), (GenVector, (3,)),
                                       (BasicOperator, (2, 3)), (BasicFunctional, (3,))],
                         ids=["GenScalar", "GenVector", "BasicOperator", "BasicFunctional"])
def test_net_construction_decides_tag_dtype_and_shape(cls, shape):
    # the samples' dtype is the field: complex arrays make complex128 nets,
    # zero imaginary parts included, and any other numbers float64 nets
    samples = np.arange(GRID.K * math.prod(shape), dtype=float).reshape(GRID.K, *shape)
    with pytest.raises(ValueError):
        cls(GRID, samples[..., None])
    with pytest.raises(ValueError):
        cls(GRID, samples[1:])
    assert cls(GRID, samples + 0j).samples.dtype == np.complex128
    assert cls(GRID, samples.astype(int)).samples.dtype == np.float64
    assert cls(GRID, samples.astype(np.complex64)).samples.dtype == np.complex128
    for arr in (samples, samples + 1j):
        net = cls(GRID, arr)
        assert net.samples.dtype == arr.dtype and net.is_real() == (arr.dtype == np.float64)
        assert not net.samples.flags.writeable
        assert not np.shares_memory(net.samples, arr)
        np.testing.assert_array_equal(net.samples, arr)


# ---------------------------------------------------------------------------
# idempotents / invertibility / splits
# ---------------------------------------------------------------------------

def test_idempotent_algebra_is_exact():
    S = IndexSet(frozenset(range(2, GRID.K + 1, 2)), GRID.K)
    e = idempotent(S, GRID)
    ec = idempotent(S.complement(), GRID)
    assert np.array_equal((e * e).samples, e.samples)
    assert np.array_equal((e + ec).samples, np.ones(GRID.K))
    assert ge_zero(e, POLICY)
    assert np.array_equal(idempotent(IndexSet.empty(GRID), GRID).samples,
                          np.zeros(GRID.K))


def test_invertible_and_zero_wrt():
    full = IndexSet.full(GRID)
    inv = invertible_wrt(make_power_net(1.0, 2.0, GRID), full, POLICY)
    assert inv.holds and inv.witness == 2
    assert not zero_wrt(make_power_net(1.0, 2.0, GRID), full, POLICY)

    S = IndexSet(frozenset(range(1, GRID.K + 1, 2)), GRID.K)
    e = idempotent(S, GRID)
    assert invertible_wrt(e, S, POLICY).holds
    assert zero_wrt(e, S.complement(), POLICY)


def test_invertibility_witness_on_block_net():
    # beta = eps^m on block S_m; each block certifies its own exponent
    ks = np.arange(1, GRID.K + 1)
    beta = np.where(ks <= 12, GRID.values**1, GRID.values**3)
    net = GenScalar(GRID, beta)
    S3 = IndexSet(frozenset(range(13, GRID.K + 1)), GRID.K)
    inv = invertible_wrt(net, S3, POLICY)
    assert inv.holds and inv.witness == 3


def test_empty_tail_intersection_raises():
    head_only = IndexSet(frozenset({1, 2, 3}), GRID.K)
    with pytest.raises(EmptyTailIntersection):
        invertible_wrt(make_power_net(1.0, 1.0, GRID), head_only, POLICY)
    with pytest.raises(EmptyTailIntersection):
        zero_wrt(make_power_net(1.0, 1.0, GRID), head_only, POLICY)


def test_zero_divisor_split_disjoint_idempotents():
    T = IndexSet(frozenset(range(1, GRID.K + 1, 2)), GRID.K)
    x = idempotent(T, GRID)
    y = idempotent(T.complement(), GRID)
    S = zero_divisor_split(x, y, POLICY)
    assert zero_wrt(x, S, POLICY)
    assert zero_wrt(y, S.complement(), POLICY)


def test_zero_divisor_split_zero_factor():
    S = zero_divisor_split(GenScalar.constant(0.0, GRID),
                           make_power_net(1.0, 1.0, GRID), POLICY)
    assert len(S) == GRID.K  # the zero side absorbs every index


def test_zero_divisor_split_alternating_ties():
    ks = np.arange(GRID.K)
    x = GenScalar(GRID, np.where(ks % 2 == 1, GRID.values, 0.0))
    y = GenScalar(GRID, np.where(ks % 2 == 0, GRID.values, 0.0))
    S = zero_divisor_split(x, y, POLICY)
    # x lives on even positions (odd 1-based k is x-zero), ties go to x-small
    assert zero_wrt(x, S, POLICY) and zero_wrt(y, S.complement(), POLICY)


def test_zero_wrt_and_the_split_agree_where_the_thresholds_underflow():
    # q_neg = 50 on K = 24: eps_k**q_neg is 0 from k = 22 on, where
    # |0| <= 0 holds for zero_wrt and the split alike
    policy = NumericPolicy(q_neg=50)
    ks = np.arange(GRID.K)
    x = GenScalar(GRID, (ks % 2).astype(float))
    y = GenScalar(GRID, 1.0 - (ks % 2))
    S = zero_divisor_split(x, y, policy)
    assert S == IndexSet.from_mask(ks % 2 == 0)
    assert zero_wrt(x, S, policy) and zero_wrt(y, S.complement(), policy)
    # a tie at k = 22 puts x_22 = 2**-600 > 0 = eps_22**q_neg on S: the
    # split fails, and its excess there is inf, never NaN
    from gennet import SplitFailed

    tied = np.where(ks == 21, 2.0 ** -600, x.samples)
    with pytest.raises(SplitFailed) as err:
        zero_divisor_split(GenScalar(GRID, tied),
                           GenScalar(GRID, np.where(ks == 21, tied, y.samples)), policy)
    assert (err.value.residual_x, err.value.residual_y) == (math.inf, 0.0)


def test_zero_divisor_split_rejects_nonzero_product():
    from gennet import NotZeroProduct

    one = GenScalar.constant(1.0, GRID)
    with pytest.raises(NotZeroProduct):
        zero_divisor_split(one, one, POLICY)


# ---------------------------------------------------------------------------
# close infimum
# ---------------------------------------------------------------------------

def test_close_infimum_of_power_family():
    zero = GenScalar.constant(0.0, GRID)
    A = [make_power_net(1.0, float(m), GRID) for m in range(1, POLICY.q_neg + 1)]
    res = close_infimum_check(zero, A, POLICY)
    assert isinstance(res, CloseInfimumResult)
    assert res.lower_bound and res.close
    assert set(res.witnesses) == set(range(1, POLICY.q_neg + 1))


def test_infimum_zero_not_close_for_interleaved_idempotents():
    # A = {e_T + eps^m e_cT} u {e_cT + eps^m e_T}: every element has unit
    # sharp norm on one alternating block, so nothing approaches 0 to
    # higher order even though 0 bounds the family from below.
    zero = GenScalar.constant(0.0, GRID)
    T = IndexSet(frozenset(range(1, GRID.K + 1, 2)), GRID.K)
    eT, ecT = idempotent(T, GRID), idempotent(T.complement(), GRID)
    A = []
    for m in range(1, 6):
        p = make_power_net(1.0, float(m), GRID)
        A.append(eT + p * ecT)
        A.append(ecT + p * eT)
    res = close_infimum_check(zero, A, POLICY)
    assert res.lower_bound
    assert not res.close


def test_constant_gap_is_not_close():
    one = GenScalar.constant(1.0, GRID)
    res = close_infimum_check(one, [GenScalar.constant(2.0, GRID)], POLICY)
    assert res.lower_bound and not res.close


# ---------------------------------------------------------------------------
# per-eps tables
# ---------------------------------------------------------------------------

def test_grid_csv_format(tmp_path):
    grid = EpsGrid.geometric(8)
    floats = np.array([0.1, -2.5, 1e-20, 3.0, 1.0 / 3.0, 2.0 ** -30, 1e300, -0.0])
    ints = np.arange(8, dtype=np.int64) * 10 - 20
    path = tmp_path / "table.csv"
    write_grid_csv(path, grid, ["x", "n"], [floats, ints])
    assert path.read_bytes() == (
        b"k,eps,x,n\n"
        b"1,0.5,0.1,-20\n"
        b"2,0.25,-2.5,-10\n"
        b"3,0.125,1e-20,0\n"
        b"4,0.0625,3.0,10\n"
        b"5,0.03125,0.3333333333333333,20\n"
        b"6,0.015625,9.313225746154785e-10,30\n"
        b"7,0.0078125,1e+300,40\n"
        b"8,0.00390625,-0.0,50\n"
    )
    write_grid_csv(path, grid, [], [])
    assert path.read_bytes() == (
        b"k,eps\n1,0.5\n2,0.25\n3,0.125\n4,0.0625\n"
        b"5,0.03125\n6,0.015625\n7,0.0078125\n8,0.00390625\n"
    )
    with pytest.raises(ValueError):
        write_grid_csv(path, grid, ["x"], [floats[:7]])


def test_grid_csv_refuses_complex_and_object_columns(tmp_path):
    grid = EpsGrid.geometric(8)
    floats = np.linspace(0.0, 1.0, 8)
    path = tmp_path / "table.csv"
    with pytest.raises(ValueError, match="column 'z'.*complex"):
        write_grid_csv(path, grid, ["x", "z"], [floats, floats + 1j])
    with pytest.raises(ValueError, match="column 'o'.*object"):
        write_grid_csv(path, grid, ["o"], [floats.astype(object)])
    assert not path.exists()


def _grid_rows(grid, columns):
    """The rows of a grid table, each cell the repr of the Python number."""
    return "".join(f"{k},{','.join(repr(v) for v in row)}\n" for k, row in enumerate(
        zip(grid.values.tolist(), *(np.asarray(col).tolist() for col in columns)), 1))


def test_grid_csv_takes_an_array_as_its_columns(tmp_path):
    # a (c, K) array writes the bytes of the list of its c columns
    grid = EpsGrid.geometric(8)
    rng = np.random.default_rng(5)
    floats = rng.standard_normal((5, 8)) * 10.0 ** rng.integers(-30, 30, (5, 8))
    floats[1, 2], floats[3, 4] = np.inf, np.nan
    ints = rng.integers(-10**15, 10**15, (3, 8))
    path, listed = tmp_path / "array.csv", tmp_path / "list.csv"
    for arr in (floats, ints, floats.T.copy().T, rng.standard_normal((4, 16))[:, ::2],
                floats.astype(np.float32)):
        names = [f"c{j}" for j in range(len(arr))]
        write_grid_csv(path, grid, names, arr)
        write_grid_csv(listed, grid, names, list(arr))
        assert path.read_bytes() == listed.read_bytes()
        assert path.read_text() == f"k,eps,{','.join(names)}\n" + _grid_rows(grid, arr)
    write_grid_csv(path, grid, [], np.empty((0, 8)))
    write_grid_csv(listed, grid, [], [])
    assert path.read_bytes() == listed.read_bytes() == (
        f"k,eps\n{_grid_rows(grid, [])}".encode())


def test_grid_csv_interleaves_integer_and_float_columns(tmp_path):
    grid = EpsGrid.geometric(8)
    rng = np.random.default_rng(6)
    columns = [rng.integers(-99, 99, 8), rng.standard_normal(8) * 1e-7,
               np.arange(8, dtype=np.uint8), rng.standard_normal(8),
               rng.integers(0, 2**40, 8), rng.standard_normal(8).astype(np.float32)]
    path = tmp_path / "mixed.csv"
    write_grid_csv(path, grid, list("abcdef"), columns)
    assert path.read_text() == "k,eps,a,b,c,d,e,f\n" + _grid_rows(grid, columns)


def test_grid_csv_refuses_a_misshapen_or_unprintable_array(tmp_path):
    grid = EpsGrid.geometric(8)
    floats = np.linspace(0.0, 1.0, 16).reshape(2, 8)
    path = tmp_path / "table.csv"
    for names, arr in ((["x"], floats), (["x", "y"], floats[:, :7]), (["x", "y", "z"], floats)):
        with pytest.raises(ValueError, match="length-8 column per name"):
            write_grid_csv(path, grid, names, arr)
    for arr, kind in ((floats + 1j, "complex"), (floats > 0.5, "bool"),
                      (floats.astype(object), "object")):
        with pytest.raises(ValueError, match=f"column 'x'.*{kind}"):
            write_grid_csv(path, grid, ["x", "y"], arr)
    with pytest.raises(ValueError, match="column 'b'.*bool"):
        write_grid_csv(path, grid, ["a", "b"], [floats[0], floats[1] > 0.5])
    assert not path.exists()


def _repr_cells(arr):
    return [repr(v) for v in arr.tolist()]


@seed(20261021)
@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.floats(), max_size=40))
def test_format_cells_equals_repr_on_floats(values):
    arr = np.array(values, dtype=np.float64)
    assert format_cells(arr) == _repr_cells(arr)


@seed(20261022)
@settings(max_examples=100, deadline=None)
@given(values=st.lists(st.integers(min_value=-2**63, max_value=2**63 - 1), max_size=40))
def test_format_cells_equals_repr_on_int64(values):
    arr = np.array(values, dtype=np.int64)
    assert format_cells(arr) == _repr_cells(arr)


def test_format_cells_at_the_band_edges():
    # orjson's layout matches repr's on 1e-4 <= |v| < 1e16; pin both edges
    edges = []
    for edge in (1e-4, 1e16):
        below, above = np.nextafter(edge, 0.0), np.nextafter(edge, np.inf)
        edges += [np.nextafter(below, 0.0), below, edge, above, np.nextafter(above, np.inf)]
    specials = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 2.2250738585072014e-308,
                np.finfo(float).max, 1e-5, 0.1, 1e15, 123456789012345.6]
    arr = np.array(edges + specials)
    arr = np.concatenate([arr, -arr])
    assert format_cells(arr) == _repr_cells(arr)
    assert format_cells(np.zeros(0)) == []
    assert format_cells(np.array([0.1], dtype=np.float32)) == ["0.10000000149011612"]
    big = np.array([0, 2**64 - 1], dtype=np.uint64)
    assert format_cells(big) == _repr_cells(big)
    for bad in (np.array([1j]), np.array([True]), np.zeros((2, 2)), np.array([1.0], dtype=object)):
        with pytest.raises(ValueError):
            format_cells(bad)
