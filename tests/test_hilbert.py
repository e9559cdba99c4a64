"""Inner products, norms, and the ultra-pseudo-norm on vector nets."""

import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from gennet import (
    DimMismatch,
    EpsGrid,
    GenScalar,
    GenVector,
    GridMismatch,
    NumericPolicy,
    inner,
    make_power_net,
    rnorm,
    sharp_norm,
)
from gennet.gennum import _norms

GRID = EpsGrid.geometric(24)
POLICY = NumericPolicy()

CS_SLACK = 1e-12          # Cauchy-Schwarz per-sample slack (relative)
PARALLELOGRAM_TOL = 1e-12  # relative
POLARIZATION_TOL = 1e-10   # relative, complex case
UPN_SLACK = 1e-6
N_PAIRS = 200


def upn(u, policy):
    """The ultra-pseudo-norm: the sharp norm of the R~-norm net."""
    return sharp_norm(rnorm(u), policy)


def _random_vector(rng, d=6, complex_=False):
    a = rng.uniform(-1.5, 1.5)
    base = rng.standard_normal((GRID.K, d))
    if complex_:
        base = base + 1j * rng.standard_normal((GRID.K, d))
    return GenVector(GRID, GRID.values[:, None] ** a * base)


def test_cauchy_schwarz_per_sample():
    rng = np.random.default_rng(101)
    for _ in range(N_PAIRS):
        u, v = _random_vector(rng), _random_vector(rng)
        lhs = np.abs(inner(u, v).samples)
        bound = rnorm(u).samples * rnorm(v).samples
        assert np.all(lhs <= bound * (1.0 + CS_SLACK))


def test_triangle_inequality_per_sample():
    rng = np.random.default_rng(103)
    for _ in range(N_PAIRS):
        u, v = _random_vector(rng), _random_vector(rng)
        lhs = rnorm(u + v).samples
        rhs = rnorm(u).samples + rnorm(v).samples
        assert np.all(lhs <= rhs * (1.0 + CS_SLACK))


def test_parallelogram_law():
    rng = np.random.default_rng(107)
    for _ in range(N_PAIRS):
        u, v = _random_vector(rng), _random_vector(rng)
        lhs = rnorm(u + v).samples ** 2 + rnorm(u - v).samples ** 2
        rhs = 2.0 * rnorm(u).samples ** 2 + 2.0 * rnorm(v).samples ** 2
        assert np.all(np.abs(lhs - rhs) <= PARALLELOGRAM_TOL * (1.0 + np.abs(rhs)))


def test_polarization_recovers_inner_product():
    # complex case: 4<u,v> = sum_p i^p ||u + i^p v||^2.  The pair shares
    # one scale exponent: the reconstruction subtracts squared norms, so
    # its float error lives on the ||u|| ||v|| scale and mixing exponents
    # would drown a genuinely tiny cross term in rounding noise.
    rng = np.random.default_rng(109)
    for _ in range(N_PAIRS):
        a = rng.uniform(-1.5, 1.5)
        scale = GRID.values[:, None] ** a
        u = GenVector(GRID, scale * (rng.standard_normal((GRID.K, 6))
                                     + 1j * rng.standard_normal((GRID.K, 6))))
        v = GenVector(GRID, scale * (rng.standard_normal((GRID.K, 6))
                                     + 1j * rng.standard_normal((GRID.K, 6))))
        acc = np.zeros(GRID.K, dtype=complex)
        for p in range(4):
            w = u + v * (1j**p)
            acc += (1j**p) * rnorm(w).samples ** 2
        got = acc / 4.0
        want = inner(u, v).samples
        pair_scale = rnorm(u).samples * rnorm(v).samples
        assert np.all(np.abs(got - want) <= POLARIZATION_TOL * (1.0 + pair_scale))


def test_inner_conjugate_symmetry_and_linearity():
    rng = np.random.default_rng(113)
    u = _random_vector(rng, complex_=True)
    v = _random_vector(rng, complex_=True)
    w = _random_vector(rng, complex_=True)
    assert np.allclose(inner(u, v).samples, np.conj(inner(v, u).samples))
    lam = GenScalar(GRID, GRID.values * (0.5 + 0.25j))
    left = inner(u * lam + w, v).samples
    right = lam.samples * inner(u, v).samples + inner(w, v).samples
    assert np.allclose(left, right)


@seed(321)
@settings(max_examples=25, deadline=None)
@given(a=st.floats(min_value=-2.0, max_value=2.0),
       b=st.floats(min_value=-2.0, max_value=2.0))
def test_upn_submultiplicative_under_module_action(a, b):
    u = GenVector(GRID, GRID.values[:, None] ** a * np.ones((GRID.K, 3)))
    lam = make_power_net(1.0, b, GRID)
    assert upn(u * lam, POLICY) <= sharp_norm(lam, POLICY) * upn(u, POLICY) + UPN_SLACK


def test_upn_strong_triangle():
    # ultrametric bound P(u+v) <= max(P(u), P(v)) on cancellation-free
    # pairs (shared direction): log(eps^a + eps^b) has local slope inside
    # [min(a,b), max(a,b)], so the fitted valuation cannot undershoot the
    # minimum.  Pairs with partial cancellation shift the fit by the
    # cross-term decay and only satisfy the bound asymptotically.
    rng = np.random.default_rng(127)
    for _ in range(50):
        a, b = rng.uniform(-2.0, 2.0, 2)
        direction = rng.standard_normal(4)
        u = GenVector(GRID, GRID.values[:, None] ** a * direction[None, :])
        v = GenVector(GRID, GRID.values[:, None] ** b * direction[None, :])
        assert upn(u + v, POLICY) <= max(upn(u, POLICY), upn(v, POLICY)) * (1 + 1e-9) + UPN_SLACK


def test_rnorm_of_finite_samples_whose_squares_overflow_is_finite():
    # 1e200**2 overflows; runs under the suite's error::RuntimeWarning filter
    u = GenVector.constant(np.array([1e200, -1e200]), GRID)
    assert np.array_equal(rnorm(u).samples, np.full(GRID.K, np.sqrt(2.0) * 1e200))


@pytest.mark.parametrize("scale", [1e-160, 1e-200, 1e-310, 5e-322],
                         ids=["1e-160", "1e-200", "subnormal", "subnormal-few-bits"])
def test_norms_of_samples_whose_squares_underflow_match_hypot(scale):
    # below sqrt(tiny / eps_mach), about 1e-146, squares lose bits to underflow
    # or vanish: such a sample is divided by its largest |entry| first, and its
    # norm is hypot's to rounding, a few ulps or one step of the subnormals
    rows = np.array([[3.0, 4.0], [-1.0, 0.0], [0.0, 2.0], [1.0, 1.0]]) * scale
    want = np.tile([math.hypot(*row) for row in rows], GRID.K // len(rows))
    u = GenVector(GRID, np.tile(rows, (GRID.K // len(rows), 1)))
    for got in (_norms(u.samples), rnorm(u).samples):
        np.testing.assert_allclose(got, want, rtol=4 * np.finfo(float).eps, atol=5e-324)
    assert _norms(np.zeros((3, 2))).tolist() == [0.0] * 3
    assert _norms(np.array([[0.0, -0.0], [0.0, 0.0j]])).tolist() == [0.0] * 2


def test_dimension_and_grid_guards():
    u = GenVector.constant(np.array([1.0, 0.0]), GRID)
    w3 = GenVector.constant(np.array([1.0, 0.0, 0.0]), GRID)
    with pytest.raises(DimMismatch):
        inner(u, w3)
    other = GenVector.constant(np.array([1.0, 0.0]), EpsGrid.geometric(16))
    with pytest.raises(GridMismatch):
        inner(u, other)
