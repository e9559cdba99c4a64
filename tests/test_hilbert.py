"""Inner products, norms, and the ultra-pseudo-norm on vector nets."""

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
    LengthMismatch,
    NumericPolicy,
    inner,
    lincomb,
    make_power_net,
    normalize,
    rnorm,
    sharp_norm,
    upn,
)

GRID = EpsGrid.geometric(24)
POLICY = NumericPolicy()

CS_SLACK = 1e-12          # Cauchy-Schwarz per-sample slack (relative)
PARALLELOGRAM_TOL = 1e-12  # relative
POLARIZATION_TOL = 1e-10   # relative, complex case
UPN_SLACK = 1e-6
N_PAIRS = 200


def _random_vector(rng, d=6, complex_=False):
    a = rng.uniform(-1.5, 1.5)
    base = rng.standard_normal((GRID.K, d))
    if complex_:
        base = base + 1j * rng.standard_normal((GRID.K, d))
        return GenVector(GRID, GRID.values[:, None] ** a * base, "complex")
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
                                     + 1j * rng.standard_normal((GRID.K, 6))), "complex")
        v = GenVector(GRID, scale * (rng.standard_normal((GRID.K, 6))
                                     + 1j * rng.standard_normal((GRID.K, 6))), "complex")
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
    lam = GenScalar(GRID, GRID.values * (0.5 + 0.25j), "complex")
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


def test_normalize_reassembles_original():
    rng = np.random.default_rng(131)
    u = _random_vector(rng)
    v = normalize(u)
    back = v * rnorm(u)
    assert np.allclose(back.samples, u.samples, atol=1e-13)
    norms = np.linalg.norm(v.samples, axis=1)
    assert np.allclose(norms, 1.0, atol=1e-12)


def test_normalize_zero_samples_stay_zero():
    samples = np.zeros((GRID.K, 2))
    samples[::2, 0] = GRID.values[::2]
    u = GenVector(GRID, samples)
    v = normalize(u)
    assert np.all(v.samples[1::2] == 0.0)
    assert np.allclose(np.linalg.norm(v.samples[::2], axis=1), 1.0)


def test_lincomb_matches_manual_sum():
    e1 = GenVector.constant(np.array([1.0, 0.0]), GRID)
    e2 = GenVector.constant(np.array([0.0, 1.0]), GRID)
    eps = make_power_net(1.0, 1.0, GRID)
    out = lincomb([eps, GenScalar.constant(1.0, GRID)], [e1, e2])
    assert np.allclose(out.samples[:, 0], GRID.values)
    assert np.allclose(out.samples[:, 1], 1.0)


def test_lincomb_length_mismatch():
    e1 = GenVector.constant(np.array([1.0, 0.0]), GRID)
    with pytest.raises(LengthMismatch):
        lincomb([1.0, 2.0], [e1])
    with pytest.raises(LengthMismatch):
        lincomb([], [])


def test_dimension_and_grid_guards():
    u = GenVector.constant(np.array([1.0, 0.0]), GRID)
    w3 = GenVector.constant(np.array([1.0, 0.0, 0.0]), GRID)
    with pytest.raises(DimMismatch):
        inner(u, w3)
    other = GenVector.constant(np.array([1.0, 0.0]), EpsGrid.geometric(16))
    with pytest.raises(GridMismatch):
        inner(u, other)


def test_norm_csv_roundtrip(tmp_path):
    u = GenVector.constant(np.array([3.0, 4.0]), GRID)
    path = tmp_path / "norms.csv"
    u.write_norm_csv(path)
    assert b"\r" not in path.read_bytes()
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "k,eps,norm"
    assert len(lines) == GRID.K + 1
    assert lines[1].split(",")[2] == "5.0"


def test_json_roundtrip_real_and_complex():
    rng = np.random.default_rng(137)
    for complex_ in (False, True):
        u = _random_vector(rng, d=3, complex_=complex_)
        v = GenVector.from_json(u.to_json(), GRID)
        assert v.field_tag == u.field_tag
        assert np.allclose(v.samples, u.samples)
