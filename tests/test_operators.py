"""Matrix nets: adjoints, operator norms, and structural classification."""

import importlib.util
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded

from _oracles import band_eig_bounds, bands_to_dense
from gennet import operators
from gennet import (
    BasicFunctional,
    BasicOperator,
    DimMismatch,
    EpsGrid,
    GenScalar,
    GenVector,
    GeneratorSet,
    GridMismatch,
    NumericPolicy,
    SingularSample,
    TridiagonalOperator,
    adjoint,
    apply,
    classify_operator,
    defect_threshold,
    inner,
    interleaved_gram_schmidt,
    is_negligible,
    op_norm_net,
    project_submodule,
    riesz_representer,
    rnorm,
    submodule_projection_operator,
)

GRID = EpsGrid.geometric(24)
POLICY = NumericPolicy()

ADJOINT_TOL = 1e-12   # relative, for identities computed in floats
PROJECTOR_TOL = 1e-10
N_PAIRS = 50


def _rotation_net(theta):
    """Constant-angle rotation unless theta is an array over k."""
    theta = np.broadcast_to(theta, (GRID.K,))
    c, s = np.cos(theta), np.sin(theta)
    mats = np.zeros((GRID.K, 2, 2))
    mats[:, 0, 0] = c
    mats[:, 0, 1] = -s
    mats[:, 1, 0] = s
    mats[:, 1, 1] = c
    return BasicOperator(GRID, mats)


def _random_operator(rng, d_out, d_in, scale_exp=0.0, complex_=False):
    base = rng.standard_normal((GRID.K, d_out, d_in))
    if complex_:
        base = base + 1j * rng.standard_normal((GRID.K, d_out, d_in))
    base = GRID.values[:, None, None] ** scale_exp * base
    return BasicOperator(GRID, base)


def _random_vector(rng, d, complex_=False):
    base = rng.standard_normal((GRID.K, d))
    if complex_:
        base = base + 1j * rng.standard_normal((GRID.K, d))
    return GenVector(GRID, base)


# ---------------------------------------------------------------- flags

def test_identity_has_every_flag():
    flags = classify_operator(BasicOperator.identity(GRID, 3), POLICY)
    assert flags == {"isometric": True, "unitary": True,
                     "self_adjoint": True, "projection": True}


def test_rotation_is_unitary_but_not_self_adjoint():
    flags = classify_operator(_rotation_net(0.7), POLICY)
    assert flags["isometric"] and flags["unitary"]
    assert not flags["self_adjoint"] and not flags["projection"]


def test_varying_rotation_with_rounding_noise_stays_unitary():
    # classification must survive float noise well above eps_k**q_neg
    rng = np.random.default_rng(7)
    thetas = rng.uniform(0.0, 2 * np.pi, GRID.K)
    mats = _rotation_net(thetas).samples + 1e-14 * rng.standard_normal((GRID.K, 2, 2))
    flags = classify_operator(BasicOperator(GRID, mats), POLICY)
    assert flags["unitary"]


def test_idempotent_diagonal_is_projection():
    e_s = (np.arange(GRID.K) % 2 == 0).astype(float)  # support hits the tail
    mats = np.zeros((GRID.K, 2, 2))
    mats[:, 0, 0] = e_s
    mats[:, 1, 1] = 1.0
    flags = classify_operator(BasicOperator(GRID, mats), POLICY)
    assert flags["self_adjoint"] and flags["projection"]
    assert not flags["isometric"] and not flags["unitary"]


def test_scaled_identity_is_self_adjoint_only():
    flags = classify_operator(BasicOperator.constant(2.0 * np.eye(2), GRID), POLICY)
    assert flags == {"isometric": False, "unitary": False,
                     "self_adjoint": True, "projection": False}


def test_rectangular_isometry_flags():
    theta = 0.3
    c, s = np.cos(theta), np.sin(theta)
    full = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    tall = BasicOperator.constant(full[:, :2], GRID)  # orthonormal columns
    flags = classify_operator(tall, POLICY)
    assert flags == {"isometric": True, "unitary": False,
                     "self_adjoint": False, "projection": False}
    wide = BasicOperator.constant(np.ones((2, 3)), GRID)
    assert not any(classify_operator(wide, POLICY).values())


# ------------------------------------------------------- adjoint algebra

@pytest.mark.parametrize("complex_", [False, True])
def test_adjoint_moves_across_inner_product(complex_):
    rng = np.random.default_rng(211)
    for _ in range(N_PAIRS):
        T = _random_operator(rng, 4, 3, complex_=complex_)
        u = _random_vector(rng, 3, complex_=complex_)
        v = _random_vector(rng, 4, complex_=complex_)
        lhs = inner(apply(T, u), v).samples
        rhs = inner(u, apply(adjoint(T), v)).samples
        scale = op_norm_net(T).samples * rnorm(u).samples * rnorm(v).samples
        assert np.all(np.abs(lhs - rhs) <= ADJOINT_TOL * (1.0 + scale))


def test_product_adjoint_reverses_factors():
    rng = np.random.default_rng(223)
    for _ in range(N_PAIRS):
        S = _random_operator(rng, 3, 4, complex_=True)
        T = _random_operator(rng, 4, 2, complex_=True)
        lhs = adjoint(S.compose(T)).samples
        rhs = adjoint(T).compose(adjoint(S)).samples
        scale = 1.0 + np.max(np.abs(lhs))
        assert np.max(np.abs(lhs - rhs)) <= ADJOINT_TOL * scale


def test_adjoint_is_involutive():
    rng = np.random.default_rng(227)
    T = _random_operator(rng, 3, 5, complex_=True)
    assert np.array_equal(adjoint(adjoint(T)).samples, T.samples)


def test_kernel_is_orthogonal_to_adjoint_range():
    # u with Tu negligible must be orthogonal to every T*v
    rng = np.random.default_rng(229)
    d = 4
    w = rng.standard_normal(d)
    w /= np.linalg.norm(w)
    B = rng.standard_normal((GRID.K, d, d))
    mats = B @ (np.eye(d) - np.outer(w, w))
    T = BasicOperator(GRID, mats)
    u = GenVector(GRID, np.tile(w, (GRID.K, 1)))
    assert np.all(rnorm(apply(T, u)).samples <= 1e-12)
    Ts = adjoint(T)
    for _ in range(20):
        v = _random_vector(rng, d)
        ip = inner(u, apply(Ts, v)).samples
        scale = op_norm_net(T).samples * rnorm(v).samples
        assert np.all(np.abs(ip) <= ADJOINT_TOL * (1.0 + scale))


# ------------------------------------------------------------ norm nets

def test_op_norm_matches_gram_eigenvalue_route():
    rng = np.random.default_rng(233)
    T = _random_operator(rng, 5, 3, complex_=True)
    direct = op_norm_net(T).samples
    gram = np.conj(np.transpose(T.samples, (0, 2, 1))) @ T.samples
    largest = np.array([np.linalg.eigvalsh(g)[-1] for g in gram])
    assert np.allclose(direct, np.sqrt(largest), rtol=1e-10, atol=0.0)


def test_band_net_solves_and_bounds_like_its_dense_matrices():
    rng = np.random.default_rng(234)
    m = 9
    # indefinite samples whose scale moves along the grid
    diag = rng.uniform(-2.0, 4.0, (GRID.K, m)) * GRID.values[:, None] ** -0.5
    T = TridiagonalOperator.symmetric(GRID, diag, rng.standard_normal((GRID.K, m - 1)))
    dense = bands_to_dense(T.samples)
    eigs = np.linalg.eigvalsh(dense)
    lo, hi = band_eig_bounds(T.samples)
    scale = np.abs(eigs).max(axis=1)
    assert np.all(np.abs(lo - eigs[:, 0]) <= 1e-12 * scale)
    assert np.all(np.abs(hi - eigs[:, -1]) <= 1e-12 * scale)
    assert np.allclose(op_norm_net(BasicOperator(GRID, dense)).samples, np.maximum(-lo, hi),
                       rtol=1e-12, atol=0.0)
    b = rng.standard_normal((GRID.K, m))
    assert np.allclose(T.solve(b), np.linalg.solve(dense, b[..., None])[..., 0],
                       rtol=1e-10, atol=1e-12)
    assert T.dims == (m, m) and T.samples.shape == (GRID.K, 3, m)
    with pytest.raises(ValueError):
        TridiagonalOperator(GRID, np.zeros((GRID.K, 2, m)))
    with pytest.raises(SingularSample):
        TridiagonalOperator.symmetric(GRID, np.zeros((GRID.K, 3)),
                                      np.zeros((GRID.K, 2))).solve(np.ones((GRID.K, 3)))


def _band_net(rng, K, m, zero_couplings=0.0):
    """A (K, 3, m) symmetric band net with sign-changing diagonals whose
    scale moves across the samples; ``zero_couplings`` is the share of
    off-diagonal entries set to zero, which splits samples into blocks."""
    diag = rng.uniform(-3.0, 3.0, (K, m)) * 10.0 ** rng.uniform(-3.0, 3.0, (K, 1))
    off = rng.standard_normal((K, m - 1)) * (rng.random((K, m - 1)) >= zero_couplings)
    bands = np.zeros((K, 3, m))
    bands[:, 1] = diag
    bands[:, 0, 1:] = off
    bands[:, 2, :-1] = off
    return bands


@seed(20261018)
@settings(max_examples=150, deadline=None)
@given(K=st.integers(1, 30), m=st.integers(1, 40), draw=st.integers(0, 2**32 - 1),
       zero_couplings=st.sampled_from([0.0, 0.3]))
@example(K=1, m=1, draw=1, zero_couplings=0.0)
@example(K=1, m=25, draw=2, zero_couplings=0.0)
@example(K=24, m=1, draw=3, zero_couplings=0.0)
def test_stacked_band_solve_equals_per_sample_solve_banded(K, m, draw, zero_couplings):
    # the solve reads no grid values, so K < 8 (below EpsGrid's minimum)
    # goes through a stand-in grid that only knows K
    rng = np.random.default_rng(draw)
    T = TridiagonalOperator(SimpleNamespace(K=K), _band_net(rng, K, m, zero_couplings))
    b = rng.standard_normal((K, m)) * 10.0 ** rng.uniform(-3.0, 3.0, (K, 1))
    expected = np.stack([solve_banded((1, 1), T.samples[k], b[k], check_finite=False)
                         for k in range(K)])
    got = T.solve(b)
    assert got.shape == (K, m)
    assert got.tobytes() == expected.tobytes()


def test_a_missing_lapack_extension_is_an_import_error_naming_it(monkeypatch):
    monkeypatch.setattr(importlib.util, "find_spec", lambda name, package=None: None)
    with pytest.raises(ImportError, match=r"scipy\.linalg\._flapack"):
        operators._load_flapack.__wrapped__()  # past the cache of the loaded module


# singular 6 x 6 band samples whose first zero pivot turns up in the first
# row, in a middle row (two 2 x 2 blocks [[1, 1], [1, 1]]), and in the last row
_SINGULAR_BANDS = {
    "first_row": np.zeros((3, 6)),
    "middle_row": [[0, 1, 0, 1, 0, 0], [1, 1, 1, 1, 2, 2], [1, 0, 1, 0, 0, 0]],
    "last_row": [[0, 0, 0, 0, 0, 0], [1, 2, 3, 4, 5, 0], [0, 0, 0, 0, 0, 0]],
}


@pytest.mark.parametrize("pattern", sorted(_SINGULAR_BANDS))
@pytest.mark.parametrize("k_bad", [1, 12, GRID.K])
def test_singular_sample_names_its_grid_index(k_bad, pattern):
    rng = np.random.default_rng(240 + k_bad)
    m = 6
    bands = _band_net(rng, GRID.K, m)
    bands[:, 1] = np.abs(bands[:, 1]) + 4.0 * np.abs(bands[:, 0]).max()  # dominant: regular
    bands[k_bad - 1] = _SINGULAR_BANDS[pattern]
    if k_bad < GRID.K:  # a second singular sample further on: the first is named
        bands[GRID.K - 1] = 0.0
    b = rng.standard_normal((GRID.K, m))
    band = TridiagonalOperator(GRID, bands)
    for T in (band, BasicOperator(GRID, bands_to_dense(band.samples))):
        with pytest.raises(SingularSample) as err:
            T.solve(b)
        assert err.value.k == k_bad


def test_band_corners_are_zeroed_so_they_never_couple_samples():
    rng = np.random.default_rng(243)
    bands = _band_net(rng, GRID.K, 7)
    clean = TridiagonalOperator(GRID, bands)
    bands[:, 0, 0] = np.nan
    bands[:, 2, -1] = np.nan
    T = TridiagonalOperator(GRID, bands)
    assert np.all(T.samples[:, 0, 0] == 0.0) and np.all(T.samples[:, 2, -1] == 0.0)
    assert T.samples.tobytes() == clean.samples.tobytes()
    b = rng.standard_normal((GRID.K, 7))
    assert T.solve(b).tobytes() == clean.solve(b).tobytes()
    assert np.all(np.isfinite(T.solve(b)))
    assert T.matvec(b).tobytes() == clean.matvec(b).tobytes()


def test_op_norm_bounds_application():
    rng = np.random.default_rng(239)
    T = _random_operator(rng, 4, 4, scale_exp=-0.5)
    norms = op_norm_net(T).samples
    for _ in range(100):
        u = _random_vector(rng, 4)
        lhs = rnorm(apply(T, u)).samples
        assert np.all(lhs <= norms * rnorm(u).samples * (1.0 + 1e-12))


def test_negligible_gram_product_forces_negligible_norm():
    # T*T ~ 0 leaves no room: ||T||^2 = ||T*T|| is negligible too
    rng = np.random.default_rng(241)
    T = _random_operator(rng, 3, 3, scale_exp=6.0)
    gram = adjoint(T).compose(T)
    assert np.all(np.abs(gram.samples[-POLICY.tail:]).max(axis=(1, 2))
                  <= GRID.values[-POLICY.tail:] ** POLICY.q_neg)
    nrm = op_norm_net(T)
    assert is_negligible(nrm * nrm, POLICY)


def test_isometry_preserves_sample_norms():
    rng = np.random.default_rng(251)
    R = _rotation_net(rng.uniform(0.0, 2 * np.pi, GRID.K))
    for _ in range(100):
        u = _random_vector(rng, 2)
        lhs = rnorm(apply(R, u)).samples
        rhs = rnorm(u).samples
        assert np.all(np.abs(lhs - rhs) <= 1e-12 * (1.0 + rhs))


# ------------------------------------------------- functionals and riesz

def test_riesz_representer_reproduces_functional():
    rng = np.random.default_rng(257)
    rows = rng.standard_normal((GRID.K, 5)) + 1j * rng.standard_normal((GRID.K, 5))
    f = BasicFunctional(GRID, rows)
    c = riesz_representer(f)
    for _ in range(20):
        v = _random_vector(rng, 5, complex_=True)
        gap = np.abs(f(v).samples - inner(v, c).samples)
        scale = rnorm(v).samples * np.linalg.norm(rows, axis=1)
        assert np.all(gap <= 1e-14 * (1.0 + scale))
    # the representer norm net is the functional norm net, sample by sample
    assert np.allclose(rnorm(c).samples, np.linalg.norm(rows, axis=1),
                       rtol=0.0, atol=1e-15)


def test_functional_call_is_plain_row_action():
    rng = np.random.default_rng(263)
    rows = rng.standard_normal((GRID.K, 3))
    f = BasicFunctional(GRID, rows)
    u = _random_vector(rng, 3)
    assert np.array_equal(f(u).samples, np.sum(rows * u.samples, axis=1))


# ------------------------------------- projection flag vs submodule route

def test_projection_flag_agrees_with_gram_schmidt_projector():
    rng = np.random.default_rng(269)
    d, r = 5, 2
    Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    P = BasicOperator.constant(Q[:, :r] @ Q[:, :r].T, GRID)
    assert classify_operator(P, POLICY)["projection"]

    cols = GeneratorSet(tuple(
        GenVector(GRID, np.tile(P.samples[0, :, j], (GRID.K, 1)))
        for j in range(d)))
    basis = interleaved_gram_schmidt(cols, POLICY)
    assert len(basis) == r
    P_m = submodule_projection_operator(basis, GRID, d)
    assert np.max(np.abs(P_m.samples - P.samples)) <= PROJECTOR_TOL
    for _ in range(50):
        x = _random_vector(rng, d)
        via_op = apply(P, x).samples
        via_basis = project_submodule(basis, x).samples
        gap = np.linalg.norm(via_op - via_basis, axis=1)
        assert np.all(gap <= PROJECTOR_TOL * (1.0 + rnorm(x).samples))


# -------------------------------------------------------------- plumbing

def test_defect_threshold_floors_at_float_tolerance():
    thr = defect_threshold(GRID, POLICY, scale=1.0)
    tail_eps = GRID.values[-POLICY.tail:]
    assert thr.shape == (POLICY.tail,)
    assert np.array_equal(thr, np.maximum(tail_eps ** POLICY.q_neg,
                                          POLICY.tol_abs))
    assert np.array_equal(defect_threshold(GRID, POLICY, scale=100.0),
                          np.maximum(tail_eps ** POLICY.q_neg,
                                     100.0 * POLICY.tol_abs))


def test_shape_and_grid_guards():
    rng = np.random.default_rng(271)
    T = _random_operator(rng, 3, 2)
    with pytest.raises(DimMismatch):
        apply(T, _random_vector(rng, 3))
    with pytest.raises(DimMismatch):
        T.compose(T)
    other = BasicOperator.identity(EpsGrid.geometric(12), 2)
    with pytest.raises(GridMismatch):
        T.compose(other)
    with pytest.raises(ValueError):
        BasicOperator(GRID, np.zeros((GRID.K, 4)))
    f = BasicFunctional(GRID, np.ones((GRID.K, 2)))
    with pytest.raises(DimMismatch):
        f(_random_vector(rng, 3))
