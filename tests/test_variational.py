"""Coercivity certificates, per-sample solves, and the VI contraction."""

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded

from _oracles import (
    banded_form,
    bands_to_dense,
    solve_box_vi,
    symmetric_bands,
    vi_contraction_masked,
)
from gennet import (
    BasicOperator,
    CoefficientNet,
    CoercivityCertificate,
    CoercivityFailure,
    ContractionBoundViolated,
    ConvexSetNet,
    DimMismatch,
    EpsGrid,
    GenScalar,
    GenVector,
    GridMismatch,
    IterationBudgetExceeded,
    Mesh1D,
    NoConvergence,
    NumericPolicy,
    ProblemSpec,
    ResidualTargetMissed,
    SingularSample,
    TridiagonalOperator,
    apply,
    certify_coercivity,
    classify_operator,
    ge_zero,
    inner,
    invertible_wrt,
    lax_milgram_solve,
    op_norm_net,
    rnorm,
    solve_obstacle,
    vi_solve_contraction,
)
from gennet.fem import _assemble_all, _pdas

GRID = EpsGrid.geometric(24)
POLICY = NumericPolicy()

ORACLE_TOL = 1e-8
CONTRACTION_SLACK = 1e-8
UNIQUENESS_TOL = 1e-8
RESIDUAL_REL = 1e-10


def _spd_operator(rng, d, lo=1.0, hi=4.0):
    """Constant symmetric net with spectrum inside [lo, hi]."""
    Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    lam = rng.uniform(lo, hi, d)
    return BasicOperator.constant(Q @ np.diag(lam) @ Q.T, GRID)


def _band_operator(rng, m):
    """Band net with diagonals in [2.5, 3.5] and off-diagonals in [-1, 1]."""
    return TridiagonalOperator(GRID, symmetric_bands(rng.uniform(2.5, 3.5, (GRID.K, m)),
                                                     rng.uniform(-1.0, 1.0, (GRID.K, m - 1))))


def _nonsym_operator(rng, d, shift=1.0):
    """Constant nonsymmetric net, coercive thanks to the shift."""
    A = 0.4 * rng.standard_normal((d, d))
    sym = 0.5 * (A + A.T)
    lam_min = np.linalg.eigvalsh(sym)[0]
    return BasicOperator.constant(A + (shift - lam_min) * np.eye(d), GRID)


def _random_vector(rng, d):
    return GenVector(GRID, rng.standard_normal((GRID.K, d)))


# ---------------------------------------------------------- certificates

def test_certificate_shifted_rotation():
    T = BasicOperator.constant(np.array([[2.0, 1.0], [-1.0, 2.0]]), GRID)
    cert = certify_coercivity(T, POLICY)
    assert cert.valid
    assert cert.witness_exponent == 1
    assert np.allclose(cert.alpha.samples, 2.0, atol=1e-12)


def test_certificate_handles_decaying_alpha():
    # alpha_k = eps_k is still invertible as a net: the bound decays
    # but never leaves the certified scale
    mats = GRID.values[:, None, None] * np.eye(2)
    cert = certify_coercivity(BasicOperator(GRID, mats), POLICY)
    assert cert.valid
    assert cert.witness_exponent == 1
    assert np.allclose(cert.alpha.samples, GRID.values, atol=0.0)


def test_certificate_rejects_indefinite_and_skew():
    indefinite = BasicOperator.constant(np.diag([1.0, -1.0]), GRID)
    cert = certify_coercivity(indefinite, POLICY)
    assert not cert.valid
    skew = BasicOperator.constant(np.array([[0.0, 1.0], [-1.0, 0.0]]), GRID)
    cert = certify_coercivity(skew, POLICY)
    assert not cert.valid and cert.witness_exponent is None
    with pytest.raises(DimMismatch):
        certify_coercivity(BasicOperator.constant(np.ones((2, 3)), GRID), POLICY)


def test_certificate_json_fields():
    cert = certify_coercivity(BasicOperator.constant(np.eye(2), GRID), POLICY)
    blob = cert.to_json()
    assert blob["valid"] and blob["witness_exponent"] == 1
    assert len(blob["alpha"]) == GRID.K


# ------------------------------------------------------------ lax-milgram

def test_lax_milgram_reaches_relative_residual():
    rng = np.random.default_rng(613)
    for _ in range(25):
        T = _nonsym_operator(rng, int(rng.integers(2, 7)))
        c = _random_vector(rng, T.dims[1])
        cert = certify_coercivity(T, POLICY)
        u = lax_milgram_solve(T, c, cert).u
        resid = rnorm(apply(T, u) - c).samples
        assert np.all(resid <= RESIDUAL_REL * (1.0 + rnorm(c).samples))


def test_lax_milgram_matches_direct_inverse():
    rng = np.random.default_rng(617)
    T = _spd_operator(rng, 4)
    c = _random_vector(rng, 4)
    u = lax_milgram_solve(T, c, certify_coercivity(T, POLICY)).u
    direct = np.linalg.solve(T.samples, c.samples[..., None])[..., 0]
    assert np.allclose(u.samples, direct, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("kind", ["dense", "band"])
def test_lax_milgram_returns_the_residual_of_its_last_check(kind):
    rng = np.random.default_rng(823)
    m = 5 if kind == "dense" else 60
    T = _spd_operator(rng, m) if kind == "dense" else _band_operator(rng, m)
    c = _random_vector(rng, m)
    cert = certify_coercivity(BasicOperator.constant(np.eye(1), GRID), POLICY)
    sol = lax_milgram_solve(T, c, cert)
    explicit = (np.linalg.norm(T.matvec(sol.u.samples) - c.samples, axis=1)
                / (1.0 + np.linalg.norm(c.samples, axis=1)))
    assert sol.residual.samples.view(np.uint64).tolist() == explicit.view(np.uint64).tolist()
    assert sol.residual.grid is GRID and not hasattr(sol, "iterations")


def test_lax_milgram_guards():
    rng = np.random.default_rng(619)
    T = _spd_operator(rng, 3)
    c = _random_vector(rng, 3)
    bad_cert = certify_coercivity(
        BasicOperator.constant(np.diag([1.0, -1.0, 1.0]), GRID), POLICY)
    with pytest.raises(CoercivityFailure):
        lax_milgram_solve(T, c, bad_cert)
    good = certify_coercivity(T, POLICY)
    with pytest.raises(GridMismatch):
        lax_milgram_solve(T, GenVector(EpsGrid.geometric(12), np.ones((12, 3))), good)
    with pytest.raises(DimMismatch):
        lax_milgram_solve(T, _random_vector(rng, 4), good)


def test_lax_milgram_singular_sample_reports_grid_index():
    mats = np.tile(np.eye(2), (GRID.K, 1, 1))
    mats[4] = 0.0  # k = 5 is singular; the certificate comes from elsewhere
    good = certify_coercivity(BasicOperator.constant(np.eye(2), GRID), POLICY)
    with pytest.raises(SingularSample) as err:
        lax_milgram_solve(BasicOperator(GRID, mats),
                          GenVector(GRID, np.ones((GRID.K, 2))), good)
    assert err.value.k == 5


# --------------------------------------------------------- vi contraction

def test_hand_worked_obstacle_pin():
    # T = [[2,1],[-1,2]], c = (-2,4), C = nonnegative orthant: the first
    # coordinate pins at 0 and the second solves 2u = 4
    T = BasicOperator.constant(np.array([[2.0, 1.0], [-1.0, 2.0]]), GRID)
    c = GenVector(GRID, np.tile([-2.0, 4.0], (GRID.K, 1)))
    C = ConvexSetNet.obstacle(GRID, np.zeros(2))
    sol = vi_solve_contraction(T, c, C, certify_coercivity(T, POLICY), POLICY)
    assert np.allclose(sol.u.samples, [0.0, 2.0], atol=ORACLE_TOL)
    assert np.allclose(sol.contraction_k.samples, np.sqrt(0.2), atol=1e-12)


def test_contraction_matches_active_set_enumeration():
    rng = np.random.default_rng(631)
    for trial in range(20):
        d = int(rng.integers(1, 5))
        T = (_spd_operator(rng, d) if trial % 2 == 0
             else _nonsym_operator(rng, d))
        c = _random_vector(rng, d)
        lower = rng.uniform(-1.0, 0.0, d)
        upper = lower + rng.uniform(0.5, 2.0, d)
        lower[rng.random(d) < 0.25] = -np.inf
        upper[rng.random(d) < 0.25] = np.inf
        C = ConvexSetNet.box(GRID, lower, upper)
        sol = vi_solve_contraction(T, c, C, certify_coercivity(T, POLICY), POLICY)
        for k in range(GRID.K):
            ref = solve_box_vi(T.samples[k], c.samples[k], lower, upper)
            assert np.linalg.norm(sol.u.samples[k] - ref) <= ORACLE_TOL
        ratios = sol.max_step_ratio.samples
        assert np.all(ratios <= sol.contraction_k.samples + CONTRACTION_SLACK)


def test_projection_runs_only_on_active_points(monkeypatch):
    # right-hand sides from 1 to 1e3 across the grid: the large ones pin u to
    # a corner of the box within two steps, the small ones take many more
    seen = []

    def counting(C, rows):
        project = row_projector(C, rows)

        def run(z):
            seen.append(z.shape[0])
            return project(z)
        return run

    row_projector = ConvexSetNet.row_projector
    monkeypatch.setattr(ConvexSetNet, "row_projector", counting)
    d = 3
    T = BasicOperator.constant(np.diag([1.0, 1.25, 1.5]), GRID)
    scale = np.geomspace(1.0, 1e3, GRID.K)
    c = GenVector(GRID, scale[:, None] * np.array([0.3, 0.2, 0.1]))
    C = ConvexSetNet.box(GRID, -np.ones(d), np.ones(d))
    sol = vi_solve_contraction(T, c, C, certify_coercivity(T, POLICY), POLICY)
    # the first projection takes every point; then each block of 1, 2, 4, 8,
    # 16, 16, ... sweeps projects the points unfinished at its start once per
    # sweep, so a point is swept to the end of the block in which it stops
    ends = np.cumsum([1, 2, 4, 8] + [16] * 8)
    swept = ends[np.searchsorted(ends, sol.iterations)]
    assert sum(seen) == GRID.K + swept.sum() == GRID.K + sol.sweeps == 376
    assert np.all(swept - sol.iterations <= np.minimum(sol.iterations - 1, 15))
    assert sum(seen) < GRID.K * (1 + sol.iterations.max())
    for k in range(GRID.K):
        ref = solve_box_vi(T.samples[k], c.samples[k], -np.ones(d), np.ones(d))
        assert np.linalg.norm(sol.u.samples[k] - ref) <= ORACLE_TOL


def test_affine_contraction_matches_the_reduced_solve():
    # on p + span(Q) the VI is the equation Q^T (T (p + Q y) - c) = 0
    rng = np.random.default_rng(639)
    d, r = 4, 2
    T = _nonsym_operator(rng, d)
    c = _random_vector(rng, d)
    span = rng.standard_normal((GRID.K, r, d))
    offset = rng.standard_normal((GRID.K, d))
    C = ConvexSetNet.affine(GRID, span, offset)
    sol = vi_solve_contraction(T, c, C, certify_coercivity(T, POLICY), POLICY)
    for k in range(GRID.K):
        Q, _ = np.linalg.qr(span[k].T)
        Tk, p = T.samples[k], offset[k]
        y = np.linalg.solve(Q.T @ Tk @ Q, Q.T @ (c.samples[k] - Tk @ p))
        assert np.linalg.norm(sol.u.samples[k] - (p + Q @ y)) <= ORACLE_TOL


def test_step_choice_tracks_symmetry():
    rng = np.random.default_rng(641)
    T_sym = _spd_operator(rng, 3)
    cert = certify_coercivity(T_sym, POLICY)
    sol = vi_solve_contraction(T_sym, _random_vector(rng, 3),
                               ConvexSetNet.obstacle(GRID, np.zeros(3)),
                               cert, POLICY)
    a = cert.alpha.samples
    M = op_norm_net(T_sym).samples
    assert np.allclose(sol.step_rho.samples, 2.0 / (a + M), atol=1e-14)
    assert np.allclose(sol.contraction_k.samples, (M - a) / (M + a), atol=1e-14)

    T_gen = _nonsym_operator(rng, 3)
    cert = certify_coercivity(T_gen, POLICY)
    sol = vi_solve_contraction(T_gen, _random_vector(rng, 3),
                               ConvexSetNet.obstacle(GRID, np.zeros(3)),
                               cert, POLICY)
    a = cert.alpha.samples
    M = op_norm_net(T_gen).samples
    assert np.allclose(sol.step_rho.samples, a / M ** 2, atol=1e-14)
    assert np.allclose(sol.contraction_k.samples,
                       np.sqrt(1.0 - a ** 2 / M ** 2), atol=1e-12)

    # a net mixing the two: each sample takes the step of its own symmetry
    even = np.arange(GRID.K) % 2 == 0
    T_mix = BasicOperator(GRID, np.where(even[:, None, None], T_sym.samples, T_gen.samples))
    cert = certify_coercivity(T_mix, POLICY)
    c, C = _random_vector(rng, 3), ConvexSetNet.obstacle(GRID, np.zeros(3))
    sol = vi_solve_contraction(T_mix, c, C, cert, POLICY)
    a = cert.alpha.samples
    M = op_norm_net(T_mix).samples
    assert np.allclose(sol.step_rho.samples, np.where(even, 2.0 / (a + M), a / M ** 2),
                       atol=1e-14)
    assert np.allclose(sol.contraction_k.samples,
                       np.where(even, (M - a) / (M + a), np.sqrt(1.0 - a ** 2 / M ** 2)),
                       atol=1e-12)
    got = _contraction_outcome(lambda: _running_rows(T_mix, c, C, cert))
    assert got == _contraction_outcome(lambda: vi_contraction_masked(T_mix, c, C, cert, POLICY))


def test_a_nonsymmetric_sample_before_a_symmetric_tail_takes_the_general_step():
    # T_1 = [[1, 5], [-5, 1]] (alpha_1 = 1) and T_k = I after it, in an open box:
    # the self-adjoint step 2/(alpha + M) on T_1 would diverge
    samples = np.tile(np.eye(2), (GRID.K, 1, 1))
    samples[0] = [[1.0, 5.0], [-5.0, 1.0]]
    T = BasicOperator(GRID, samples)
    inf = np.full(2, np.inf)
    sol = vi_solve_contraction(T, GenVector(GRID, np.ones((GRID.K, 2))),
                               ConvexSetNet.box(GRID, -inf, inf),
                               certify_coercivity(T, POLICY), POLICY)
    for k in range(GRID.K):
        want = solve_box_vi(samples[k], [1.0, 1.0], -inf, inf)
        assert np.max(np.abs(sol.u.samples[k] - want)) <= ORACLE_TOL


def test_the_step_not_taken_does_not_overflow():
    # 1e200 I is self-adjoint: the general step's alpha^2 / M^2 would overflow
    # (a RuntimeWarning, an error in this suite) if it were evaluated there
    T = BasicOperator.constant(1e200 * np.eye(2), GRID)
    c = GenVector(GRID, np.tile([1e200, 0.0], (GRID.K, 1)))
    sol = vi_solve_contraction(T, c, ConvexSetNet.box(GRID, np.zeros(2), np.ones(2)),
                               certify_coercivity(T, POLICY), POLICY)
    assert np.array_equal(sol.u.samples, np.tile([1.0, 0.0], (GRID.K, 1)))
    assert np.all(sol.iterations == 1)


def test_solution_is_start_independent():
    rng = np.random.default_rng(643)
    T = _nonsym_operator(rng, 3)
    c = _random_vector(rng, 3)
    C = ConvexSetNet.box(GRID, -np.ones(3), np.ones(3))
    cert = certify_coercivity(T, POLICY)
    cold = vi_solve_contraction(T, c, C, cert, POLICY)
    far = GenVector(GRID, np.tile([50.0, -50.0, 50.0], (GRID.K, 1)))
    warm = vi_solve_contraction(T, c, C, cert, POLICY, start=far)
    gap = np.linalg.norm(cold.u.samples - warm.u.samples, axis=1)
    assert np.all(gap <= UNIQUENESS_TOL)


def test_unconstrained_vi_agrees_with_lax_milgram():
    rng = np.random.default_rng(647)
    T = _spd_operator(rng, 3)
    c = _random_vector(rng, 3)
    cert = certify_coercivity(T, POLICY)
    whole = ConvexSetNet.box(GRID, np.full(3, -np.inf), np.full(3, np.inf))
    sol = vi_solve_contraction(T, c, whole, cert, POLICY)
    u_lm = lax_milgram_solve(T, c, cert).u
    gap = np.linalg.norm(sol.u.samples - u_lm.samples, axis=1)
    assert np.all(gap <= UNIQUENESS_TOL * (1.0 + rnorm(u_lm).samples))


def test_contraction_requires_positive_alpha():
    rng = np.random.default_rng(653)
    skew = BasicOperator.constant(np.array([[0.0, 1.0], [-1.0, 0.0]]), GRID)
    cert = certify_coercivity(skew, POLICY)
    with pytest.raises(CoercivityFailure):
        vi_solve_contraction(skew, _random_vector(rng, 2),
                             ConvexSetNet.obstacle(GRID, np.zeros(2)),
                             cert, POLICY)


def test_budget_blows_up_under_a_forged_certificate():
    # a certificate claiming alpha = M promises kfac = 0 and an 8-step
    # budget; the actual iteration on this rotation-heavy operator
    # expands instead of contracting
    T = BasicOperator.constant(np.array([[0.05, 1.0], [-1.0, 0.05]]), GRID)
    M = float(op_norm_net(T).samples[0])
    forged = certify_coercivity(BasicOperator.constant(M * np.eye(2), GRID), POLICY)
    c = GenVector(GRID, np.tile([30.0, -20.0], (GRID.K, 1)))
    C = ConvexSetNet.box(GRID, np.full(2, -1e6), np.full(2, 1e6))
    with pytest.raises(IterationBudgetExceeded) as err:
        vi_solve_contraction(T, c, C, forged, POLICY)
    assert err.value.budget == 8
    assert err.value.step_norm > 1.0


def test_contraction_bound_is_checked_against_the_observed_ratios():
    # a certificate overstating alpha = 3.9 on diag(1, 4) promises the
    # factor 0.1/7.9 ~ 0.0127; the iteration still converges, but its
    # step ratios approach 1 - rho = 0.747
    T = BasicOperator.constant(np.diag([1.0, 4.0]), GRID)
    forged = certify_coercivity(BasicOperator.constant(3.9 * np.eye(2), GRID), POLICY)
    c = GenVector(GRID, np.tile([1.0, 1.0], (GRID.K, 1)))
    C = ConvexSetNet.box(GRID, np.full(2, -1e6), np.full(2, 1e6))
    with pytest.raises(ContractionBoundViolated) as err:
        vi_solve_contraction(T, c, C, forged, POLICY)
    assert err.value.k == 1
    assert err.value.factor == pytest.approx(0.1 / 7.9, rel=1e-12)
    assert err.value.ratio > 0.7


# ------------------------------------------- running rows vs the masked loop

SMALL_GRID = EpsGrid.geometric(10)


def _staggered_problem(rng, kind):
    """A coercive net, rhs and set of ``kind`` on SMALL_GRID whose grid
    points need different sweep counts: the spread of each sample's
    spectrum, and so its contraction factor, varies along the grid."""
    K = SMALL_GRID.K
    d = int(rng.integers(1, 4))
    q, _ = np.linalg.qr(rng.standard_normal((K, d, d)))
    symmetric = rng.random() < 0.5
    spread = rng.uniform(0.2, 12.0 if symmetric else 2.0, (K, 1))
    lam = 1.0 + spread * rng.random((K, d))
    mats = q @ (lam[:, :, None] * np.swapaxes(q, 1, 2))
    if not symmetric:
        skew = rng.standard_normal((K, d, d))
        mats = mats + 0.3 * (skew - np.swapaxes(skew, 1, 2))
    T = BasicOperator(SMALL_GRID, mats)
    c = GenVector(SMALL_GRID, rng.standard_normal((K, d)) * 10.0 ** rng.uniform(-1, 2, (K, 1)))
    lower = rng.uniform(-1.0, 0.0, (K, d))
    upper = lower + rng.uniform(0.5, 2.0, (K, d))
    if kind == "box":
        C = ConvexSetNet.box(SMALL_GRID, lower, upper)
    elif kind == "obstacle":
        C = ConvexSetNet.obstacle(SMALL_GRID, lower)
    else:
        r = max(1, d - 1)
        C = ConvexSetNet.affine(SMALL_GRID, rng.standard_normal((K, r, d)), lower)
    return T, c, C


def _contraction_outcome(run):
    """The arrays a contraction returns, as bytes, or the error it raised."""
    try:
        return [np.asarray(a).tobytes() for a in run()]
    except (IterationBudgetExceeded, ContractionBoundViolated) as err:
        return type(err).__name__, vars(err)


def _running_rows(T, c, C, cert, start=None):
    sol = vi_solve_contraction(T, c, C, cert, POLICY, start=start)
    return (sol.u.samples, sol.iterations, sol.residual.samples,
            sol.max_step_ratio.samples)


@seed(20261021)
@settings(max_examples=60, deadline=None)
@given(data=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["box", "obstacle", "affine"]),
       warm=st.booleans())
def test_running_rows_match_the_masked_loop_bit_for_bit(data, kind, warm):
    rng = np.random.default_rng(data)
    T, c, C = _staggered_problem(rng, kind)
    cert = certify_coercivity(T, POLICY)
    start = GenVector(SMALL_GRID, 5.0 * rng.standard_normal(c.samples.shape)) if warm else None
    got = _contraction_outcome(lambda: _running_rows(T, c, C, cert, start))
    assert got == _contraction_outcome(
        lambda: vi_contraction_masked(T, c, C, cert, POLICY, start))


def _forged(T, true_from, alpha):
    """The certificate of T with alpha in place of the true bound on the
    grid points before ``true_from`` (0-based)."""
    real = certify_coercivity(T, POLICY).alpha.samples.copy()
    real[:true_from] = alpha
    return CoercivityCertificate(GenScalar(T.grid, real), 1, None)


def test_running_rows_raise_the_masked_loops_budget_error():
    # alpha = M promises k = 0 and an 8-step budget on the first four grid
    # points, where this rotation-heavy operator expands instead
    T = BasicOperator.constant(np.array([[0.05, 1.0], [-1.0, 0.05]]), SMALL_GRID)
    cert = _forged(T, 4, float(op_norm_net(T).samples[0]))
    c = GenVector(SMALL_GRID, np.tile([30.0, -20.0], (SMALL_GRID.K, 1)))
    C = ConvexSetNet.box(SMALL_GRID, np.full(2, -1e6), np.full(2, 1e6))
    got = _contraction_outcome(lambda: _running_rows(T, c, C, cert))
    assert got == _contraction_outcome(lambda: vi_contraction_masked(T, c, C, cert, POLICY))
    assert got[0] == "IterationBudgetExceeded"
    assert (got[1]["k"], got[1]["budget"]) == (1, 8) and got[1]["step_norm"] > 1.0


def test_running_rows_raise_the_masked_loops_bound_violation():
    # alpha = 3.9 on diag(1, 4) at the first three grid points overstates
    # the factor there; the others converge with their true factor 0.6
    T = BasicOperator.constant(np.diag([1.0, 4.0]), SMALL_GRID)
    cert = _forged(T, 3, 3.9)
    c = GenVector(SMALL_GRID, np.tile([1.0, 1.0], (SMALL_GRID.K, 1)))
    C = ConvexSetNet.box(SMALL_GRID, np.full(2, -1e6), np.full(2, 1e6))
    got = _contraction_outcome(lambda: _running_rows(T, c, C, cert))
    assert got == _contraction_outcome(lambda: vi_contraction_masked(T, c, C, cert, POLICY))
    assert got[0] == "ContractionBoundViolated" and got[1]["k"] == 1


def _dense_heaviside_obstacle(n_elems):
    """Diffusion eps^0.5 left of 0.4 under a tent obstacle, the P1 problem
    of test_cli's vanishing-diffusion case: (spec, dense net, rhs, set).
    alpha_k / M_k falls from 2e-3 to 4e-6 at n = 32, so tol_abs (1 - k_k)
    / k_k lies below rounding."""
    spec = ProblemSpec(
        grid=GRID, mesh=Mesh1D(0.0, 1.0, n_elems),
        diffusion=CoefficientNet.heaviside_nu(GRID, nu_exponent=0.5, jump_at=0.4, high=1.0),
        rhs=-8.0,
        obstacle=CoefficientNet.tabulated(GRID, [0.0, 0.5, 1.0], [-1.0, -0.6, -1.0]))
    T, b, *_ = _assemble_all(spec)
    dense = BasicOperator(GRID, bands_to_dense(T.samples))
    C = ConvexSetNet.obstacle(GRID, spec.obstacle_nodal()[:, 1:-1])
    return spec, dense, GenVector(GRID, b), C


@pytest.mark.parametrize("n_elems", [32, 64])
def test_contraction_reaches_the_active_set_answer_on_a_dense_heaviside_net(n_elems):
    # the steps settle in a two-cycle at rounding level, which must end the
    # iteration there, within the active-set answer's certified error
    spec, dense, c, C = _dense_heaviside_obstacle(n_elems)
    sol = vi_solve_contraction(dense, c, C, certify_coercivity(dense, POLICY), POLICY)
    ref = solve_obstacle(spec, POLICY)
    gap = np.linalg.norm(sol.u.samples - ref.u.samples[:, 1:-1], axis=1)
    assert np.all(gap <= ref.error_bound.samples)


def test_running_rows_match_the_masked_loop_on_two_cycles():
    # grid points end by a two-cycle after 2,040 to 4,206 sweeps
    _, dense, c, C = _dense_heaviside_obstacle(32)
    cert = certify_coercivity(dense, POLICY)
    got = _contraction_outcome(lambda: _running_rows(dense, c, C, cert))
    assert got == _contraction_outcome(lambda: vi_contraction_masked(dense, c, C, cert, POLICY))


# Sweeps run in blocks of 1, 2, 4, 8, then 16, checked once per block: the
# first sweeps of blocks 1-7 are 1, 2, 4, 8, 16, 32, 48, their last 1, 3, 7,
# 15, 31, 47, 63.

def _iterates_at(T, c, C, rho, sweeps):
    """Per grid point k, the iterate after sweeps[k] sweeps from P_C(0), by
    the masked loop's whole-grid update without its stop tests."""
    project = C.batched_projector()
    x = project(np.zeros(c.samples.shape))
    out = np.empty_like(x)
    for n in range(int(sweeps.max()) + 1):
        out[sweeps == n] = x[sweeps == n]
        x = project(rho[:, None] * (c.samples - T.matvec(x)) + x)
    return GenVector(T.grid, out)


def _warm_from_the_stop(T, c, C, cert, lead):
    """The cold solve, and a start from which grid point k has lead[k] sweeps
    left to the sweep the cold solve stopped on: the same iterates follow."""
    cold = vi_solve_contraction(T, c, C, cert, POLICY)
    return cold, _iterates_at(T, c, C, cold.step_rho.samples, cold.iterations - lead)


def test_stops_on_the_first_and_last_sweep_of_a_block_keep_their_bits():
    T = BasicOperator.constant(np.array([[1.0, 0.5], [-0.5, 2.0]]), GRID)
    c = GenVector(GRID, np.geomspace(0.5, 50.0, GRID.K)[:, None] * np.array([1.0, -3.0]))
    C = ConvexSetNet.box(GRID, np.array([-1.0, -np.inf]), np.array([np.inf, 1.0]))
    cert = certify_coercivity(T, POLICY)
    lead = np.resize([1, 2, 3, 4, 7, 8, 15, 16, 31, 32, 47, 48], GRID.K)
    cold, start = _warm_from_the_stop(T, c, C, cert, lead)
    assert cold.iterations.min() > 48
    warm = vi_solve_contraction(T, c, C, cert, POLICY, start=start)
    assert np.array_equal(warm.iterations, lead)
    assert warm.u.samples.tobytes() == cold.u.samples.tobytes()
    assert warm.residual.samples.tobytes() == cold.residual.samples.tobytes()
    ends = np.cumsum([1, 2, 4, 8, 16, 16, 16])
    assert warm.sweeps == ends[np.searchsorted(ends, lead)].sum()
    got = _contraction_outcome(lambda: _running_rows(T, c, C, cert, start))
    assert got == _contraction_outcome(
        lambda: vi_contraction_masked(T, c, C, cert, POLICY, start))


def test_a_two_cycle_against_the_previous_block_keeps_its_bits():
    # every grid point of the dense heaviside net ends in a two-cycle; from
    # these starts it closes on the first sweep of a block, against the
    # iterate two sweeps back, which the block before computed
    _, dense, c, C = _dense_heaviside_obstacle(32)
    cert = certify_coercivity(dense, POLICY)
    lead = np.resize([4, 8, 16, 32, 48], GRID.K)
    cold, start = _warm_from_the_stop(dense, c, C, cert, lead)
    warm = vi_solve_contraction(dense, c, C, cert, POLICY, start=start)
    assert np.array_equal(warm.iterations, lead)
    assert warm.u.samples.tobytes() == cold.u.samples.tobytes()
    # no step test ends these points: their last steps lie above both bounds
    kfac = warm.contraction_k.samples
    bound = np.maximum(POLICY.tol_abs * (1.0 - kfac) / np.maximum(kfac, POLICY.tol_abs),
                       4.0 * np.finfo(float).eps * (1.0 + np.linalg.norm(warm.u.samples, axis=1)))
    assert np.all(warm.residual.samples > bound)
    got = _contraction_outcome(lambda: _running_rows(dense, c, C, cert, start))
    assert got == _contraction_outcome(
        lambda: vi_contraction_masked(dense, c, C, cert, POLICY, start))


def test_a_budget_error_inside_a_block_goes_to_its_earliest_sweep():
    # forged certificates promise factors with budgets 1066 (k = 1) and 1064
    # (k = 2) where the rotation-heavy samples expand; the other points stop
    # after 1060 to 1079 sweeps, some in 1065..1071, the rest of the block
    # 1056..1071 in which the budget of k = 2 runs out first
    K = GRID.K
    rotation = np.array([[0.05, 1.0], [-1.0, 0.05]])
    slow = np.array([[0.1, 0.01], [-0.01, 1.0]])
    rhs = np.geomspace(2.1e-9, 2.6e-9, K)[:, None] * np.ones(2)
    C = ConvexSetNet.box(GRID, np.full(2, -1e6), np.full(2, 1e6))
    others = BasicOperator.constant(slow, GRID)
    settled = vi_solve_contraction(others, GenVector(GRID, rhs), C,
                                   certify_coercivity(others, POLICY), POLICY)
    assert np.any((settled.iterations[2:] > 1064) & (settled.iterations[2:] <= 1071))

    T = BasicOperator(GRID, np.stack([rotation, rotation] + [slow] * (K - 2)))
    alpha = certify_coercivity(T, POLICY).alpha.samples.copy()
    M = op_norm_net(T).samples
    for k, base in ((0, 42), (1, 40)):  # ceil(log tol_abs / log k_k) = base
        alpha[k] = M[k] * np.sqrt(1.0 - 10.0 ** (-24.0 / (base - 0.5)))
    cert = CoercivityCertificate(GenScalar(GRID, alpha), 1, None)
    c = GenVector(GRID, np.concatenate([[[30.0, -20.0]] * 2, rhs[2:]]))
    got = _contraction_outcome(lambda: _running_rows(T, c, C, cert))
    assert got == _contraction_outcome(lambda: vi_contraction_masked(T, c, C, cert, POLICY))
    assert got[0] == "IterationBudgetExceeded"
    assert (got[1]["k"], got[1]["budget"]) == (2, 1064) and got[1]["step_norm"] > 1.0


def test_the_budget_stops_counting_at_a_points_stop_inside_a_block():
    # a forged alpha = M promises the factor 0: an 8-sweep budget and the
    # threshold 1.  The steps fall below 1 on sweep 8, the budget's last and
    # the block's first, and pass 1 again on sweep 13 of the same block; the
    # stop stands, and its ratio record (1.18 > 0) is what fails
    T = BasicOperator.constant(np.array([[-1.33, -7.24], [0.64, 0.98]]), GRID)
    cert = _forged(T, GRID.K, float(op_norm_net(T).samples[0]))
    c = GenVector(GRID, np.tile([7.77, 0.0], (GRID.K, 1)))
    C = ConvexSetNet.box(GRID, np.full(2, -1e6), np.full(2, 1e6))
    got = _contraction_outcome(lambda: _running_rows(T, c, C, cert))
    assert got == _contraction_outcome(lambda: vi_contraction_masked(T, c, C, cert, POLICY))
    assert got[0] == "ContractionBoundViolated" and got[1]["k"] == 1


@pytest.mark.parametrize("kind", ["box", "obstacle", "affine"])
def test_complex_nets_keep_the_masked_loops_bits(kind):
    rng = np.random.default_rng(23)
    T, c, C = _staggered_problem(rng, kind)
    complex_c = GenVector(
        SMALL_GRID, c.samples * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, c.samples.shape)))
    # a skew-Hermitian part i S (S real symmetric) leaves Re <T x, x> as it was;
    # with a real c the iterates are complex all the same
    s = rng.standard_normal(T.samples.shape)
    complex_T = BasicOperator(SMALL_GRID, T.samples + 0.5j * (s + np.swapaxes(s, 1, 2)))
    for T, c in ((T, complex_c), (complex_T, c)):
        cert = certify_coercivity(T, POLICY)
        got = _contraction_outcome(lambda: _running_rows(T, c, C, cert))
        assert got == _contraction_outcome(lambda: vi_contraction_masked(T, c, C, cert, POLICY))
        assert vi_solve_contraction(T, c, C, cert, POLICY).u.samples.dtype == np.complex128


# ------------------------------------------------------ energy minimizer

def test_minimizer_beats_feasible_competitors():
    rng = np.random.default_rng(661)
    T = _spd_operator(rng, 3)
    c = _random_vector(rng, 3)
    lower, upper = -np.ones(3), np.ones(3)
    C = ConvexSetNet.box(GRID, lower, upper)
    # for self-adjoint T the VI's answer minimizes <T u, u> - 2 <c, u> over C
    sol = vi_solve_contraction(T, c, C, certify_coercivity(T, POLICY), POLICY)

    def energy(samples):
        v = GenVector(GRID, samples)
        return inner(apply(T, v), v).samples - 2.0 * inner(c, v).samples

    e_star = energy(sol.u.samples)
    for _ in range(20):
        v = np.clip(rng.standard_normal((GRID.K, 3)) * 1.5, lower, upper)
        assert np.all(e_star <= energy(v) + 1e-9)


def test_invalid_certificates_name_the_first_failing_tail_point():
    # diag(1, -1): alpha = -1 everywhere, so the first tail point fails
    # the order check; the grid has K = 24 and a tail of 8, so k = 17
    T = BasicOperator.constant(np.diag([1.0, -1.0]), GRID)
    cert = certify_coercivity(T, POLICY)
    c = GenVector.constant(np.ones(2), GRID)
    C = ConvexSetNet.obstacle(GRID, np.zeros(2))
    negative = r"^alpha_k < -eps_k\^q_neg: alpha = -1 at grid index k=17$"
    assert cert.failure == (17, "alpha_k < -eps_k^q_neg")
    with pytest.raises(CoercivityFailure, match=negative) as err:
        lax_milgram_solve(T, c, cert)
    assert (err.value.k, err.value.check) == cert.failure
    with pytest.raises(CoercivityFailure, match=negative) as err:
        vi_solve_contraction(T, c, C, cert, POLICY)
    assert (err.value.k, err.value.check) == cert.failure
    # a zero alpha on the tail is nonnegative but not invertible
    alpha = np.ones(GRID.K)
    alpha[19] = 0.0
    cert = CoercivityCertificate.from_alpha(GenScalar(GRID, alpha), POLICY)
    zero = r"^\|alpha_k\| < eps_k\^m_inv: alpha = 0 at grid index k=20$"
    with pytest.raises(CoercivityFailure, match=zero) as err:
        lax_milgram_solve(BasicOperator.constant(np.eye(2), GRID), c, cert)
    assert (err.value.k, err.value.check, err.value.alpha) == (20, "|alpha_k| < eps_k^m_inv", 0.0)


def _scalar_tail_rule(alpha, eps, policy):
    """(k, check) of the first tail point, k 1-based, where alpha_k is not
    >= -eps_k**q_neg or not invertible (0 < |alpha_k| >= eps_k**m_inv);
    None if there is none.  One Python float at a time."""
    for k in range(len(eps) - policy.tail, len(eps)):
        a, e = float(alpha[k]), float(eps[k])
        if not a >= -e ** policy.q_neg:
            return k + 1, "alpha_k < -eps_k^q_neg"
        if not (abs(a) > 0.0 and abs(a) >= e ** policy.m_inv):
            return k + 1, "|alpha_k| < eps_k^m_inv"
    return None


@pytest.mark.parametrize("policy", [POLICY, NumericPolicy(q_neg=3, m_inv=6, tail=5),
                                    NumericPolicy(q_neg=8, m_inv=2, tail=24)],
                         ids=["default", "q_neg<m_inv", "m_inv<q_neg"])
def test_the_tail_rule_decides_validity_exactly(policy):
    # alpha_k drawn around the thresholds +-eps^q_neg and eps^m (m <= m_inv),
    # NaN and signed zeros included, on the default grid and on K = 200, where
    # the thresholds underflow to 0; the oracles are gennum's order and
    # invertibility predicates and a scalar loop over the tail
    rng = np.random.default_rng(691)
    for grid in (GRID, EpsGrid.geometric(200)):
        eps, tail = grid.values, slice(grid.K - policy.tail, None)
        for _ in range(300):
            scale = eps ** rng.choice([1, policy.q_neg, policy.m_inv], grid.K)
            alpha = scale * rng.choice([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0], grid.K)
            if rng.random() < 0.3:
                alpha[tail] = np.abs(alpha[tail]) + scale[-1]
            if rng.random() < 0.1:
                alpha[rng.integers(grid.K)] = np.nan
            if rng.random() < 0.1:
                alpha[rng.integers(grid.K - policy.tail, grid.K)] = rng.choice([0.0, -0.0])
            net = GenScalar(grid, alpha)
            cert = CoercivityCertificate.from_alpha(net, policy)
            inv = invertible_wrt(net, np.ones(grid.K, dtype=bool), policy)
            assert cert.valid == (ge_zero(net, policy) and inv.holds)
            assert cert.witness_exponent == inv.witness
            assert cert.failure == _scalar_tail_rule(alpha, eps, policy)


def test_zero_alpha_is_not_invertible_where_the_thresholds_underflow():
    # eps_k**m_inv underflows to 0 on the tail of K = 200 (and, with m_inv =
    # 50, from k = 22 on K = 24); |alpha_k| >= 0 holds there, 0 < |alpha_k| not
    big = EpsGrid.geometric(200)
    cert = CoercivityCertificate.from_alpha(GenScalar(big, np.zeros(big.K)), POLICY)
    assert (cert.valid, cert.witness_exponent) == (False, None)
    assert cert.failure == (193, "|alpha_k| < eps_k^m_inv")
    assert invertible_wrt(GenScalar(big, np.zeros(big.K)), np.ones(big.K, dtype=bool), POLICY) == (
        False, None)
    alpha = np.ones(GRID.K)
    alpha[21] = 0.0
    cert = CoercivityCertificate.from_alpha(GenScalar(GRID, alpha), NumericPolicy(m_inv=50))
    assert (cert.failure, cert.witness_exponent) == ((22, "|alpha_k| < eps_k^m_inv"), None)
    with pytest.raises(CoercivityFailure,
                       match=r"^\|alpha_k\| < eps_k\^m_inv: alpha = 0 at grid index k=22$"):
        lax_milgram_solve(BasicOperator.constant(np.eye(2), GRID),
                          GenVector(GRID, np.ones((GRID.K, 2))),
                          cert)


def test_contraction_names_the_first_nonpositive_alpha():
    alpha = np.ones(GRID.K)
    alpha[[8, 15]] = [0.0, -1.0]
    cert = CoercivityCertificate(GenScalar(GRID, alpha), witness_exponent=0, failure=None)
    T = BasicOperator.constant(np.eye(2), GRID)
    C = ConvexSetNet.obstacle(GRID, np.zeros(2))
    with pytest.raises(CoercivityFailure,
                       match=r"^alpha_k <= 0: alpha = 0 at grid index k=9$") as err:
        vi_solve_contraction(T, _random_vector(np.random.default_rng(5), 2), C, cert, POLICY)
    assert (err.value.k, err.value.check) == (9, "alpha_k <= 0")


def test_contraction_refuses_a_nan_alpha_at_its_grid_point():
    # alpha_1 = NaN lies before the tail, so the certificate is valid; NaN
    # is not > 0, and the contraction refuses it rather than budget with it
    alpha = np.ones(GRID.K)
    alpha[0] = np.nan
    cert = CoercivityCertificate.from_alpha(GenScalar(GRID, alpha), POLICY)
    assert cert.valid
    C = ConvexSetNet.obstacle(GRID, np.zeros(2))
    with pytest.raises(CoercivityFailure,
                       match=r"^alpha_k <= 0: alpha = nan at grid index k=1$") as err:
        vi_solve_contraction(BasicOperator.constant(np.eye(2), GRID),
                             _random_vector(np.random.default_rng(5), 2), C, cert, POLICY)
    assert (err.value.k, err.value.check) == (1, "alpha_k <= 0")


def _refused_contraction(mats):
    """The NoConvergence of vi_solve_contraction on the matrix net ``mats``,
    whose certificate must be valid."""
    T = BasicOperator(GRID, mats)
    cert = certify_coercivity(T, POLICY)
    assert cert.valid
    C = ConvexSetNet.box(GRID, np.zeros(2), np.ones(2))
    with pytest.raises(NoConvergence) as err:
        vi_solve_contraction(T, GenVector.constant(np.ones(2), GRID), C, cert, POLICY)
    return str(err.value)


def test_a_self_adjoint_factor_that_rounds_to_1_is_refused():
    # diag(eps^3, 1): alpha_k = eps_k^3 certifies, but (M - alpha)/(M + alpha)
    # rounds to 1 from k = 18 (alpha/M = 2^-54), where log k_k = 0 leaves no budget
    mats = np.zeros((GRID.K, 2, 2))
    mats[:, 0, 0], mats[:, 1, 1] = GRID.values ** 3, 1.0
    assert _refused_contraction(mats) == (
        "contraction_k rounds to 1: alpha_over_M = 5.55112e-17 at grid index k=18")


def test_a_nonsymmetric_factor_that_rounds_to_1_is_refused():
    # a rotation plus eps^2: alpha_k = eps_k^2 certifies, but sqrt(1 - alpha^2/M^2)
    # rounds to 1 from k = 14 (alpha/M = 2^-28)
    mats = np.zeros((GRID.K, 2, 2))
    mats[:, 0, 0] = mats[:, 1, 1] = GRID.values ** 2
    mats[:, 0, 1], mats[:, 1, 0] = 1.0, -1.0
    assert _refused_contraction(mats) == (
        "contraction_k rounds to 1: alpha_over_M = 3.72529e-09 at grid index k=14")


def test_contraction_refuses_mismatched_inputs():
    rng = np.random.default_rng(683)
    T = _spd_operator(rng, 2)
    cert = certify_coercivity(T, POLICY)
    c = _random_vector(rng, 2)
    C = ConvexSetNet.box(GRID, -np.ones(2), np.ones(2))
    with pytest.raises(DimMismatch):
        vi_solve_contraction(T, _random_vector(rng, 3), C, cert, POLICY)
    with pytest.raises(DimMismatch):
        vi_solve_contraction(T, c, ConvexSetNet.box(GRID, -np.ones(3), np.ones(3)), cert, POLICY)
    with pytest.raises(DimMismatch):
        vi_solve_contraction(BasicOperator(GRID, np.ones((GRID.K, 3, 2))), c, C, cert, POLICY)
    other = EpsGrid.geometric(GRID.K, base=0.25)
    with pytest.raises(GridMismatch):
        vi_solve_contraction(T, c, ConvexSetNet.box(other, -np.ones(2), np.ones(2)), cert, POLICY)
    with pytest.raises(GridMismatch):
        vi_solve_contraction(T, GenVector.constant(np.ones(2), other), C, cert, POLICY)


# -------------------------------------------------------------- plumbing

def test_tridiagonal_matvec_agrees_with_dense():
    rng = np.random.default_rng(677)
    n = 6
    T = TridiagonalOperator(GRID, symmetric_bands(rng.uniform(2.0, 3.0, (GRID.K, n)),
                                                  rng.standard_normal((GRID.K, n - 1))))
    mats = bands_to_dense(T.samples)
    u = rng.standard_normal((GRID.K, n))
    dense = np.einsum("kij,kj->ki", mats, u)
    assert np.allclose(T.matvec(u), dense, rtol=1e-14, atol=0.0)
    # complex-symmetric bands, T = T^T but not Hermitian, on real and complex vectors
    T = TridiagonalOperator(GRID, rng.standard_normal((GRID.K, 2, n))
                            + 1j * rng.standard_normal((GRID.K, 2, n)))
    mats = bands_to_dense(T.samples)
    assert T.samples.dtype == np.complex128 and np.all(mats == np.swapaxes(mats, 1, 2))
    assert np.any(mats != np.conj(np.swapaxes(mats, 1, 2)))
    for v in (u, u + 1j * rng.standard_normal(u.shape)):
        assert np.allclose(T.matvec(v), np.einsum("kij,kj->ki", mats, v), rtol=1e-14, atol=0.0)
        assert np.allclose(T.solve(v), np.linalg.solve(mats, v[..., None])[..., 0],
                           rtol=1e-10, atol=1e-12)


def test_lax_milgram_checks_the_residual_after_the_last_refinement():
    # each solve returns b / (1 + 1e-3), so the relative residual shrinks
    # by 1e-3 per refinement step and first meets 1e-10 after the third
    class DampedIdentity(BasicOperator):
        calls = 0

        def solve(self, b):
            DampedIdentity.calls += 1
            return b / (1.0 + 1e-3)

    T = DampedIdentity(GRID, np.tile(np.eye(2), (GRID.K, 1, 1)))
    c = GenVector(GRID, np.tile([0.6, 0.8], (GRID.K, 1)))
    cert = certify_coercivity(BasicOperator.constant(np.eye(2), GRID), POLICY)
    u = lax_milgram_solve(T, c, cert).u
    assert DampedIdentity.calls == 4  # one batched solve per round
    assert np.all(rnorm(u - c).samples <= RESIDUAL_REL * (1.0 + rnorm(c).samples))

    # off by 1e-2, the residual is still about 5e-9 after the third
    # refinement; a fourth would meet the target, but it is not taken
    class CoarseIdentity(BasicOperator):
        calls = 0

        def solve(self, b):
            CoarseIdentity.calls += 1
            return b / (1.0 + 1e-2)

    T = CoarseIdentity(GRID, np.tile(np.eye(2), (GRID.K, 1, 1)))
    with pytest.raises(ResidualTargetMissed) as err:
        lax_milgram_solve(T, c, cert)
    assert err.value.k == 1 and CoarseIdentity.calls == 4


@pytest.mark.filterwarnings("error")
def test_residual_norms_are_taken_without_overflow():
    # the squares of 1e300 overflow; rescaled, the exact identity solve has
    # residual 0 at scale 1 + 2e300.  At 1.5e308 the norm 2.1e308 itself
    # overflows, and a check against an infinite scale must never pass
    cert = certify_coercivity(BasicOperator.constant(np.eye(2), GRID), POLICY)
    T = BasicOperator.constant(np.eye(2), GRID)
    sol = lax_milgram_solve(T, GenVector(GRID, np.full((GRID.K, 2), -1e300)), cert)
    assert np.all(sol.residual.samples == 0.0)
    with pytest.raises(ResidualTargetMissed,
                       match=r"^residual_k > target after refinement: residual = nan, "
                             r"target = 1e-10 at grid index k=1$"):
        lax_milgram_solve(T, GenVector(GRID, np.full((GRID.K, 2), 1.5e308)), cert)


def test_refinement_touches_only_the_samples_short_of_the_target():
    # the solve is off by 1e-3 on odd samples and by 1e-12 on even ones,
    # which already meet the 1e-10 target and must keep their first solve
    damping = np.where(np.arange(GRID.K) % 2 == 1, 1e-3, 1e-12)

    class UnevenIdentity(BasicOperator):
        def solve(self, b):
            return b / (1.0 + damping[:, None])

    T = UnevenIdentity(GRID, np.tile(np.eye(2), (GRID.K, 1, 1)))
    c = GenVector(GRID, np.tile([0.6, 0.8], (GRID.K, 1)))
    cert = certify_coercivity(BasicOperator.constant(np.eye(2), GRID), POLICY)
    u = lax_milgram_solve(T, c, cert).u
    first = c.samples / (1.0 + damping[:, None])
    assert u.samples[::2].tobytes() == first[::2].tobytes()
    assert np.all(u.samples[1::2] != first[1::2])
    assert np.all(rnorm(u - c).samples <= RESIDUAL_REL * (1.0 + rnorm(c).samples))


@pytest.fixture
def gtsv_calls(monkeypatch):
    """Count every LAPACK ?gtsv call, whether made through scipy.linalg's
    _flapack extension (TridiagonalOperator.solve), through
    scipy.linalg.lapack or looked up by solve_banded's get_lapack_funcs."""
    from scipy.linalg import _flapack, lapack

    calls = []
    for name in ("dgtsv", "zgtsv"):
        original = getattr(lapack, name)

        def counted(*args, _original=original, **kwargs):
            calls.append(1)
            return _original(*args, **kwargs)

        monkeypatch.setattr(lapack, name, counted)
        monkeypatch.setattr(_flapack, name, counted)
    memo = lapack.get_lapack_funcs.memo  # solve_banded's cached lookups
    cached = dict(memo)
    memo.clear()
    yield calls
    memo.clear()
    memo.update(cached)


def test_band_lax_milgram_makes_one_lapack_call_per_round(gtsv_calls):
    rng = np.random.default_rng(683)
    m = 200
    T = _band_operator(rng, m)
    c = _random_vector(rng, m)
    cert = certify_coercivity(BasicOperator.constant(np.eye(1), GRID), POLICY)
    lax_milgram_solve(T, c, cert)
    assert len(gtsv_calls) == 1

    # a solve off by 1e-2 runs all three refinement rounds and still misses
    class CoarseBands(TridiagonalOperator):
        def solve(self, b):
            return super().solve(b) / 1.01

    coarse = CoarseBands(GRID, T.samples)
    gtsv_calls.clear()
    with pytest.raises(ResidualTargetMissed):
        lax_milgram_solve(coarse, c, cert)
    assert len(gtsv_calls) == 4
    # the counter sees per-sample solve_banded calls too
    gtsv_calls.clear()
    for ab, rhs in zip(banded_form(T.samples), c.samples):
        solve_banded((1, 1), ab, rhs)
    assert len(gtsv_calls) == GRID.K


def test_band_nets_are_refused_by_the_dense_layer():
    rng = np.random.default_rng(680)
    n = 3  # (3, 3) band samples have the shape of square dense ones
    T = _band_operator(rng, n)
    cert = certify_coercivity(BasicOperator(GRID, bands_to_dense(T.samples)), POLICY)
    C = ConvexSetNet.obstacle(GRID, np.full(n, -0.1))
    c = _random_vector(rng, n)
    with pytest.raises(TypeError, match="op_norm_net needs a dense BasicOperator net, "
                                        "not TridiagonalOperator"):
        op_norm_net(T)
    with pytest.raises(TypeError, match="not TridiagonalOperator"):
        vi_solve_contraction(T, c, C, cert, POLICY)
    with pytest.raises(TypeError, match="classify_operator needs a dense BasicOperator net, "
                                        "not TridiagonalOperator"):
        classify_operator(T, POLICY)


def test_band_contraction_matches_dense_contraction():
    # the band net's obstacle solve (the active-set method of gennet.fem)
    # and its Lax-Milgram solve agree with the dense net's
    rng = np.random.default_rng(679)
    n = 8
    T = _band_operator(rng, n)
    dense = BasicOperator(GRID, bands_to_dense(T.samples))
    c = _random_vector(rng, n)
    lower = np.full((GRID.K, n), -0.1)
    C = ConvexSetNet.obstacle(GRID, lower[0])
    cert = certify_coercivity(dense, POLICY)
    dense_sol = vi_solve_contraction(dense, c, C, cert, POLICY)
    band_u, _ = _pdas(T, c.samples, lower)
    assert np.max(np.abs(band_u - dense_sol.u.samples)) <= ORACLE_TOL
    w = lax_milgram_solve(T, c, cert).u
    assert np.allclose(w.samples, lax_milgram_solve(dense, c, cert).u.samples,
                       rtol=1e-10, atol=1e-12)
