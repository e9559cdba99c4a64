"""Coercivity certificates, per-sample solves, and the VI contraction."""

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded

from _oracles import bands_to_dense, solve_box_vi, vi_contraction_masked
from gennet import convex
from gennet import (
    BasicOperator,
    CoefficientNet,
    CoercivityCertificate,
    ContractionBoundViolated,
    ConvexSetNet,
    DimMismatch,
    EpsGrid,
    GenScalar,
    GenVector,
    GridMismatch,
    InvalidCertificate,
    IterationBudgetExceeded,
    Mesh1D,
    NumericPolicy,
    ProblemSpec,
    ResidualTargetMissed,
    SingularSample,
    TridiagonalOperator,
    apply,
    certify_coercivity,
    classify_operator,
    inner,
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
    cert = certify_coercivity(BasicOperator.identity(GRID, 2), POLICY)
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
        u = lax_milgram_solve(T, c, cert, POLICY)
        resid = rnorm(apply(T, u) - c).samples
        assert np.all(resid <= RESIDUAL_REL * (1.0 + rnorm(c).samples))


def test_lax_milgram_matches_direct_inverse():
    rng = np.random.default_rng(617)
    T = _spd_operator(rng, 4)
    c = _random_vector(rng, 4)
    u = lax_milgram_solve(T, c, certify_coercivity(T, POLICY), POLICY)
    direct = np.linalg.solve(T.samples, c.samples[..., None])[..., 0]
    assert np.allclose(u.samples, direct, rtol=1e-10, atol=1e-12)


def test_lax_milgram_guards():
    rng = np.random.default_rng(619)
    T = _spd_operator(rng, 3)
    c = _random_vector(rng, 3)
    bad_cert = certify_coercivity(
        BasicOperator.constant(np.diag([1.0, -1.0, 1.0]), GRID), POLICY)
    with pytest.raises(InvalidCertificate):
        lax_milgram_solve(T, c, bad_cert, POLICY)
    good = certify_coercivity(T, POLICY)
    with pytest.raises(GridMismatch):
        lax_milgram_solve(T, GenVector(EpsGrid.geometric(12), np.ones((12, 3))),
                          good, POLICY)
    with pytest.raises(DimMismatch):
        lax_milgram_solve(T, _random_vector(rng, 4), good, POLICY)


def test_lax_milgram_singular_sample_reports_grid_index():
    mats = np.tile(np.eye(2), (GRID.K, 1, 1))
    mats[4] = 0.0  # k = 5 is singular; the certificate comes from elsewhere
    good = certify_coercivity(BasicOperator.identity(GRID, 2), POLICY)
    with pytest.raises(SingularSample) as err:
        lax_milgram_solve(BasicOperator(GRID, mats),
                          GenVector(GRID, np.ones((GRID.K, 2))), good, POLICY)
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


def test_halfspace_box_matches_active_set_enumeration():
    rng = np.random.default_rng(637)
    for trial in range(4):
        d = int(rng.integers(1, 4))
        T = _spd_operator(rng, d) if trial % 2 == 0 else _nonsym_operator(rng, d)
        c = _random_vector(rng, d)
        lower = rng.uniform(-1.0, 0.0, d)
        upper = lower + rng.uniform(0.5, 2.0, d)
        C = ConvexSetNet.halfspaces(GRID, np.vstack([np.eye(d), -np.eye(d)]),
                                    np.concatenate([upper, -lower]))
        sol = vi_solve_contraction(T, c, C, certify_coercivity(T, POLICY), POLICY)
        for k in range(GRID.K):
            ref = solve_box_vi(T.samples[k], c.samples[k], lower, upper)
            assert np.linalg.norm(sol.u.samples[k] - ref) <= ORACLE_TOL


def test_halfspace_projection_runs_only_on_active_points(monkeypatch):
    # right-hand sides from 1 to 1e3 across the grid: the large ones pin u to
    # a corner of the box within two steps, the small ones take many more
    seen = []

    def counting(rows, offs, x0, *args):
        seen.append(x0.shape[0])
        return dykstra(rows, offs, x0, *args)

    dykstra = convex._dykstra
    monkeypatch.setattr(convex, "_dykstra", counting)
    d = 3
    T = BasicOperator.constant(np.diag([1.0, 1.25, 1.5]), GRID)
    scale = np.geomspace(1.0, 1e3, GRID.K)
    c = GenVector(GRID, scale[:, None] * np.array([0.3, 0.2, 0.1]))
    C = ConvexSetNet.halfspaces(GRID, np.vstack([np.eye(d), -np.eye(d)]), np.ones(2 * d))
    sol = vi_solve_contraction(T, c, C, certify_coercivity(T, POLICY), POLICY)
    # the first projection takes every point, each later one only the unfinished
    assert sum(seen) == GRID.K + sol.iterations.sum()
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
    u_lm = lax_milgram_solve(T, c, cert, POLICY)
    gap = np.linalg.norm(sol.u.samples - u_lm.samples, axis=1)
    assert np.all(gap <= UNIQUENESS_TOL * (1.0 + rnorm(u_lm).samples))


def test_contraction_requires_positive_alpha():
    rng = np.random.default_rng(653)
    skew = BasicOperator.constant(np.array([[0.0, 1.0], [-1.0, 0.0]]), GRID)
    cert = certify_coercivity(skew, POLICY)
    with pytest.raises(InvalidCertificate):
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
    elif kind == "affine":
        r = max(1, d - 1)
        C = ConvexSetNet.affine(SMALL_GRID, rng.standard_normal((K, r, d)), lower)
    else:
        rows = np.vstack([np.eye(d), -np.eye(d), np.ones((1, d))])
        offs = np.hstack([upper, -lower, upper.sum(axis=1, keepdims=True) - 0.25])
        C = ConvexSetNet.halfspaces(SMALL_GRID, np.tile(rows, (K, 1, 1)), offs)
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
       kind=st.sampled_from(["box", "obstacle", "affine", "halfspaces"]),
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
    return CoercivityCertificate(GenScalar(T.grid, real), 1, True)


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
    of test_cli's vanishing-diffusion case: (spec, dense net, rhs, set,
    lifting).  alpha_k / M_k falls from 2e-3 to 4e-6 at n = 32, so
    tol_abs (1 - k_k) / k_k lies below rounding."""
    spec = ProblemSpec(
        grid=GRID, mesh=Mesh1D(0.0, 1.0, n_elems),
        diffusion=CoefficientNet.heaviside_nu(GRID, nu_exponent=0.5, jump_at=0.4, high=1.0),
        rhs=-8.0,
        obstacle=CoefficientNet.tabulated(GRID, [0.0, 0.5, 1.0], [-1.0, -0.6, -1.0]))
    T, b, gtilde, *_ = _assemble_all(spec)
    dense = BasicOperator(GRID, bands_to_dense(T.samples))
    C = ConvexSetNet.obstacle(GRID, spec.obstacle_nodal()[:, 1:-1] - gtilde[:, 1:-1])
    return spec, dense, GenVector(GRID, b), C, gtilde


@pytest.mark.parametrize("n_elems", [32, 64])
def test_contraction_reaches_the_active_set_answer_on_a_dense_heaviside_net(n_elems):
    # the steps settle in a two-cycle at rounding level, which must end the
    # iteration there, within the active-set answer's certified error
    spec, dense, c, C, gtilde = _dense_heaviside_obstacle(n_elems)
    sol = vi_solve_contraction(dense, c, C, certify_coercivity(dense, POLICY), POLICY)
    ref = solve_obstacle(spec, POLICY)
    gap = np.linalg.norm(sol.u.samples - (ref.u.samples - gtilde)[:, 1:-1], axis=1)
    assert np.all(gap <= ref.error_bound.samples)


def test_running_rows_match_the_masked_loop_on_two_cycles():
    # grid points end by a two-cycle after 2,040 to 4,206 sweeps
    _, dense, c, C, _ = _dense_heaviside_obstacle(32)
    cert = certify_coercivity(dense, POLICY)
    got = _contraction_outcome(lambda: _running_rows(dense, c, C, cert))
    assert got == _contraction_outcome(lambda: vi_contraction_masked(dense, c, C, cert, POLICY))


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


def test_contraction_names_the_first_nonpositive_alpha():
    alpha = np.ones(GRID.K)
    alpha[[8, 15]] = [0.0, -1.0]
    cert = CoercivityCertificate(GenScalar(GRID, alpha), witness_exponent=0, valid=True)
    T = BasicOperator.identity(GRID, 2)
    C = ConvexSetNet.obstacle(GRID, np.zeros(2))
    with pytest.raises(InvalidCertificate, match="alpha = 0.000e\\+00 at grid index k=9"):
        vi_solve_contraction(T, _random_vector(np.random.default_rng(5), 2), C, cert, POLICY)


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
    T = TridiagonalOperator.symmetric(GRID, rng.uniform(2.0, 3.0, (GRID.K, n)),
                                      rng.standard_normal((GRID.K, n - 1)))
    mats = bands_to_dense(T.samples)
    u = rng.standard_normal((GRID.K, n))
    dense = np.einsum("kij,kj->ki", mats, u)
    assert np.allclose(T.matvec(u), dense, rtol=1e-14, atol=0.0)
    # general bands: unequal off-diagonals, real and complex
    for field in ("real", "complex"):
        bands = rng.standard_normal((GRID.K, 3, n))
        if field == "complex":
            bands = bands + 1j * rng.standard_normal((GRID.K, 3, n))
        T = TridiagonalOperator(GRID, bands, field)
        mats = bands_to_dense(T.samples)
        assert T.field_tag == field and np.any(mats != np.swapaxes(mats, 1, 2))
        assert np.allclose(T.matvec(u), np.einsum("kij,kj->ki", mats, u), rtol=1e-14, atol=0.0)
        assert np.allclose(T.solve(u), np.linalg.solve(mats, u[..., None])[..., 0],
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
    cert = certify_coercivity(BasicOperator.identity(GRID, 2), POLICY)
    u = lax_milgram_solve(T, c, cert, POLICY)
    assert DampedIdentity.calls == 4  # one batched solve per round
    assert np.all(rnorm(u - c).samples <= RESIDUAL_REL * (1.0 + rnorm(c).samples))
    # a tighter target would need a fourth step, which is not taken
    with pytest.raises(ResidualTargetMissed) as err:
        lax_milgram_solve(T, c, cert, POLICY, rel_residual=1e-13)
    assert err.value.k == 1


def test_refinement_touches_only_the_samples_short_of_the_target():
    # the solve is off by 1e-3 on odd samples and by 1e-12 on even ones,
    # which already meet the 1e-10 target and must keep their first solve
    damping = np.where(np.arange(GRID.K) % 2 == 1, 1e-3, 1e-12)

    class UnevenIdentity(BasicOperator):
        def solve(self, b):
            return b / (1.0 + damping[:, None])

    T = UnevenIdentity(GRID, np.tile(np.eye(2), (GRID.K, 1, 1)))
    c = GenVector(GRID, np.tile([0.6, 0.8], (GRID.K, 1)))
    u = lax_milgram_solve(T, c, certify_coercivity(BasicOperator.identity(GRID, 2), POLICY),
                          POLICY)
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
    T = TridiagonalOperator.symmetric(GRID, rng.uniform(2.5, 3.5, (GRID.K, m)),
                                      rng.uniform(-1.0, 1.0, (GRID.K, m - 1)))
    c = _random_vector(rng, m)
    cert = certify_coercivity(BasicOperator.identity(GRID, 1), POLICY)
    lax_milgram_solve(T, c, cert, POLICY)
    assert len(gtsv_calls) == 1
    # a target no float64 solve can meet forces all three refinement rounds
    gtsv_calls.clear()
    with pytest.raises(ResidualTargetMissed):
        lax_milgram_solve(T, c, cert, POLICY, rel_residual=1e-300)
    assert len(gtsv_calls) == 4
    # the counter sees per-sample solve_banded calls too
    gtsv_calls.clear()
    for k in range(GRID.K):
        solve_banded((1, 1), T.samples[k], c.samples[k])
    assert len(gtsv_calls) == GRID.K


def test_band_nets_are_refused_by_the_dense_layer():
    rng = np.random.default_rng(680)
    n = 3  # (3, 3) band samples have the shape of square dense ones
    T = TridiagonalOperator.symmetric(GRID, rng.uniform(2.5, 3.5, (GRID.K, n)),
                                      rng.uniform(-1.0, 1.0, (GRID.K, n - 1)))
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
    T = TridiagonalOperator.symmetric(GRID, rng.uniform(2.5, 3.5, (GRID.K, n)),
                                      rng.uniform(-1.0, 1.0, (GRID.K, n - 1)))
    dense = BasicOperator(GRID, bands_to_dense(T.samples))
    c = _random_vector(rng, n)
    lower = np.full((GRID.K, n), -0.1)
    C = ConvexSetNet.obstacle(GRID, lower[0])
    cert = certify_coercivity(dense, POLICY)
    dense_sol = vi_solve_contraction(dense, c, C, cert, POLICY)
    band_u, _ = _pdas(T, c.samples, lower)
    assert np.max(np.abs(band_u - dense_sol.u.samples)) <= ORACLE_TOL
    w = lax_milgram_solve(T, c, cert, POLICY)
    assert np.allclose(w.samples, lax_milgram_solve(dense, c, cert, POLICY).samples,
                       rtol=1e-10, atol=1e-12)
