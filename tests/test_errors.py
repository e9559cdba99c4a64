"""Every grid-point failure names its grid index and its check in one record.

Each ``GridPointFailure`` subclass is raised once through the public API;
the error must carry a 1-based ``k`` on the grid, a nonempty ``check``, and
a message that ends in ``at grid index k=<k>``.
"""

import numpy as np
import pytest

from gennet import (
    BasicOperator,
    CoefficientNet,
    CoercivityFailure,
    ContractionBoundViolated,
    ConvexSetNet,
    EmptySet,
    EpsGrid,
    GenVector,
    GridPointFailure,
    IterationBudgetExceeded,
    Mesh1D,
    NoConvergence,
    NumericPolicy,
    ProbeNotInSet,
    ProblemSpec,
    ResidualTargetMissed,
    SingularSample,
    certify_coercivity,
    characterization_residual,
    lax_milgram_solve,
    op_norm_net,
    solve_dirichlet,
    vi_solve_contraction,
)

GRID = EpsGrid.geometric(24)
POLICY = NumericPolicy()
ONES = GenVector(GRID, np.ones((GRID.K, 2)))
WIDE = ConvexSetNet.box(GRID, np.full(2, -1e6), np.full(2, 1e6))


def _constant(matrix):
    return BasicOperator.constant(np.array(matrix, dtype=float), GRID)


def _cert(matrix):
    return certify_coercivity(_constant(matrix), POLICY)


def _singular():
    mats = np.tile(np.eye(2), (GRID.K, 1, 1))
    mats[4] = 0.0
    lax_milgram_solve(BasicOperator(GRID, mats), ONES, _cert(np.eye(2)))


def _residual_missed():
    # 1 + |c_k| overflows, and no check against an infinite scale may pass
    lax_milgram_solve(_constant(np.eye(2)), GenVector(GRID, np.full((GRID.K, 2), 1.5e308)),
                      _cert(np.eye(2)))


def _budget_exceeded():
    # a certificate claiming alpha = M promises an 8-sweep budget; the
    # rotation-heavy operator expands instead
    T = _constant([[0.05, 1.0], [-1.0, 0.05]])
    M = float(op_norm_net(T).samples[0])
    vi_solve_contraction(T, GenVector(GRID, np.tile([30.0, -20.0], (GRID.K, 1))), WIDE,
                         _cert(M * np.eye(2)), POLICY)


def _bound_violated():
    # alpha = 3.9 on diag(1, 4) promises the factor 0.0127; the ratios near 0.747
    vi_solve_contraction(_constant(np.diag([1.0, 4.0])), ONES, WIDE, _cert(3.9 * np.eye(2)),
                         POLICY)


def _no_convergence():
    # diag(eps^3, 1): the self-adjoint factor rounds to 1 from k = 18
    mats = np.zeros((GRID.K, 2, 2))
    mats[:, 0, 0], mats[:, 1, 1] = GRID.values ** 3, 1.0
    T = BasicOperator(GRID, mats)
    vi_solve_contraction(T, ONES, ConvexSetNet.box(GRID, np.zeros(2), np.ones(2)),
                         certify_coercivity(T, POLICY), POLICY)


def _empty_set():
    upper = np.ones((GRID.K, 2))
    upper[2, 1] = -1.0
    ConvexSetNet.box(GRID, np.zeros(2), upper)


def _probe_outside():
    C = ConvexSetNet.box(GRID, np.zeros(1), np.ones(1))
    u = GenVector.constant(np.array([0.5]), GRID)
    probe = np.full((GRID.K, 1), 0.75)
    probe[4] = 5.0
    characterization_residual(C, u, u, [GenVector(GRID, probe)], POLICY)


def _not_coercive():
    # a potential of -30 makes alpha negative on the whole grid
    solve_dirichlet(ProblemSpec(grid=GRID, mesh=Mesh1D(0.0, 1.0, 50),
                                diffusion=CoefficientNet.constant(GRID, 1.0), rhs=1.0,
                                potential=CoefficientNet.constant(GRID, -30.0)), POLICY)


CASES = [
    (SingularSample, 5, _singular),
    (ResidualTargetMissed, 1, _residual_missed),
    (IterationBudgetExceeded, 1, _budget_exceeded),
    (ContractionBoundViolated, 1, _bound_violated),
    (NoConvergence, 18, _no_convergence),
    (EmptySet, 3, _empty_set),
    (ProbeNotInSet, 5, _probe_outside),
    (CoercivityFailure, 17, _not_coercive),
]


@pytest.mark.parametrize("error,k,trigger", CASES, ids=[error.__name__ for error, *_ in CASES])
def test_every_grid_point_failure_names_its_grid_index_and_check(error, k, trigger):
    with pytest.raises(error) as err:
        trigger()
    assert isinstance(err.value, GridPointFailure)
    assert 1 <= err.value.k <= GRID.K and err.value.k == k
    assert isinstance(err.value.check, str) and err.value.check
    assert str(err.value).endswith(f"at grid index k={err.value.k}")
