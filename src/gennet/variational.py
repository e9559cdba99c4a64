"""Coercive variational problems over the generalized scalars.

Per grid point these are ordinary finite-dimensional problems; the
point of the module is to certify coercivity as a *net* (the lower
bound alpha_k may decay like a power of eps_k and still count, as long
as it stays invertible in the generalized sense), to solve the
per-sample systems to a uniform relative residual, and to run the
projected fixed-point iteration for variational inequalities with an
explicit contraction factor per grid point.

The contraction step for u' = P_C(rho (c - T u) + u) uses the general
nonsymmetric step rho = alpha/M^2 with factor sqrt(1 - alpha^2/M^2);
for a self-adjoint sample T_k the optimal rho = 2/(alpha + M) is used
instead, whose factor (M - alpha)/(M + alpha) is never worse.  T_k is
self-adjoint here when max |T_k - T_k*| <= tol_abs max |T_k|: rounding
alone, no eps_k**q_neg floor, since the step is a fact about one matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .convex import ConvexSetNet
from .errors import (
    CoercivityFailure,
    ContractionBoundViolated,
    DimMismatch,
    IterationBudgetExceeded,
    NoConvergence,
    ResidualTargetMissed,
)
from .gennum import (
    GenScalar,
    NumericPolicy,
    _check_scale,
    _first_k,
    _invertible,
    _negligible,
    _norms,
    _same_grid,
    _tail_positions,
    ge_zero,  # noqa: F401 -- unused; perfbench/spans.py wraps it here by name
    invertible_wrt,
    write_grid_csv,
)
from .hilbert import GenVector
from .operators import (
    BasicOperator,
    TridiagonalOperator,
    _self_adjoint,
    classify_operator,  # noqa: F401 -- unused; perfbench/spans.py wraps it here by name
    op_norm_net,
)

_EPS_MACH = np.finfo(float).eps
_REFINEMENTS = 3  # iterative-refinement steps after the direct solve
_RATIO_SLACK = 1e-6  # a step ratio's excess over its factor: scale-free, rounding ~sqrt(eps)
RESIDUAL_TARGET = 1e-10  # relative residual every Lax-Milgram solve must reach
_BLOCKS = (1, 2, 4, 8, 16)  # sweeps per stop check; every later block has the last size
_MAX_SWEEPS = 200_000  # cap on every grid point's iteration budget


@dataclass(frozen=True)
class CoercivityCertificate:
    """A per-sample coercivity lower bound with its invertibility witness.

    ``failure`` is (k, check): the first tail grid index k (1-based) where
    alpha breaks the rule of ``from_alpha``, and the check it breaks; None
    if there is none, which is what makes the certificate ``valid``.
    """

    alpha: GenScalar
    witness_exponent: int | None
    failure: tuple[int, str] | None

    @property
    def valid(self) -> bool:
        return self.failure is None

    @classmethod
    def from_alpha(cls, alpha: GenScalar, policy: NumericPolicy) -> "CoercivityCertificate":
        """The certificate of the real lower-bound net ``alpha``, read on the tail.

        Every tail alpha_k must pass gennum's rules: nonnegative in the order sense,
        alpha_k >= -eps_k**q_neg, and invertible, 0 < |alpha_k| >= eps_k**m_inv; the witness is
        invertible_wrt's on the whole grid, the least such m on the whole tail.
        """
        if not alpha.is_real():
            raise ValueError("order test needs a real net")
        witness = invertible_wrt(alpha, np.ones(alpha.grid.K, dtype=bool), policy).witness
        pos = _tail_positions(alpha.grid, policy)
        a, eps = alpha.samples[pos], alpha.grid.values[pos]
        negative = ~_negligible(np.maximum(-a, 0.0), eps, policy)
        failure = None
        if j := _first_k(negative | ~_invertible(np.abs(a), eps, policy.m_inv)):  # on the tail
            check = "alpha_k < -eps_k^q_neg" if negative[j - 1] else "|alpha_k| < eps_k^m_inv"
            failure = int(pos[j - 1]) + 1, check
        return cls(alpha, witness, failure)

    def to_json(self) -> dict:
        return {
            "alpha": self.alpha.samples.tolist(),
            "witness_exponent": self.witness_exponent,
            "valid": self.valid,
        }


def certify_coercivity(T: BasicOperator, policy: NumericPolicy) -> CoercivityCertificate:
    """Bound <T_k x, x> >= alpha_k |x|^2 via the symmetric part's lowest eigenvalue.

    See CoercivityCertificate.from_alpha for when the certificate is valid.
    """
    if not T.is_square:
        raise DimMismatch("coercivity requires a square operator net")
    sym = 0.5 * (T.samples + np.conj(np.swapaxes(T.samples, 1, 2)))
    alpha = np.linalg.eigvalsh(sym)[:, 0]
    return CoercivityCertificate.from_alpha(GenScalar(T.grid, alpha), policy)


def _certified_alpha(cert: CoercivityCertificate, positive: bool) -> np.ndarray:
    """cert.alpha's float samples past the solvers' gate: CoercivityFailure at
    ``cert.failure`` and, with ``positive``, at the first alpha_k that is not > 0."""
    alpha = cert.alpha.samples.astype(float)
    k, check = cert.failure or (_first_k(~(alpha > 0.0)) if positive else None, "alpha_k <= 0")
    if k:
        raise CoercivityFailure(k, check, alpha=float(alpha[k - 1]))
    return alpha


@dataclass(frozen=True)
class LaxMilgramSolution:
    """The solution net of ``lax_milgram_solve`` and the relative residuals
    |T_k u_k - c_k| / (1 + |c_k|) of its last check."""

    u: GenVector
    residual: GenScalar


def lax_milgram_solve(T: BasicOperator | TridiagonalOperator, c: GenVector,
                      cert: CoercivityCertificate) -> LaxMilgramSolution:
    """Solve T_k u_k = c_k at every grid point under a valid coercivity certificate.

    All K sample systems go to one batched direct solve (for a band net,
    a single LAPACK ``?gtsv`` call on the block-diagonal stack), followed
    by up to _REFINEMENTS rounds of iterative refinement until the
    relative residual |T_k u_k - c_k| / (1 + |c_k|) drops below
    RESIDUAL_TARGET.  The residual is checked after every round; a round
    is one batched solve of the residuals, applied only to the samples
    still short of the target (norms by ``_norms``, scale by ``_check_scale``).
    Returns the solution net with the relative residuals of the last check.
    A numerically singular sample raises SingularSample naming its grid
    index; a sample still above the residual target after the last round
    raises ResidualTargetMissed.
    A valid certificate reads only the tail, so a sample before it may be
    indefinite (alpha_k <= 0): a kernel for positive definite samples
    (``?pttrf``) must leave those to the pivoting ``?gtsv`` or refuse them.
    """
    _certified_alpha(cert, positive=False)
    _same_grid(T, c)
    if T.dims[1] != c.dim:
        raise DimMismatch(f"operator takes dim {T.dims[1]}, rhs has dim {c.dim}")
    b = c.samples
    out = T.solve(b)
    scale = _check_scale(b)
    limit = RESIDUAL_TARGET * scale
    for step in range(_REFINEMENTS + 1):
        r = T.matvec(out) - b
        r_norm = _norms(r)
        short = ~(r_norm <= limit)
        if not short.any():
            break
        if step == _REFINEMENTS:
            k = _first_k(short)
            raise ResidualTargetMissed(k, "residual_k > target after refinement",
                                       residual=float(r_norm[k - 1] / scale[k - 1]),
                                       target=RESIDUAL_TARGET)
        out[short] -= T.solve(r)[short]
    return LaxMilgramSolution(GenVector(c.grid, out), GenScalar(c.grid, r_norm / scale))


@dataclass(frozen=True)
class VISolution:
    """Solution of a discrete variational inequality plus iteration data.

    ``sweeps`` counts the sweeps computed, summed over the grid points:
    ``iterations.sum()`` plus the overshoot of each point's last block.
    ``stop_checks`` counts the blocks, each checked once for stops.
    """

    u: GenVector
    iterations: np.ndarray
    contraction_k: GenScalar
    residual: GenScalar
    alpha: GenScalar
    operator_norm: GenScalar
    step_rho: GenScalar
    max_step_ratio: GenScalar
    sweeps: int
    stop_checks: int

    def write_iterations_csv(self, path):
        """One row per grid point: step data and iteration count."""
        write_grid_csv(
            path, self.u.grid,
            ["alpha", "M", "rho", "contraction_k", "iterations", "residual"],
            [self.alpha.samples, self.operator_norm.samples, self.step_rho.samples,
             self.contraction_k.samples, self.iterations, self.residual.samples],
        )


@np.errstate(invalid="ignore")  # infinite data give NaN iterates, which run out of budget
def vi_solve_contraction(
    T: BasicOperator,
    c: GenVector,
    C: ConvexSetNet,
    cert: CoercivityCertificate,
    policy: NumericPolicy,
    start: GenVector | None = None,
) -> VISolution:
    """Projected contraction iteration for <T u - c, v - u> >= 0 on C.

    Runs u <- P_C(rho_k (c_k - T_k u_k) + u_k) from P_C(0) (or from
    P_C(start)); each grid point's step and contraction factor follow
    from its own sample T_k as the module docstring says.  A grid point
    stops when its step norm falls below tol_abs * (1 - k_k) / max(k_k,
    tol_abs), or the iteration reaches an exact fixed point, or the step
    hits the floor 4 * eps_mach * (1 + |u|) of its iterate (``_check_scale``:
    never once that overflows), or the iterate equals the one before last:
    in exact arithmetic the iterates of a contraction never repeat short of
    the fixed point, so such a two-cycle is rounding, and its points lie
    within the rounding error of two updates over (1 - k_k**2) of the
    solution.  The iteration budget per point is ceil(log tol_abs / log
    k_k) plus half again (at least 1024), at most _MAX_SWEEPS; exceeding
    it raises IterationBudgetExceeded.  A factor that rounds to 1 gives no
    budget: NoConvergence names its point before any sweep.

    The sweeps run in blocks of _BLOCKS sweeps (1, 2, 4, 8, then 16
    each), on the grid points still iterating when the block starts:
    their operator rows, data, iterates, last steps and ratios form a
    compressed state that a point leaves after the block in which it
    stops.  The stop tests, the ratio record and the budget test are
    evaluated once per block, as arrays over its sweeps; each point
    takes its answer, sweep count, last step and ratio from its first
    stopping sweep, and the budget error goes to the earliest sweep over
    budget before a point's stop (the lowest grid index on ties).  So
    every output and error has the bits of a loop that checks after each
    sweep.  A point that stops after t sweeps is swept at most
    min(t - 1, 15) more times; ``sweeps`` and ``stop_checks`` of the
    result count that work.

    The returned max_step_ratio records, per grid point, the largest
    observed |u_{n+1} - u_n| / |u_n - u_{n-1}|, measured only while the
    steps stay above the floating noise floor sqrt(eps_mach) * scale;
    the contraction property bounds it by contraction_k.  After the
    iteration this bound is checked: the first grid point whose ratio
    exceeds contraction_k + 1e-6 raises ContractionBoundViolated.
    Inputs on different grids raise GridMismatch; a T that is not d x d
    for the dimension d of c and C raises DimMismatch.
    """
    alpha = _certified_alpha(cert, positive=True)
    _same_grid(c, T, C)
    if T.dims != (c.dim, c.dim) or C.dim != c.dim:
        raise DimMismatch(f"operator has dims {T.dims}, rhs dim {c.dim}, set dim {C.dim}")
    M = op_norm_net(T).samples
    sa = _self_adjoint(T, policy)
    a, m = np.where(sa, 1.0, [alpha, M])  # 1s where unused: alpha^2 / M^2 cannot overflow there
    rho, kfac = np.where(sa, [2.0 / (alpha + M), (M - alpha) / (M + alpha)],
                         [a / m ** 2, np.sqrt(np.maximum(0.0, 1.0 - a ** 2 / m ** 2))])
    if k := _first_k(~(kfac < 1.0)):  # then the iteration has no budget
        raise NoConvergence(k, "contraction_k rounds to 1",
                            alpha_over_M=float(alpha[k - 1] / M[k - 1]))

    K, d = c.samples.shape
    tol = policy.tol_abs
    thresholds = tol * (1.0 - kfac) / np.maximum(kfac, tol)
    budgets = np.full(K, 8, dtype=np.int64)
    for k in np.flatnonzero(kfac > 0.0):
        base = math.ceil(math.log(tol) / math.log(kfac[k]))
        budgets[k] = min(base + max(1024, base // 2), _MAX_SWEEPS)

    x = C.batched_projector()(np.zeros_like(c.samples, dtype=float) if start is None
                              else start.samples.astype(float))
    dtype = np.result_type(T.samples, c.samples, rho, x)  # complex data, complex iterates
    u = np.empty((K, d), dtype)
    iterations = np.zeros(K, dtype=np.int64)
    last_step = np.zeros(K)
    max_ratio = np.zeros(K)
    ratio_floor = math.sqrt(_EPS_MACH)
    first_budget = int(budgets.min())

    # the running state: grid indices, operator rows, data, iterates, last
    # steps and max ratios of the points still iterating, in grid order.
    # Before the first sweep the iterate before last and the last step are
    # NaN, which fails the two-cycle and ratio tests that sweep must skip.
    rows = np.arange(K)
    A, b, step_rho, thr, bud = T.samples, c.samples, rho[:, None], thresholds, budgets
    x_prev, last, ratio = np.full_like(x, np.nan), np.full(K, np.nan), np.zeros(K)
    project = C.row_projector(rows)
    it = sweeps = checks = 0
    while rows.size:
        size = _BLOCKS[min(checks, len(_BLOCKS) - 1)]
        # X[0] is the iterate before last, X[1] the iterate, X[t + 1] sweep t
        X = np.empty((size + 2, rows.size, d), dtype)
        X[0], X[1] = x_prev, x
        for t in range(1, size + 1):
            X[t + 1] = project(step_rho * (b - np.einsum("kij,kj->ki", A, X[t])) + X[t])
        sweeps += size * rows.size
        checks += 1
        step = _norms(X[2:] - X[1:-1])
        scale = _check_scale(X[2:])
        before = np.concatenate([last[None], step[:-1]])
        measurable = before > ratio_floor * scale
        ratios = np.maximum(ratio, np.maximum.accumulate(
            np.divide(step, before, out=np.zeros_like(step), where=measurable)))
        # (0 steps included; floor: a few ulps of sample k's iterate; last term: a rounding 2-cycle)
        done = ((step <= thr) | (step <= 4.0 * _EPS_MACH * scale)
                | (X[2:] == X[:-2]).all(axis=2))
        running = ~np.logical_or.accumulate(done)
        if it + size >= first_budget:
            over = running & (bud <= it + np.arange(1, size + 1)[:, None])
            if over.any():
                t, j = divmod(int(np.argmax(over)), rows.size)
                raise IterationBudgetExceeded(int(rows[j]) + 1, "iterations_k > budget_k",
                                              budget=int(bud[j]), step_norm=float(step[t, j]))
        x_prev, x, last, ratio = X[-2], X[-1], step[-1], ratios[-1]
        going = running[-1]
        if not going.all():
            cols = np.flatnonzero(~going)
            t = np.argmax(done[:, cols], axis=0)
            finished = rows[cols]
            u[finished] = X[t + 2, cols]
            iterations[finished] = it + t + 1
            last_step[finished] = step[t, cols]
            max_ratio[finished] = ratios[t, cols]
            rows, A, b, step_rho, thr, bud, x_prev, x, last, ratio = (
                a[going] for a in (rows, A, b, step_rho, thr, bud, x_prev, x, last, ratio))
            project = C.row_projector(rows)
        it += size

    if k := _first_k(max_ratio > kfac + _RATIO_SLACK):
        raise ContractionBoundViolated(k, "max_step_ratio_k > contraction_k",
                                       ratio=float(max_ratio[k - 1]), factor=float(kfac[k - 1]))

    grid = c.grid
    return VISolution(
        u=GenVector(grid, u),
        iterations=iterations,
        contraction_k=GenScalar(grid, kfac),
        residual=GenScalar(grid, last_step),
        alpha=GenScalar(grid, alpha),
        operator_norm=GenScalar(grid, M),
        step_rho=GenScalar(grid, rho),
        max_step_ratio=GenScalar(grid, max_ratio),
        sweeps=sweeps,
        stop_checks=checks,
    )
