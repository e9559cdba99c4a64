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
for self-adjoint T the optimal rho = 2/(alpha + M) is used instead,
whose factor (M - alpha)/(M + alpha) is never worse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .convex import ConvexSetNet
from .errors import (
    ContractionBoundViolated,
    DimMismatch,
    GridMismatch,
    InvalidCertificate,
    IterationBudgetExceeded,
    ResidualTargetMissed,
)
from .gennum import (
    GenScalar,
    IndexSet,
    NumericPolicy,
    ge_zero,
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
_RATIO_SLACK = 1e-6  # allowed excess of an observed step ratio over its factor
RESIDUAL_TARGET = 1e-10  # relative residual every Lax-Milgram solve must reach


@dataclass(frozen=True)
class CoercivityCertificate:
    """A per-sample coercivity lower bound with its invertibility witness."""

    alpha: GenScalar
    witness_exponent: int | None
    valid: bool

    @classmethod
    def from_alpha(cls, alpha: GenScalar, policy: NumericPolicy) -> "CoercivityCertificate":
        """The certificate of the lower-bound net ``alpha``.

        It is valid when alpha is nonnegative in the order sense and
        invertible with respect to the full grid; the witness exponent is
        the smallest m with |alpha_k| >= eps_k**m on the tail.
        """
        inv = invertible_wrt(alpha, IndexSet.full(alpha.grid), policy)
        return cls(alpha=alpha, witness_exponent=inv.witness,
                   valid=bool(ge_zero(alpha, policy) and inv.holds))

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


def lax_milgram_solve(
    T: BasicOperator | TridiagonalOperator,
    c: GenVector,
    cert: CoercivityCertificate,
    policy: NumericPolicy,
    rel_residual: float = RESIDUAL_TARGET,
) -> GenVector:
    """Solve T_k u_k = c_k at every grid point under a valid coercivity certificate.

    All K sample systems go to one batched direct solve (for a band net,
    a single LAPACK ``?gtsv`` call on the block-diagonal stack), followed
    by up to _REFINEMENTS rounds of iterative refinement until the
    relative residual |T_k u_k - c_k| / (1 + |c_k|) drops below
    ``rel_residual``.  The residual is checked after every round; a round
    is one batched solve of the residuals, applied only to the samples
    still short of the target.  A numerically singular sample raises
    SingularSample naming its grid index; a sample still above the
    residual target after the last round raises ResidualTargetMissed.
    """
    return _lax_milgram(T, c, cert, policy, rel_residual)[0]


def _lax_milgram(T, c, cert, policy, rel_residual=RESIDUAL_TARGET):
    """lax_milgram_solve's solution, with the (K,) relative residuals
    |T_k u_k - c_k| / (1 + |c_k|) of its last check."""
    if not cert.valid:
        raise InvalidCertificate("coercivity certificate is not valid")
    if not T.grid.same_as(c.grid):
        raise GridMismatch("operator and right-hand side on different grids")
    if T.dims[1] != c.dim:
        raise DimMismatch(f"operator takes dim {T.dims[1]}, rhs has dim {c.dim}")
    b = c.samples
    out = T.solve(b)
    scale = 1.0 + np.linalg.norm(b, axis=1)
    limit = rel_residual * scale
    for step in range(_REFINEMENTS + 1):
        r = T.matvec(out) - b
        r_norm = np.linalg.norm(r, axis=1)
        short = np.nonzero(~(r_norm <= limit))[0]
        if short.size == 0:
            break
        if step == _REFINEMENTS:
            k = int(short[0])
            raise ResidualTargetMissed(k + 1, float(r_norm[k] / scale[k]), rel_residual)
        out[short] -= T.solve(r)[short]
    return GenVector._by_dtype(c.grid, out), r_norm / scale


@dataclass(frozen=True)
class VISolution:
    """Solution of a discrete variational inequality plus iteration data."""

    u: GenVector
    iterations: np.ndarray
    contraction_k: GenScalar
    residual: GenScalar
    alpha: GenScalar
    operator_norm: GenScalar
    step_rho: GenScalar
    max_step_ratio: GenScalar

    def write_iterations_csv(self, path):
        """One row per grid point: step data and iteration count."""
        write_grid_csv(
            path, self.u.grid,
            ["alpha", "M", "rho", "contraction_k", "iterations", "residual"],
            [self.alpha.samples, self.operator_norm.samples, self.step_rho.samples,
             self.contraction_k.samples, self.iterations, self.residual.samples],
        )


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
    P_C(start)), with the step and contraction factor chosen per grid
    point as described in the module docstring.  A grid point stops
    when its step norm falls below tol_abs * (1 - k_k) / max(k_k,
    tol_abs), or the iteration reaches an exact fixed point, or the
    step hits the floating-point floor 4 * eps_mach * (1 + |u|), or the
    iterate equals the one before last: in exact arithmetic the iterates
    of a contraction never repeat short of the fixed point, so such a
    two-cycle is rounding, and its points lie within the rounding error
    of two updates over (1 - k_k**2) of the solution.  The iteration
    budget per point is ceil(log tol_abs / log k_k) plus half again (at
    least 1024); exceeding it raises IterationBudgetExceeded.  Each sweep
    runs only on the grid points still iterating: their operator rows,
    data, iterates, last steps and ratios form a compressed state that a
    point leaves when it finishes.

    The returned max_step_ratio records, per grid point, the largest
    observed |u_{n+1} - u_n| / |u_n - u_{n-1}|, measured only while the
    steps stay above the floating noise floor sqrt(eps_mach) * scale;
    the contraction property bounds it by contraction_k.  After the
    iteration this bound is checked: the first grid point whose ratio
    exceeds contraction_k + 1e-6 raises ContractionBoundViolated.
    Inputs on different grids raise GridMismatch; a T that is not d x d
    for the dimension d of c and C raises DimMismatch.
    """
    if not cert.valid:
        raise InvalidCertificate("coercivity certificate is not valid")
    if not (T.grid.same_as(c.grid) and C.grid.same_as(c.grid)):
        raise GridMismatch("operator, right-hand side and set on different grids")
    if T.dims != (c.dim, c.dim) or C.dim != c.dim:
        raise DimMismatch(f"operator has dims {T.dims}, rhs dim {c.dim}, set dim {C.dim}")
    alpha = cert.alpha.samples.astype(float)
    if np.any(alpha <= 0.0):
        k = int(np.flatnonzero(alpha <= 0.0)[0])
        raise InvalidCertificate("contraction step needs strictly positive alpha samples; "
                                 f"alpha = {alpha[k]:.3e} at grid index k={k + 1}")
    M = op_norm_net(T).samples
    if _self_adjoint(T, policy):
        rho = 2.0 / (alpha + M)
        kfac = (M - alpha) / (M + alpha)
    else:
        rho = alpha / M ** 2
        kfac = np.sqrt(np.maximum(0.0, 1.0 - alpha ** 2 / M ** 2))

    K = c.samples.shape[0]
    tol = policy.tol_abs
    thresholds = tol * (1.0 - kfac) / np.maximum(kfac, tol)
    budgets = np.empty(K, dtype=np.int64)
    for k in range(K):
        if kfac[k] <= 0.0:
            budgets[k] = 8
        else:
            base = math.ceil(math.log(tol) / math.log(kfac[k]))
            budgets[k] = base + max(1024, base // 2)

    u = C.batched_projector()(np.zeros_like(c.samples, dtype=float) if start is None
                              else start.samples.astype(float))
    iterations = np.zeros(K, dtype=np.int64)
    last_step = np.zeros(K)
    max_ratio = np.zeros(K)
    ratio_floor = math.sqrt(_EPS_MACH)
    first_budget = int(budgets.min())

    # the running state: grid indices, operator rows, data, iterates, last
    # steps and max ratios of the points still iterating, in grid order
    rows = np.arange(K)
    A, b, step_rho, thr, bud = T.samples, c.samples, rho[:, None], thresholds, budgets
    x, x_prev, last, ratio = u, u, None, np.zeros(K)
    project = C.row_projector(rows)
    it = 0
    while rows.size:
        it += 1
        x_next = project(step_rho * (b - np.einsum("kij,kj->ki", A, x)) + x)
        step = _row_norms(x_next - x)
        scale = 1.0 + _row_norms(x_next)
        done = (step <= thr) | (step <= 4.0 * _EPS_MACH * scale)  # 0 steps included
        if it > 1:
            measurable = last > ratio_floor * scale
            np.maximum(ratio, np.divide(step, last, out=None, where=measurable), out=ratio,
                       where=measurable)
            # back at the iterate before last: a two-cycle of rounding
            done |= (x_next == x_prev).all(axis=1)
        if it >= first_budget:
            over = ~done & (bud <= it)
            if over.any():
                j = int(np.argmax(over))
                raise IterationBudgetExceeded(int(rows[j]) + 1, int(bud[j]), float(step[j]))
        x_prev, x, last = x, x_next, step
        if done.any():
            finished = rows[done]
            u[finished] = x[done]
            iterations[finished] = it
            last_step[finished] = step[done]
            max_ratio[finished] = ratio[done]
            going = ~done
            rows, A, b, step_rho, thr, bud, x, x_prev, last, ratio = (
                a[going] for a in (rows, A, b, step_rho, thr, bud, x, x_prev, last, ratio))
            project = C.row_projector(rows)

    violated = np.nonzero(max_ratio > kfac + _RATIO_SLACK)[0]
    if violated.size:
        k = int(violated[0])
        raise ContractionBoundViolated(k + 1, float(max_ratio[k]), float(kfac[k]))

    grid = c.grid
    return VISolution(
        u=GenVector(grid, u, c.field_tag),
        iterations=iterations,
        contraction_k=GenScalar(grid, kfac),
        residual=GenScalar(grid, last_step),
        alpha=GenScalar(grid, alpha),
        operator_norm=GenScalar(grid, M),
        step_rho=GenScalar(grid, rho),
        max_step_ratio=GenScalar(grid, max_ratio),
    )


def _row_norms(x: np.ndarray) -> np.ndarray:
    """np.linalg.norm(x, axis=1), bit for bit, without its argument handling."""
    return np.sqrt(np.add.reduce((x.conj() * x).real if np.iscomplexobj(x) else x * x, axis=1))
