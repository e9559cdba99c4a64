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
    NoConvergence,
    ResidualTargetMissed,
)
from .gennum import (
    GenScalar,
    IndexSet,
    NumericPolicy,
    ge_zero,
    invertible_wrt,
)
from .hilbert import GenVector
from .operators import BasicOperator, TridiagonalOperator, classify_operator, op_norm_net

_EPS_MACH = np.finfo(float).eps
_REFINEMENTS = 3  # iterative-refinement steps after the direct solve
_RATIO_SLACK = 1e-6  # allowed excess of an observed step ratio over its factor


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
    rel_residual: float = 1e-10,
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
    return GenVector._by_dtype(c.grid, out)


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
    max_step_ratio: GenScalar | None = None


def vi_solve_contraction(
    T: BasicOperator | TridiagonalOperator,
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
    step hits the floating-point floor 4 * eps_mach * (1 + |u|).  The
    iteration budget per point is ceil(log tol_abs / log k_k) plus half
    again (at least 1024); exceeding it raises IterationBudgetExceeded.

    The returned max_step_ratio records, per grid point, the largest
    observed |u_{n+1} - u_n| / |u_n - u_{n-1}|, measured only while the
    steps stay above the floating noise floor sqrt(eps_mach) * scale;
    the contraction property bounds it by contraction_k.  After the
    iteration this bound is checked: the first grid point whose ratio
    exceeds contraction_k + 1e-6 raises ContractionBoundViolated.
    """
    if not cert.valid:
        raise InvalidCertificate("coercivity certificate is not valid")
    alpha = cert.alpha.samples.astype(float)
    if np.any(alpha <= 0.0):
        k = int(np.flatnonzero(alpha <= 0.0)[0])
        raise InvalidCertificate("contraction step needs strictly positive alpha samples; "
                                 f"alpha = {alpha[k]:.3e} at grid index k={k + 1}")
    M = op_norm_net(T).samples
    if isinstance(T, TridiagonalOperator) or classify_operator(T, policy)["self_adjoint"]:
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
    project = C.masked_projector()
    iterations = np.zeros(K, dtype=np.int64)
    last_step = np.zeros(K)
    max_ratio = np.zeros(K)
    active = np.ones(K, dtype=bool)
    max_budget = int(budgets.max())
    ratio_floor = math.sqrt(_EPS_MACH)

    it = 0
    while np.any(active):
        it += 1
        if it > max_budget:
            k_bad = int(np.nonzero(active)[0][0])
            raise IterationBudgetExceeded(k_bad + 1, int(budgets[k_bad]),
                                          float(last_step[k_bad]))
        z = rho[:, None] * (c.samples - T.matvec(u)) + u
        u_next = project(z, active, u)
        step = np.linalg.norm(u_next - u, axis=1)
        scale = 1.0 + np.linalg.norm(u_next, axis=1)
        measurable = active & (iterations >= 1) & (last_step > ratio_floor * scale)
        if np.any(measurable):
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.where(measurable, step / last_step, 0.0)
            max_ratio = np.maximum(max_ratio, ratio)
        floor = 4.0 * _EPS_MACH * scale
        done_now = active & (
            (step <= thresholds) | (step == 0.0) | (step <= floor)
        )
        over = active & ~done_now & (iterations + 1 >= budgets)
        if np.any(over):
            k_bad = int(np.nonzero(over)[0][0])
            raise IterationBudgetExceeded(k_bad + 1, int(budgets[k_bad]),
                                          float(step[k_bad]))
        iterations[active] += 1
        last_step[active] = step[active]
        u = u_next
        active &= ~done_now

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


def vi_solve_minimization(
    T: BasicOperator,
    c: GenVector,
    C: ConvexSetNet,
    policy: NumericPolicy,
    max_iter: int = 500_000,
) -> VISolution:
    """Minimize <T u, u> - 2 <c, u> over C by projected gradient descent.

    Requires T self-adjoint with a valid coercivity certificate
    (InvalidCertificate otherwise).  Each step projects the gradient
    move u - (1/M_k) (T_k u_k - c_k), then takes an exact line search
    along the feasible direction; a grid point stops when its scaled
    projected-gradient norm falls below tol_abs * (1 + |c_k|).
    """
    if not classify_operator(T, policy)["self_adjoint"]:
        raise InvalidCertificate("minimization form requires a self-adjoint operator")
    cert = certify_coercivity(T, policy)
    if not cert.valid or np.any(cert.alpha.samples <= 0.0):
        raise InvalidCertificate("operator is not certifiably coercive")
    alpha = cert.alpha.samples.astype(float)
    M = op_norm_net(T).samples
    step = 1.0 / M
    tol = policy.tol_abs

    K = c.samples.shape[0]
    u = C.batched_projector()(np.zeros_like(c.samples, dtype=float))
    project = C.masked_projector()
    iterations = np.zeros(K, dtype=np.int64)
    resid = np.zeros(K)
    active = np.ones(K, dtype=bool)
    stop_at = tol * (1.0 + np.linalg.norm(c.samples, axis=1))

    it = 0
    while np.any(active) and it < max_iter:
        it += 1
        g = T.matvec(u) - c.samples
        trial = u - step[:, None] * g
        proj = project(trial, active, u)
        d_dir = proj - u
        pg = np.linalg.norm(d_dir, axis=1) / step
        floor = 4.0 * _EPS_MACH * (1.0 + np.linalg.norm(u, axis=1)) / step
        done_now = active & ((pg <= stop_at) | (pg <= floor))
        resid[active] = pg[active]
        newly_active = active & ~done_now
        if np.any(newly_active):
            Td = T.matvec(d_dir)
            curv = np.einsum("ki,ki->k", Td, d_dir)
            slope = np.einsum("ki,ki->k", g, d_dir)
            with np.errstate(divide="ignore", invalid="ignore"):
                t = np.where(curv > 0.0, -slope / curv, 1.0)
            t = np.clip(t, 0.0, 1.0)
            u = np.where(newly_active[:, None], u + t[:, None] * d_dir, u)
        iterations[active] += 1
        active = newly_active

    if np.any(active):
        k_bad = int(np.nonzero(active)[0][0])
        raise NoConvergence(
            f"projected gradient did not converge at grid point {k_bad + 1}",
            residual=float(resid[k_bad]),
        )

    grid = c.grid
    kfac = (M - alpha) / (M + alpha)
    return VISolution(
        u=GenVector(grid, u, c.field_tag),
        iterations=iterations,
        contraction_k=GenScalar(grid, kfac),
        residual=GenScalar(grid, resid),
        alpha=GenScalar(grid, alpha),
        operator_norm=GenScalar(grid, M),
        step_rho=GenScalar(grid, step),
    )
