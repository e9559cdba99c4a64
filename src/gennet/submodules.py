"""Finitely generated submodules: interleaved Gram-Schmidt and friends.

Orthogonalizing a generator set over the generalized scalars cannot
simply divide by norms — a generator may vanish on part of the grid and
dominate elsewhere.  The interleaved recursion partitions the grid into
blocks S_j on which the j-th generator has the largest sample norm
(earlier j wins ties, minus previously claimed blocks), projects the
remaining generators off the dominant one there, recurses, and sums the
per-block outputs.  Each output is then normalized to have idempotent
norm: unit length on its support set, zero off it.

The recursion runs on one (K, m, d) array as at most m sweeps over the
whole grid: each sweep takes the dominant generator at every grid point
still running (lowest index on ties), drops what fails 0 < norm >=
eps_k**m_inv and projects the rest off it, so the cost is O(m*K*m*d) in
O(m) numpy calls.  Its norms and rule are the ones the support test takes,
so the drop decision and the support agree at every (j, k).  Where a sample norm
equals eps_k**m_inv up to rounding (a power tower at k = m_inv), which
side of the threshold it falls on, and so whether k is among the
offending_indices, follows the last bit of that norm.

The normalization is where the finite-scale analogue of the beta-type
pathology is caught: a norm net whose support (0 < samples >= eps**m_inv)
is nonempty but dies out before the tail window has no certifiable
uniform scale — neither invertible nor zero with respect to any
tail-visible split — and raises MixedScaleGenerator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch, GridMismatch, InvalidBasis, MixedScaleGenerator
from .gennum import EpsGrid, IndexSet, NumericPolicy, _invertible, _tail_positions
from .hilbert import GenVector, inner, lincomb
from .operators import BasicFunctional, BasicOperator

# residuals this far below the pre-projection sample norm are treated as
# exact zeros (they are rounding noise, not a smaller-scale component)
_FLUSH_REL = 1e-12


@dataclass(frozen=True)
class GeneratorSet:
    """A list of generators sharing one grid and dimension."""

    gens: tuple

    def __post_init__(self):
        gens = tuple(self.gens)
        if not gens:
            raise ValueError("need at least one generator")
        g0 = gens[0]
        for g in gens[1:]:
            if not g.grid.same_as(g0.grid):
                raise GridMismatch("generators on different grids")
            if g.dim != g0.dim:
                raise DimMismatch("generators of different dimensions")
        object.__setattr__(self, "gens", gens)

    @property
    def grid(self) -> EpsGrid:
        return self.gens[0].grid

    @property
    def dim(self) -> int:
        return self.gens[0].dim


@dataclass(frozen=True)
class OrthoBasis:
    """Mutually orthogonal vectors with idempotent norms e_S."""

    vecs: tuple
    supports: tuple

    def __post_init__(self):
        object.__setattr__(self, "vecs", tuple(self.vecs))
        object.__setattr__(self, "supports", tuple(self.supports))
        if len(self.vecs) != len(self.supports):
            raise InvalidBasis("one support per basis vector required")

    def __len__(self) -> int:
        return len(self.vecs)

    def validate(self, policy: NumericPolicy):
        """Check the idempotent-norm and orthogonality invariants.

        One (K, n, n) Gram net holds every inner product.  A failure
        raises InvalidBasis naming the check, the vector indices and the
        first failing grid point (1-based).
        """
        if not self.vecs:
            return
        for w in self.vecs[1:]:
            self.vecs[0]._check_partner(w)
        W = np.stack([w.samples for w in self.vecs], axis=1)
        gram = W @ np.conj(np.swapaxes(W, 1, 2))
        norms = np.sqrt(np.real(np.diagonal(gram, axis1=1, axis2=2)))
        mask = np.stack([S.mask() for S in self.supports], axis=1)
        tol = 100 * policy.tol_abs
        checks = (
            ("unit length", "is not unit length on its support",
             mask & (np.abs(norms - 1.0) > tol)),
            ("zero off the support", "is nonzero off its support", ~mask & (norms > tol)),
        )
        for check, what, bad in checks:
            if np.any(bad):
                j, k = np.argwhere(bad.T)[0]
                raise InvalidBasis(f"{check}: vector {j} {what} at grid point "
                                   f"k={k + 1} (norm {norms[k, j]:.3e})")
        upper = np.triu(np.ones(len(self.vecs), dtype=bool), 1)
        bad = upper & (np.abs(gram) > tol)
        if np.any(bad):
            j, i, k = np.argwhere(bad.transpose(2, 1, 0))[0]
            raise InvalidBasis(f"orthogonality: vectors {i} and {j} are not orthogonal at "
                               f"grid point k={k + 1} "
                               f"(|<w_{i}, w_{j}>| = {abs(gram[k, i, j]):.3e})")


def idempotent_normalize(u: GenVector, policy: NumericPolicy):
    """Rescale u to unit sample norm on its support set.

    The support is the tail-extended pointwise set
    S = {k : 0 < ||u_k|| >= eps_k**m_inv} (gennum's ``_invertible``: a zero
    u_k is outside S even where eps_k**m_inv is 0); on S the result has unit
    sample norm, off S it is zero, and u = rnorm(u) * w up to negligibility.

    Raises MixedScaleGenerator when the norm net has no uniform scale:
    either a tail sample falls in the open gap between the
    invertibility and negligibility thresholds (possible only when
    q_neg > m_inv), or the support is nonempty yet misses the tail
    window entirely, so no invertible-or-zero split is certifiable on
    the asymptotic window (the beta pathology at finite scale).

    Returns (w, S).
    """
    w, support = _normalize(u.samples[:, None, :], u.grid, policy)
    return GenVector(u.grid, w[:, 0]), IndexSet.from_mask(support[:, 0])


def _normalize(samples: np.ndarray, grid: EpsGrid, policy: NumericPolicy):
    """idempotent_normalize of the m vectors of a (K, m, d) stack at once.

    Returns the (K, m, d) normalized stack and the (K, m) support masks.
    The norms are rnorm's, bit for bit.  The first vector j without a
    uniform scale raises MixedScaleGenerator, naming the indices and
    reason idempotent_normalize gives for it alone.
    """
    norms = np.linalg.norm(samples, axis=2)
    eps = grid.values[:, None]
    support = _invertible(norms, eps, policy.m_inv)
    tail = _tail_positions(grid, policy)
    in_gap = (~support[tail]) & (norms[tail] > eps[tail] ** policy.q_neg)
    dies_out = support.any(axis=0) & ~support[tail].any(axis=0)
    bad = np.flatnonzero(in_gap.any(axis=0) | dies_out)
    if bad.size:
        j = bad[0]
        if in_gap[:, j].any():
            raise MixedScaleGenerator(
                (tail[in_gap[:, j]] + 1).tolist(),
                "tail samples fall between the invertibility and negligibility scales",
            )
        raise MixedScaleGenerator(
            (np.flatnonzero(support[:, j]) + 1).tolist(),
            "norm support dies out before the tail window (no uniform scale)",
        )
    return samples / np.where(support, norms, np.inf)[:, :, None], support


def _orthogonalize(samples: np.ndarray, eps: np.ndarray, m_inv: int) -> np.ndarray:
    """The interleaved recursion at every grid point at once.

    ``samples`` is the (K, m, d) stack of generator samples; returns the
    (K, m, d) raw outputs.  Each sweep picks, at every grid point where
    generators remain, the dominant one (largest norm, lowest index on
    ties), keeps it as its own output, projects the others off it and
    flushes residuals that are rounding noise.  Where the dominant norm
    fails 0 < norm >= eps_k**m_inv (zero, NaN or below that scale), every
    remaining generator is zeroed at point k (their supports exclude it).
    Every sweep removes at least one generator at every point still
    running, so at most m sweeps are made.

    The norms are those ``rnorm`` takes, so a generator kept here lies in
    the support of idempotent_normalize at that point.
    """
    V = samples.copy()
    rows = np.arange(V.shape[0])
    remaining = np.ones(V.shape[:2], dtype=bool)
    norms = np.linalg.norm(V, axis=2)
    while remaining.any():
        running = remaining.any(axis=1)
        # argmax returns the first (lowest j) on ties
        best = np.argmax(np.where(remaining, norms, -np.inf), axis=1)
        drop = running & ~_invertible(norms[rows, best], eps, m_inv)
        V[remaining & drop[:, None]] = 0.0
        remaining[drop] = False
        keep = running & ~drop
        remaining[rows[keep], best[keep]] = False
        v = V[rows, best]
        vv = np.where(keep, np.real(np.sum(v * np.conj(v), axis=1)), 1.0)
        coeff = np.sum(V * np.conj(v)[:, None, :], axis=2) / vv[:, None]
        res = V - coeff[:, :, None] * v[:, None, :]
        res_norms = np.linalg.norm(res, axis=2)
        flush = res_norms <= _FLUSH_REL * norms
        update = remaining & keep[:, None]
        V = np.where(update[:, :, None], np.where(flush[:, :, None], 0.0, res), V)
        norms = np.where(update, np.where(flush, 0.0, res_norms), norms)
    return V


def interleaved_gram_schmidt(g: GeneratorSet, policy: NumericPolicy) -> OrthoBasis:
    """Orthogonalize a generator set blockwise across the grid.

    Implements the grid-pointwise recursion described in the module
    docstring and idempotent-normalizes the assembled outputs, all m in
    one pass over the (K, m, d) stack; outputs
    with empty support (dropped-to-zero generators) are discarded, which
    also performs the reduction to at most dim generators.  The result
    spans the same submodule: every input generator reconstructs from
    the output basis sample by sample.

    Raises MixedScaleGenerator for the first assembled output with no
    uniform scale (see idempotent_normalize).
    """
    grid = g.grid
    raw = _orthogonalize(np.stack([v.samples for v in g.gens], axis=1),
                         grid.values, policy.m_inv)
    w, support = _normalize(raw, grid, policy)
    kept = np.flatnonzero(support.any(axis=0))
    return OrthoBasis([GenVector(grid, w[:, j]) for j in kept],
                      [IndexSet.from_mask(support[:, j]) for j in kept])


def project_submodule(B: OrthoBasis, v: GenVector) -> GenVector:
    """P_M(v) = sum_j <v, w_j> w_j for the submodule M spanned by B."""
    if not len(B):
        return GenVector(v.grid, np.zeros_like(v.samples))
    coeffs = [inner(v, w) for w in B.vecs]
    return lincomb(coeffs, list(B.vecs))


def submodule_projection_operator(B: OrthoBasis, grid: EpsGrid, dim: int) -> BasicOperator:
    """Materialize P_M as a matrix net sum_j w_j w_j^*."""
    P = np.zeros((grid.K, dim, dim))
    for w in B.vecs:
        P = P + np.einsum("ki,kj->kij", w.samples, np.conj(w.samples))
    return BasicOperator(grid, P)


@dataclass(frozen=True)
class SubmoduleClassification:
    closed_edged: bool
    basis: OrthoBasis | None
    diagnostics: dict


def classify_submodule(g: GeneratorSet, policy: NumericPolicy) -> SubmoduleClassification:
    """Closed-and-edged verdict via Gram-Schmidt plus normalization.

    The verdict is policy-relative: closed_edged is true iff every
    orthogonalized generator normalizes to an idempotent norm; a
    MixedScaleGenerator failure is folded into the diagnostics instead
    of raised.
    """
    try:
        basis = interleaved_gram_schmidt(g, policy)
    except MixedScaleGenerator as err:
        return SubmoduleClassification(
            closed_edged=False,
            basis=None,
            diagnostics={"offending_indices": err.indices, "reason": str(err)},
        )
    return SubmoduleClassification(closed_edged=True, basis=basis, diagnostics={})


def extend_functional(values, B: OrthoBasis) -> BasicFunctional:
    """Extend f, given by its values on the basis, to u -> f(P_M(u)).

    ``values`` lists one GenScalar f(w_j) per basis vector; the
    extension's covector net is sum_j f_j,k * conj(w_j,k), so it agrees
    with f on the submodule and kills its orthogonal complement.
    """
    values = list(values)
    if len(values) != len(B):
        raise InvalidBasis(f"{len(values)} values for {len(B)} basis vectors")
    if not values:
        raise InvalidBasis("empty basis cannot carry a functional")
    grid = B.vecs[0].grid
    dim = B.vecs[0].dim
    rows = np.zeros((grid.K, dim))
    for f_j, w in zip(values, B.vecs):
        rows = rows + f_j.samples[:, None] * np.conj(w.samples)
    return BasicFunctional(grid, rows)
