"""Finitely generated submodules: interleaved Gram-Schmidt and friends.

Orthogonalizing a generator set over the generalized scalars cannot
simply divide by norms — a generator may vanish on part of the grid and
dominate elsewhere.  The interleaved recursion partitions the grid into
blocks S_j on which the j-th generator has the largest sample norm
(earlier j wins ties, minus previously claimed blocks), projects the
remaining generators off the dominant one there, recurses, and sums the
per-block outputs, each with idempotent norm: unit length on its support
set, zero off it.  The kept outputs are one (K, r, d) net with a (K, r)
support mask, ``OrthoBasis(grid, samples, support)``; the projector net
``submodule_projection_operator(B)`` and the projection are each one
contraction over r.

The recursion is one sweep of at most m steps over the (K, m, d) stack,
O(m*K*m*d) in O(m) numpy calls.  Each step keeps the dominant generator
where 0 < norm >= eps_k**m_inv, divided by that norm, and drops it
elsewhere: the support S_j is that keep decision, made once.  Where a
norm equals eps_k**m_inv up to rounding (a power tower at k = m_inv), its
last bit decides whether k is among the offending_indices.  Samples whose
outputs lost orthogonality (about u*kappa) are swept a second time.

A generator whose norms, as it left the sweep, put a tail sample off its
support that is not negligible (NaN, or between eps**q_neg and eps**m_inv),
or whose support is nonempty but dies out before the tail window, has no
certifiable uniform scale (the beta-type pathology) and raises MixedScaleGenerator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch, InvalidBasis, MixedScaleGenerator
from .gennum import (EpsGrid, NumericPolicy, _SampleNet, _invertible, _negligible, _norms,
                     _same_grid, _tail_positions)
from .hilbert import GenVector
from .operators import BasicOperator, apply


@dataclass(frozen=True)
class GeneratorSet:
    """A list of generators sharing one grid and dimension."""

    gens: tuple

    def __post_init__(self):
        gens = tuple(self.gens)
        if not gens:
            raise ValueError("need at least one generator")
        _same_grid(*gens)
        if len({g.dim for g in gens}) > 1:
            raise DimMismatch("generators of different dimensions")
        object.__setattr__(self, "gens", gens)

    @property
    def grid(self) -> EpsGrid:
        return self.gens[0].grid

    @property
    def dim(self) -> int:
        return self.gens[0].dim


@dataclass(frozen=True)
class OrthoBasis(_SampleNet):
    """r orthogonal vectors with idempotent norms e_S: the (K, r, d) net
    ``samples``, vector j at ``samples[:, j]``, and the read-only (K, r) mask
    ``support`` of each vector's set S_j.  r = 0 spans the zero submodule."""

    support: np.ndarray
    ndim = 3

    def __post_init__(self, _fresh=False):
        super().__post_init__(_fresh)
        object.__setattr__(self, "support", np.array(self.support, dtype=bool))
        if self.support.shape != self.samples.shape[:2]:
            raise InvalidBasis("one support per basis vector required")
        self.support.setflags(write=False)

    def __len__(self) -> int:
        return self.samples.shape[1]


# Gram-Schmidt twice: a sample whose Gram net W_k^H W_k misses diag(S_k) by
# more than c d u (u the unit roundoff, d real coordinates, two per complex
# one) is swept again.  An orthonormal basis rounded to working precision
# misses it by (2d + 4) u at most: a d-term inner product (Higham, Accuracy
# and Stability, 3.1) of unit vectors normalized with a few roundings each.
# c = 4 covers that for d >= 2 (a real unit vector in d = 1 is +-1), and
# one sweep's loss, about u * kappa, passes it from kappa ~ 4 d on.
_REORTH_C = 4.0
_TINY = np.finfo(float).tiny
_KAHAN = 1.0 / np.sqrt(2.0)


# near the float limit a dominant sample's squares and its own (discarded)
# coefficient overflow; off the support the closing division meets zero norms
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _sweep(samples: np.ndarray, eps: np.ndarray, policy: NumericPolicy):
    """The interleaved recursion at every grid point at once.

    Each step picks, at every grid point where some of the (K, m, d)
    ``samples`` remain, the dominant one (largest norm, lowest index on
    ties).  Where its norm passes 0 < norm >= eps_k**m_inv it is kept, to
    be divided by that norm for its unit output, and the others are
    projected off it; a residual at most tol_abs times its pre-projection
    norm (rounding, degree 1 in the sample) is flushed to zero.  Where it
    fails (zero, NaN or below that scale), it and every generator left at
    that point are dropped.  A dominant sample whose squares overflow or
    underflow is divided by its largest |entry| before the others are
    projected off it, and where its norm is past the float range that
    scaled copy is what is normalized.

    Returns the (K, m, d) unit outputs W (zero off the support), the
    (K, m) support (the keep decision) and the (K, m) norm each generator
    had when it left each point: kept, dropped or zeroed with the rest.
    """
    V = samples.copy()
    rows = np.arange(V.shape[0])
    remaining = np.ones(V.shape[:2], dtype=bool)
    support = np.zeros(V.shape[:2], dtype=bool)
    norms = _norms(V)  # a generator's entries stay as they were when it left
    while remaining.any():
        running = remaining.any(axis=1)
        # argmax returns the first (lowest j) on ties
        best = np.argmax(np.where(remaining, norms, -np.inf), axis=1)
        n = norms[rows, best]
        keep = running & _invertible(n, eps, policy.m_inv)
        remaining[~keep] = False
        picked = rows[keep], best[keep]
        support[picked], remaining[picked] = True, False
        v = V[rows, best]
        vv = np.where(keep, np.real(np.sum(v * np.conj(v), axis=1)), 1.0)
        if not _TINY <= vv.min() <= vv.max() < np.inf:
            big = (vv < _TINY) | np.isinf(vv)
            v[big] /= np.abs(v[big]).max(axis=1, keepdims=True)
            vv[big] = np.real(np.sum(v[big] * np.conj(v[big]), axis=1))
            huge = big & np.isinf(n)  # normalized from this scaled copy
            V[rows[huge], best[huge]] = v[huge]
        coeff = np.sum(V * np.conj(v)[:, None, :], axis=2) / vv[:, None]
        res = V - coeff[:, :, None] * v[:, None, :]
        res_norms = _norms(res)
        flush = res_norms <= policy.tol_abs * norms
        update = remaining & keep[:, None]
        V = np.where(update[:, :, None], np.where(flush[:, :, None], 0.0, res), V)
        norms = np.where(update, np.where(flush, 0.0, res_norms), norms)
    W = np.where(support[:, :, None], V / norms[:, :, None], 0.0)
    huge = support & np.isinf(norms)
    if huge.any():
        W[huge] = V[huge] / _norms(V[huge])[:, None]
    return W, support, norms


def _reorthogonalize(W: np.ndarray, support: np.ndarray, left: np.ndarray):
    """The second sweep over the (n, m, d) unit outputs W of n samples, in
    the order the first picked them (descending norm ``left`` on the
    ``support``), so a direction made up by rounding never displaces an
    earlier one.  Each output is projected off those before it and kept
    where more than _KAHAN of it is left; one that loses more was
    numerically in their span (Kahan's test; Parlett, The Symmetric
    Eigenvalue Problem, 6.9) and leaves its support.  Returns W and the
    supports."""
    order = np.argsort(np.where(support, -left, np.inf), axis=1, kind="stable")[:, :, None]
    Q = np.take_along_axis(W, order, axis=1)
    for i in range(Q.shape[1]):
        n = _norms(Q[:, i])
        Q[:, i] /= np.where(n >= _KAHAN, n, np.inf)[:, None]
        q = Q[:, i, None, :]
        Q[:, i + 1:] -= np.sum(Q[:, i + 1:] * np.conj(q), axis=2)[:, :, None] * q
    np.put_along_axis(W, order, Q, axis=1)
    return W, np.any(W != 0.0, axis=2)


def _uniform_scale(left, support, grid: EpsGrid, policy: NumericPolicy):
    """Raise MixedScaleGenerator for the first generator with no uniform
    scale, read from the norms it ``left`` the sweep with: tail samples off
    the support that are not negligible (NaN, or between eps**q_neg and
    eps**m_inv, possible only when q_neg > m_inv) name those tail indices;
    else a nonempty support that misses the tail window names the support."""
    tail = _tail_positions(grid, policy)
    in_gap = ~support[tail] & ~_negligible(left[tail], grid.values[tail, None], policy)
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


def interleaved_gram_schmidt(g: GeneratorSet, policy: NumericPolicy) -> OrthoBasis:
    """Orthogonalize a generator set blockwise across the grid.

    One sweep (the module docstring's recursion) decides each generator's
    support and the verdict; samples whose outputs lost orthogonality are
    swept once more (``_reorthogonalize``).  The generators with nonempty
    support, with their masks, are the basis, which reduces the set to at
    most dim generators and spans the same submodule: every generator
    reconstructs from it sample by sample.  Raises MixedScaleGenerator
    for the first generator with no uniform scale (``_uniform_scale``).
    """
    grid = g.grid
    W, support, left = _sweep(np.stack([v.samples for v in g.gens], axis=1), grid.values, policy)
    _uniform_scale(left, support, grid, policy)
    gram = W @ np.conj(W).transpose(0, 2, 1) - support[:, :, None] * np.eye(len(g.gens))
    d = W.shape[2] * (1 + np.iscomplexobj(W))
    redo = np.abs(gram).max(axis=(1, 2)) > _REORTH_C * d * np.finfo(float).eps / 2
    if redo.any():
        W[redo], support[redo] = _reorthogonalize(W[redo], support[redo], left[redo])
    kept = np.flatnonzero(support.any(axis=0))
    return OrthoBasis(grid, W[:, kept], support[:, kept])


def project_submodule(B: OrthoBasis, v: GenVector) -> GenVector:
    """P_M(v) = sum_j <v, w_j> w_j for the submodule M spanned by B: the
    projector net applied to v, which checks its grid and dimension."""
    return apply(submodule_projection_operator(B), v)


def submodule_projection_operator(B: OrthoBasis) -> BasicOperator:
    """Materialize P_M as a matrix net sum_j w_j w_j^*."""
    return BasicOperator(B.grid, np.einsum("kri,krj->kij", B.samples, np.conj(B.samples)))


@dataclass(frozen=True)
class SubmoduleClassification:
    closed_edged: bool
    basis: OrthoBasis | None
    diagnostics: dict


def classify_submodule(g: GeneratorSet, policy: NumericPolicy) -> SubmoduleClassification:
    """Closed-and-edged verdict via the Gram-Schmidt sweep.

    The verdict is policy-relative: closed_edged is true iff every generator
    has a uniform scale; a MixedScaleGenerator failure is folded into the
    diagnostics instead of raised.
    """
    try:
        basis = interleaved_gram_schmidt(g, policy)
    except MixedScaleGenerator as err:
        return SubmoduleClassification(False, None, {"offending_indices": err.indices,
                                                     "reason": str(err)})
    return SubmoduleClassification(True, basis, {})
