"""Finitely generated submodules: interleaved Gram-Schmidt and friends.

Orthogonalizing a generator set over the generalized scalars cannot
simply divide by norms — a generator may vanish on part of the grid and
dominate elsewhere.  The interleaved recursion partitions the grid into
blocks S_j on which the j-th generator has the largest sample norm
(earlier j wins ties, minus previously claimed blocks), projects the
remaining generators off the dominant one there, recurses, and sums the
per-block outputs.  Each output is then normalized to have idempotent
norm: unit length on its support set, zero off it.  The kept outputs are
one (K, r, d) net with a (K, r) support mask, ``OrthoBasis(grid, samples,
support)``; the projector net ``submodule_projection_operator(B)`` and
the projection are each one contraction over r.

The recursion runs on one (K, m, d) array as at most m sweeps over the
whole grid: each sweep takes the dominant generator at every grid point
still running (lowest index on ties), drops what fails 0 < norm >=
eps_k**m_inv and projects the rest off it, so the cost is O(m*K*m*d) in
O(m) numpy calls.  Its norms and rule are the ones the support test
takes, so the drop decision and the support agree at every (j, k).
Where a sample norm equals eps_k**m_inv up to rounding (a power tower at
k = m_inv), which side of the threshold it falls on, and so whether k is
among the offending_indices, follows the last bit of that norm.

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
from .gennum import EpsGrid, NumericPolicy, _SampleNet, _invertible, _norms, _tail_positions
from .hilbert import GenVector
from .operators import BasicOperator, apply

# residuals this far below the same vector's pre-projection norm in the same
# sample (degree 1, per sample) are exact zeros: rounding, not a smaller scale
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


def _normalize(samples: np.ndarray, grid: EpsGrid, policy: NumericPolicy):
    """Rescale each of the m vectors of a (K, m, d) stack to unit sample
    norm on its support set.

    Vector j's support is the tail-extended pointwise set
    S_j = {k : 0 < ||u_jk|| >= eps_k**m_inv} (gennum's ``_invertible``: a
    zero u_jk is outside S_j even where eps_k**m_inv is 0); on S_j the
    result has unit sample norm, off S_j it is zero, and u_j = rnorm(u_j) * w_j
    up to negligibility.  The norms are rnorm's (gennum's ``_norms``); a
    sample whose norm exceeds the float range is divided by its largest
    |entry| before it is normalized.

    The first vector j whose norm net has no uniform scale raises
    MixedScaleGenerator: either a tail sample falls in the open gap between
    the invertibility and negligibility thresholds (possible only when
    q_neg > m_inv), naming those tail indices, or the support is nonempty
    yet misses the tail window entirely, naming the support, so no
    invertible-or-zero split is certifiable on the asymptotic window (the
    beta pathology at finite scale).

    Returns the (K, m, d) normalized stack and the (K, m) support masks.
    """
    norms = _norms(samples)
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
    w = samples / np.where(support, norms, np.inf)[:, :, None]
    huge = support & np.isinf(norms)
    if huge.any():  # a norm past the float range: scale the sample down first
        y = samples[huge] / np.abs(samples[huge]).max(axis=1, keepdims=True)
        w[huge] = y / _norms(y)[:, None]
    return w, support


# a dominant sample's squares can overflow, and so can its own coefficient,
# which is discarded, where its norm nears the float limit
@np.errstate(over="ignore", invalid="ignore")
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

    The norms are those ``_normalize`` takes, so a generator kept here lies
    in the support of ``_normalize`` at that point.  Where the squares of
    the dominant sample overflow, it is divided by its largest |entry|
    before the others are projected off it; every other sample projects
    with its own bits.
    """
    V = samples.copy()
    rows = np.arange(V.shape[0])
    remaining = np.ones(V.shape[:2], dtype=bool)
    norms = _norms(V)
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
        vv = np.real(np.sum(v * np.conj(v), axis=1))
        big = np.isinf(vv)
        if big.any():
            big &= keep
            v[big] /= np.abs(v[big]).max(axis=1, keepdims=True)
            vv[big] = np.real(np.sum(v[big] * np.conj(v[big]), axis=1))
        vv = np.where(keep, vv, 1.0)
        coeff = np.sum(V * np.conj(v)[:, None, :], axis=2) / vv[:, None]
        res = V - coeff[:, :, None] * v[:, None, :]
        res_norms = _norms(res)
        flush = res_norms <= _FLUSH_REL * norms
        update = remaining & keep[:, None]
        V = np.where(update[:, :, None], np.where(flush[:, :, None], 0.0, res), V)
        norms = np.where(update, np.where(flush, 0.0, res_norms), norms)
    return V


def interleaved_gram_schmidt(g: GeneratorSet, policy: NumericPolicy) -> OrthoBasis:
    """Orthogonalize a generator set blockwise across the grid.

    Implements the grid-pointwise recursion described in the module
    docstring and idempotent-normalizes the assembled outputs, all m in
    one pass over the (K, m, d) stack.  The outputs with nonempty support,
    with their support masks, are the basis; dropped-to-zero generators are
    discarded, which also performs the reduction to at most dim generators.
    The result spans the same submodule: every input generator
    reconstructs from the output basis sample by sample.

    Raises MixedScaleGenerator for the first assembled output with no
    uniform scale (see ``_normalize``).
    """
    grid = g.grid
    raw = _orthogonalize(np.stack([v.samples for v in g.gens], axis=1),
                         grid.values, policy.m_inv)
    w, support = _normalize(raw, grid, policy)
    kept = np.flatnonzero(support.any(axis=0))
    return OrthoBasis(grid, w[:, kept], support[:, kept])


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

