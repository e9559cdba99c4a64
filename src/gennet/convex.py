"""Internal convex subsets given per epsilon, and projection onto them.

A ConvexSetNet holds one closed convex set per grid index; projection of
a vector net is the net of componentwise Euclidean projections.  Every
kind has one projection path, run at once on all grid points or on a
subset of them (``row_projector``): boxes, lower-bound (obstacle) sets
among them, and affine subspaces are projected in closed form.  The
variational characterization Re<u - P(u), w - P(u)> <= 0 for w in C is
exposed as a residual against a finite probe set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimMismatch,
    EmptySet,
    GridMismatch,
    InvalidSpec,
    ProbeNotInSet,
)
from .gennum import EpsGrid, GenScalar, NumericPolicy
from .hilbert import GenVector


@dataclass(frozen=True)
class ConvexSetNet:
    """Per-epsilon convex constraint descriptor.

    data layout by kind:
      box              {"lower": (K,d), "upper": (K,d)}
                       (an obstacle set is a box whose upper bound is a
                       read-only +inf view)
      affine_subspace  {"offset": (K,d), "onb": (K,d,min(r,d))}
                       (onb of the spanning rows, dropped columns zero)
    """

    grid: EpsGrid
    dim: int
    kind: str
    data: dict

    @classmethod
    def box(cls, grid: EpsGrid, lower, upper) -> "ConvexSetNet":
        lower = _per_eps(lower, grid)
        upper = _per_eps(upper, grid)
        if lower.shape != upper.shape:
            raise DimMismatch("box bounds differ in shape")
        return cls._box(grid, lower, upper, "lower")

    @classmethod
    def obstacle(cls, grid: EpsGrid, lower) -> "ConvexSetNet":
        """The lower-bound set {x >= lower}: a box whose upper bound is +inf."""
        lower = _per_eps(lower, grid)
        return cls._box(grid, lower, np.broadcast_to(np.inf, lower.shape), "obstacle")

    @classmethod
    def _box(cls, grid: EpsGrid, lower, upper, lower_name: str) -> "ConvexSetNet":
        """The box of (K, d) bounds, once its sets are checked.  A NaN bound
        raises InvalidSpec, an empty set (lower > upper, lower = +inf or
        upper = -inf) EmptySet, each naming the first such grid index k;
        ``lower_name`` names the lower bound in the messages."""
        _refuse_nan(lower, lower_name)
        _refuse_nan(upper, "upper")
        empty = np.stack([np.any(lower > upper, axis=1), np.any(lower == np.inf, axis=1),
                          np.any(upper == -np.inf, axis=1)])
        if empty.any():
            k = int(np.flatnonzero(empty.any(axis=0))[0])
            what = ("box has lower > upper", f"{lower_name} bound is +inf",
                    "upper bound is -inf")[int(np.argmax(empty[:, k]))]
            raise EmptySet(f"{what} at grid index k={k + 1}")
        return cls(grid, lower.shape[1], "box", {"lower": lower, "upper": upper})

    @classmethod
    def affine(cls, grid: EpsGrid, basis, offset=None) -> "ConvexSetNet":
        """Affine subspace offset + span(rows of basis), per grid point.

        ``basis`` is (r, d) for one spanning set shared by all grid
        points or (K, r, d) for per-point spans.  One stacked SVD gives
        each span's orthonormal basis; directions whose singular value is
        at most 1e-12 times max(1, the largest) are zeroed.
        """
        basis = np.asarray(basis, dtype=float)
        if basis.ndim == 2:  # constant basis across eps
            basis = np.tile(basis, (grid.K, 1, 1))
        if basis.ndim != 3 or basis.shape[0] != grid.K:
            raise DimMismatch("basis must have shape (r, d) or (K, r, d)")
        d = basis.shape[2]
        if offset is None:
            offset = np.zeros((grid.K, d))
        else:
            offset = _per_eps(offset, grid)
        u, sv, _ = np.linalg.svd(np.swapaxes(basis, 1, 2), full_matrices=False)
        keep = sv > 1e-12 * np.maximum(1.0, sv[:, :1])
        onb = u * keep[:, None, :]
        return cls(grid, d, "affine_subspace", {"offset": offset, "onb": onb})

    def batched_projector(self):
        """A callable projecting a (K, d) array of samples onto the set.

        All grid points are projected at once, for every kind: boxes by
        clipping, affine subspaces in closed form.
        """
        return self.row_projector(np.arange(self.grid.K))

    def row_projector(self, rows: np.ndarray):
        """A callable projecting a (rows.size, d) array onto the sets at ``rows``.

        ``rows`` holds 0-based grid indices in increasing order; row i of
        the argument is projected onto the set at grid point rows[i].  The
        set's data is sliced once, here: the box bounds, the affine
        offset and orthonormal basis.  For iterations whose grid
        points finish at different times, each grid point's result has
        the bits of ``batched_projector``.
        """
        if self.kind == "box":
            lo, up = self.data["lower"][rows], self.data["upper"][rows]
            return lambda z: np.minimum(np.maximum(z, lo), up)
        q, p = self.data["onb"][rows], self.data["offset"][rows]
        return lambda z: p + np.einsum("kdr,kr->kd", q, np.einsum("kdr,kd->kr", q, z - p))

    def violation(self, x: np.ndarray) -> np.ndarray:
        """How far each sample of x (K, d) is from its set: (K,), 0 inside.
        An infinite bound keeps its side's gap 0: +inf lies in [lower, +inf]."""
        if self.kind == "box":
            lo, up = self.data["lower"], self.data["upper"]
            gaps = np.zeros((2,) + x.shape, dtype=np.result_type(x, lo))
            np.subtract(lo, x, out=gaps[0], where=lo > -np.inf)
            np.subtract(x, up, out=gaps[1], where=up < np.inf)
            return np.max(gaps, axis=(0, 2), initial=0.0)
        return np.linalg.norm(x - self.batched_projector()(x), axis=1)


def _per_eps(arr, grid: EpsGrid) -> np.ndarray:
    """Broadcast constant-in-eps data (d,) to (K, d)."""
    arr = np.asarray(arr, dtype=float)
    if arr.ndim == 1:
        arr = np.tile(arr, (grid.K, 1))
    if arr.ndim != 2 or arr.shape[0] != grid.K:
        raise DimMismatch("per-eps data must have shape (K, d)")
    return arr


def _first_k(mask: np.ndarray) -> int:
    """The first grid index (1-based) of a (K, d) mask with a True entry."""
    return int(np.flatnonzero(mask.any(axis=1))[0]) + 1


def _refuse_nan(bound: np.ndarray, name: str):
    if np.isnan(bound).any():
        raise InvalidSpec(f"{name} bound is NaN at grid index k={_first_k(np.isnan(bound))}")


def _check_compat(C: ConvexSetNet, u: GenVector):
    if not C.grid.same_as(u.grid):
        raise GridMismatch("set and vector on different grids")
    if C.dim != u.dim:
        raise DimMismatch(f"set dim {C.dim} != vector dim {u.dim}")


def _outside(C: ConvexSetNet, x: np.ndarray, policy: NumericPolicy) -> np.ndarray:
    """(K,) mask of the samples of x that miss C by more than the membership tolerance."""
    member_tol = 100.0 * policy.tol_abs
    return ~(C.violation(x) <= member_tol * (1.0 + np.linalg.norm(x, axis=1)))


def project_point(C: ConvexSetNet, u: GenVector) -> GenVector:
    """Net of componentwise Euclidean projections of u onto C, each in closed form."""
    _check_compat(C, u)
    if not u.is_real():
        raise DimMismatch("projection implemented for real vector nets")
    return GenVector(u.grid, C.batched_projector()(u.samples))


def characterization_residual(C: ConvexSetNet, u: GenVector, v: GenVector,
                              probes, policy: NumericPolicy) -> GenScalar:
    """max over probes w of Re<u_k - v_k, w_k - v_k>, per grid index.

    Nonpositive samples (up to tolerance) certify v = P_C(u) against the
    probe set; probes must lie in C per epsilon.  The first probe outside
    C raises ProbeNotInSet naming its first grid index outside (1-based).
    """
    _check_compat(C, u)
    probes = list(probes)
    for w in probes:
        _check_compat(C, w)
        outside = np.nonzero(_outside(C, w.samples, policy))[0]
        if outside.size:
            raise ProbeNotInSet(f"probe outside set at grid index k={outside[0] + 1}")
    res = np.full(C.grid.K, -np.inf)
    for w in probes:
        vals = np.sum((u.samples - v.samples) * np.conj(w.samples - v.samples), axis=1).real
        res = np.maximum(res, vals)
    if not probes:
        res = np.zeros(C.grid.K)
    return GenScalar(C.grid, res)


def midpoint_closure_check(C: ConvexSetNet, pairs, policy: NumericPolicy) -> bool:
    """Do all midpoints (c1+c2)/2 lie in C per epsilon (membership to tol)?

    Pair elements are taken at face value (membership of the endpoints is
    not enforced), so handing in points of a nonconvex union exposes the
    failure of C + C <= 2C for whatever C's data actually describes.
    """
    for c1, c2 in pairs:
        _check_compat(C, c1)
        _check_compat(C, c2)
        if np.any(_outside(C, 0.5 * (c1.samples + c2.samples), policy)):
            return False
    return True
