"""Internal convex subsets given per epsilon, and projection onto them.

A ConvexSetNet holds one closed convex set per grid index; projection of
a vector net is the net of componentwise Euclidean projections.  Every
kind has one projection path, run at once on all grid points or on a
subset of them (``row_projector``): boxes, lower-bound (obstacle) sets
and affine subspaces are projected in closed form; halfspace
intersections use Dykstra's alternating projections with correction
terms on the (K, m, d) rows, each grid point iterated to the fixed
tolerance _DYKSTRA_TOL = 1e-12.  The variational
characterization Re<u - P(u), w - P(u)> <= 0 for w in C is exposed as a
residual against a finite probe set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimMismatch,
    EmptySet,
    GridMismatch,
    InvalidSpec,
    NoConvergence,
    ProbeNotInSet,
)
from .gennum import EpsGrid, GenScalar, NumericPolicy
from .hilbert import GenVector

_DYKSTRA_MAX_SWEEPS = 20000
_DYKSTRA_TOL = 1e-12  # the default NumericPolicy.tol_abs


@dataclass(frozen=True)
class ConvexSetNet:
    """Per-epsilon convex constraint descriptor.

    data layout by kind:
      box                  {"lower": (K,d), "upper": (K,d)}
      obstacle_lower_bound {"lower": (K,d)}          (+inf implicit above)
      affine_subspace      {"basis": (K,r,d), "offset": (K,d),
                            "onb": (K,d,min(r,d))}   (onb cached at build,
                                                      dropped columns zero)
      halfspaces           {"rows": (K,m,d), "offsets": (K,m)}  A x <= b
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
        _refuse_nan(lower, "lower")
        _refuse_nan(upper, "upper")
        if np.any(lower > upper):
            raise EmptySet(f"box has lower > upper at grid index k={_first_k(lower > upper)}")
        return cls(grid, lower.shape[1], "box", {"lower": lower, "upper": upper})

    @classmethod
    def obstacle(cls, grid: EpsGrid, lower) -> "ConvexSetNet":
        lower = _per_eps(lower, grid)
        _refuse_nan(lower, "obstacle")
        if np.any(lower == np.inf):
            raise EmptySet(f"obstacle bound is +inf at grid index k={_first_k(lower == np.inf)}")
        return cls(grid, lower.shape[1], "obstacle_lower_bound", {"lower": lower})

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
        return cls(grid, d, "affine_subspace",
                   {"basis": basis, "offset": offset, "onb": onb})

    @classmethod
    def halfspaces(cls, grid: EpsGrid, rows, offsets) -> "ConvexSetNet":
        rows = np.asarray(rows, dtype=float)
        offsets = np.asarray(offsets, dtype=float)
        if rows.ndim == 2:
            rows = np.tile(rows, (grid.K, 1, 1))
            offsets = np.tile(offsets, (grid.K, 1))
        if rows.ndim != 3 or rows.shape[0] != grid.K or offsets.shape != rows.shape[:2]:
            raise DimMismatch("halfspace rows must be (K, m, d), offsets (K, m)")
        return cls(grid, rows.shape[2], "halfspaces", {"rows": rows, "offsets": offsets})

    def batched_projector(self):
        """A callable projecting a (K, d) array of samples onto the set.

        All grid points are projected at once, for every kind: boxes and
        obstacles by clipping, affine subspaces in closed form, halfspace
        intersections by Dykstra's method on the whole (K, m, d) net.
        """
        return self.row_projector(np.arange(self.grid.K))

    def row_projector(self, rows: np.ndarray):
        """A callable projecting a (rows.size, d) array onto the sets at ``rows``.

        ``rows`` holds 0-based grid indices in increasing order; row i of
        the argument is projected onto the set at grid point rows[i].  The
        set's data is sliced once, here: box and obstacle bounds, the
        affine offset and orthonormal basis, the halfspace rows and
        offsets.  For iterations whose grid points finish at different
        times, each grid point's result has the bits of ``batched_projector``.
        """
        if self.kind == "box":
            lo, up = self.data["lower"][rows], self.data["upper"][rows]
            return lambda z: np.clip(z, lo, up)
        if self.kind == "obstacle_lower_bound":
            lo = self.data["lower"][rows]
            return lambda z: np.maximum(z, lo)
        if self.kind == "affine_subspace":
            q, p = self.data["onb"][rows], self.data["offset"][rows]
            return lambda z: p + np.einsum("kdr,kr->kd", q, np.einsum("kdr,kd->kr", q, z - p))
        a, offs = self.data["rows"][rows], self.data["offsets"][rows]
        return lambda z: _dykstra(a, offs, z, rows)

    def violation(self, x: np.ndarray) -> np.ndarray:
        """How far each sample of x (K, d) is from its set: (K,), 0 inside."""
        if self.kind == "box":
            return np.maximum(np.max(self.data["lower"] - x, axis=1, initial=0.0),
                              np.max(x - self.data["upper"], axis=1, initial=0.0))
        if self.kind == "obstacle_lower_bound":
            return np.max(self.data["lower"] - x, axis=1, initial=0.0)
        if self.kind == "affine_subspace":
            return np.linalg.norm(x - self.batched_projector()(x), axis=1)
        return _halfspace_violation(self.data["rows"], self.data["offsets"], x)


def _halfspace_violation(rows, offs, x):
    return np.max(np.einsum("kmd,kd->km", rows, x) - offs, axis=1, initial=0.0)


def _dykstra(rows: np.ndarray, offs: np.ndarray, x0: np.ndarray,
             grid_index: np.ndarray) -> np.ndarray:
    """Dykstra's alternating projections onto rows_k x <= offs_k, all k at once.

    A grid point is done after the first sweep whose result violates no
    row by more than _DYKSTRA_TOL and moved by at most _DYKSTRA_TOL *
    (1 + |x|); later sweeps run only on the points not yet done.  Zero
    rows are skipped.  A point still not done after _DYKSTRA_MAX_SWEEPS
    raises NoConvergence naming the first such grid index (1-based);
    ``grid_index`` gives the 0-based grid index of each row.
    """
    sqn = np.sum(rows * rows, axis=2)
    sqn[sqn == 0.0] = 1.0  # a zero row then leaves x and its correction as they are
    x = np.asarray(x0, dtype=float)
    out = np.empty_like(x)
    idx = np.arange(x.shape[0])
    corr = np.zeros_like(rows)
    for _ in range(_DYKSTRA_MAX_SWEEPS):
        x_prev = x
        for i in range(rows.shape[1]):
            y = x + corr[:, i]
            excess = np.einsum("kd,kd->k", rows[:, i], y) - offs[:, i]
            x = y - (np.maximum(excess, 0.0) / sqn[:, i])[:, None] * rows[:, i]
            corr[:, i] = y - x
        viol = _halfspace_violation(rows, offs, x)
        done = (viol <= _DYKSTRA_TOL) & (
            np.linalg.norm(x - x_prev, axis=1)
            <= _DYKSTRA_TOL * (1.0 + np.linalg.norm(x, axis=1)))
        if np.any(done):
            out[idx[done]] = x[done]
            if np.all(done):
                return out
            idx, x, corr, rows, offs, sqn, viol = (
                a[~done] for a in (idx, x, corr, rows, offs, sqn, viol))
    raise NoConvergence(f"Dykstra stalled at grid index k={grid_index[idx[0]] + 1}",
                        residual=float(viol[0]))


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


def project_point(C: ConvexSetNet, u: GenVector, policy: NumericPolicy) -> GenVector:
    """Net of componentwise Euclidean projections of u onto C.

    ``policy`` sets no precision here: halfspace intersections are
    projected to the fixed tolerance _DYKSTRA_TOL.
    """
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
