"""Basic linear operators and functionals as matrix/covector nets.

A basic operator acts componentwise, (Tu)_k = T_k u_k, and its adjoint
is the net of conjugate transposes.  The operator norm net collects the
per-sample spectral norms (largest singular values); a basic functional
is represented exactly by the conjugate of its covector net, with sample
norms equal to the per-sample functional norms.  Structural flags
(isometric, unitary, self-adjoint, projection) are decided by testing
the defining matrix identity's defect net for negligibility — with a
floating-point floor, since the defects of computed nets carry rounding
noise far above eps_k**q_neg at the small end of the grid.

Two representations, one per operator kind: dense (K, d_out, d_in)
nets for the small-matrix layer, and tridiagonal band nets (K, 3, m)
for the 1D finite-element systems, which store O(K m) numbers and
multiply and solve in O(K m).
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
import sys

import numpy as np

from .errors import DimMismatch, GridMismatch, SingularSample
from .gennum import EpsGrid, GenScalar, NumericPolicy, _SampleNet, _tail_positions
from .hilbert import GenVector


class BasicOperator(_SampleNet):
    """A net of d_out x d_in matrices, samples of shape (K, d_out, d_in), over a shared EpsGrid."""

    ndim = 3

    @property
    def dims(self):
        return (int(self.samples.shape[1]), int(self.samples.shape[2]))

    @property
    def is_square(self) -> bool:
        return self.samples.shape[1] == self.samples.shape[2]

    @classmethod
    def constant(cls, matrix, grid: EpsGrid) -> "BasicOperator":
        return cls._by_dtype(grid, np.tile(np.asarray(matrix), (grid.K, 1, 1)))

    @classmethod
    def identity(cls, grid: EpsGrid, dim: int) -> "BasicOperator":
        return cls.constant(np.eye(dim), grid)

    def matvec(self, u: np.ndarray) -> np.ndarray:
        """Batched product T_k u_k of a (K, d_in) array."""
        return np.einsum("kij,kj->ki", self.samples, u)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve T_k x_k = b_k for every sample of a (K, d) array at once.

        One batched LAPACK ``?gesv`` call; if any sample is singular the
        samples are tried one by one so that SingularSample names the
        first singular grid index (1-based).
        """
        try:
            return np.linalg.solve(self.samples, b[..., None])[..., 0]
        except np.linalg.LinAlgError:
            for k in range(self.grid.K):
                try:
                    np.linalg.solve(self.samples[k], b[k])
                except np.linalg.LinAlgError as exc:
                    raise SingularSample(k + 1) from exc
            raise

    def compose(self, other: "BasicOperator") -> "BasicOperator":
        """Net of matrix products self_k @ other_k."""
        if not self.grid.same_as(other.grid):
            raise GridMismatch("operators on different grids")
        if self.dims[1] != other.dims[0]:
            raise DimMismatch(f"cannot compose {self.dims} with {other.dims}")
        return BasicOperator._by_dtype(self.grid, self.samples @ other.samples)

    def __sub__(self, other: "BasicOperator") -> "BasicOperator":
        if not self.grid.same_as(other.grid):
            raise GridMismatch("operators on different grids")
        if self.dims != other.dims:
            raise DimMismatch(f"dims {self.dims} != {other.dims}")
        return BasicOperator._by_dtype(self.grid, self.samples - other.samples)

    def to_json(self) -> dict:
        d_out, d_in = self.dims
        return {"K": self.grid.K, "d_out": d_out, "d_in": d_in, **self._json()}


class TridiagonalOperator(_SampleNet):
    """A net of general tridiagonal m x m matrices, real or complex, as bands.

    ``samples[k]`` is the (3, m) banded form that scipy.linalg.solve_banded
    takes for one sub- and one superdiagonal: row 0 holds the superdiagonal
    shifted right, row 1 the diagonal, row 2 the subdiagonal.  The unused
    corners ``[:, 0, 0]`` and ``[:, 2, -1]`` are set to zero: laid end to
    end, the K samples then form one block-diagonal tridiagonal matrix with
    zero couplings, which ``solve`` hands to LAPACK in a single call.
    """

    ndim = 3

    def __post_init__(self):
        super().__post_init__()
        if self.samples.shape[1] != 3:
            raise ValueError("samples must have shape (K, 3, m)")
        self.samples.setflags(write=True)  # the base stored a copy of its own
        self.samples[:, 0, 0] = self.samples[:, 2, -1] = 0.0
        self.samples.setflags(write=False)

    @classmethod
    def symmetric(cls, grid: EpsGrid, diag, off) -> "TridiagonalOperator":
        """From the (K, m) diagonal and the (K, m - 1) off-diagonal."""
        diag = np.asarray(diag, dtype=float)
        bands = np.zeros((diag.shape[0], 3, diag.shape[1]))
        bands[:, 1] = diag
        bands[:, 0, 1:] = off
        bands[:, 2, :-1] = off
        return cls(grid, bands)

    @property
    def dims(self):
        return (self.samples.shape[2],) * 2

    def matvec(self, u: np.ndarray) -> np.ndarray:
        """Batched product T_k u_k of a (K, m) array."""
        out = self.samples[:, 1] * u
        out[:, 1:] += self.samples[:, 2, :-1] * u[:, :-1]
        out[:, :-1] += self.samples[:, 0, 1:] * u[:, 1:]
        return out

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve T_k x_k = b_k for every sample of a (K, m) array at once.

        One LAPACK ``?gtsv`` call on the (K m) x (K m) block-diagonal
        stack of the samples, whose couplings are the zeroed corners.
        Partial pivoting never swaps a row across a zero coupling, so
        each block gets exactly the arithmetic of its own
        ``solve_banded((1, 1), ...)`` call.  A zero pivot raises
        SingularSample naming the grid index (1-based) of its block.
        """
        lapack = _flapack()  # looked up per call, so a patched dgtsv/zgtsv is seen
        K, m = b.shape
        sub, diag, sup = (self.samples[:, row].flatten() for row in (2, 1, 0))
        if K * m > 1:  # a 1 x 1 stack keeps one dummy off-diagonal entry for f2py
            sub, sup = sub[:-1], sup[1:]
        gtsv = lapack.zgtsv if np.iscomplexobj(b) or not self.is_real() else lapack.dgtsv
        _, _, _, x, info = gtsv(sub, diag, sup, b.reshape(K * m, 1),
                                overwrite_dl=True, overwrite_d=True, overwrite_du=True)
        if info > 0:
            raise SingularSample((info - 1) // m + 1)
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of ?gtsv")
        return x.reshape(K, m)


_FLAPACK = "scipy.linalg._flapack"


def _flapack():
    """scipy's f2py LAPACK extension, which holds ``dgtsv`` and ``zgtsv``.

    Once scipy.linalg is imported, its ``_flapack`` module; before that,
    the extension file loaded on its own.  Importing the scipy.linalg
    package instead would run scipy's and scipy.linalg's ``__init__``,
    which load 85 modules for two functions.
    """
    return sys.modules.get(_FLAPACK) or _load_flapack()


@functools.cache
def _load_flapack():
    scipy = importlib.util.find_spec("scipy")
    spec = scipy and importlib.machinery.PathFinder.find_spec(
        _FLAPACK, [os.path.join(path, "linalg") for path in scipy.submodule_search_locations])
    if spec is None:
        raise ImportError(f"cannot find scipy's LAPACK extension {_FLAPACK}", name=_FLAPACK)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # A single-phase extension enters itself into sys.modules; taking it out
    # keeps a later ``import scipy.linalg`` whole: it sets the package's
    # _flapack attribute and shares this copy's functions.
    sys.modules.pop(_FLAPACK, None)
    return module


class BasicFunctional(_SampleNet):
    """A net of covectors, samples of shape (K, d): u |-> row_k . u_k per sample."""

    ndim = 2

    @property
    def dim(self) -> int:
        return int(self.samples.shape[1])

    def __call__(self, u: GenVector) -> GenScalar:
        if not self.grid.same_as(u.grid):
            raise GridMismatch("functional and vector on different grids")
        if self.dim != u.dim:
            raise DimMismatch(f"functional dim {self.dim} != vector dim {u.dim}")
        return GenScalar._by_dtype(self.grid, np.sum(self.samples * u.samples, axis=1))


def apply(T: BasicOperator, u: GenVector) -> GenVector:
    """Componentwise matrix-vector product (Tu)_k = T_k u_k."""
    if not T.grid.same_as(u.grid):
        raise GridMismatch("operator and vector on different grids")
    if T.dims[1] != u.dim:
        raise DimMismatch(f"operator expects dim {T.dims[1]}, got {u.dim}")
    return GenVector._by_dtype(u.grid, T.matvec(u.samples))


def adjoint(T: BasicOperator) -> BasicOperator:
    """Net of conjugate transposes: <Tu, v> = <u, T*v> per sample."""
    return BasicOperator(T.grid, np.conj(np.transpose(T.samples, (0, 2, 1))),
                         T.field_tag)


def _require_dense(T, caller: str):
    """TypeError unless T is a dense net: the band layout is no matrix."""
    if not isinstance(T, BasicOperator):
        raise TypeError(f"{caller} needs a dense BasicOperator net, not {type(T).__name__}; "
                        "solve band obstacle problems with fem.solve_obstacle")


def op_norm_net(T: BasicOperator) -> GenScalar:
    """Per-sample spectral norm (largest singular value)."""
    _require_dense(T, "op_norm_net")
    svals = np.linalg.svd(T.samples, compute_uv=False)
    return GenScalar(T.grid, svals[:, 0] if svals.ndim == 2 else svals)


def riesz_representer(f: BasicFunctional) -> GenVector:
    """The vector net c with f(v) = <v, c> and ||c_k|| = ||f_k|| exactly."""
    return GenVector(f.grid, np.conj(f.samples), f.field_tag)


def defect_threshold(grid: EpsGrid, policy: NumericPolicy, scale: float = 1.0) -> np.ndarray:
    """Tail thresholds for negligibility of *computed* nets.

    max(eps_k**q_neg, tol_abs * scale): the exact negligibility bound,
    floored at the floating tolerance so that rounding noise on an
    O(scale) computation does not defeat an identity that holds in exact
    arithmetic.
    """
    pos = _tail_positions(grid, policy)
    return np.maximum(grid.values[pos] ** policy.q_neg, policy.tol_abs * scale)


def _defect_negligible(net: np.ndarray, grid: EpsGrid, policy: NumericPolicy,
                       scale: float) -> bool:
    """Entrywise negligibility of a (K, ...) defect net on the tail."""
    pos = _tail_positions(grid, policy)
    mags = np.abs(net[pos]).reshape(policy.tail, -1).max(axis=1)
    return bool(np.all(mags <= defect_threshold(grid, policy, scale)))


def classify_operator(T: BasicOperator, policy: NumericPolicy) -> dict:
    """Structural flags from defining identities on defect nets.

    isometric    T*T - I negligible
    unitary      isometric and TT* - I negligible
    self_adjoint T - T* negligible
    projection   self_adjoint and TT - T negligible

    A rectangular operator may still be isometric (orthonormal columns);
    the unitary/self-adjoint/projection flags are properties only square
    matrices can have and report False for non-square dims.
    """
    _require_dense(T, "classify_operator")
    d_out, d_in = T.dims
    Ts = adjoint(T)
    scale = float(max(1.0, np.max(np.abs(T.samples)) ** 2))
    eye_in = np.eye(d_in)
    tst = Ts.compose(T).samples - eye_in
    flags = {"isometric": _defect_negligible(tst, T.grid, policy, scale)}
    if not T.is_square:
        for name in ("unitary", "self_adjoint", "projection"):
            flags[name] = False
        return flags
    tts = T.compose(Ts).samples - eye_in
    flags["unitary"] = flags["isometric"] and _defect_negligible(tts, T.grid, policy, scale)
    sa = T.samples - Ts.samples
    flags["self_adjoint"] = _defect_negligible(sa, T.grid, policy, scale)
    idem = T.compose(T).samples - T.samples
    flags["projection"] = flags["self_adjoint"] and _defect_negligible(
        idem, T.grid, policy, scale)
    return flags
