"""Basic linear operators and functionals as matrix/covector nets.

A basic operator acts componentwise, (Tu)_k = T_k u_k, and its adjoint
is the net of conjugate transposes.  The operator norm net collects the
per-sample spectral norms (largest singular values); a basic functional
is represented exactly by the conjugate of its covector net, with sample
norms equal to the per-sample functional norms.  Structural flags
(isometric, unitary, self-adjoint, projection) are decided by testing
the defining matrix identity's defect net for negligibility, with a
floating-point floor per sample: rounding on sample k's defect scales
with that sample's own size |T_k| (max |entry|) and the defect's degree
in T, and lies far above eps_k**q_neg at the small end of the grid.

Two representations, one per operator kind: dense (K, d_out, d_in)
nets for the small-matrix layer, and symmetric tridiagonal band nets
(K, 2, m) for the 1D finite-element systems, whose forms are all
symmetric; they store O(K m) numbers and multiply and solve in O(K m).

Of the module arithmetic (``_SampleNet``'s operand rule) a dense net has
S - T alone, and a band net, a functional or a basis none: an operand of
another kind is a TypeError, one on another grid a GridMismatch, one of
other dims a DimMismatch.  ``apply``, ``compose`` and a functional's call
check grids with ``_same_grid`` too and refuse dims that do not fit with
DimMismatch.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
import sys

import numpy as np

from .errors import DimMismatch, SingularSample
from .gennum import (EpsGrid, GenScalar, NumericPolicy, _SampleNet, _negligible, _same_grid,
                     _tail_positions)
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
                    raise SingularSample(k + 1, "T_k singular") from exc
            raise

    def compose(self, other: "BasicOperator") -> "BasicOperator":
        """Net of matrix products self_k @ other_k."""
        _same_grid(self, other)
        if self.dims[1] != other.dims[0]:
            raise DimMismatch(f"cannot compose {self.dims} with {other.dims}")
        return BasicOperator(self.grid, self.samples @ other.samples)

    __sub__ = _SampleNet._sub


class TridiagonalOperator(_SampleNet):
    """A net of tridiagonal m x m matrices T_k = T_k^T, real or complex, as bands.

    ``samples[k]`` is (2, m): row 0 holds the diagonal, row 1 holds
    T[j - 1, j] = T[j, j - 1] at column j, and column 0 of row 1 is a
    structural zero that the net sets.  Laid end to end, row 1 of the K
    samples is then the off-diagonal of one block-diagonal tridiagonal
    matrix with zero couplings, which ``solve`` hands to LAPACK at once.
    """

    ndim = 3

    def __post_init__(self, _fresh=False):
        super().__post_init__(_fresh)
        if self.samples.shape[1] != 2:
            raise ValueError("samples must have shape (K, 2, m)")
        self.samples.setflags(write=True)  # a copy of its own, or a fresh array
        self.samples[:, 1, 0] = 0.0
        self.samples.setflags(write=False)

    @property
    def dims(self):
        return (self.samples.shape[2],) * 2

    def matvec(self, u: np.ndarray) -> np.ndarray:
        """Batched product T_k u_k of a (K, m) array."""
        diag, off = self.samples[:, 0], self.samples[:, 1, 1:]
        out = diag * u
        out[:, 1:] += off * u[:, :-1]
        out[:, :-1] += off * u[:, 1:]
        return out

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve T_k x_k = b_k for every sample of a (K, m) array at once.

        One LAPACK ``?gtsv`` call on the (K m) x (K m) block-diagonal
        stack of the samples, with the stacked row 1 as both its sub- and
        its superdiagonal.  Partial pivoting never swaps a row across a
        zero coupling, so each block gets exactly the arithmetic of its
        own ``solve_banded((1, 1), ...)`` call.  A zero pivot raises
        SingularSample naming the grid index (1-based) of its block.
        """
        lapack = _flapack()  # looked up per call, so a patched dgtsv/zgtsv is seen
        K, m = b.shape
        diag, off = (self.samples[:, row].flatten() for row in (0, 1))
        if K * m > 1:  # a 1 x 1 stack keeps one dummy off-diagonal entry for f2py
            off = off[1:]
        gtsv = lapack.zgtsv if np.iscomplexobj(b) or np.iscomplexobj(diag) else lapack.dgtsv
        # ?gtsv overwrites both off-diagonals, so f2py copies the second
        _, _, _, x, info = gtsv(off, diag, off, b.reshape(K * m, 1),
                                overwrite_dl=True, overwrite_d=True)
        if info > 0:
            raise SingularSample((info - 1) // m + 1, "T_k singular")
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
        _same_grid(self, u)
        if self.dim != u.dim:
            raise DimMismatch(f"functional dim {self.dim} != vector dim {u.dim}")
        return GenScalar(self.grid, np.sum(self.samples * u.samples, axis=1))


def apply(T: BasicOperator, u: GenVector) -> GenVector:
    """Componentwise matrix-vector product (Tu)_k = T_k u_k."""
    _same_grid(T, u)
    if T.dims[1] != u.dim:
        raise DimMismatch(f"operator expects dim {T.dims[1]}, got {u.dim}")
    return GenVector(u.grid, T.matvec(u.samples))


def adjoint(T: BasicOperator) -> BasicOperator:
    """Net of conjugate transposes: <Tu, v> = <u, T*v> per sample."""
    return BasicOperator(T.grid, np.conj(np.transpose(T.samples, (0, 2, 1))))


def _require_dense(T, caller: str):
    """TypeError unless T is a dense net: the band layout is no matrix."""
    if not isinstance(T, BasicOperator):
        raise TypeError(f"{caller} needs a dense BasicOperator net, not {type(T).__name__}; "
                        "solve band obstacle problems with fem.solve_obstacle")


def op_norm_net(T: BasicOperator) -> GenScalar:
    """Per-sample spectral norm (largest singular value)."""
    _require_dense(T, "op_norm_net")
    svals = np.linalg.svd(T.samples, compute_uv=False)
    return GenScalar(T.grid, svals[:, 0])


def riesz_representer(f: BasicFunctional) -> GenVector:
    """The vector net c with f(v) = <v, c> and ||c_k|| = ||f_k|| exactly."""
    return GenVector(f.grid, np.conj(f.samples))


def _sizes(net: np.ndarray) -> np.ndarray:
    """max |entry| of each sample of a (K, ...) net: |T_k|, or a defect's size."""
    return np.abs(net).reshape(len(net), -1).max(axis=1)


@np.errstate(over="ignore", invalid="ignore")  # an overflowed defect is never within rounding
def _self_adjoint(T: BasicOperator, policy: NumericPolicy) -> np.ndarray:
    """(K,) mask of a square net: |T_k - T_k*| within tol_abs |T_k| and finite, no floor."""
    defect = _sizes(T.samples - np.conj(np.swapaxes(T.samples, 1, 2)))
    return (defect < np.inf) & (defect <= policy.tol_abs * _sizes(T.samples))


def _defect_negligible(net: np.ndarray, grid: EpsGrid, policy: NumericPolicy,
                       scale: np.ndarray) -> bool:
    """Is every tail sample of a (K, ...) defect net finite, and negligible or
    within rounding, tol_abs times the (K,) scale?  NaN or inf never is."""
    pos = _tail_positions(grid, policy)
    mags = _sizes(net[pos])
    return bool(np.all((mags < np.inf) & (_negligible(mags, grid.values[pos], policy)
                                          | (mags <= policy.tol_abs * scale[pos]))))


@np.errstate(over="ignore", invalid="ignore")  # an overflowed defect is never negligible
def classify_operator(T: BasicOperator, policy: NumericPolicy) -> dict:
    """Structural flags from defining identities on defect nets.

    isometric    T*T - I negligible
    unitary      isometric and TT* - I negligible
    self_adjoint T - T* negligible
    projection   self_adjoint and TT - T negligible

    Rounding on a defect scales with its own sample's size |T_k| (max
    |entry|) and the defect's degree: |T_k| for T - T*, max(1, |T_k|**2)
    for T*T - I and TT* - I, and |T_k| + |T_k|**2 for TT - T.
    A rectangular operator may still be isometric (orthonormal columns);
    the unitary/self-adjoint/projection flags are properties only square
    matrices can have and report False for non-square dims.
    """
    _require_dense(T, "classify_operator")
    Ts = adjoint(T)
    size = _sizes(T.samples)
    quadratic = np.maximum(1.0, size ** 2)
    eye_in = np.eye(T.dims[1])
    tst = Ts.compose(T).samples - eye_in
    flags = {"isometric": _defect_negligible(tst, T.grid, policy, quadratic)}
    if not T.is_square:
        return flags | dict.fromkeys(("unitary", "self_adjoint", "projection"), False)
    tts = T.compose(Ts).samples - eye_in
    flags["unitary"] = flags["isometric"] and _defect_negligible(tts, T.grid, policy, quadratic)
    flags["self_adjoint"] = _defect_negligible(T.samples - Ts.samples, T.grid, policy, size)
    idem = T.compose(T).samples - T.samples
    flags["projection"] = flags["self_adjoint"] and _defect_negligible(
        idem, T.grid, policy, size + size ** 2)
    return flags
