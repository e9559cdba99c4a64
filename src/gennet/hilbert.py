"""Nets of finite-dimensional vectors with componentwise scalar product.

The space of K^d-valued nets carries the structure of a Hilbert module
over the generalized scalars: the scalar product acts componentwise,
<u, v>_k = <u_k, v_k> (conjugate-linear in the second argument), the
R~-valued norm is the net of Euclidean norms, and the ultra-pseudo-norm
is the sharp norm of that net.  Every vector admits the normalization
v * ||u|| = u with v_k = u_k/||u_k|| where the sample norm is nonzero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimMismatch, GridMismatch, LengthMismatch
from .gennum import EpsGrid, GenScalar, NumericPolicy, sharp_norm, write_grid_csv

_REAL = "real"
_COMPLEX = "complex"


@dataclass(frozen=True)
class GenVector:
    """A net of d-dimensional sample vectors on a shared EpsGrid."""

    grid: EpsGrid
    samples: np.ndarray  # shape (K, d)
    field_tag: str = field(default=_REAL)

    def __post_init__(self):
        arr = np.asarray(self.samples)
        if arr.ndim != 2 or arr.shape[0] != self.grid.K:
            raise ValueError("samples must have shape (K, d)")
        if self.field_tag == _REAL:
            if np.iscomplexobj(arr):
                if np.any(arr.imag != 0.0):
                    raise ValueError("real-tagged vector has nonzero imaginary part")
                arr = arr.real
            arr = arr.astype(float, copy=True)
        elif self.field_tag == _COMPLEX:
            arr = arr.astype(complex, copy=True)
        else:
            raise ValueError("field_tag must be 'real' or 'complex'")
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)

    @property
    def dim(self) -> int:
        return int(self.samples.shape[1])

    @classmethod
    def constant(cls, vec, grid: EpsGrid) -> "GenVector":
        vec = np.asarray(vec)
        tag = _COMPLEX if np.iscomplexobj(vec) else _REAL
        return cls(grid, np.tile(vec, (grid.K, 1)), tag)

    @classmethod
    def zero(cls, grid: EpsGrid, dim: int, field_tag: str = _REAL) -> "GenVector":
        return cls(grid, np.zeros((grid.K, dim)), field_tag)

    def _check_partner(self, other: "GenVector"):
        if not self.grid.same_as(other.grid):
            raise GridMismatch("vectors live on different grids")
        if self.dim != other.dim:
            raise DimMismatch(f"dims {self.dim} != {other.dim}")

    def _tag_with(self, tag: str) -> str:
        return _COMPLEX if _COMPLEX in (self.field_tag, tag) else _REAL

    def __add__(self, other: "GenVector") -> "GenVector":
        self._check_partner(other)
        return GenVector(self.grid, self.samples + other.samples,
                         self._tag_with(other.field_tag))

    def __sub__(self, other: "GenVector") -> "GenVector":
        self._check_partner(other)
        return GenVector(self.grid, self.samples - other.samples,
                         self._tag_with(other.field_tag))

    def __neg__(self) -> "GenVector":
        return GenVector(self.grid, -self.samples, self.field_tag)

    def __mul__(self, coeff) -> "GenVector":
        """Module action: scale by a GenScalar or a plain number."""
        if isinstance(coeff, GenScalar):
            if not self.grid.same_as(coeff.grid):
                raise GridMismatch("coefficient on a different grid")
            return GenVector(self.grid, self.samples * coeff.samples[:, None],
                             self._tag_with(coeff.field_tag))
        if isinstance(coeff, (int, float, np.integer, np.floating)):
            return GenVector(self.grid, self.samples * coeff, self.field_tag)
        if isinstance(coeff, complex):
            return GenVector(self.grid, self.samples.astype(complex) * coeff, _COMPLEX)
        return NotImplemented

    __rmul__ = __mul__

    def to_json(self) -> dict:
        if self.field_tag == _COMPLEX:
            samples = [[[z.real, z.imag] for z in row] for row in self.samples]
        else:
            samples = self.samples.tolist()
        return {"dim": self.dim, "field": self.field_tag, "samples": samples}

    @classmethod
    def from_json(cls, obj: dict, grid: EpsGrid) -> "GenVector":
        if obj.get("field") == _COMPLEX:
            arr = np.asarray([[complex(re, im) for re, im in row] for row in obj["samples"]])
            return cls(grid, arr, _COMPLEX)
        return cls(grid, np.asarray(obj["samples"], dtype=float), _REAL)

    def write_norm_csv(self, path):
        """The R~-norm as a per-eps table with columns k, eps, norm."""
        write_grid_csv(path, self.grid, ["norm"], [rnorm(self).samples])


def inner(u: GenVector, v: GenVector) -> GenScalar:
    """Componentwise scalar product, conjugate-linear in the second slot."""
    u._check_partner(v)
    vals = np.sum(u.samples * np.conj(v.samples), axis=1)
    tag = u._tag_with(v.field_tag)
    if tag == _REAL:
        vals = vals.real
    return GenScalar(u.grid, vals, tag)


def rnorm(u: GenVector) -> GenScalar:
    """The R~-norm: the net of Euclidean sample norms."""
    return GenScalar(u.grid, np.linalg.norm(u.samples, axis=1), _REAL)


def upn(u: GenVector, policy: NumericPolicy) -> float:
    """Ultra-pseudo-norm: sharp norm of the R~-norm net."""
    return sharp_norm(rnorm(u), policy)


def normalize(u: GenVector, tol_abs: float = 1e-12) -> GenVector:
    """Per-sample unit vector; zero where the sample norm is below tol.

    The result v satisfies the normalization property v*||u|| = u
    exactly on the non-degenerate samples.
    """
    norms = np.linalg.norm(u.samples, axis=1)
    scale = np.where(norms > tol_abs, norms, np.inf)
    return GenVector(u.grid, u.samples / scale[:, None], u.field_tag)


def lincomb(coeffs, vecs) -> GenVector:
    """Sum of coeff_j * vec_j with GenScalar (or numeric) coefficients."""
    coeffs = list(coeffs)
    vecs = list(vecs)
    if len(coeffs) != len(vecs):
        raise LengthMismatch(f"{len(coeffs)} coefficients for {len(vecs)} vectors")
    if not vecs:
        raise LengthMismatch("need at least one vector")
    out = vecs[0] * coeffs[0]
    for c, v in zip(coeffs[1:], vecs[1:]):
        out = out + v * c
    return out
