"""Nets of finite-dimensional vectors with componentwise scalar product.

The space of K^d-valued nets carries the structure of a Hilbert module
over the generalized scalars: the scalar product acts componentwise,
<u, v>_k = <u_k, v_k> (conjugate-linear in the second argument), the
R~-valued norm is the net of Euclidean norms, and the ultra-pseudo-norm
is the sharp norm of that net.  Every vector admits the normalization
v * ||u|| = u with v_k = u_k/||u_k|| where the sample norm is nonzero.
"""

from __future__ import annotations

import numpy as np

from .errors import DimMismatch, GridMismatch, LengthMismatch
from .gennum import EpsGrid, GenScalar, NumericPolicy, _SampleNet, sharp_norm


class GenVector(_SampleNet):
    """A net of d-dimensional sample vectors, samples of shape (K, d), on a shared EpsGrid."""

    ndim = 2

    @property
    def dim(self) -> int:
        return int(self.samples.shape[1])

    @classmethod
    def constant(cls, vec, grid: EpsGrid) -> "GenVector":
        return cls._by_dtype(grid, np.tile(np.asarray(vec), (grid.K, 1)))

    @classmethod
    def zero(cls, grid: EpsGrid, dim: int, field_tag: str = "real") -> "GenVector":
        return cls(grid, np.zeros((grid.K, dim)), field_tag)

    def _check_partner(self, other: "GenVector"):
        if not self.grid.same_as(other.grid):
            raise GridMismatch("vectors live on different grids")
        if self.dim != other.dim:
            raise DimMismatch(f"dims {self.dim} != {other.dim}")

    def __add__(self, other: "GenVector") -> "GenVector":
        self._check_partner(other)
        return GenVector._by_dtype(self.grid, self.samples + other.samples)

    def __sub__(self, other: "GenVector") -> "GenVector":
        self._check_partner(other)
        return GenVector._by_dtype(self.grid, self.samples - other.samples)

    def __neg__(self) -> "GenVector":
        return GenVector(self.grid, -self.samples, self.field_tag)

    def __mul__(self, coeff) -> "GenVector":
        """Module action: scale by a GenScalar or a plain number."""
        if isinstance(coeff, GenScalar):
            if not self.grid.same_as(coeff.grid):
                raise GridMismatch("coefficient on a different grid")
            return GenVector._by_dtype(self.grid, self.samples * coeff.samples[:, None])
        if isinstance(coeff, (int, float, complex, np.integer, np.floating)):
            return GenVector._by_dtype(self.grid, self.samples * coeff)
        return NotImplemented

    __rmul__ = __mul__


def inner(u: GenVector, v: GenVector) -> GenScalar:
    """Componentwise scalar product, conjugate-linear in the second slot."""
    u._check_partner(v)
    return GenScalar._by_dtype(u.grid, np.sum(u.samples * np.conj(v.samples), axis=1))


def rnorm(u: GenVector) -> GenScalar:
    """The R~-norm: the net of Euclidean sample norms."""
    return GenScalar(u.grid, np.linalg.norm(u.samples, axis=1))


def upn(u: GenVector, policy: NumericPolicy) -> float:
    """Ultra-pseudo-norm: sharp norm of the R~-norm net."""
    return sharp_norm(rnorm(u), policy)


def normalize(u: GenVector) -> GenVector:
    """Per-sample unit vector; zero where the sample norm is at most 1e-12.

    The result v satisfies the normalization property v*||u|| = u
    exactly on the non-degenerate samples.
    """
    norms = np.linalg.norm(u.samples, axis=1)
    scale = np.where(norms > 1e-12, norms, np.inf)
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
