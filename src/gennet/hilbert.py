"""Nets of finite-dimensional vectors with componentwise scalar product.

The space of K^d-valued nets carries the structure of a Hilbert module
over the generalized scalars: the scalar product acts componentwise,
<u, v>_k = <u_k, v_k> (conjugate-linear in the second argument), the
R~-valued norm is the net of Euclidean norms, and the ultra-pseudo-norm
is the sharp norm of that net, ``sharp_norm(rnorm(u), policy)``.
"""

from __future__ import annotations

import numpy as np

from .errors import DimMismatch, GridMismatch
from .gennum import EpsGrid, GenScalar, _SampleNet, _norms


class GenVector(_SampleNet):
    """A net of d-dimensional sample vectors, samples of shape (K, d), on a shared EpsGrid."""

    ndim = 2

    @property
    def dim(self) -> int:
        return int(self.samples.shape[1])

    @classmethod
    def constant(cls, vec, grid: EpsGrid) -> "GenVector":
        return cls(grid, np.tile(np.asarray(vec), (grid.K, 1)))

    def _check_partner(self, other: "GenVector"):
        if not self.grid.same_as(other.grid):
            raise GridMismatch("vectors live on different grids")
        if self.dim != other.dim:
            raise DimMismatch(f"dims {self.dim} != {other.dim}")

    def __add__(self, other: "GenVector") -> "GenVector":
        self._check_partner(other)
        return GenVector(self.grid, self.samples + other.samples)

    def __sub__(self, other: "GenVector") -> "GenVector":
        self._check_partner(other)
        return GenVector(self.grid, self.samples - other.samples)

    def __neg__(self) -> "GenVector":
        return GenVector(self.grid, -self.samples)

    def __mul__(self, coeff) -> "GenVector":
        """Module action: scale by a GenScalar or a plain number."""
        if isinstance(coeff, GenScalar):
            if not self.grid.same_as(coeff.grid):
                raise GridMismatch("coefficient on a different grid")
            return GenVector(self.grid, self.samples * coeff.samples[:, None])
        if isinstance(coeff, (int, float, complex, np.integer, np.floating)):
            return GenVector(self.grid, self.samples * coeff)
        return NotImplemented

    __rmul__ = __mul__


def inner(u: GenVector, v: GenVector) -> GenScalar:
    """Componentwise scalar product, conjugate-linear in the second slot."""
    u._check_partner(v)
    return GenScalar(u.grid, np.sum(u.samples * np.conj(v.samples), axis=1))


def rnorm(u: GenVector) -> GenScalar:
    """The R~-norm: the net of Euclidean sample norms."""
    return GenScalar(u.grid, _norms(u.samples))

