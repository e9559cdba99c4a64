"""Nets of finite-dimensional vectors with componentwise scalar product.

The space of K^d-valued nets carries the structure of a Hilbert module
over the generalized scalars: the scalar product acts componentwise,
<u, v>_k = <u_k, v_k> (conjugate-linear in the second argument), the
R~-valued norm is the net of Euclidean norms, and the ultra-pseudo-norm
is the sharp norm of that net, ``sharp_norm(rnorm(u), policy)``.

The operand rule is ``_SampleNet``'s, one for every kind.  A vector net has
u + v, u - v, -u and the module action a * u = u * a of a GenScalar or a
plain number; a scalar net has + - * and unary -, a number acting as the
constant net.  An operand of another kind is a TypeError (u + a for a
GenScalar a), one on another grid a GridMismatch, and one of another
sample shape a DimMismatch; ``inner`` takes its operands by the same rule.
"""

from __future__ import annotations

import numpy as np

from .gennum import GenScalar, _SampleNet, _norms


class GenVector(_SampleNet):
    """A net of d-dimensional sample vectors, samples of shape (K, d), on a shared EpsGrid."""

    ndim = 2

    @property
    def dim(self) -> int:
        return int(self.samples.shape[1])

    __add__ = _SampleNet._add
    __sub__ = _SampleNet._sub
    __neg__ = _SampleNet._neg
    __mul__ = __rmul__ = _SampleNet._scale  # the module action


def inner(u: GenVector, v: GenVector) -> GenScalar:
    """Componentwise scalar product, conjugate-linear in the second slot."""
    if u._operand(v) is NotImplemented:
        raise TypeError(f"inner product of GenVector and {type(v).__name__}")
    return GenScalar(u.grid, np.sum(u.samples * np.conj(v.samples), axis=1))


def rnorm(u: GenVector) -> GenScalar:
    """The R~-norm: the net of Euclidean sample norms."""
    return GenScalar(u.grid, _norms(u.samples))

