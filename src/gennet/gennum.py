"""Generalized numbers sampled on a finite epsilon grid.

A generalized number is (an equivalence class of) a net of field values
indexed by a regularization parameter eps in (0,1].  At desk scale the
continuum of indices is replaced by a strictly decreasing grid
eps_1 > eps_2 > ... > eps_K, by default eps_k = 2**-k with K = 24, and
every asymptotic quantifier ("for all q", "there exists m") is
interpreted on the tail window of the grid through a NumericPolicy:

* negligible        |a_k| <= eps_k**q_neg   on the tail
* moderate          |a_k| <= eps_k**-N_mod  on the tail
* nonnegative       a_k   >= -eps_k**q_neg  on the tail
* invertible w.r.t. S: |a_k| >= eps_k**m (some m <= m_inv) on S-tail

The valuation nu(a) = sup{b : |a_eps| = O(eps**b)} is estimated by the
least-squares slope of log|a_k| against log eps_k over the tail, and the
sharp norm is exp(-nu).  All values are immutable after construction and
every operation is a pure function.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
import orjson

from .errors import (
    EmptyTailIntersection,
    GridMismatch,
    NotNonnegative,
    NotZeroProduct,
    SplitFailed,
)

_REAL = "real"
_COMPLEX = "complex"


# ---------------------------------------------------------------------------
# grid / policy / index sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EpsGrid:
    """Strictly decreasing sample points eps_1 > ... > eps_K in (0,1]."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size < 8:
            raise ValueError("grid needs at least 8 values")
        if np.any(vals <= 0.0) or np.any(vals > 1.0):
            raise ValueError("grid values must lie in (0, 1]")
        if np.any(np.diff(vals) >= 0.0):
            raise ValueError("grid values must be strictly decreasing")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @classmethod
    def geometric(cls, K: int = 24, base: float = 0.5) -> "EpsGrid":
        """The default grid eps_k = base**k, k = 1..K."""
        if not (0.0 < base < 1.0):
            raise ValueError("base must be in (0, 1)")
        return cls(base ** np.arange(1, K + 1))

    @property
    def K(self) -> int:
        return int(self.values.size)

    def same_as(self, other: "EpsGrid") -> bool:
        return self.values.shape == other.values.shape and bool(
            np.array_equal(self.values, other.values)
        )


# Cells are printed in one of these dtypes, chosen by the array's dtype kind:
# float64 for floats (``tolist`` widens narrower floats the same way), int64
# for signed and uint64 for unsigned integers.
_CELL_DTYPES = {"f": np.float64, "i": np.int64, "u": np.uint64}


def _cell_dtype(dtype: np.dtype):
    """The dtype ``format_cells`` prints ``dtype`` in, or None if it cannot."""
    return _CELL_DTYPES.get(dtype.kind) if dtype.itemsize <= 8 else None


def format_cells(array) -> list[str]:
    """``[repr(v) for v in array.tolist()]`` for a 1-D integer or float array.

    The cells are printed in C by one ``orjson.dumps`` call.  orjson writes
    floats with Ryu's shortest round-trip digits, the digits ``repr``
    writes, and lays them out as ``repr`` does for 1e-4 <= |v| < 1e16 and
    for zeros.  Elsewhere the layouts differ (orjson writes ``0.00001``,
    ``1e16`` and ``null`` where ``repr`` writes ``1e-05``, ``1e+16`` and
    ``nan``), so those cells, and the non-finite ones, are re-printed with
    ``repr``.  Integer cells need no fallback.
    """
    arr = np.asarray(array)
    cell_dtype = _cell_dtype(arr.dtype)
    if arr.ndim != 1 or cell_dtype is None:
        raise ValueError(f"cells need a 1-D integer or float array, not {arr.ndim}-D {arr.dtype}")
    if arr.size == 0:
        return []
    arr = np.ascontiguousarray(arr, dtype=cell_dtype)
    cells = orjson.dumps(arr, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode().split(",")
    if arr.dtype.kind == "f":
        mag = np.abs(arr)
        for i in np.flatnonzero(~(mag < 1e16) | ((mag < 1e-4) & (mag != 0.0))).tolist():
            cells[i] = repr(float(arr[i]))
    return cells


def write_grid_csv(path, grid: EpsGrid, names, columns) -> None:
    """Write a per-eps table: header ``k,eps,<names>``, one row per grid point.

    Row k (1-based) holds k, eps_k and each column's k-th value.  Every
    cell equals the ``repr`` of that value as a Python int or float (from
    ``column.tolist()``), so floats round-trip exactly and integer columns
    stay integer; the cells come from ``format_cells`` (orjson, with the
    ``repr`` fallback outside 1e-4 <= |v| < 1e16), all columns of one kind
    in one call.  Cells are joined by ',', rows end in '\n'.  Raises
    ValueError when the names and columns differ in number, when a column
    is not of length K, or when a column is not real integers or floats
    (complex, bool and object columns are refused, naming the column).
    """
    K = grid.K
    cols = [np.asarray(col) for col in columns]
    if len(cols) != len(names) or any(col.shape != (K,) for col in cols):
        raise ValueError(f"need one length-{K} column per name in {names}")
    for name, col in zip(names, cols):
        if _cell_dtype(col.dtype) is None:
            raise ValueError(f"column {name!r}: cells must be real integers or floats, "
                             f"not {col.dtype}")
    cells = [None] * len(cols)
    for kind in _CELL_DTYPES:
        idx = [j for j, col in enumerate(cols) if col.dtype.kind == kind]
        if idx:
            flat = format_cells(np.stack([cols[j] for j in idx]).ravel())
            for i, j in enumerate(idx):
                cells[j] = flat[i * K:(i + 1) * K]
    rows = zip(format_cells(grid.values), *cells)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["k", "eps", *names]) + "\n")
        fh.write("".join([f"{k},{','.join(row)}\n" for k, row in enumerate(rows, 1)]))


@dataclass(frozen=True)
class NumericPolicy:
    """Exponent/tolerance thresholds interpreting asymptotics at finite scale."""

    q_neg: int = 10
    m_inv: int = 10
    N_mod: int = 20
    tail: int = 8
    tol_abs: float = 1e-12

    def __post_init__(self):
        for name in ("q_neg", "m_inv", "N_mod"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.tail < 1:
            raise ValueError("tail must be >= 1")
        if self.tol_abs <= 0.0:
            raise ValueError("tol_abs must be positive")


@dataclass(frozen=True)
class IndexSet:
    """A subset of grid indices {1..K}; the finite stand-in for S ⊆ (0,1]."""

    members: frozenset
    k_max: int

    def __post_init__(self):
        members = frozenset(int(k) for k in self.members)
        if members and (min(members) < 1 or max(members) > self.k_max):
            raise ValueError("members must lie in {1..K}")
        object.__setattr__(self, "members", members)

    @classmethod
    def full(cls, grid: EpsGrid) -> "IndexSet":
        return cls(frozenset(range(1, grid.K + 1)), grid.K)

    @classmethod
    def empty(cls, grid: EpsGrid) -> "IndexSet":
        return cls(frozenset(), grid.K)

    @classmethod
    def from_mask(cls, mask: np.ndarray) -> "IndexSet":
        mask = np.asarray(mask, dtype=bool)
        return cls(frozenset(int(i) + 1 for i in np.nonzero(mask)[0]), mask.size)

    def mask(self) -> np.ndarray:
        m = np.zeros(self.k_max, dtype=bool)
        for k in self.members:
            m[k - 1] = True
        return m

    def complement(self) -> "IndexSet":
        return IndexSet(frozenset(range(1, self.k_max + 1)) - self.members, self.k_max)

    def __contains__(self, k) -> bool:
        return int(k) in self.members

    def __len__(self) -> int:
        return len(self.members)


def _tail_positions(grid: EpsGrid, policy: NumericPolicy) -> np.ndarray:
    """0-based positions of the tail window (the `tail` smallest eps)."""
    if policy.tail > grid.K:
        raise ValueError("policy.tail exceeds grid length")
    return np.arange(grid.K - policy.tail, grid.K)


# ---------------------------------------------------------------------------
# sample nets and their field tag
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _SampleNet:
    """A net of (K, ...) samples on an EpsGrid over the field R or C.

    The field tag decides the dtype: a "real" net stores float64 samples
    and refuses nonzero imaginary parts, a "complex" net stores
    complex128.  A net computed from other nets takes its tag from the
    result array through ``_by_dtype``: the array is complex exactly when
    an operand was, so no operation joins operand tags by hand.  ``ndim``
    counts the sample axes, the grid axis included.  Samples are stored
    as a read-only copy.
    """

    grid: EpsGrid
    samples: np.ndarray
    field_tag: str = _REAL

    ndim: ClassVar[int]

    def __post_init__(self):
        if self.field_tag not in (_REAL, _COMPLEX):
            raise ValueError(f"field_tag must be 'real' or 'complex', not {self.field_tag!r}")
        arr = np.asarray(self.samples)
        if arr.ndim != self.ndim or arr.shape[0] != self.grid.K:
            raise ValueError(f"{type(self).__name__} samples must have {self.ndim} axes, "
                             f"the first of length K = {self.grid.K}; got shape {arr.shape}")
        if self.field_tag == _REAL:
            if np.iscomplexobj(arr):
                if np.any(arr.imag != 0.0):
                    raise ValueError("real-tagged net has nonzero imaginary part")
                arr = arr.real
            arr = arr.astype(np.float64)
        else:
            arr = arr.astype(np.complex128)
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)

    @classmethod
    def _by_dtype(cls, grid: EpsGrid, samples: np.ndarray):
        """The net of ``samples`` tagged by their dtype: complex arrays make complex nets."""
        return cls(grid, samples, _COMPLEX if np.iscomplexobj(samples) else _REAL)

    def is_real(self) -> bool:
        return self.field_tag == _REAL

    def _json(self) -> dict:
        """``{"field": tag, "samples": nested lists}``; a complex entry is its [re, im] pair."""
        samples = self.samples
        if not self.is_real():
            samples = np.stack([samples.real, samples.imag], axis=-1)
        return {"field": self.field_tag, "samples": samples.tolist()}

    @classmethod
    def _from_json(cls, obj: dict, grid: EpsGrid):
        """The net ``_json`` wrote into ``obj``; a missing field means real."""
        tag = obj.get("field", _REAL)
        arr = np.asarray(obj["samples"], dtype=float)
        if tag == _COMPLEX:
            arr = arr.view(np.complex128)[..., 0]
        return cls(grid, arr, tag)


# ---------------------------------------------------------------------------
# GenScalar
# ---------------------------------------------------------------------------

class GenScalar(_SampleNet):
    """A net of field values on an EpsGrid; stand-in for an element of R~ or C~."""

    ndim = 1

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, value, grid: EpsGrid) -> "GenScalar":
        tag = _COMPLEX if isinstance(value, complex) and value.imag != 0.0 else _REAL
        return cls(grid, np.full(grid.K, value), tag)

    # -- ring structure ----------------------------------------------------

    def _coerce(self, other) -> "GenScalar":
        if isinstance(other, GenScalar):
            if not self.grid.same_as(other.grid):
                raise GridMismatch("operands live on different grids")
            return other
        if isinstance(other, (int, float, complex, np.integer, np.floating)):
            return GenScalar.constant(other, self.grid)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GenScalar._by_dtype(self.grid, self.samples + other.samples)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GenScalar._by_dtype(self.grid, self.samples - other.samples)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GenScalar._by_dtype(self.grid, self.samples * other.samples)

    __rmul__ = __mul__

    def __neg__(self):
        return GenScalar(self.grid, -self.samples, self.field_tag)

    def conj(self) -> "GenScalar":
        return GenScalar(self.grid, np.conj(self.samples), self.field_tag)

    def abs(self) -> "GenScalar":
        return GenScalar(self.grid, np.abs(self.samples))


def make_power_net(c, a: float, grid: EpsGrid) -> GenScalar:
    """The net c * eps_k**a — the basic scale model [(c eps^a)_eps]."""
    return GenScalar._by_dtype(grid, c * grid.values ** float(a))


_BINARY = {"add", "sub", "mul"}
_UNARY = {"neg", "conj", "abs"}


def arithmetic(op: str, a: GenScalar, b: GenScalar | None = None) -> GenScalar:
    """Componentwise ring operation dispatcher.

    ``op`` is one of add/sub/mul (binary) or neg/conj/abs (unary); abs
    always yields a real-tagged net.
    """
    if op in _BINARY:
        if b is None:
            raise ValueError(f"{op} needs two operands")
        return {"add": a.__add__, "sub": a.__sub__, "mul": a.__mul__}[op](b)
    if op in _UNARY:
        if b is not None:
            raise ValueError(f"{op} takes one operand")
        return {"neg": a.__neg__, "conj": a.conj, "abs": a.abs}[op]()
    raise ValueError(f"unknown op {op!r}")


# ---------------------------------------------------------------------------
# valuation and sharp norm
# ---------------------------------------------------------------------------

NetVerdicts = namedtuple("NetVerdicts", ["valuation", "sharp_norm", "negligible", "moderate"])


def net_verdicts(samples: np.ndarray, grid: EpsGrid, policy: NumericPolicy) -> NetVerdicts:
    """Valuations, sharp norms and negligible/moderate verdicts of m nets in one pass.

    ``samples`` is the (m, K) stack of the nets' samples on ``grid``, one
    net per row, real or complex; each field of the result is an (m,)
    array.  Per net, over the tail window:

    * valuation: the least-squares slope of log|a_k| against log eps_k,
      the closed form sum(x_c * y_c) / sum(x_c**2) over the centred logs
      x_c, y_c.  Exact zeros are left out of each net's own fit; a tail
      with one nonzero sample gives log|a_k| / log eps_k there (the
      prefactor pinned at 1), an all-zero tail +inf (the net is
      indistinguishable from 0 at this scale).  Exact on pure power laws
      c*eps**a up to rounding.
    * sharp_norm: exp(-valuation), so 0 for an all-zero tail.
    * negligible: |a_k| <= eps_k**q_neg on every tail index.
    * moderate: |a_k| <= eps_k**-N_mod on every tail index.
    """
    pos = _tail_positions(grid, policy)
    mags = np.abs(np.asarray(samples)[:, pos])
    eps = grid.values[pos]
    negligible = np.all(mags <= eps ** policy.q_neg, axis=1)
    moderate = np.all(mags <= eps ** (-policy.N_mod), axis=1)
    keep = mags != 0.0
    kept = np.count_nonzero(keep, axis=1)
    log_eps = np.where(keep, np.log(eps), 0.0)
    log_mag = np.log(mags, out=np.zeros_like(mags), where=keep)
    valuation = np.divide(log_mag.sum(axis=1), log_eps.sum(axis=1),
                          out=np.full(kept.shape, np.inf), where=kept == 1)
    fit = kept >= 2
    if fit.any():
        count = np.maximum(kept, 1)[:, None]
        x = np.where(keep, log_eps - log_eps.sum(axis=1, keepdims=True) / count, 0.0)
        y = log_mag - log_mag.sum(axis=1, keepdims=True) / count
        np.divide((x * y).sum(axis=1), (x * x).sum(axis=1), out=valuation, where=fit)
    return NetVerdicts(valuation, np.exp(-valuation), negligible, moderate)


def _verdicts(a: GenScalar, policy: NumericPolicy) -> NetVerdicts:
    return net_verdicts(a.samples[None], a.grid, policy)


def valuation_estimate(a: GenScalar, policy: NumericPolicy) -> float:
    """Least-squares slope of log|a_k| vs log eps_k over the tail window.

    Exact zeros are left out of the fit; an all-zero tail returns +inf.
    See net_verdicts, which computes it.
    """
    return float(_verdicts(a, policy).valuation[0])


def sharp_norm(a: GenScalar, policy: NumericPolicy) -> float:
    """exp(-valuation); 0 for nets with all-zero tail."""
    return float(_verdicts(a, policy).sharp_norm[0])


# ---------------------------------------------------------------------------
# order and membership predicates
# ---------------------------------------------------------------------------

def is_negligible(a: GenScalar, policy: NumericPolicy) -> bool:
    """|a_k| <= eps_k**q_neg on every tail index (exact thresholds)."""
    return bool(_verdicts(a, policy).negligible[0])


def is_moderate(a: GenScalar, policy: NumericPolicy) -> bool:
    """|a_k| <= eps_k**-N_mod on every tail index."""
    return bool(_verdicts(a, policy).moderate[0])


def ge_zero(a: GenScalar, policy: NumericPolicy) -> bool:
    """a_k >= -eps_k**q_neg on every tail index (non-strict boundary).

    This is the strictest finite-scale instance of the order test
    "r_eps >= -eps**q for all small eps"; a real-tagged net is required.
    """
    if not a.is_real():
        raise ValueError("order test needs a real-tagged net")
    pos = _tail_positions(a.grid, policy)
    return bool(np.all(a.samples[pos] >= -(a.grid.values[pos] ** policy.q_neg)))


def ge(a: GenScalar, b: GenScalar, policy: NumericPolicy) -> bool:
    return ge_zero(a - b, policy)


def le(a: GenScalar, b: GenScalar, policy: NumericPolicy) -> bool:
    return ge_zero(b - a, policy)


def eq(a: GenScalar, b: GenScalar, policy: NumericPolicy) -> bool:
    return is_negligible(a - b, policy)


def sqrt_nonneg(a: GenScalar, policy: NumericPolicy) -> GenScalar:
    """Componentwise square root of a nonnegative net.

    Negative samples (allowed below the -eps**q_neg order slack) are
    clipped to zero before the root, so the square of the result equals
    the input up to negligibility.
    """
    if not ge_zero(a, policy):
        raise NotNonnegative("net fails the nonnegativity order test")
    return GenScalar(a.grid, np.sqrt(np.maximum(a.samples.real, 0.0)))


# ---------------------------------------------------------------------------
# idempotents and invertibility w.r.t. an index set
# ---------------------------------------------------------------------------

def idempotent(S: IndexSet, grid: EpsGrid) -> GenScalar:
    """e_S: the characteristic net of S (1 on S, 0 elsewhere)."""
    if S.k_max != grid.K:
        raise GridMismatch("index set sized for a different grid")
    return GenScalar(grid, S.mask().astype(float))


Invertibility = namedtuple("Invertibility", ["holds", "witness"])


def _tail_members(grid: EpsGrid, S: IndexSet, policy: NumericPolicy) -> np.ndarray:
    pos = _tail_positions(grid, policy)
    return pos[S.mask()[pos]]


def invertible_wrt(a: GenScalar, S: IndexSet, policy: NumericPolicy) -> Invertibility:
    """Is |a_k| bounded below by some eps_k**m (m <= m_inv) on S's tail?

    Returns the verdict together with the smallest working integer
    witness exponent.  Raises EmptyTailIntersection when S misses the
    tail window — no meaningful asymptotic verdict exists there.
    """
    pos = _tail_members(a.grid, S, policy)
    if pos.size == 0:
        raise EmptyTailIntersection("index set does not meet the tail window")
    mags = np.abs(a.samples[pos])
    eps = a.grid.values[pos]
    for m in range(1, policy.m_inv + 1):
        if np.all(mags >= eps ** m):
            return Invertibility(True, m)
    return Invertibility(False, None)


def zero_wrt(a: GenScalar, S: IndexSet, policy: NumericPolicy) -> bool:
    """Is |a_k| <= eps_k**q_neg on S's tail (negligible relative to S)?"""
    pos = _tail_members(a.grid, S, policy)
    if pos.size == 0:
        raise EmptyTailIntersection("index set does not meet the tail window")
    return bool(np.all(np.abs(a.samples[pos]) <= a.grid.values[pos] ** policy.q_neg))


def _zero_on(a: GenScalar, S: IndexSet, policy: NumericPolicy):
    """Like zero_wrt but vacuously true off the tail; returns (ok, excess)."""
    pos = _tail_members(a.grid, S, policy)
    if pos.size == 0:
        return True, 0.0
    excess = np.abs(a.samples[pos]) / a.grid.values[pos] ** policy.q_neg
    worst = float(np.max(excess))
    return worst <= 1.0, worst


def zero_divisor_split(x: GenScalar, y: GenScalar, policy: NumericPolicy) -> IndexSet:
    """Split the grid so that x vanishes on S and y on its complement.

    Heuristic S = {k : |x_k| <= |y_k|} (ties go to the x-small side),
    verified before returning: x must be zero w.r.t. S and y zero
    w.r.t. the complement, otherwise SplitFailed reports both excess
    ratios.  Preconditions: x*y negligible (NotZeroProduct otherwise).
    """
    if not x.grid.same_as(y.grid):
        raise GridMismatch("operands live on different grids")
    if not is_negligible(x * y, policy):
        raise NotZeroProduct("x*y is not negligible")
    S = IndexSet.from_mask(np.abs(x.samples) <= np.abs(y.samples))
    ok_x, ex_x = _zero_on(x, S, policy)
    ok_y, ex_y = _zero_on(y, S.complement(), policy)
    if not (ok_x and ok_y):
        raise SplitFailed(ex_x, ex_y)
    return S


# ---------------------------------------------------------------------------
# close infimum
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CloseInfimumResult:
    """Verdict of close_infimum_check.

    ``witnesses`` maps each order m in 1..q_neg to the index (into the
    candidate list) of an element below delta + eps**m, for the orders
    where one exists.
    """

    lower_bound: bool
    close: bool
    witnesses: dict

    def to_json(self) -> dict:
        return {
            "lower_bound": self.lower_bound,
            "close": self.close,
            "witnesses": {str(m): i for m, i in self.witnesses.items()},
        }


def close_infimum_check(delta: GenScalar, A, policy: NumericPolicy) -> CloseInfimumResult:
    """Is delta a lower bound of A, and a *close* one?

    delta is a close infimum candidate iff for every order m in
    {1..q_neg} some element of A sits within [(eps)_eps]**m above it.
    All nets must be real-tagged and share delta's grid.
    """
    elems = list(A)
    for a in elems:
        if not a.grid.same_as(delta.grid):
            raise GridMismatch("candidate on a different grid")
    lower = all(ge(a, delta, policy) for a in elems)
    witnesses = {}
    for m in range(1, policy.q_neg + 1):
        margin = delta + make_power_net(1.0, m, delta.grid)
        for i, a in enumerate(elems):
            if le(a, margin, policy):
                witnesses[m] = i
                break
    close = len(witnesses) == policy.q_neg
    return CloseInfimumResult(lower_bound=lower, close=close, witnesses=witnesses)
