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
* invertible w.r.t. S: 0 < |a_k| >= eps_k**m (some m <= m_inv) on S-tail

An index set S, the finite stand-in for S ⊆ (0,1], is a (K,) bool mask
with k in S at S[k - 1]; its complement is ~S.  Every S-relative function
refuses a mask of another dtype (TypeError) or shape (GridMismatch).

Every negligibility, order, moderateness and invertibility test in the
library is one of three per-sample rules, ``_negligible`` (a_k >= 0 reads as
a negligible max(-a_k, 0)), ``_moderate`` and ``_invertible``, and every
sample norm and check scale one of two, ``_norms`` and ``_check_scale``.

The valuation nu(a) = sup{b : |a_eps| = O(eps**b)} is estimated by the
least-squares slope of log|a_k| against log eps_k over the tail, and the
sharp norm is exp(-nu).  All values are immutable after construction and
every operation is a pure function.
"""

from __future__ import annotations

import functools
import math
import os
from collections import namedtuple
from dataclasses import KW_ONLY, InitVar, dataclass
from typing import ClassVar

import numpy as np
import orjson

from .errors import DimMismatch, EmptyTailIntersection, GridMismatch, OutputUnwritable


# ---------------------------------------------------------------------------
# grid / policy
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
        """eps_k = base**k, k = 1..K, once K is checked to lie in [8, max_geometric_K(base)]."""
        most = max_geometric_K(base)
        if not 8 <= K <= most:
            raise ValueError(f"K must lie in [8, {most}] for base {base!r}, got {K}")
        return cls(base ** np.arange(1, K + 1))

    @property
    def K(self) -> int:
        return int(self.values.size)

    def same_as(self, other: "EpsGrid") -> bool:
        return self.values.shape == other.values.shape and bool(
            np.array_equal(self.values, other.values)
        )


def _first_k(mask: np.ndarray) -> int | None:
    """The grid index k (1-based) of the first row of a (K, ...) bool mask
    with a True entry, or None if there is none."""
    hit = mask.any(axis=tuple(range(1, mask.ndim))) if mask.ndim > 1 else mask
    return int(hit.argmax()) + 1 if hit.any() else None


@functools.cache
def max_geometric_K(base: float) -> int:
    """The largest K with base**k, k = 1..K, positive and strictly decreasing, as
    EpsGrid needs; 0 < base < 1.  Rounding breaks that only below 2**-1022, so just
    the powers from there to 0 are computed, at most the last 2**20 of them: for a
    base within 4e-5 of 1 the bound can lie too high, and an earlier break is left
    to EpsGrid's own check."""
    if not (0.0 < base < 1.0):
        raise ValueError("base must be in (0, 1)")
    hi = math.ceil(-1080 / math.log2(base)) + 1
    lo = max(1, math.floor(-1022 / math.log2(base)) - 1, hi - 2 ** 20)
    powers = base ** np.arange(lo - 1, hi + 1)  # base**0 = 1 heads a window from k = 1
    bad = ~((powers[1:] > 0.0) & (powers[1:] < powers[:-1]))
    return lo - 1 + int(np.argmax(bad)) if bad.any() else hi


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
        idx = np.flatnonzero(~(mag < 1e16) | ((mag < 1e-4) & (mag != 0.0)))
        for i, value in zip(idx.tolist(), arr[idx].tolist()):
            cells[i] = repr(value)
    return cells


def _open_output(path):
    """Open ``path`` for writing UTF-8 text as a new file.

    An existing file at ``path`` is unlinked first, never truncated: on
    ext4 a truncate-and-rewrite makes ``close`` allocate blocks and start
    writeback in the writing process, while a new inode gets delayed
    allocation.  A handle or hard link to the old file keeps its bytes, and
    a symlink at ``path`` is replaced, not followed.  Rows are written as
    given (``newline=""``).  Any OS error is an ``OutputUnwritable`` that
    names the path and the reason.
    """
    try:
        try:
            os.unlink(path)
        except FileNotFoundError:
            pass
        return open(path, "w", newline="", encoding="utf-8")
    except OSError as exc:
        raise OutputUnwritable(f"cannot write {path}: {exc.strerror or exc}") from exc


def write_grid_csv(path, grid: EpsGrid, names, columns) -> None:
    """Write a per-eps table: header ``k,eps,<names>``, one row per grid point.

    ``columns`` is a list of length-K columns or one (len(names), K)
    array.  Row k (1-based) holds k, eps_k and each column's k-th value,
    each cell the ``repr`` of the Python number (``format_cells``), so
    floats round-trip exactly and integer columns stay integer.  A table
    of float columns is one float block ``[eps | columns]``, printed by
    one ``format_cells`` call and joined row by row from contiguous
    slices; any other table is printed column by column and its rows come
    from ``zip``.  The table is a new file (``_open_output``).  Raises
    ValueError, before any file is opened, when the names and columns
    differ in number, when a column is not of length K, or when a column
    is not real integers or floats (naming the first such column), and
    ``OutputUnwritable`` when the file cannot be written.
    """
    K, width = grid.K, len(names) + 1
    if isinstance(columns, np.ndarray) and columns.ndim == 2:
        shaped = columns.shape == (len(names), K)
        dtypes = [columns.dtype] if len(columns) else []  # named by the first column
    else:
        columns = [np.asarray(col) for col in columns]
        shaped = len(columns) == len(names) and all(col.shape == (K,) for col in columns)
        dtypes = [col.dtype for col in columns]
    if not shaped:
        raise ValueError(f"need one length-{K} column per name in {names}")
    for name, dtype in zip(names, dtypes):
        if _cell_dtype(dtype) is None:
            raise ValueError(f"column {name!r}: cells must be real integers or floats, not {dtype}")
    if all(dtype.kind == "f" for dtype in dtypes):
        table = np.empty((K, width))
        table[:, 0] = grid.values
        table[:, 1:] = np.transpose(columns)
        cells = format_cells(table.ravel())
        rows = [f"{k},{','.join(cells[i:i + width])}\n"
                for k, i in enumerate(range(0, K * width, width), 1)]
    else:
        rows = [f"{k},{','.join(row)}\n" for k, row in
                enumerate(zip(format_cells(grid.values), *map(format_cells, columns)), 1)]
    with _open_output(path) as fh:
        fh.write(",".join(["k", "eps", *names]) + "\n")
        fh.write("".join(rows))


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


def _tail_positions(grid: EpsGrid, policy: NumericPolicy) -> np.ndarray:
    """0-based positions of the tail window (the `tail` smallest eps)."""
    if policy.tail > grid.K:
        raise ValueError("policy.tail exceeds grid length")
    return np.arange(grid.K - policy.tail, grid.K)


# ---------------------------------------------------------------------------
# sample nets
# ---------------------------------------------------------------------------

_NUMBERS = (int, float, complex, np.integer, np.floating)


def _same_grid(*nets) -> None:
    """GridMismatch unless every net (anything with a ``grid``) lives on the
    grid of the first; the one grid check of the library."""
    grid = nets[0].grid
    for net in nets[1:]:
        if net.grid is not grid and not grid.same_as(net.grid):
            raise GridMismatch(f"{type(nets[0]).__name__}, {type(net).__name__}: grids differ")


@dataclass(frozen=True)
class _SampleNet:
    """A net of (K, ...) samples on an EpsGrid over the field R or C.

    The samples' dtype is the field: complex input is stored as
    complex128, a net over C, and any other numbers as float64, a net
    over R; so a net computed from other nets is complex exactly when an
    operand is.  ``ndim`` counts the sample axes, the grid axis included.  Samples are stored as a read-only copy; ``_fresh=True``
    marks a float64 or complex128 array built for this net alone, which
    is stored as it is.

    The module arithmetic of every kind is here; a kind aliases the operators
    it has.  An operand of another kind is NotImplemented, so mixing kinds is
    a TypeError; another grid is a GridMismatch, another sample shape a DimMismatch.
    """

    grid: EpsGrid
    samples: np.ndarray
    _: KW_ONLY  # so that a subclass (OrthoBasis) adds positional fields after samples
    _fresh: InitVar[bool] = False

    ndim: ClassVar[int]

    def __post_init__(self, _fresh=False):
        arr = np.asarray(self.samples)
        if arr.ndim != self.ndim or arr.shape[0] != self.grid.K:
            raise ValueError(f"{type(self).__name__} samples must have {self.ndim} axes, "
                             f"the first of length K = {self.grid.K}; got shape {arr.shape}")
        arr = arr.astype(np.complex128 if np.iscomplexobj(arr) else np.float64,
                         copy=not _fresh)
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)

    @classmethod
    def constant(cls, value, grid: EpsGrid):
        """The net whose every sample is ``value``, C-contiguous as ``np.tile`` lays it out."""
        value = np.asarray(value)
        return cls(grid, np.tile(value, (grid.K,) + (1,) * value.ndim))

    def is_real(self) -> bool:
        return self.samples.dtype == np.float64

    def _operand(self, other):
        """``other`` if it is a net of this kind on this grid with this sample
        shape; NotImplemented for anything else, a GridMismatch or a DimMismatch."""
        if type(other) is not type(self):
            return NotImplemented
        _same_grid(self, other)
        if (shape := other.samples.shape) != self.samples.shape:
            raise DimMismatch(f"sample shapes {self.samples.shape[1:]} != {shape[1:]}")
        return other

    def _add(self, other, op=np.add):
        other = self._operand(other)
        if other is NotImplemented:
            return NotImplemented
        return type(self)(self.grid, op(self.samples, other.samples), _fresh=True)

    def _sub(self, other):
        return self._add(other, np.subtract)

    def _rsub(self, other):
        return self._add(other, lambda x, y: y - x)

    def _neg(self):
        return type(self)(self.grid, -self.samples, _fresh=True)

    def _scale(self, a):
        """a * x per sample for a GenScalar a, broadcast over the sample's
        trailing axes, or for a plain number a."""
        if isinstance(a, GenScalar):
            _same_grid(self, a)
            a = a.samples.reshape((-1,) + (1,) * (self.ndim - 1))
        elif not isinstance(a, _NUMBERS):
            return NotImplemented
        return type(self)(self.grid, self.samples * a, _fresh=True)


# ---------------------------------------------------------------------------
# GenScalar
# ---------------------------------------------------------------------------

class GenScalar(_SampleNet):
    """A net of field values on an EpsGrid; stand-in for an element of R~ or C~.
    A ring, where a plain number acts as the constant net."""

    ndim = 1

    def _operand(self, other):
        if isinstance(other, _NUMBERS):
            return self.constant(other, self.grid)
        return super()._operand(other)

    __add__ = __radd__ = _SampleNet._add
    __sub__ = _SampleNet._sub
    __rsub__ = _SampleNet._rsub
    __mul__ = __rmul__ = _SampleNet._scale
    __neg__ = _SampleNet._neg

    def conj(self) -> "GenScalar":
        return GenScalar(self.grid, np.conj(self.samples))

    def abs(self) -> "GenScalar":
        return GenScalar(self.grid, np.abs(self.samples))


def make_power_net(c, a: float, grid: EpsGrid) -> GenScalar:
    """The net c * eps_k**a — the basic scale model [(c eps^a)_eps]."""
    return GenScalar(grid, c * grid.values ** float(a))


# ---------------------------------------------------------------------------
# valuation and sharp norm
# ---------------------------------------------------------------------------

def _invertible(mags, eps, m):
    """0 < mags >= eps**m per sample, so a zero or NaN sample never passes, even
    where eps**m underflows to 0.  A column of exponents m gives one row per m."""
    return (mags > 0.0) & (mags >= eps ** m)


def _row_norms(x: np.ndarray) -> np.ndarray:
    """np.linalg.norm(x, axis=-1), bit for bit, without its argument handling."""
    return np.sqrt(np.add.reduce((x.conj() * x).real if np.iscomplexobj(x) else x * x, axis=-1))


# Below this plain norm a sample's squares may have lost bits to underflow
_SMALL_NORM = math.sqrt(np.finfo(float).tiny / np.finfo(float).eps)  # about 1e-146


def _norms(x: np.ndarray, norm=_row_norms) -> np.ndarray:
    """``norm`` of each sample (last axis) of x: the plain value, bits and
    all, from ``_SMALL_NORM`` up to the overflow limit.  A finite, nonzero
    sample outside that range, whose squares underflow or overflow, is
    divided by its largest |x| first, so its norm is exact to rounding,
    never 0, and finite unless it exceeds the float range."""
    with np.errstate(over="ignore", invalid="ignore"):  # complex squares: inf - inf
        out = norm(x)
        odd = np.isinf(out) | (out < _SMALL_NORM)
        if odd.any():
            m = np.abs(x[odd]).max(axis=-1, initial=0.0)
            odd[odd] = scaled = (m > 0.0) & (m < np.inf)
            out[odd] = m[scaled] * norm(x[odd] / m[scaled, None])
    return out


def _check_scale(x: np.ndarray) -> np.ndarray:
    """1 + |x_k| per sample of x, NaN where that overflows: no check against it passes."""
    scale = 1.0 + _norms(x)
    return np.where(scale < np.inf, scale, np.nan)


def _negligible(mags, eps, policy: NumericPolicy):
    """mags <= eps**q_neg per sample: NaN never passes, and an underflowed bound only 0."""
    return mags <= eps ** policy.q_neg


def _moderate(mags, eps, policy: NumericPolicy):
    """mags <= eps**-N_mod per sample; a bound past the float range is +inf,
    the bound meant, and its overflow raises no warning."""
    with np.errstate(over="ignore"):
        return mags <= eps ** -policy.N_mod


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
    negligible = np.all(_negligible(mags, eps, policy), axis=1)
    moderate = np.all(_moderate(mags, eps, policy), axis=1)
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
    """a_k >= -eps_k**q_neg, a negligible max(-a_k, 0), on every tail index.

    This is the strictest finite-scale instance of the order test
    "r_eps >= -eps**q for all small eps"; a real net is required.
    """
    if not a.is_real():
        raise ValueError("order test needs a real net")
    pos = _tail_positions(a.grid, policy)
    negative_part = np.maximum(-a.samples[pos], 0.0)
    return bool(np.all(_negligible(negative_part, a.grid.values[pos], policy)))


def ge(a: GenScalar, b: GenScalar, policy: NumericPolicy) -> bool:
    return ge_zero(a - b, policy)


def le(a: GenScalar, b: GenScalar, policy: NumericPolicy) -> bool:
    return ge_zero(b - a, policy)


# ---------------------------------------------------------------------------
# idempotents and invertibility w.r.t. an index set (a (K,) bool mask)
# ---------------------------------------------------------------------------

def _index_mask(S: np.ndarray, grid: EpsGrid) -> np.ndarray:
    """The index set S as the (K,) bool mask of ``grid``, k at S[k - 1]: a mask
    of another dtype is a TypeError, one of another shape a GridMismatch."""
    S = np.asarray(S)
    if S.dtype != bool:
        raise TypeError(f"an index set is a (K,) bool mask, not an array of {S.dtype}")
    if S.shape != (grid.K,):
        raise GridMismatch(f"index set of shape {S.shape} on a grid of K = {grid.K}")
    return S


def idempotent(S: np.ndarray, grid: EpsGrid) -> GenScalar:
    """e_S: the characteristic net of S (1 on S, 0 elsewhere)."""
    return GenScalar(grid, _index_mask(S, grid).astype(float))


Invertibility = namedtuple("Invertibility", ["holds", "witness"])


def _tail_members(grid: EpsGrid, S: np.ndarray, policy: NumericPolicy) -> np.ndarray:
    pos = _tail_positions(grid, policy)
    return pos[_index_mask(S, grid)[pos]]


def invertible_wrt(a: GenScalar, S: np.ndarray, policy: NumericPolicy) -> Invertibility:
    """Is |a_k| > 0 bounded below by some eps_k**m (m <= m_inv) on S's tail?

    Returns the verdict together with the smallest working integer
    witness exponent, the least m of the ``_invertible`` table m = 1..m_inv.
    Raises EmptyTailIntersection when S misses the tail window — no
    meaningful asymptotic verdict exists there.
    """
    pos = _tail_members(a.grid, S, policy)
    if pos.size == 0:
        raise EmptyTailIntersection("index set does not meet the tail window")
    working = np.flatnonzero(_invertible(np.abs(a.samples[pos]), a.grid.values[pos],
                                         np.arange(1, policy.m_inv + 1)[:, None]).all(axis=1))
    return Invertibility(working.size > 0, int(working[0]) + 1 if working.size else None)


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


def close_infimum_check(delta: GenScalar, A, policy: NumericPolicy) -> CloseInfimumResult:
    """Is delta a lower bound of A, and a *close* one?

    delta is a close infimum candidate iff for every order m in
    {1..q_neg} some element of A sits within [(eps)_eps]**m above it.
    All nets must be real and share delta's grid.
    """
    elems = list(A)
    _same_grid(delta, *elems)
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
