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

Every moderateness and invertibility test in the library is one of two
per-sample rules, ``_moderate`` and ``_invertible``.

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
from dataclasses import InitVar, dataclass
from typing import ClassVar

import numpy as np
import orjson

from .errors import (
    EmptyTailIntersection,
    GridMismatch,
    NotNonnegative,
    NotZeroProduct,
    OutputUnwritable,
    SplitFailed,
)


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
        for i in np.flatnonzero(~(mag < 1e16) | ((mag < 1e-4) & (mag != 0.0))).tolist():
            cells[i] = repr(float(arr[i]))
    return cells


def _open_output(path):
    """Open ``path`` for writing text as a new file.

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
        return open(path, "w", newline="")
    except OSError as exc:
        raise OutputUnwritable(f"cannot write {path}: {exc.strerror or exc}") from exc


def write_grid_csv(path, grid: EpsGrid, names, columns) -> None:
    """Write a per-eps table: header ``k,eps,<names>``, one row per grid point.

    ``columns`` is a list of length-K columns or one (len(names), K)
    array.  Row k (1-based) holds k, eps_k and each column's k-th value.
    Every cell equals the ``repr`` of that value as a Python int or float
    (from ``column.tolist()``), so floats round-trip exactly and integer
    columns stay integer; the cells come from ``format_cells`` (orjson,
    with the ``repr`` fallback outside 1e-4 <= |v| < 1e16).  The table is
    formatted in row order: the columns of one dtype kind form a (K, c)
    block, eps the first column of the float block, and each block is one
    ``format_cells`` call.  A single block is the table's cells as they
    are; several are placed by column into one (K, 1 + len(names)) table.
    Each row is joined from its contiguous slice of cells, by ',', and
    ends in '\n'.  An array input is never split into per-column views.
    The table is a new file (``_open_output``): an existing file at
    ``path`` is replaced, not rewritten in place.  Raises ValueError when
    the names and columns differ in number, when a column is not of length
    K, or when a column is not real integers or floats (complex, bool and
    object columns are refused, naming the column), and
    ``OutputUnwritable`` when the file cannot be written.
    """
    K, width = grid.K, len(names) + 1
    # per dtype kind: the table columns it fills and its (K, c) block
    blocks = {}
    if isinstance(columns, np.ndarray) and columns.ndim == 2:
        if columns.shape != (len(names), K):
            raise ValueError(f"need one length-{K} column per name in {names}")
        if len(columns):  # one dtype: the first column names a refusal
            _check_cells(names[0], columns.dtype)
            blocks[columns.dtype.kind] = np.arange(1, width), columns.T
    else:
        cols = [np.asarray(col) for col in columns]
        if len(cols) != len(names) or any(col.shape != (K,) for col in cols):
            raise ValueError(f"need one length-{K} column per name in {names}")
        for name, col in zip(names, cols):
            _check_cells(name, col.dtype)
        for kind in _CELL_DTYPES:
            idx = [j for j, col in enumerate(cols) if col.dtype.kind == kind]
            if idx:
                blocks[kind] = np.array(idx) + 1, np.stack([cols[j] for j in idx], axis=1)
    pos, block = blocks.get("f", (np.arange(0), np.empty((K, 0))))
    blocks["f"] = np.append(0, pos), np.concatenate([grid.values[:, None], block], axis=1)
    if len(blocks) == 1:
        cells = format_cells(blocks["f"][1].ravel())
    else:
        table = np.empty((K, width), dtype=object)
        for pos, block in blocks.values():
            table[:, pos] = np.array(format_cells(block.ravel()), dtype=object).reshape(K, -1)
        cells = table.ravel().tolist()
    with _open_output(path) as fh:
        fh.write(",".join(["k", "eps", *names]) + "\n")
        fh.write("".join([f"{k},{','.join(cells[i:i + width])}\n"
                          for k, i in enumerate(range(0, K * width, width), 1)]))


def _check_cells(name, dtype: np.dtype) -> None:
    """Refuse a column whose dtype ``format_cells`` cannot print, naming it."""
    if _cell_dtype(dtype) is None:
        raise ValueError(f"column {name!r}: cells must be real integers or floats, not {dtype}")


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
# sample nets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _SampleNet:
    """A net of (K, ...) samples on an EpsGrid over the field R or C.

    The samples' dtype is the field: complex input is stored as
    complex128, a net over C, and any other numbers as float64, a net
    over R; so a net computed from other nets is complex exactly when an
    operand is.  ``ndim`` counts the sample axes, the grid axis included.  Samples are stored as a read-only copy; ``_fresh=True``
    marks a float64 or complex128 array built for this net alone, which
    is stored as it is.
    """

    grid: EpsGrid
    samples: np.ndarray
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

    def is_real(self) -> bool:
        return self.samples.dtype == np.float64


# ---------------------------------------------------------------------------
# GenScalar
# ---------------------------------------------------------------------------

class GenScalar(_SampleNet):
    """A net of field values on an EpsGrid; stand-in for an element of R~ or C~."""

    ndim = 1

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, value, grid: EpsGrid) -> "GenScalar":
        return cls(grid, np.full(grid.K, value))

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
        return GenScalar(self.grid, self.samples + other.samples)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GenScalar(self.grid, self.samples - other.samples)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GenScalar(self.grid, self.samples * other.samples)

    __rmul__ = __mul__

    def __neg__(self):
        return GenScalar(self.grid, -self.samples)

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
    negligible = np.all(mags <= eps ** policy.q_neg, axis=1)
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
    """a_k >= -eps_k**q_neg on every tail index (non-strict boundary).

    This is the strictest finite-scale instance of the order test
    "r_eps >= -eps**q for all small eps"; a real net is required.
    """
    if not a.is_real():
        raise ValueError("order test needs a real net")
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


def zero_wrt(a: GenScalar, S: IndexSet, policy: NumericPolicy) -> bool:
    """Is |a_k| <= eps_k**q_neg on S's tail (negligible relative to S)?"""
    if _tail_members(a.grid, S, policy).size == 0:
        raise EmptyTailIntersection("index set does not meet the tail window")
    return _zero_on(a, S, policy)


def _zero_on(a: GenScalar, S: IndexSet, policy: NumericPolicy) -> bool:
    """zero_wrt, vacuously true when S misses the tail."""
    pos = _tail_members(a.grid, S, policy)
    return bool(np.all(np.abs(a.samples[pos]) <= a.grid.values[pos] ** policy.q_neg))


def _excess(a: GenScalar, S: IndexSet, policy: NumericPolicy) -> float:
    """The largest |a_k| / eps_k**q_neg on S's tail (0 off it), for SplitFailed:
    where eps_k**q_neg underflows to 0 it is 0 for a_k = 0 and inf otherwise,
    and a NaN a_k counts as inf."""
    pos = _tail_members(a.grid, S, policy)
    mags, thr = np.abs(a.samples[pos]), a.grid.values[pos] ** policy.q_neg
    ratio = np.divide(mags, thr, out=np.where(mags == 0.0, 0.0, np.inf),
                      where=(thr > 0.0) & np.isfinite(mags))
    return float(np.max(ratio, initial=0.0))


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
    if not (_zero_on(x, S, policy) and _zero_on(y, S.complement(), policy)):
        raise SplitFailed(_excess(x, S, policy), _excess(y, S.complement(), policy))
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


def close_infimum_check(delta: GenScalar, A, policy: NumericPolicy) -> CloseInfimumResult:
    """Is delta a lower bound of A, and a *close* one?

    delta is a close infimum candidate iff for every order m in
    {1..q_neg} some element of A sits within [(eps)_eps]**m above it.
    All nets must be real and share delta's grid.
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
