"""1D elliptic problems with regularized singular data.

Problems -(a u')' + c u = f on an interval with Dirichlet data, where
the diffusion a, potential c, and load f are nets over the eps grid:
a Heaviside jump whose lower level is a power of eps, a point mass
mollified at width eps, tabulated values or plain constants (a load
given as a number becomes a constant net).  Discretization is P1
finite elements with three-point Gauss quadrature per element; the
unknowns are the interior nodal values, and the Dirichlet data enter
the two rows next to the boundary.  Each coefficient kind has one
evaluation rule, which describes its values at ascending points by
structure (``GaussValues``): a level per sample left and right of a
split point, plus the rows that differ from it, such as a jump's
element or a point mass's eps-support.  The assembly reads it at the
Gauss points, and pointwise evaluation at the sorted points, one per
row.  Element integrals are formed once per level and once per listed
row, and all K per-sample systems are assembled at once as a
tridiagonal band net, so assembly, solve, obstacle solve and
certificate cost O(K n) per step, with coercivity certified through the
discrete Poincare constant and the potential's lower bound.

Grid points whose regularization width falls under the mesh resolution
(eps_k < 2h) are flagged as under-resolved rather than hidden: the
discrete answer there is the mesh's view of the problem, not the
continuum limit's.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .convex import ConvexSetNet
from .errors import CoercivityFailure, InvalidSpec, NoConvergence
from .gennum import (
    EpsGrid,
    GenScalar,
    NumericPolicy,
    _invertible,
    _moderate,
    _open_output,
    format_cells,
    ge_zero,  # noqa: F401 -- unused; perfbench/spans.py wraps it here by name
    invertible_wrt,  # noqa: F401 -- unused; perfbench/spans.py wraps it here by name
    is_moderate,
    valuation_estimate,
    write_grid_csv,
)
from .hilbert import GenVector
from .operators import TridiagonalOperator
from .variational import RESIDUAL_TARGET, CoercivityCertificate, lax_milgram_solve
from .variational import _certified_alpha, _check_scale, _norms

# reference 3-point Gauss rule on [-1, 1]
_GAUSS_T = np.array([-math.sqrt(3.0 / 5.0), 0.0, math.sqrt(3.0 / 5.0)])
_GAUSS_W = np.array([5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0])
# hat function values at the reference Gauss points
_N1 = 0.5 * (1.0 - _GAUSS_T)
_N2 = 0.5 * (1.0 + _GAUSS_T)

# 1 / integral_{-1}^{1} exp(-1/(1 - s^2)) ds, the unit-mass factor of the bump
_MOLLIFIER_NORM = 2.2522836210435813
COMPLEMENTARITY_TOL = 1e-8  # largest scaled violation an obstacle solve may leave


def _bump(t):
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    with np.errstate(divide="ignore", over="ignore"):
        out[inside] = np.exp(-1.0 / (1.0 - t[inside] ** 2))
    return out


def mollifier_eval(x, eps: float, center: float = 0.0):
    """The standard bump mollifier phi_eps(x - center), unit mass, support width eps.

    phi_eps(x) = _MOLLIFIER_NORM * exp(-1 / (1 - (x/eps)^2)) / eps inside
    |x| < eps, where _MOLLIFIER_NORM = 1 / integral_{-1}^{1} exp(-1/(1 - s^2)) ds
    = 2.2522836210435813.
    """
    if eps <= 0.0:
        raise InvalidSpec("mollifier width must be positive")
    t = (np.asarray(x, dtype=float) - center) / eps
    return _MOLLIFIER_NORM * _bump(t) / eps


@dataclass(frozen=True)
class Mesh1D:
    """Uniform mesh on [x_left, x_right] with at least 4 elements."""

    x_left: float
    x_right: float
    n_elems: int

    def __post_init__(self):
        if not self.x_left < self.x_right:
            raise InvalidSpec("empty interval")
        if self.n_elems < 4:
            raise InvalidSpec("need at least 4 elements")

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(self.x_left, self.x_right, self.n_elems + 1)

    @property
    def h(self) -> float:
        return (self.x_right - self.x_left) / self.n_elems

    def gauss_points(self):
        """All quadrature points (n_elems, 3) and their weights (3,) scaled by h/2."""
        xs = self.nodes
        mid = 0.5 * (xs[:-1] + xs[1:])
        pts = mid[:, None] + 0.5 * self.h * _GAUSS_T[None, :]
        return pts, 0.5 * self.h * _GAUSS_W


@dataclass(frozen=True)
class GaussValues:
    """A coefficient net's values at (n, w) points, by structure.

    Row e of the points holds w of them: the 3 Gauss points of mesh
    element e, or one plain point.  On sample k the rows e < ``split``
    take ``levels[k, 0]`` at every point and the others ``levels[k, 1]``,
    except the listed rows: row ``elems[j]`` of sample ``ks[j]`` has the
    w values ``rows[j]``.  The listed rows run over the samples in order,
    and the (ks, elems) pairs are distinct.  ``integrals`` and ``bounds``
    take Gauss points (w = 3).
    """

    levels: np.ndarray  # (K, 2)
    split: int
    ks: np.ndarray  # (r,), nondecreasing
    elems: np.ndarray  # (r,)
    rows: np.ndarray  # (r, w)
    n: int

    @classmethod
    def constant(cls, level: np.ndarray, shape) -> "GaussValues":
        """The level (K,) at every point of an (n, w) array."""
        none = np.zeros(0, dtype=np.intp)
        return cls(np.stack([level, level], axis=1), 0, none, none, np.zeros((0, shape[1])),
                   shape[0])

    @classmethod
    def general(cls, values: np.ndarray) -> "GaussValues":
        """Every row of a (K, n, w) array listed: the structure of any net."""
        K, n, w = values.shape
        return cls(np.zeros((K, 2)), 0, np.repeat(np.arange(K), n), np.tile(np.arange(n), K),
                   values.reshape(K * n, w), n)

    def dense(self) -> np.ndarray:
        """The (K, n, w) array of the values."""
        out = np.empty((self.levels.shape[0], self.n, self.rows.shape[1]))
        out[:, :self.split] = self.levels[:, 0, None, None]
        out[:, self.split:] = self.levels[:, 1, None, None]
        out[self.ks, self.elems] = self.rows
        return out

    def integrals(self, *weights) -> list:
        """The (K, n) element terms ``values @ w`` of each weight vector w (3,).

        The levels, as rows [l, l, l], and the listed rows go through one
        (rows, 3) @ w product.  It has at least two rows, so numpy hands it
        to BLAS gemv as it hands each sample of a dense (K, n, 3) @ w; a
        single row would go to a dot kernel that may round differently.
        Every term thus has the bits of the dense product.
        """
        K = self.levels.shape[0]
        table = np.concatenate([np.repeat(self.levels.reshape(2 * K, 1), 3, axis=1), self.rows])
        out = []
        for w in weights:
            t = table @ w
            terms = np.empty((K, self.n))
            terms[:, :self.split] = t[0:2 * K:2, None]
            terms[:, self.split:] = t[1:2 * K:2, None]
            terms[self.ks, self.elems] = t[2 * K:]
            out.append(terms)
        return out

    def bounds(self):
        """Per sample, the min and max of the values present (NaN if one is NaN):
        the levels that some unlisted row takes, and the listed rows."""
        K = self.levels.shape[0]
        listed = np.bincount(2 * self.ks + (self.elems >= self.split), minlength=2 * K)
        present = listed.reshape(K, 2) < (self.split, self.n - self.split)
        lo = np.where(present, self.levels, np.inf)
        hi = np.where(present, self.levels, -np.inf)
        lo, hi = np.minimum(lo[:, 0], lo[:, 1]), np.maximum(hi[:, 0], hi[:, 1])
        counts = np.bincount(self.ks, minlength=K)
        has = np.flatnonzero(counts)
        if has.size:  # one reduceat segment per sample with rows, as they run by sample
            first = (np.cumsum(counts) - counts)[has]
            r0, r1, r2 = self.rows.T  # column by column: a min over axis 1 is slow
            lo[has] = np.minimum(lo[has], np.minimum.reduceat(
                np.minimum(np.minimum(r0, r1), r2), first))
            hi[has] = np.maximum(hi[has], np.maximum.reduceat(
                np.maximum(np.maximum(r0, r1), r2), first))
        return lo, hi


class CoefficientNet:
    """A coefficient function sampled along the eps grid.

    Construct through the classmethods.  ``gauss_values(pts)`` is the one
    evaluation rule of each kind: it gives the net at (n, w) ascending
    points by structure (``GaussValues``).  A constant lists no rows,
    ``heaviside_nu`` lists the row its jump cuts, a mollified measure
    lists the rows its masses' eps-supports reach over its density (or
    0), and tabulated values list every row.  Each point mass is
    evaluated only on the rows it reaches, and the measure's constant
    density, which mollifying leaves unchanged, is added after its
    masses.  ``eval(x)`` returns the whole net at the points x, a
    (K, x.size) array whose row k holds the values for grid index k
    (0-based): ``gauss_values`` at the sorted points, one per row, put
    back in the order of x.  The FEM solves use it for nodal obstacle
    values, and the assembly reads the same structure at the Gauss
    points.  Both give the value a per-sample evaluation gives, bit for
    bit.
    """

    def __init__(self, grid: EpsGrid, kind: str, data: dict):
        self.grid = grid
        self.kind = kind
        self.data = data

    @classmethod
    def constant(cls, grid: EpsGrid, value: float) -> "CoefficientNet":
        return cls(grid, "constant", {"value": float(value)})

    @classmethod
    def heaviside_nu(cls, grid: EpsGrid, nu_exponent: float = 1.0,
                     jump_at: float = 0.0, high: float = 1.0) -> "CoefficientNet":
        """``high`` right of the jump, eps**nu_exponent at and left of it."""
        if nu_exponent <= 0:
            raise InvalidSpec("the vanishing level must be a positive power of eps")
        return cls(grid, "heaviside_nu", {
            "nu_exponent": float(nu_exponent), "jump_at": float(jump_at),
            "high": float(high),
        })

    @classmethod
    def mollified_measure(cls, grid: EpsGrid, masses, density=None) -> "CoefficientNet":
        """Point masses (location, weight) mollified at width eps, plus a
        constant ``density`` (None for none)."""
        masses = [(float(x), float(w)) for x, w in masses]
        density = None if density is None else float(density)
        return cls(grid, "mollified_measure", {"masses": masses, "density": density})

    @classmethod
    def tabulated(cls, grid: EpsGrid, xs, values) -> "CoefficientNet":
        xs = np.asarray(xs, dtype=float)
        values = np.asarray(values, dtype=float)
        if values.ndim == 1:
            values = np.broadcast_to(values, (grid.K, values.size)).copy()
        if values.shape != (grid.K, xs.size):
            raise InvalidSpec("tabulated values must be (len(xs),) or (K, len(xs))")
        return cls(grid, "tabulated", {"xs": xs, "values": values})

    def eval(self, x) -> np.ndarray:
        x = np.ravel(np.asarray(x, dtype=float))
        order = np.argsort(x, kind="stable")
        out = np.empty((self.grid.K, x.size))
        out[:, order] = self.gauss_values(x[order, None]).dense()[:, :, 0]
        return out

    def gauss_values(self, pts: np.ndarray) -> GaussValues:
        """The net at the (n, w) points ``pts``, which ascend along
        ``pts.ravel()``: a mesh's Gauss points (w = 3) or plain points (w = 1)."""
        eps, (n, w) = self.grid.values, pts.shape
        K = eps.size
        if self.kind == "constant":
            return GaussValues.constant(np.full(K, self.data["value"]), pts.shape)
        if self.kind == "heaviside_nu":
            # scalar powers, as per sample: numpy's array power may round
            # differently in the last bit
            low = np.array([e ** self.data["nu_exponent"] for e in eps])
            jump, high = self.data["jump_at"], self.data["high"]
            q = int(np.searchsorted(pts.ravel(), jump, side="right"))  # points x <= jump
            cut = np.arange(q // w, -(-q // w))  # the row holding both kinds, if any
            rows = np.where(pts[cut] > jump, high, low[:, None, None])
            return GaussValues(np.stack([low, np.full(K, high)], axis=1), q // w,
                               np.repeat(np.arange(K), cut.size), np.tile(cut, K),
                               rows.reshape(-1, w), n)
        if self.kind == "mollified_measure":
            return self._measure_gauss_values(pts)
        if self.kind == "tabulated":
            flat, xs = pts.ravel(), self.data["xs"]
            return GaussValues.general(
                np.stack([np.interp(flat, xs, v) for v in self.data["values"]]).reshape(K, n, w))
        raise InvalidSpec(f"unknown coefficient kind {self.kind!r}")

    def _measure_gauss_values(self, pts: np.ndarray) -> GaussValues:
        """Sample k lists the rows with a point in some mass's support
        |x - x0| < eps_k.

        As x - x0 ascends with x, each support is a run of points found by
        ``searchsorted``, so the rows it reaches are a run too; the listed
        rows are the union of those runs, as sorted keys k n + row.  Each
        mass adds w phi_eps(x - x0) on the listed rows, starting from 0,
        where phi_eps is 0 off its support; the density comes last, as the
        level 0 + density (-0.0 becomes 0.0).
        """
        eps, (n, width) = self.grid.values, pts.shape
        K, flat = eps.size, pts.ravel()
        keys = [np.zeros(0, dtype=np.intp)]
        for x0, _w in self.data["masses"]:
            d = flat - x0
            lo, hi = np.searchsorted(d, -eps, side="right"), np.searchsorted(d, eps)
            first = lo // width
            counts = np.where(lo < hi, -(-hi // width) - first, 0)
            starts = np.arange(K) * n + first - (np.cumsum(counts) - counts)
            keys.append(np.arange(counts.sum()) + np.repeat(starts, counts))
        keys = np.sort(np.concatenate(keys))
        ks, elems = np.divmod(keys[np.diff(keys, prepend=-1) > 0], n)
        x, e_k = pts[elems], eps[ks][:, None]
        rows = np.zeros((ks.size, width))
        for x0, w in self.data["masses"]:
            rows += w * (_MOLLIFIER_NORM * _bump((x - x0) / e_k) / e_k)
        level = 0.0
        density = self.data["density"]
        if density is not None:
            rows += density
            level += density
        return GaussValues(np.full((K, 2), level), 0, ks, elems, rows, n)


def _per_k_values(v, K: int) -> np.ndarray:
    """A boundary value or load weight, plain number or GenScalar, per sample."""
    if isinstance(v, GenScalar):
        return np.real(v.samples).astype(float)
    return np.full(K, float(v))


@dataclass(frozen=True)
class ProblemSpec:
    """-(a u')' + c u = f + point loads on mesh, u = g on the boundary,
    optionally constrained to u >= psi.

    The load f is a number or a ``CoefficientNet``; a number becomes
    ``CoefficientNet.constant``.  The obstacle psi is a ``CoefficientNet``,
    a number, or nodal values (n+1,) or (K, n+1).  A function in either
    place raises TypeError: the load when the spec is built, the obstacle
    when it is solved.
    """

    grid: EpsGrid
    mesh: Mesh1D
    diffusion: CoefficientNet
    rhs: CoefficientNet | float = 0.0
    potential: CoefficientNet | None = None
    point_loads: tuple = ()
    obstacle: object = None
    boundary: tuple = (0.0, 0.0)

    def __post_init__(self):
        if not isinstance(self.rhs, CoefficientNet):
            object.__setattr__(self, "rhs", CoefficientNet.constant(self.grid, self.rhs))
        object.__setattr__(self, "point_loads", tuple(self.point_loads))
        if len(self.boundary) != 2:
            raise InvalidSpec("boundary must give two values")
        xl, xr = self.mesh.x_left, self.mesh.x_right
        for x0, _w in self.point_loads:
            if not xl < float(x0) < xr:
                raise InvalidSpec("point loads must sit inside the open interval")

    def obstacle_nodal(self) -> np.ndarray:
        """The obstacle at the mesh nodes for every grid point, a (K, n+1) net."""
        xs = self.mesh.nodes
        shape = (self.grid.K, xs.size)
        psi = self.obstacle
        if psi is None:
            raise InvalidSpec("no obstacle in this problem")
        if isinstance(psi, CoefficientNet):
            return psi.eval(xs)
        arr = np.asarray(psi, dtype=float)
        if arr.ndim == 0 or arr.shape == xs.shape:
            return np.broadcast_to(arr, shape)
        if arr.shape == shape:
            return arr
        raise InvalidSpec("obstacle values do not match the mesh nodes")


def _validate_boundary(spec: ProblemSpec, policy: NumericPolicy):
    for side in spec.boundary:
        if isinstance(side, GenScalar):
            if not is_moderate(side.abs(), policy):
                raise InvalidSpec("boundary data must be a moderate net")
        else:
            float(side)


def _first_non_finite(*nets) -> int | None:
    """The first grid point (1-based) where one of the (K,) nets is ±inf or NaN."""
    finite = np.logical_and.reduce([np.isfinite(v) for v in nets])
    return None if finite.all() else int(np.argmin(finite)) + 1


def _assemble_all(spec: ProblemSpec):
    """Assemble every per-sample system at once as a band net.

    Returns (T, b, g, a_min, a_max, c_min): the interior stiffness net,
    the interior loads (K, n-1), the boundary values (K, 2), and per
    sample the diffusion range and the potential's minimum (0 without a
    potential) seen at the quadrature points.  The unknowns are the
    interior nodal values, so the known end values enter the right side
    of the two rows next to them: b_I - A_{I,0} g_l - A_{I,n} g_r.  Each
    coefficient comes as ``GaussValues``, whose element integrals are
    (K, n) arrays and whose min and max come from its levels and listed
    rows; no (K, n, 3) array of quadrature-point values is formed unless
    a coefficient lists every row.
    A potential that is not finite at a quadrature point raises
    CoercivityFailure naming the first such grid point (1-based): a +inf
    would hide behind a finite minimum.  A load, point-load weight or
    boundary value that is not finite raises InvalidSpec naming the
    first such grid point and the check (``rhs_k not finite``,
    ``point_load_k not finite``, ``boundary_k not finite``).
    """
    grid, mesh = spec.grid, spec.mesh
    K, n, h = grid.K, mesh.n_elems, mesh.h
    xs = mesh.nodes
    pts, wts = mesh.gauss_points()
    a = spec.diffusion.gauss_values(pts)
    a_min, a_max = a.bounds()
    stiff, = a.integrals(wts)
    stiff /= h ** 2  # integral of a per element, / h^2
    # the full-node system on the interior nodes 1..n-1, in the band net:
    # diag[:, i - 1] = A_ii, and off[:, i] = A_i,i+1 for every node i < n
    bands = np.empty((K, 2, n - 1))  # the net zeroes column 0 of row 1
    diag = np.add(stiff[:, 1:], stiff[:, :-1], out=bands[:, 0])
    off = np.negative(stiff, out=stiff)
    c_min = np.zeros(K)
    if spec.potential is not None:
        c = spec.potential.gauss_values(pts)
        c_min, c_max = c.bounds()
        k = _first_non_finite(c_min, c_max)
        if k:
            raise CoercivityFailure(k, "potential_k not finite")
        mass_a, mass_b, mass_ab = c.integrals(wts * _N1 * _N1, wts * _N2 * _N2, wts * _N1 * _N2)
        diag += mass_a[:, 1:]
        diag += mass_b[:, :-1]
        off += mass_ab
        del mass_a, mass_b, mass_ab

    f = spec.rhs.gauss_values(pts)
    loads = [(float(x0), _per_k_values(w, K)) for x0, w in spec.point_loads]
    gl, gr = (_per_k_values(g, K) for g in spec.boundary)
    for check, nets in (("rhs_k not finite", f.bounds()),
                        ("point_load_k not finite", [w_k for _, w_k in loads]),
                        ("boundary_k not finite", (gl, gr))):
        k = _first_non_finite(*nets)
        if k:
            raise InvalidSpec(f"{check}: ±inf or NaN at grid index k={k}")
    b = np.zeros((K, n + 1))
    load_a, load_b = f.integrals(wts * _N1, wts * _N2)
    b[:, :-1] += load_a
    b[:, 1:] += load_b
    del load_a, load_b
    for x0, w_k in loads:
        e = min(int((x0 - mesh.x_left) / h), n - 1)
        t = (x0 - xs[e]) / h
        b[:, e] += w_k * (1.0 - t)
        b[:, e + 1] += w_k * t

    bands[:, 1, 1:] = off[:, 1:-1]
    T = TridiagonalOperator(grid, bands, _fresh=True)
    # 0 times an infinite stiffness is NaN there, on a diffusion _certificate refuses
    with np.errstate(invalid="ignore"):
        b[:, 1] -= off[:, 0] * gl
        b[:, -2] -= off[:, -1] * gr
    return T, b[:, 1:-1].copy(), np.stack([gl, gr], axis=1), a_min, a_max, c_min


def poincare_constant(mesh: Mesh1D) -> float:
    """Smallest eigenvalue of the unit-coefficient interior stiffness matrix.

    This is the discrete Poincare constant in the Euclidean coordinate
    norm: v^T A v >= min(a) * c_P * |v|^2 for every interior vector v.
    In closed form c_P = (2/h)(1 - cos(pi/n)), evaluated as
    (4/h) sin^2(pi/(2n)) to avoid cancellation on fine meshes.
    """
    return 4.0 / mesh.h * math.sin(math.pi / (2.0 * mesh.n_elems)) ** 2


def h1_norm_net(mesh: Mesh1D, grid: EpsGrid, u_nodal: np.ndarray) -> GenScalar:
    """Discrete H1 norm sqrt(u^T (K+M) u) of full nodal values, per grid point.

    K and M are the unit-coefficient P1 stiffness and mass matrices,
    summed element by element: (u_r - u_l)^2 / h + h (u_l^2 + u_l u_r + u_r^2) / 3,
    without overflow for finite values (``_norms``).
    """
    h = mesh.h

    def norm(u):
        left, right = u[:, :-1], u[:, 1:]
        return np.sqrt(np.sum((right - left) ** 2, axis=1) / h
                       + h / 3.0 * np.sum(left * left + left * right + right * right, axis=1))
    return GenScalar(grid, _norms(u_nodal, norm))


def _certificate(spec: ProblemSpec, a_min, a_max, c_min,
                 policy: NumericPolicy) -> CoercivityCertificate:
    """Coercivity lower bound alpha_k = a_min c_P + min(c_min, 0) h per sample.

    The stiffness part of v^T A v is at least a_min c_P |v|^2.  The
    potential part is a positive-weight quadrature of c v^2, exact for
    the P1 mass matrix M, so it is at least min(c_min, 0) lambda_max(M)
    |v|^2, and Gershgorin gives lambda_max(M) <= h.  Raises
    CoercivityFailure naming the first grid point (1-based) where the
    diffusion range [a_min, a_max] is not positive (NaN included) or
    leaves the moderate window eps^±N_mod, and otherwise the certificate's
    failure: the first tail grid point where the bound is not
    invertible-nonnegative.
    """
    eps = spec.grid.values
    if not np.all(a_min > 0.0):
        raise CoercivityFailure(int(np.argmin(a_min > 0.0)) + 1, "diffusion_k <= 0")
    bad = ~(_invertible(a_min, eps, policy.N_mod) & _moderate(a_max, eps, policy))
    if np.any(bad):
        raise CoercivityFailure(int(np.argmax(bad)) + 1, "diffusion_k outside eps_k^±N_mod")
    a = a_min * poincare_constant(spec.mesh) + np.minimum(c_min, 0.0) * spec.mesh.h
    cert = CoercivityCertificate.from_alpha(GenScalar(spec.grid, a), policy)
    if cert.failure:
        k, check = cert.failure
        raise CoercivityFailure(k, check, float(a[k - 1]))
    return cert


def under_resolved_indices(spec: ProblemSpec) -> list[int]:
    """Grid points (1-based) where eps_k < 2h: the mollifier/jump scale
    is finer than the mesh can represent."""
    return (np.nonzero(spec.grid.values < 2.0 * spec.mesh.h)[0] + 1).tolist()


@dataclass(frozen=True)
class NodalResult:
    """What both FEM solves share: the nodal solution net, its certificate
    and its discrete H1 norm net with that net's valuation."""

    u: GenVector  # full nodal values, boundary included
    cert: CoercivityCertificate
    h1_norm: GenScalar
    valuation: float
    under_resolved: list
    mesh: Mesh1D

    def write_tables(self, out):
        """``solution.csv`` in the existing directory ``out``."""
        _write_nodal_csv(os.path.join(out, "solution.csv"), self.mesh, self.u)


@dataclass(frozen=True)
class DirichletResult(NodalResult):
    residual: GenScalar  # relative residual of each sample solve
    moderate: bool

    def to_json(self) -> dict:
        return {
            "certificate": self.cert.to_json(),
            "residual": self.residual.samples.tolist(),
            "h1_norm": self.h1_norm.samples.tolist(),
            "h1_valuation": self.valuation,
            "moderate": self.moderate,
            "under_resolved": list(self.under_resolved),
        }

    def verdicts(self) -> dict:
        return {
            "coercive": self.cert.valid,
            "residual_ok": bool(np.all(self.residual.samples <= RESIDUAL_TARGET)),
            "moderate": self.moderate,
        }


@dataclass(frozen=True)
class ObstacleResult(NodalResult):
    psi: np.ndarray  # nodal obstacle values (K, n+1)
    steps: np.ndarray  # active-set steps per sample
    contact_nodes: np.ndarray  # interior nodes on the obstacle, per sample
    error_bound: GenScalar  # certified bound on |w_k - w*_k| per sample
    complementarity_ok: bool
    complementarity_max: float

    def to_json(self) -> dict:
        return {
            "certificate": self.cert.to_json(),
            "steps": self.steps.tolist(),
            "error_bound": self.error_bound.samples.tolist(),
            "complementarity_ok": self.complementarity_ok,
            "complementarity_max": self.complementarity_max,
            "under_resolved": list(self.under_resolved),
        }

    def verdicts(self) -> dict:
        return {"coercive": self.cert.valid, "complementarity_ok": self.complementarity_ok}

    def write_tables(self, out):
        """``solution.csv`` and the per-eps ``iterations.csv`` in the existing ``out``."""
        super().write_tables(out)
        write_grid_csv(os.path.join(out, "iterations.csv"), self.u.grid,
                       ["alpha", "steps", "contact_nodes", "error_bound"],
                       [self.cert.alpha.samples, self.steps, self.contact_nodes,
                        self.error_bound.samples])


def _write_nodal_csv(path, mesh: Mesh1D, u: GenVector):
    """Write a nodal net: header ``k,eps,node_index,x,u``, one row per (k, node).

    Rows run over the grid points k = 1..K and, within each, over the
    nodes 0..n.  The eps, x and u cells equal the ``repr`` of the Python
    float; they come from ``format_cells`` (orjson, with the ``repr``
    fallback outside 1e-4 <= |v| < 1e16), one call per eps block.
    Each eps block is written with one ``"".join`` over a list of three
    parts per row that holds the ``node_index,x,`` cells once; per block
    only the heads and that block's u cells are slice-assigned into it.
    A head carries the newline that ends the row before it, so the file
    ends with one more newline.  The CSV is a new file (``_open_output``):
    an existing file at ``path`` is replaced, not rewritten in place.
    """
    width = mesh.nodes.size
    parts = [""] * (3 * width)
    parts[1::3] = [f"{i},{x}," for i, x in enumerate(format_cells(mesh.nodes))]
    with _open_output(path) as fh:
        fh.write("k,eps,node_index,x,u")
        for k, (eps, u_k) in enumerate(zip(format_cells(u.grid.values), u.samples), 1):
            parts[0::3] = [f"\n{k},{eps},"] * width
            parts[2::3] = format_cells(u_k)
            fh.write("".join(parts))
        fh.write("\n")


def _assemble_certified(spec: ProblemSpec, policy: NumericPolicy):
    """The band net, interior loads and boundary values of ``_assemble_all``,
    with the coercivity certificate of the net."""
    _validate_boundary(spec, policy)
    T, b_net, g, a_min, a_max, c_min = _assemble_all(spec)
    return T, b_net, g, _certificate(spec, a_min, a_max, c_min, policy)


def _nodal_fields(spec: ProblemSpec, policy: NumericPolicy, cert, g, w) -> dict:
    """The NodalResult fields of the interior solution net ``w`` (K, n-1)
    between the boundary values ``g`` (K, 2)."""
    u_full = np.concatenate([g[:, :1], w, g[:, 1:]], axis=1)
    hn = h1_norm_net(spec.mesh, spec.grid, u_full)
    return {"u": GenVector(spec.grid, u_full), "cert": cert, "h1_norm": hn,
            "valuation": float(valuation_estimate(hn, policy)),
            "under_resolved": under_resolved_indices(spec), "mesh": spec.mesh}


def solve_dirichlet(spec: ProblemSpec, policy: NumericPolicy) -> DirichletResult:
    """Solve the unconstrained problem per grid point and certify the answer.

    Assembles the P1 band net for every eps sample, certifies coercivity
    through the Poincare constant and the potential's minimum, solves to
    the relative residual RESIDUAL_TARGET, and reports the discrete H1
    norm net with its valuation and moderateness verdict.
    """
    if spec.obstacle is not None:
        raise InvalidSpec("this problem has an obstacle; use solve_obstacle")
    T, b_net, g, cert = _assemble_certified(spec, policy)
    sol = lax_milgram_solve(T, GenVector(spec.grid, b_net), cert)
    nodal = _nodal_fields(spec, policy, cert, g, sol.u.samples)
    return DirichletResult(**nodal, residual=sol.residual,
                           moderate=bool(is_moderate(nodal["h1_norm"], policy)))


def _pdas(T: TridiagonalOperator, b: np.ndarray, lower: np.ndarray):
    """T w >= b, w >= lower, (T w - b)(w - lower) = 0 for every sample by the
    primal-dual active-set method (Hintermueller, Ito & Kunisch, SIAM J.
    Optim. 13(3), 2003), in lock-step from the empty active set A.

    A step eliminates A symmetrically: one stacked ``?gtsv`` call on the
    net with 1 on the diagonal at A and 0 in every off-diagonal entry that
    touches A, with right side lower on A and b - T (lower on A, 0 off it)
    off A; so w = lower on A exactly.  lambda = T w - b on A, 0 off it,
    gives the next set {lambda + d (lower - w) > 0}, d the diagonal, whose
    last term may overflow to -inf for a far obstacle.  A sample is done,
    and keeps its bits, once its set repeats.  Returns (w, steps);
    NoConvergence names the first k (1-based) still moving after m + 1
    steps.  Finite convergence is proven for M-matrices only (P1 nets
    with c h^2 <= 6 a are ones).
    """
    K, m = b.shape
    d = T.samples[:, 0]
    active = np.zeros((K, m), dtype=bool)
    steps = np.zeros(K, dtype=np.int64)
    moving = np.ones(K, dtype=bool)
    for _ in range(m + 1):
        touched = np.stack([active, active | np.roll(active, 1, axis=1)], axis=1)
        step = TridiagonalOperator(T.grid, np.where(touched, [[1.0], [0.0]], T.samples),
                                   _fresh=True)
        w = step.solve(np.where(active, lower, b - T.matvec(np.where(active, lower, 0.0))))
        steps[moving] += 1
        with np.errstate(over="ignore"):
            following = np.where(active, T.matvec(w) - b, 0.0) + d * (lower - w) > 0.0
        moving &= np.any(following != active, axis=1)
        if not np.any(moving):
            return w, steps
        active[moving] = following[moving]
    raise NoConvergence(f"active set still changes after {m + 1} steps "
                        f"at grid index k={int(np.argmax(moving)) + 1}")


def _error_bound(T: TridiagonalOperator, b, lower, w, alpha):
    """(w, contact, r, bound): w raised to max(w, lower), in contact where
    that equals lower, r = T w - b, and |delta| / alpha_k >= |w - w*|.

    delta is r on free nodes and min(r, 0) on contact nodes: w solves the
    problem with data b + delta exactly, so Stampacchia's stability
    (Kinderlehrer & Stampacchia 1980, ch. II) gives the bound."""
    w = np.maximum(w, lower)
    contact = w == lower
    r = T.matvec(w) - b
    delta = np.where(contact, np.minimum(r, 0.0), r)
    return w, contact, r, _norms(delta) / alpha


def solve_obstacle(spec: ProblemSpec, policy: NumericPolicy) -> ObstacleResult:
    """Solve the obstacle-constrained problem by ``_pdas`` and bound the
    answer's error by ``_error_bound``; alpha_k must be positive.

    The obstacle, refused where it is NaN or +inf, bounds the interior
    nodal values as it is; then the discrete complementarity system is
    checked: residual >= 0, u >= psi, and at every node one of the two is
    active, all within COMPLEMENTARITY_TOL at the data's scale
    (``_check_scale``).  The feasibility term is scaled by the largest
    finite |psi|, so -inf obstacle nodes never constrain or make NaN."""
    if spec.obstacle is None:
        raise InvalidSpec("this problem has no obstacle; use solve_dirichlet")
    T, b_net, g, cert = _assemble_certified(spec, policy)

    psi = spec.obstacle_nodal()
    above = psi[:, [0, -1]] > g
    if np.any(above):
        k, end = np.argwhere(above)[0]
        raise InvalidSpec(f"obstacle exceeds the boundary data at the {('left', 'right')[end]} "
                          f"endpoint at grid index k={k + 1}")
    lower = ConvexSetNet.obstacle(spec.grid, psi[:, 1:-1]).data["lower"]
    alpha = _certified_alpha(cert, positive=True)
    w, steps = _pdas(T, b_net, lower)
    w, contact, r, bound = _error_bound(T, b_net, lower, w, alpha)

    scale = _check_scale(b_net)[:, None]
    slack = w - lower
    lower_max = np.abs(lower).max(axis=1, initial=0.0, where=np.isfinite(lower))
    viol = np.maximum.reduce([
        np.max(-r / scale, axis=1),
        np.max(-slack, axis=1) / (1.0 + lower_max),
        np.max(np.minimum(np.abs(r) / scale, slack), axis=1),
    ])
    comp_max = float(np.max(viol))
    return ObstacleResult(
        **_nodal_fields(spec, policy, cert, g, w),
        psi=psi,
        steps=steps,
        contact_nodes=contact.sum(axis=1),
        error_bound=GenScalar(spec.grid, bound),
        complementarity_ok=bool(comp_max <= COMPLEMENTARITY_TOL),
        complementarity_max=comp_max,
    )


def classical_consistency_check(result: NodalResult):
    """How far a solve's per-eps solutions drift from the first grid point's.

    Takes the result of solve_dirichlet or solve_obstacle and solves
    nothing itself.  For data constant along the grid the nets coincide
    and the check passes at 1e-10; eps-dependent data reports false with
    the actual deviation, which is the point: the regularized problem is
    not a classical one in disguise.

    Returns (consistent, max_deviation).
    """
    u = result.u.samples
    dev = float(np.max(np.abs(u - u[0][None, :])))
    return dev <= 1e-10, dev
