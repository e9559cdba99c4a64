"""1D elliptic problems with regularized singular data.

Problems -(a u')' + c u = f on an interval with Dirichlet data, where
the diffusion a, potential c, and load f are nets over the eps grid:
a Heaviside jump whose lower level is a power of eps, a point mass
mollified at width eps, or plain constants.  Discretization is P1
finite elements with three-point Gauss quadrature per element; all K
per-sample systems are assembled at once as a tridiagonal band net, so
assembly, solve, obstacle solve and certificate cost O(K n) per step,
with coercivity certified through the discrete Poincare constant and
the potential's lower bound.

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
from .errors import CoercivityFailure, InvalidCertificate, InvalidSpec, NoConvergence
from .gennum import (
    EpsGrid,
    GenScalar,
    NumericPolicy,
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
from .variational import RESIDUAL_TARGET, CoercivityCertificate
# the private solve also returns the residuals; it keeps the public name,
# which perfbench/spans.py wraps
from .variational import _lax_milgram as lax_milgram_solve

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


def mollify_measure(masses, density, eps: float, points) -> np.ndarray:
    """Evaluate (mu * phi_eps) at the given points.

    ``masses`` is an iterable of (location, weight) pairs; ``density``
    is None, a constant, or a callable density function.  The density
    convolution integrates over the mollifier support with a composite
    12x12 Gauss rule whose weights are renormalized to unit discrete
    mass, so constant densities convolve exactly.
    """
    points = np.asarray(points, dtype=float)
    vals = np.zeros_like(points)
    for x0, w in masses:
        vals = vals + float(w) * mollifier_eval(points, eps, center=float(x0))
    if density is not None:
        vals = vals + _density_convolution(density, eps, points)
    return vals


def _density_convolution(density, eps: float, points: np.ndarray) -> np.ndarray:
    """(density * phi_eps) at the points by the renormalized 12x12 Gauss rule."""
    f = density if callable(density) else (lambda y, _c=float(density): np.full_like(y, _c))
    nodes, weights = np.polynomial.legendre.leggauss(12)
    panels = np.linspace(-eps, eps, 13)
    mid = 0.5 * (panels[:-1] + panels[1:])
    half = 0.5 * (panels[1] - panels[0])
    offs = (mid[:, None] + half * nodes[None, :]).ravel()
    q = mollifier_eval(offs, eps) * np.tile(half * weights, 12)
    q = q / q.sum()
    y = points[:, None] - offs[None, :]
    return np.sum(f(y) * q[None, :], axis=1)


def _point_mass_net(x: np.ndarray, eps: np.ndarray, center: float):
    """phi_eps(x - center) for every eps of the grid, on its support only.

    Returns (k, i, phi): the grid and point indices with
    |x_i - center| / eps_k < 1 and ``mollifier_eval``'s value there, bit
    for bit; phi is zero everywhere else.  The points are sorted by
    distance once, so each eps_k's candidates |x_i - center| < eps_k are
    a prefix found by ``searchsorted`` (a point at eps_k or beyond has a
    rounded ratio of at least 1), and the work and memory follow the
    support sizes rather than K times the number of points.
    """
    d = x - center
    dist = np.abs(d)
    order = np.argsort(dist)
    counts = np.searchsorted(dist[order], eps)
    k = np.repeat(np.arange(eps.size), counts)
    starts = np.repeat(np.cumsum(counts) - counts, counts)
    i = order[np.arange(k.size) - starts]
    t = d[i] / eps[k]
    inside = np.abs(t) < 1.0
    k, i, t = k[inside], i[inside], t[inside]
    with np.errstate(divide="ignore", over="ignore"):
        phi = _MOLLIFIER_NORM * np.exp(-1.0 / (1.0 - t ** 2)) / eps[k]
    return k, i, phi


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


class CoefficientNet:
    """A coefficient function sampled along the eps grid.

    Construct through the classmethods; ``eval(x)`` returns the whole
    net at the points x, a (K, x.size) array whose row k holds the
    values for grid index k (0-based).  Constants and ``heaviside_nu``
    broadcast over the grid (a constant comes back as a read-only
    broadcast view), and each point mass of a mollified measure is
    evaluated only on its eps-support; tabulated values and a mollified
    density loop over the grid inside the method.  Every value is the
    one a per-sample evaluation gives, bit for bit.
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
        masses = [(float(x), float(w)) for x, w in masses]
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
        eps = self.grid.values
        if self.kind == "constant":
            return np.broadcast_to(self.data["value"], (eps.size, x.size))
        if self.kind == "heaviside_nu":
            # scalar powers, as per sample: numpy's array power may round
            # differently in the last bit
            low = np.array([e ** self.data["nu_exponent"] for e in eps])
            return np.where(x > self.data["jump_at"], self.data["high"], low[:, None])
        if self.kind == "mollified_measure":
            out = np.zeros((eps.size, x.size))
            for x0, w in self.data["masses"]:
                k, i, phi = _point_mass_net(x, eps, x0)
                out[k, i] += w * phi
            density = self.data["density"]
            if density is not None:
                for k, e in enumerate(eps):
                    out[k] += _density_convolution(density, e, x)
            return out
        if self.kind == "tabulated":
            return np.stack([np.interp(x, self.data["xs"], v) for v in self.data["values"]])
        raise InvalidSpec(f"unknown coefficient kind {self.kind!r}")

    def to_json(self) -> dict:
        data = dict(self.data)
        if self.kind == "tabulated":
            data = {"xs": self.data["xs"].tolist(), "values": self.data["values"].tolist()}
        if self.kind == "mollified_measure" and callable(data.get("density")):
            data["density"] = "<callable>"
        return {"kind": self.kind, "data": data}


def _per_k_values(v, K: int) -> np.ndarray:
    """A boundary value or load weight, plain number or GenScalar, per sample."""
    if isinstance(v, GenScalar):
        return np.real(v.samples).astype(float)
    return np.full(K, float(v))


@dataclass(frozen=True)
class ProblemSpec:
    """-(a u')' + c u = f + point loads on mesh, u = g on the boundary,
    optionally constrained to u >= psi."""

    grid: EpsGrid
    mesh: Mesh1D
    diffusion: CoefficientNet
    rhs: object = 0.0
    potential: CoefficientNet | None = None
    point_loads: tuple = ()
    obstacle: object = None
    boundary: tuple = (0.0, 0.0)

    def __post_init__(self):
        object.__setattr__(self, "point_loads", tuple(self.point_loads))
        if len(self.boundary) != 2:
            raise InvalidSpec("boundary must give two values")
        xl, xr = self.mesh.x_left, self.mesh.x_right
        for x0, _w in self.point_loads:
            if not xl < float(x0) < xr:
                raise InvalidSpec("point loads must sit inside the open interval")

    def rhs_values(self, x: np.ndarray) -> np.ndarray:
        """The load f at the points x for every grid point, a (K, x.size) net."""
        shape = (self.grid.K, x.size)
        if isinstance(self.rhs, CoefficientNet):
            return self.rhs.eval(x)
        if callable(self.rhs):
            return np.broadcast_to(np.asarray(self.rhs(x), dtype=float), shape)
        return np.broadcast_to(float(self.rhs), shape)

    def obstacle_nodal(self) -> np.ndarray:
        """The obstacle at the mesh nodes for every grid point, a (K, n+1) net."""
        xs = self.mesh.nodes
        shape = (self.grid.K, xs.size)
        psi = self.obstacle
        if psi is None:
            raise InvalidSpec("no obstacle in this problem")
        if isinstance(psi, CoefficientNet):
            return psi.eval(xs)
        arr = np.asarray(psi(xs) if callable(psi) else psi, dtype=float)
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


def _assemble_all(spec: ProblemSpec):
    """Assemble every per-sample system at once as a band net.

    Returns (T, b, gtilde, a_min, a_max, c_min): the interior stiffness
    net, the interior loads (K, n-1) after lifting the boundary data, the
    nodal lifting functions (K, n+1), and per sample the diffusion range
    and the potential's minimum (0 without a potential) seen at the
    quadrature points.  Each (K, n, 3) array of quadrature-point values is
    reduced to its element terms and dropped before the next is evaluated.
    """
    grid, mesh = spec.grid, spec.mesh
    K, n, h = grid.K, mesh.n_elems, mesh.h
    xs = mesh.nodes
    pts, wts = mesh.gauss_points()
    flat = pts.ravel()
    a_vals = spec.diffusion.eval(flat).reshape(K, n, 3)
    stiff = a_vals @ wts / h ** 2  # integral of a per element, / h^2
    a_min, a_max = a_vals.min(axis=(1, 2)), a_vals.max(axis=(1, 2))
    del a_vals
    # full-node bands in solve_banded layout; diag[:, i] = A_ii and
    # off[:, i] = A_i,i+1 are views of its diagonal and superdiagonal rows
    bands = np.zeros((K, 3, n + 1))
    diag, off = bands[:, 1], bands[:, 0, 1:]
    diag[:, :-1] += stiff
    diag[:, 1:] += stiff
    np.negative(stiff, out=off)
    c_min = np.zeros(K)
    if spec.potential is not None:
        c_vals = spec.potential.eval(flat).reshape(K, n, 3)
        diag[:, :-1] += c_vals @ (wts * _N1 * _N1)
        diag[:, 1:] += c_vals @ (wts * _N2 * _N2)
        off += c_vals @ (wts * _N1 * _N2)
        c_min = c_vals.min(axis=(1, 2))
        del c_vals

    b = np.zeros((K, n + 1))
    f_vals = spec.rhs_values(flat).reshape(K, n, 3)
    b[:, :-1] += f_vals @ (wts * _N1)
    b[:, 1:] += f_vals @ (wts * _N2)
    del f_vals
    for x0, w in spec.point_loads:
        x0 = float(x0)
        w_k = _per_k_values(w, K)
        e = min(int((x0 - mesh.x_left) / h), n - 1)
        t = (x0 - xs[e]) / h
        b[:, e] += w_k * (1.0 - t)
        b[:, e + 1] += w_k * t

    gl, gr = (_per_k_values(g, K)[:, None] for g in spec.boundary)
    gtilde = gl + (gr - gl) * (xs - mesh.x_left) / (mesh.x_right - mesh.x_left)
    # interior rows of the full-node system applied to the lifting
    lift = (diag[:, 1:-1] * gtilde[:, 1:-1] + off[:, :-1] * gtilde[:, :-2]
            + off[:, 1:] * gtilde[:, 2:])
    bands[:, 2, :-1] = off
    T = TridiagonalOperator(grid, bands[:, :, 1:-1])
    return T, b[:, 1:-1] - lift, gtilde, a_min, a_max, c_min


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
    summed element by element: (u_r - u_l)^2 / h + h (u_l^2 + u_l u_r + u_r^2) / 3.
    """
    h = mesh.h
    left, right = u_nodal[:, :-1], u_nodal[:, 1:]
    sq = (np.sum((right - left) ** 2, axis=1) / h
          + h / 3.0 * np.sum(left * left + left * right + right * right, axis=1))
    return GenScalar(grid, np.sqrt(sq))


def _certificate(spec: ProblemSpec, a_min, a_max, c_min,
                 policy: NumericPolicy) -> CoercivityCertificate:
    """Coercivity lower bound alpha_k = a_min c_P + min(c_min, 0) h per sample.

    The stiffness part of v^T A v is at least a_min c_P |v|^2.  The
    potential part is a positive-weight quadrature of c v^2, exact for
    the P1 mass matrix M, so it is at least min(c_min, 0) lambda_max(M)
    |v|^2, and Gershgorin gives lambda_max(M) <= h.  Raises
    CoercivityFailure naming the first grid point (1-based) where the
    diffusion range [a_min, a_max] is not positive or leaves the moderate
    window eps^±N_mod, and otherwise the first tail grid point where the
    bound is not invertible-nonnegative.
    """
    eps = spec.grid.values
    if np.any(a_min <= 0.0):
        k = int(np.argmax(a_min <= 0.0))
        raise CoercivityFailure(
            f"diffusion is not positive at the quadrature points (grid point {k + 1})")
    bad = (a_min < eps ** policy.N_mod) | (a_max > eps ** (-policy.N_mod))
    if np.any(bad):
        k = int(np.argmax(bad))
        raise CoercivityFailure(
            f"diffusion leaves the moderate window eps^±N_mod at grid point {k + 1}")
    a = a_min * poincare_constant(spec.mesh) + np.minimum(c_min, 0.0) * spec.mesh.h
    cert = CoercivityCertificate.from_alpha(GenScalar(spec.grid, a), policy)
    if not cert.valid:
        bad = (a < -eps ** policy.q_neg) | (np.abs(a) < eps ** policy.m_inv)
        start = spec.grid.K - policy.tail
        k = start + int(np.argmax(bad[start:]))
        raise CoercivityFailure(
            f"coercivity bound alpha = {a[k]:.6g} is not invertible-nonnegative "
            f"at grid point {k + 1}")
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

    def write_solution_csv(self, path):
        _write_nodal_csv(path, self.mesh, self.u)


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

    def write_tables(self, out):
        """``solution.csv`` in the existing directory ``out``."""
        self.write_solution_csv(os.path.join(out, "solution.csv"))


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
        self.write_solution_csv(os.path.join(out, "solution.csv"))
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
    """The band net, interior loads and lifting of ``_assemble_all``, with
    the coercivity certificate of the net."""
    _validate_boundary(spec, policy)
    T, b_net, gtilde, a_min, a_max, c_min = _assemble_all(spec)
    return T, b_net, gtilde, _certificate(spec, a_min, a_max, c_min, policy)


def _nodal_fields(spec: ProblemSpec, policy: NumericPolicy, cert, gtilde, w) -> dict:
    """The NodalResult fields of the interior solution net ``w`` (K, n-1)."""
    u_full = gtilde.copy()
    u_full[:, 1:-1] += w
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
    T, b_net, gtilde, cert = _assemble_certified(spec, policy)
    w, rel = lax_milgram_solve(T, GenVector(spec.grid, b_net), cert, policy)
    nodal = _nodal_fields(spec, policy, cert, gtilde, w.samples)
    return DirichletResult(**nodal, residual=GenScalar(spec.grid, rel),
                           moderate=bool(is_moderate(nodal["h1_norm"], policy)))


def _pdas(T: TridiagonalOperator, b: np.ndarray, lower: np.ndarray):
    """T w >= b, w >= lower, (T w - b)(w - lower) = 0 for every sample by the
    primal-dual active-set method (Hintermueller, Ito & Kunisch, SIAM J.
    Optim. 13(3), 2003), in lock-step from the empty active set A.

    A step is one stacked ``?gtsv`` call whose rows in A read d_i w_i =
    d_i lower_i, d the diagonal (unit rows would make ``?gtsv`` swap
    pivots); lambda = T w - b on A, 0 off it, gives the next set
    {lambda + d (lower - w) > 0}.  A sample is done, and keeps its bits,
    once its set repeats.  Returns (w, steps); NoConvergence names the
    first k (1-based) still moving after m + 1 steps.  Finite convergence
    is proven for M-matrices only (P1 nets with c h^2 <= 6 a are ones).
    """
    K, m = b.shape
    d = T.samples[:, 1]
    active = np.zeros((K, m), dtype=bool)
    steps = np.zeros(K, dtype=np.int64)
    moving = np.ones(K, dtype=bool)
    for _ in range(m + 1):
        bands = np.array(T.samples)
        bands[:, 0, 1:][active[:, :-1]] = 0.0
        bands[:, 2, :-1][active[:, 1:]] = 0.0
        w = TridiagonalOperator(T.grid, bands).solve(np.where(active, d * lower, b))
        steps[moving] += 1
        following = np.where(active, T.matvec(w) - b, 0.0) + d * (lower - w) > 0.0
        moving &= np.any(following != active, axis=1)
        if not np.any(moving):
            return w, steps
        active[moving] = following[moving]
    raise NoConvergence(f"active set still changes after {m + 1} steps "
                        f"at grid index k={int(np.argmax(moving)) + 1}")


def _error_bound(T: TridiagonalOperator, b, lower, w, alpha):
    """(w, contact, r, bound): w raised to max(w, lower) and pinned to lower
    within 4 ulp of it (contact), r = T w - b, and |delta| / alpha_k >= |w - w*|.

    delta is r on free nodes and min(r, 0) on contact nodes: w solves the
    problem with data b + delta exactly, so Stampacchia's stability
    (Kinderlehrer & Stampacchia 1980, ch. II) gives the bound."""
    w = np.maximum(w, lower)
    contact = w - lower <= 4.0 * np.spacing(np.abs(lower))
    w = np.where(contact, lower, w)
    r = T.matvec(w) - b
    delta = np.where(contact, np.minimum(r, 0.0), r)
    return w, contact, r, np.linalg.norm(delta, axis=1) / alpha


def solve_obstacle(spec: ProblemSpec, policy: NumericPolicy) -> ObstacleResult:
    """Solve the obstacle-constrained problem by ``_pdas`` and bound the
    answer's error by ``_error_bound``; alpha_k must be positive.

    The obstacle, refused where it is NaN or +inf, is imposed at the
    interior nodes (shifted by the boundary lifting); then the discrete
    complementarity system is checked: residual >= 0, u >= psi, and at
    every node one of the two is active, all within COMPLEMENTARITY_TOL at
    the data's scale.  The feasibility term is scaled by the largest
    finite |psi - lifting|, so -inf obstacle nodes never constrain or make NaN."""
    if spec.obstacle is None:
        raise InvalidSpec("this problem has no obstacle; use solve_dirichlet")
    T, b_net, gtilde, cert = _assemble_certified(spec, policy)

    psi = spec.obstacle_nodal()
    above = psi[:, [0, -1]] > gtilde[:, [0, -1]]
    if np.any(above):
        k, end = np.argwhere(above)[0]
        raise InvalidSpec(f"obstacle exceeds the boundary data at the {('left', 'right')[end]} "
                          f"endpoint at grid index k={k + 1}")
    lower = ConvexSetNet.obstacle(spec.grid, psi[:, 1:-1] - gtilde[:, 1:-1]).data["lower"]
    alpha = cert.alpha.samples
    if np.any(alpha <= 0.0):
        k = int(np.argmax(alpha <= 0.0))
        raise InvalidCertificate(f"alpha = {alpha[k]:.3e} is not positive at grid index k={k + 1}")
    w, steps = _pdas(T, b_net, lower)
    w, contact, r, bound = _error_bound(T, b_net, lower, w, alpha)

    scale = (1.0 + np.linalg.norm(b_net, axis=1))[:, None]
    slack = w - lower
    lower_max = np.abs(lower).max(axis=1, initial=0.0, where=np.isfinite(lower))
    viol = np.maximum.reduce([
        np.max(-r / scale, axis=1),
        np.max(-slack, axis=1) / (1.0 + lower_max),
        np.max(np.minimum(np.abs(r) / scale, slack), axis=1),
    ])
    comp_max = float(np.max(viol))
    return ObstacleResult(
        **_nodal_fields(spec, policy, cert, gtilde, w),
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
