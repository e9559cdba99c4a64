"""Reference implementations used to cross-check the library.

Everything in this module is written independently of the package code
paths it is checking: projections are the textbook closed forms, the box
variational inequality is solved by brute-force active-set enumeration,
and the PDE benchmarks are the hand-derived analytic solutions.  Tests
import from here; the library never does.
"""

import itertools

import numpy as np

from gennet import CoefficientNet, NoConvergence, mollify_measure


def project_box(z, lower, upper):
    return np.minimum(np.maximum(z, lower), upper)


def project_obstacle(z, lower):
    return np.maximum(z, lower)


def project_affine(z, span_rows, offset):
    """Least-squares projection of z onto offset + span(rows)."""
    A = np.asarray(span_rows, dtype=float)
    t, *_ = np.linalg.lstsq(A.T, np.asarray(z, dtype=float) - offset, rcond=None)
    return offset + A.T @ t


def dykstra_per_point(rows, offs, x0, tol_abs):
    """Dykstra's alternating projections onto {x : rows x <= offs}, one sample.

    The per-sample loop the library ran before its batched projector:
    rows in order, zero rows skipped, correction terms per row, stop after
    the first sweep whose result violates no row by more than tol and
    moved by at most tol * (1 + |x|), with tol = max(tol_abs, 1e-14);
    NoConvergence after 20000 sweeps.
    """
    def violation(x):
        return float(np.max(rows @ x - offs, initial=0.0))

    sqn = np.sum(rows * rows, axis=1)
    x = x0.astype(float).copy()
    corr = np.zeros_like(rows)
    tol = max(tol_abs, 1e-14)
    for _ in range(20000):
        x_prev = x.copy()
        for i in range(rows.shape[0]):
            if sqn[i] == 0.0:
                continue
            y = x + corr[i]
            excess = rows[i] @ y - offs[i]
            xi = y - (max(excess, 0.0) / sqn[i]) * rows[i]
            corr[i] = y - xi
            x = xi
        if (violation(x) <= tol
                and np.linalg.norm(x - x_prev) <= tol * (1.0 + np.linalg.norm(x))):
            return x
    raise NoConvergence("Dykstra stalled", residual=violation(x))


def solve_box_vi(T, c, lower, upper, tol=1e-8):
    """Solve  u in [lo,up],  <Tu - c, v - u> >= 0  by active-set enumeration.

    Tries all 3^d assignments of each coordinate to {at lower, at upper,
    free}; an assignment is admissible when the free subsystem solves,
    the result is feasible, and the residual r = Tu - c has the right
    sign on the pinned coordinates (r_i >= 0 at the lower bound,
    r_i <= 0 at the upper).  Coercivity makes the solution unique, so
    the best-scoring admissible candidate is returned.
    """
    T = np.asarray(T, dtype=float)
    c = np.asarray(c, dtype=float)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    d = c.size
    scale = 1.0 + np.abs(c).max() + np.abs(T).max()
    best = None
    best_viol = np.inf
    for states in itertools.product((-1, 0, 1), repeat=d):
        states = np.array(states)
        u = np.zeros(d)
        u[states == -1] = lower[states == -1]
        u[states == 1] = upper[states == 1]
        if not np.all(np.isfinite(u[states != 0])):
            continue  # cannot pin a coordinate to an infinite bound
        free = states == 0
        if np.any(free):
            rhs = c[free] - T[np.ix_(free, ~free)] @ u[~free]
            try:
                u[free] = np.linalg.solve(T[np.ix_(free, free)], rhs)
            except np.linalg.LinAlgError:
                continue
        r = T @ u - c
        viol = max(
            np.max(lower - u, initial=0.0),
            np.max(u - upper, initial=0.0),
            np.max(-r[states == -1], initial=0.0),
            np.max(r[states == 1], initial=0.0),
            np.max(np.abs(r[free]), initial=0.0) if np.any(free) else 0.0,
        )
        if viol < best_viol:
            best_viol = viol
            best = u.copy()
    if best is None or best_viol > tol * scale:
        raise RuntimeError(f"no admissible active set (best violation {best_viol})")
    return best


# -u'' = -8 on (0,1), u(0) = u(1) = 0, u >= -3/4.  The parabola
# 4x^2 + bx touches the obstacle tangentially at x1: u'(x1) = 0 and
# u(x1) = -4 x1^2 = -3/4, so x1 = sqrt(3)/4 and b = -8 x1.
OBSTACLE_FREE_BOUNDARY = np.sqrt(3.0) / 4.0


def obstacle_exact(x):
    x = np.asarray(x, dtype=float)
    x1 = OBSTACLE_FREE_BOUNDARY
    xs = np.minimum(x, 1.0 - x)  # symmetric about 1/2
    u = 4.0 * xs**2 - 8.0 * x1 * xs
    return np.where(xs >= x1, -0.75, u)


def cosh_exact(x):
    """-u'' + u = 1 on (0,1) with zero boundary values."""
    x = np.asarray(x, dtype=float)
    return 1.0 - np.cosh(x - 0.5) / np.cosh(0.5)


def point_load_exact(x, x0):
    """-u'' = delta_{x0} on (0,1), zero boundary: the Green's function."""
    x = np.asarray(x, dtype=float)
    return np.where(x <= x0, (1.0 - x0) * x, x0 * (1.0 - x))


def coefficient_per_k(coef, k, x):
    """A CoefficientNet's values at the points x for grid index k (0-based).

    The per-sample evaluation the library ran before its batched
    ``CoefficientNet.eval``: scalar powers for the Heaviside level, the
    per-sample ``mollify_measure`` sum for point masses and density, and
    one ``np.interp`` per sample for tabulated values.
    """
    x = np.asarray(x, dtype=float)
    eps = coef.grid.values[k]
    if coef.kind == "constant":
        return np.full_like(x, coef.data["value"])
    if coef.kind == "heaviside_nu":
        low = eps ** coef.data["nu_exponent"]
        return np.where(x > coef.data["jump_at"], coef.data["high"], low)
    if coef.kind == "mollified_measure":
        return mollify_measure(coef.data["masses"], coef.data["density"], eps, x)
    if coef.kind == "tabulated":
        return np.interp(x, coef.data["xs"], coef.data["values"][k])
    raise ValueError(f"unknown coefficient kind {coef.kind!r}")


def assemble_p1_dense(spec, k):
    """Dense P1 system of grid point k (0-based) for a 1D ProblemSpec.

    Element by element with np.add.at and a three-point Gauss rule on
    every element, boundary data lifted linearly.  Reads only the spec's
    fields and evaluates the coefficients through ``coefficient_per_k``.
    Returns (A, b, gtilde): the interior stiffness matrix, the interior
    load after lifting, and the full nodal lifting function.
    """
    def per_k(v):
        samples = getattr(v, "samples", None)
        return float(v) if samples is None else float(np.real(samples[k]))

    mesh = spec.mesh
    n = mesh.n_elems
    xs = np.linspace(mesh.x_left, mesh.x_right, n + 1)
    h = (mesh.x_right - mesh.x_left) / n
    t, w = np.polynomial.legendre.leggauss(3)
    pts = (0.5 * (xs[:-1] + xs[1:]))[:, None] + 0.5 * h * t[None, :]
    wts = 0.5 * h * w
    N1, N2 = 0.5 * (1.0 - t), 0.5 * (1.0 + t)
    idx = np.arange(n)

    A = np.zeros((n + 1, n + 1))
    a_vals = coefficient_per_k(spec.diffusion, k, pts.ravel()).reshape(n, 3)
    stiff = a_vals @ wts / h ** 2
    for i, j, sign in ((0, 0, 1.0), (1, 1, 1.0), (0, 1, -1.0), (1, 0, -1.0)):
        np.add.at(A, (idx + i, idx + j), sign * stiff)
    if spec.potential is not None:
        c_vals = coefficient_per_k(spec.potential, k, pts.ravel()).reshape(n, 3)
        for i, j, Ni, Nj in ((0, 0, N1, N1), (1, 1, N2, N2), (0, 1, N1, N2), (1, 0, N2, N1)):
            np.add.at(A, (idx + i, idx + j), c_vals @ (wts * Ni * Nj))

    b = np.zeros(n + 1)
    if isinstance(spec.rhs, CoefficientNet):
        f_vals = coefficient_per_k(spec.rhs, k, pts.ravel())
    elif callable(spec.rhs):
        f_vals = np.asarray(spec.rhs(pts.ravel()), dtype=float)
    else:
        f_vals = np.full(pts.size, float(spec.rhs))
    f_vals = f_vals.reshape(n, 3)
    np.add.at(b, idx, f_vals @ (wts * N1))
    np.add.at(b, idx + 1, f_vals @ (wts * N2))
    for x0, weight in spec.point_loads:
        e = min(int((float(x0) - mesh.x_left) / h), n - 1)
        s = (float(x0) - xs[e]) / h
        b[e] += per_k(weight) * (1.0 - s)
        b[e + 1] += per_k(weight) * s

    gl, gr = per_k(spec.boundary[0]), per_k(spec.boundary[1])
    gtilde = gl + (gr - gl) * (xs - mesh.x_left) / (mesh.x_right - mesh.x_left)
    b = b - A @ gtilde
    return A[1:-1, 1:-1], b[1:-1], gtilde


def bands_to_dense(samples):
    """Dense (K, m, m) matrices from (K, 3, m) solve_banded-layout bands."""
    K, _, m = samples.shape
    out = np.zeros((K, m, m))
    i = np.arange(m)
    out[:, i, i] = samples[:, 1]
    out[:, i[:-1], i[1:]] = samples[:, 0, 1:]
    out[:, i[1:], i[:-1]] = samples[:, 2, :-1]
    return out


def gram_schmidt_per_point(samples, eps, m_inv, flush_rel=1e-12):
    """The interleaved Gram-Schmidt recursion, one grid point at a time.

    ``samples`` lists m (K, d) generator sample arrays.  At each grid
    point: pick the dominant generator (largest 1-D norm, lowest index on
    ties), keep it as its own output, project the others off it, flush
    residuals below ``flush_rel`` times their pre-projection norm to
    zero, and recurse on the rest; once the dominant norm falls below
    eps_k**m_inv every remaining generator is zero there.  Returns the
    (m, K, d) raw outputs, before idempotent normalization.  Works in the
    set's field: the generators of a set with any complex member are all
    cast to complex first.
    """
    dtype = complex if any(np.iscomplexobj(s) for s in samples) else float
    samples = [np.asarray(s, dtype=dtype) for s in samples]
    m, (K, d) = len(samples), samples[0].shape
    raw = np.zeros((m, K, d), dtype=dtype)
    for k in range(K):
        vecs = {j: samples[j][k] for j in range(m)}
        remaining = list(range(m))
        threshold = eps[k] ** m_inv
        while remaining:
            norms = [np.linalg.norm(vecs[j]) for j in remaining]
            best = int(np.argmax(norms))
            dom = remaining[best]
            if norms[best] < threshold:
                for j in remaining:
                    vecs[j] = np.zeros_like(vecs[j])
                break
            v = vecs[dom]
            remaining.remove(dom)
            vv = np.real(np.sum(v * np.conj(v)))
            for j in remaining:
                coeff = np.sum(vecs[j] * np.conj(v)) / vv
                before = np.linalg.norm(vecs[j])
                res = vecs[j] - coeff * v
                if np.linalg.norm(res) <= flush_rel * before:
                    res = np.zeros_like(res)
                vecs[j] = res
        for j in range(m):
            raw[j, k] = vecs[j]
    return raw
