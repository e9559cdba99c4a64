"""Reference implementations used to cross-check the library.

Everything in this module is written independently of the package code
paths it is checking: projections are the textbook closed forms, the box
variational inequality is solved by brute-force active-set enumeration,
and the PDE benchmarks are the hand-derived analytic solutions.  Tests
import from here; the library never does.
"""

import itertools
import math

import numpy as np

from gennet import (
    ContractionBoundViolated,
    IterationBudgetExceeded,
    MixedScaleGenerator,
    op_norm_net,
)


def project_box(z, lower, upper):
    return np.minimum(np.maximum(z, lower), upper)


def project_obstacle(z, lower):
    return np.maximum(z, lower)


def project_affine(z, span_rows, offset):
    """Least-squares projection of z onto offset + span(rows)."""
    A = np.asarray(span_rows, dtype=float)
    t, *_ = np.linalg.lstsq(A.T, np.asarray(z, dtype=float) - offset, rcond=None)
    return offset + A.T @ t


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


def vi_contraction_masked(T, c, C, cert, policy, start=None):
    """The projected contraction loop of ``vi_solve_contraction`` on the whole grid.

    The loop the library ran before it kept only the unfinished grid
    points: every sweep updates all K rows, projects them with the set's
    ``batched_projector`` and keeps the rows of finished points as they
    were.  Same step rho, factor, budgets, stop tests, ratio record and
    errors.  The step is picked sample by sample: the self-adjoint one
    where max |T_k - T_k^H| <= tol_abs max |T_k|, the general one
    elsewhere.  Returns (u, iterations, last_step, max_ratio) as arrays.
    """
    eps_mach = np.finfo(float).eps
    alpha = cert.alpha.samples.astype(float)
    M = op_norm_net(T).samples
    K = c.samples.shape[0]
    rho, kfac = np.empty(K), np.empty(K)
    for k, (A, a, m) in enumerate(zip(T.samples, alpha, M)):
        if np.abs(A - A.conj().T).max() <= policy.tol_abs * np.abs(A).max():
            rho[k], kfac[k] = 2.0 / (a + m), (m - a) / (m + a)
        else:
            rho[k], kfac[k] = a / m ** 2, np.sqrt(np.maximum(0.0, 1.0 - a ** 2 / m ** 2))
    tol = policy.tol_abs
    thresholds = tol * (1.0 - kfac) / np.maximum(kfac, tol)
    budgets = np.full(K, 8)
    for k in np.flatnonzero(kfac > 0.0):
        base = math.ceil(math.log(tol) / math.log(kfac[k]))
        budgets[k] = base + max(1024, base // 2)
    project = C.batched_projector()
    u = project(np.zeros_like(c.samples, dtype=float) if start is None
                else start.samples.astype(float))
    u_prev = u
    iterations = np.zeros(K, dtype=np.int64)
    last_step = np.zeros(K)
    max_ratio = np.zeros(K)
    active = np.ones(K, dtype=bool)
    while np.any(active):
        z = rho[:, None] * (c.samples - T.matvec(u)) + u
        u_next = np.where(active[:, None], project(z), u)
        step = np.linalg.norm(u_next - u, axis=1)
        scale = 1.0 + np.linalg.norm(u_next, axis=1)
        measurable = active & (iterations >= 1) & (last_step > math.sqrt(eps_mach) * scale)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(measurable, step / last_step, 0.0)
        max_ratio = np.maximum(max_ratio, ratio)
        cycle = (iterations >= 1) & np.all(u_next == u_prev, axis=1)
        done_now = active & ((step <= thresholds) | (step == 0.0)
                             | (step <= 4.0 * eps_mach * scale) | cycle)
        over = active & ~done_now & (iterations + 1 >= budgets)
        if np.any(over):
            k = int(np.nonzero(over)[0][0])
            raise IterationBudgetExceeded(k + 1, "iterations_k > budget_k",
                                          budget=int(budgets[k]), step_norm=float(step[k]))
        iterations[active] += 1
        last_step[active] = step[active]
        u_prev, u = u, u_next
        active &= ~done_now
    violated = np.nonzero(max_ratio > kfac + 1e-6)[0]
    if violated.size:
        k = int(violated[0])
        raise ContractionBoundViolated(k + 1, "max_step_ratio_k > contraction_k",
                                       ratio=float(max_ratio[k]), factor=float(kfac[k]))
    return u, iterations, last_step, max_ratio


def net_verdicts_per_net(samples, eps, policy):
    """(valuation, sharp norm, negligible, moderate) of one net, its own way.

    The per-net code the library ran before its stacked pass: the
    least-squares slope of log|a_k| against log eps_k over the tail by
    np.mean and np.dot on the nonzero tail samples alone, log|a|/log eps
    for a single one, +inf for none; math.exp for the sharp norm.
    """
    tail = slice(len(eps) - policy.tail, len(eps))
    mags, eps = np.abs(np.asarray(samples)[tail]), np.asarray(eps)[tail]
    negligible = bool(np.all(mags <= eps ** policy.q_neg))
    moderate = bool(np.all(mags <= eps ** (-policy.N_mod)))
    keep = mags != 0.0
    if not keep.any():
        return math.inf, 0.0, negligible, moderate
    x, y = np.log(eps[keep]), np.log(mags[keep])
    if x.size == 1:
        nu = float(y[0] / x[0])
    else:
        x = x - x.mean()
        nu = float(np.dot(x, y - y.mean()) / np.dot(x, x))
    return nu, math.exp(-nu), negligible, moderate


def scale_offenders(norms, support, eps, policy):
    """The 1-based offending indices of one generator's (K,) norm net on its
    (K,) support mask, [] where it has a uniform scale.

    The tail points off the support whose norm exceeds eps**q_neg (between
    the negligibility and invertibility scales) are named first; else, when
    the support is nonempty yet misses the tail, the support.
    """
    tail = range(len(eps) - policy.tail, len(eps))
    gap = [k + 1 for k in tail if not support[k] and norms[k] > eps[k] ** policy.q_neg]
    if not gap and support.any() and not any(support[k] for k in tail):
        return [int(k) + 1 for k in np.flatnonzero(support)]
    return gap


def sample_norm(x):
    """The Euclidean norm of one sample x, the reduce of squared moduli that
    rnorm takes.  Where that plain value overflows for a finite x, or falls
    below sqrt(tiny / eps_mach) for a nonzero one, x is divided by its
    largest |entry| first, so an underflowing sample keeps its bits of norm."""
    def plain(v):
        return np.sqrt(np.add.reduce((np.conj(v) * v).real))
    with np.errstate(over="ignore", invalid="ignore"):
        n, m = plain(x), np.max(np.abs(x), initial=0.0)
    small = math.sqrt(np.finfo(float).tiny / np.finfo(float).eps)
    return m * plain(x / m) if (n == np.inf or n < small) and 0.0 < m < np.inf else n


def idempotent_normalize_per_vector(samples, eps, policy):
    """(w, support) of one (K, d) vector, normalized on its support.

    The support is {k : 0 < |u_k| >= eps_k**m_inv}, with ``sample_norm``,
    so a zero u_k is outside it even where eps_k**m_inv underflows to 0;
    w is u / |u| there.  Raises
    MixedScaleGenerator naming the ``scale_offenders`` of its norm net.
    Off the support w is +0.
    """
    norms = np.array([sample_norm(u) for u in samples])
    support = (norms > 0.0) & (norms >= eps ** policy.m_inv)
    if bad := scale_offenders(norms, support, eps, policy):
        raise MixedScaleGenerator(bad, "no uniform scale")
    w = np.where(support[:, None], samples / np.where(support, norms, 1.0)[:, None], 0.0)
    return w, support


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


# 1 / integral_{-1}^{1} exp(-1/(1 - t^2)) dt, checked against quad in test_fem
BUMP_UNIT_MASS = 2.2522836210435813


def coefficient_per_k(coef, k, x):
    """A CoefficientNet's values at the points x for grid index k (0-based).

    The per-sample evaluation: scalar powers for the Heaviside level, the
    unit-mass bump c exp(-1/(1 - t^2)) / eps with t = (x - x0)/eps summed
    over the point masses with the constant density added last, and one
    ``np.interp`` per sample for tabulated values.
    """
    x = np.asarray(x, dtype=float)
    eps = coef.grid.values[k]
    if coef.kind == "constant":
        return np.full_like(x, coef.data["value"])
    if coef.kind == "heaviside_nu":
        low = eps ** coef.data["nu_exponent"]
        return np.where(x > coef.data["jump_at"], coef.data["high"], low)
    if coef.kind == "mollified_measure":
        vals = np.zeros_like(x)
        for x0, w in coef.data["masses"]:
            t = (x - x0) / eps
            with np.errstate(divide="ignore", over="ignore"):
                bump = BUMP_UNIT_MASS * np.exp(-1.0 / (1.0 - t ** 2)) / eps
            vals = vals + w * np.where(np.abs(t) < 1.0, bump, 0.0)
        if coef.data["density"] is not None:
            vals = vals + coef.data["density"]
        return vals
    if coef.kind == "tabulated":
        return np.interp(x, coef.data["xs"], coef.data["values"][k])
    raise ValueError(f"unknown coefficient kind {coef.kind!r}")


def assemble_p1_dense(spec, k):
    """Dense P1 system of grid point k (0-based) for a 1D ProblemSpec.

    Element by element with np.add.at and a three-point Gauss rule on
    every element; the boundary columns are eliminated, so the interior
    load is b_I - A[I, 0] g_l - A[I, n] g_r.  Reads only the spec's fields
    and evaluates the coefficients through ``coefficient_per_k``.  Returns
    (A, b, g): the interior stiffness matrix, the interior load and the
    boundary values (g_l, g_r).
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
    f_vals = coefficient_per_k(spec.rhs, k, pts.ravel()).reshape(n, 3)
    np.add.at(b, idx, f_vals @ (wts * N1))
    np.add.at(b, idx + 1, f_vals @ (wts * N2))
    for x0, weight in spec.point_loads:
        e = min(int((float(x0) - mesh.x_left) / h), n - 1)
        s = (float(x0) - xs[e]) / h
        b[e] += per_k(weight) * (1.0 - s)
        b[e + 1] += per_k(weight) * s

    gl, gr = per_k(spec.boundary[0]), per_k(spec.boundary[1])
    b = b - A[:, 0] * gl - A[:, n] * gr
    return A[1:-1, 1:-1], b[1:-1], np.array([gl, gr])


def assemble_gauss_dense(spec):
    """The band assembly of a 1D ProblemSpec from dense (K, n, 3) nets of
    quadrature-point values: the library's assembly before it read the
    coefficients by structure, kept as a bit-for-bit regression reference.

    Every coefficient, the load included (``ProblemSpec`` makes a number
    load a constant net), is evaluated by ``CoefficientNet.eval`` at all
    3 n Gauss points of every sample, and each (K, n, 3) net is reduced by
    ``(K, n, 3) @ weights`` products.  Returns (bands, b, g, a_min, a_max,
    c_min) as ``fem._assemble_all`` does, with the (K, 2, n-1) band array
    in place of the operator net: the boundary values g (K, 2) enter the
    loads of the two rows next to the boundary.
    """
    grid, mesh = spec.grid, spec.mesh
    K, n = grid.K, mesh.n_elems
    h = (mesh.x_right - mesh.x_left) / n
    xs = np.linspace(mesh.x_left, mesh.x_right, n + 1)
    gauss_t = np.array([-math.sqrt(3.0 / 5.0), 0.0, math.sqrt(3.0 / 5.0)])
    N1, N2 = 0.5 * (1.0 - gauss_t), 0.5 * (1.0 + gauss_t)
    flat = ((0.5 * (xs[:-1] + xs[1:]))[:, None] + 0.5 * h * gauss_t[None, :]).ravel()
    wts = 0.5 * h * np.array([5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0])

    def per_k(v):
        samples = getattr(v, "samples", None)
        return np.full(K, float(v)) if samples is None else np.real(samples).astype(float)

    a_vals = spec.diffusion.eval(flat).reshape(K, n, 3)
    stiff = a_vals @ wts / h ** 2
    a_min, a_max = a_vals.min(axis=(1, 2)), a_vals.max(axis=(1, 2))
    diag = np.zeros((K, n + 1))
    diag[:, :-1] += stiff
    diag[:, 1:] += stiff
    off = -stiff
    c_min = np.zeros(K)
    if spec.potential is not None:
        c_vals = spec.potential.eval(flat).reshape(K, n, 3)
        diag[:, :-1] += c_vals @ (wts * N1 * N1)
        diag[:, 1:] += c_vals @ (wts * N2 * N2)
        off += c_vals @ (wts * N1 * N2)
        c_min = c_vals.min(axis=(1, 2))

    b = np.zeros((K, n + 1))
    f_vals = spec.rhs.eval(flat).reshape(K, n, 3)
    b[:, :-1] += f_vals @ (wts * N1)
    b[:, 1:] += f_vals @ (wts * N2)
    for x0, w in spec.point_loads:
        x0 = float(x0)
        e = min(int((x0 - mesh.x_left) / h), n - 1)
        t = (x0 - xs[e]) / h
        b[:, e] += per_k(w) * (1.0 - t)
        b[:, e + 1] += per_k(w) * t

    gl, gr = (per_k(g) for g in spec.boundary)
    b[:, 1] -= off[:, 0] * gl
    b[:, -2] -= off[:, -1] * gr
    bands = symmetric_bands(diag[:, 1:-1], off[:, 1:-1])
    return bands, b[:, 1:-1], np.stack([gl, gr], axis=1), a_min, a_max, c_min


def symmetric_bands(diag, off):
    """(K, 2, m) band samples, as ``TridiagonalOperator`` stores them, from
    the (K, m) diagonal and the (K, m - 1) off-diagonal."""
    return np.stack([diag, np.pad(off, ((0, 0), (1, 0)))], axis=1)


def bands_to_dense(samples):
    """Dense (K, m, m) matrices from (K, 2, m) symmetric bands: row 0 the
    diagonal, row 1 the entry T[j - 1, j] = T[j, j - 1] at column j."""
    K, _, m = samples.shape
    out = np.zeros((K, m, m), dtype=samples.dtype)
    i = np.arange(m)
    out[:, i, i] = samples[:, 0]
    out[:, i[:-1], i[1:]] = samples[:, 1, 1:]
    out[:, i[1:], i[:-1]] = samples[:, 1, 1:]
    return out


def banded_form(samples):
    """The (K, 3, m) ``scipy.linalg.solve_banded((1, 1), ...)`` form of
    (K, 2, m) symmetric bands: superdiagonal, diagonal, subdiagonal."""
    K, _, m = samples.shape
    out = np.zeros((K, 3, m), dtype=samples.dtype)
    out[:, 0, 1:] = samples[:, 1, 1:]
    out[:, 1] = samples[:, 0]
    out[:, 2, :-1] = samples[:, 1, 1:]
    return out


def band_eig_bounds(samples):
    """Lowest and highest eigenvalue of each real symmetric (2, m) band
    sample, two arrays of shape (K,), by one ``eigvalsh_tridiagonal`` call
    per sample and end of the spectrum."""
    # imported here: the benchmark's workers import this module and load no scipy
    from scipy.linalg import eigvalsh_tridiagonal

    m = samples.shape[2]
    bounds = np.array([[eigvalsh_tridiagonal(diag, off[1:], select="i",
                                             select_range=(i, i))[0] for i in (0, m - 1)]
                       for diag, off in samples])
    return bounds[:, 0], bounds[:, 1]


def gram_schmidt_per_point(samples, eps, policy):
    """The interleaved Gram-Schmidt sweep, one grid point at a time.

    ``samples`` lists m (K, d) generator sample arrays.  At each grid
    point: pick the dominant generator (largest norm, lowest index on
    ties); where its norm passes 0 < norm >= eps_k**m_inv, divide it by
    that norm for its unit output, project the others off it, flush
    residuals at most ``policy.tol_abs`` times their pre-projection norm
    to zero, and recurse on the rest; once the dominant norm fails that
    test (a zero fails even where eps_k**m_inv underflows to 0) every
    remaining generator is zero there.  Norms are ``sample_norm``'s.  Works
    in the set's field: the generators of a set with any complex member are
    all cast to complex first.

    Returns the (m, K, d) outputs, unit on each generator's support and
    zero off it, and the (m, K) norm each generator had when it left the
    point: kept, dropped, or zeroed with the rest.
    """
    dtype = complex if any(np.iscomplexobj(s) for s in samples) else float
    samples = [np.asarray(s, dtype=dtype) for s in samples]
    m, (K, d) = len(samples), samples[0].shape
    out, left = np.zeros((m, K, d), dtype=dtype), np.zeros((m, K))
    for k in range(K):
        vecs = {j: samples[j][k] for j in range(m)}
        remaining = list(range(m))
        threshold = eps[k] ** policy.m_inv
        while remaining:
            norms = [sample_norm(vecs[j]) for j in remaining]
            best = int(np.argmax(norms))
            dom = remaining[best]
            if not 0.0 < norms[best] >= threshold:
                for j, n in zip(remaining, norms):
                    left[j, k] = n
                break
            v = vecs[dom]
            remaining.remove(dom)
            left[dom, k] = norms[best]
            out[dom, k] = v / norms[best]
            vv = np.real(np.sum(v * np.conj(v)))
            for j in remaining:
                coeff = np.sum(vecs[j] * np.conj(v)) / vv
                before = sample_norm(vecs[j])
                res = vecs[j] - coeff * v
                if sample_norm(res) <= policy.tol_abs * before:
                    res = np.zeros_like(res)
                vecs[j] = res
    return out, left


def project_submodule_per_vector(W, v):
    """sum_j <v, w_j> w_j, one basis vector w_j = W[:, j] at a time.

    ``W`` is the (K, r, d) basis stack and ``v`` a (K, d) sample array;
    an empty basis (r = 0) projects every v to zero in v's field.
    """
    out = np.zeros(v.shape, dtype=np.result_type(v, W))
    for j in range(W.shape[1]):
        w = W[:, j]
        out = out + np.sum(v * np.conj(w), axis=1)[:, None] * w
    return out


def projection_operator_per_vector(W):
    """The (K, d, d) matrix net sum_j w_j w_j^*, one basis vector at a time."""
    K, _, d = W.shape
    P = np.zeros((K, d, d), dtype=W.dtype)
    for j in range(W.shape[1]):
        P = P + W[:, j, :, None] * np.conj(W[:, j, None, :])
    return P



def orthonormality_failures(W, support, tol):
    """Where the (K, r, d) stack W, vector j at W[:, j], is no orthonormal
    basis with idempotent norms on its (K, r) support mask, one grid point
    and one pair of vectors at a time in plain Python complex arithmetic.

    Returns a (check, k, i, j) row, k 1-based, for every failure beyond
    ``tol``: "norm" (i = j) where ||w_i,k|| is not 1 on the support or not
    0 off it, and "orthogonality" (i < j) where |<w_i,k, w_j,k>| is not 0.
    """
    failures = []
    K, r, _ = W.shape
    for k in range(K):
        vecs = [[complex(z) for z in W[k, j]] for j in range(r)]
        for i, u in enumerate(vecs):
            norm = math.sqrt(sum(abs(z) ** 2 for z in u))
            if not abs(norm - (1.0 if support[k, i] else 0.0)) <= tol:
                failures.append(("norm", k + 1, i, i))
            for j in range(i + 1, r):
                if not abs(sum(a * b.conjugate() for a, b in zip(u, vecs[j]))) <= tol:
                    failures.append(("orthogonality", k + 1, i, j))
    return failures
