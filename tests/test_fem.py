"""P1 elements on an eps-indexed family of 1D elliptic problems."""

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from _oracles import (
    assemble_p1_dense,
    bands_to_dense,
    coefficient_per_k,
    cosh_exact,
    obstacle_exact,
    point_load_exact,
)
from gennet import (
    CoefficientNet,
    CoercivityFailure,
    EpsGrid,
    GenScalar,
    GenVector,
    InvalidSpec,
    Mesh1D,
    NumericPolicy,
    ProblemSpec,
    classical_consistency_check,
    h1_norm_net,
    mollifier_eval,
    mollify_measure,
    poincare_constant,
    solve_dirichlet,
    solve_obstacle,
    under_resolved_indices,
)
from gennet.fem import _MOLLIFIER_NORM, _assemble_all, _write_nodal_csv

GRID = EpsGrid.geometric(24)
POLICY = NumericPolicy()

MASS_TOL = 1e-10
BENCH_SUP_TOL = 2e-3
CONVERGE_RATIO = 3.5


def _spec(mesh, diffusion=1.0, **kw):
    if not isinstance(diffusion, CoefficientNet):
        diffusion = CoefficientNet.constant(GRID, diffusion)
    return ProblemSpec(grid=GRID, mesh=mesh, diffusion=diffusion, **kw)


# -------------------------------------------------------------- mollifier

def test_mollifier_constant_is_the_bump_integral():
    val, _ = quad(lambda s: np.exp(-1.0 / (1.0 - s * s)), -1.0, 1.0,
                  epsabs=1e-14, epsrel=1e-13)
    ref = 1.0 / val
    assert abs(_MOLLIFIER_NORM - ref) <= 2.0 * np.spacing(ref)


@pytest.mark.parametrize("eps", [0.1, 0.01])
def test_mollifier_has_unit_mass(eps):
    mass, _ = quad(lambda x: float(mollifier_eval(x, eps)), -eps, eps,
                   epsabs=1e-13, epsrel=1e-13, limit=200)
    assert abs(mass - 1.0) <= MASS_TOL


def test_mollifier_support_and_shape():
    eps = 0.05
    xs = np.array([-2 * eps, -eps, 0.0, eps / 2, eps, 3 * eps])
    vals = mollifier_eval(xs, eps, center=0.0)
    assert vals[0] == 0.0 and vals[1] == 0.0 and vals[4] == 0.0 and vals[5] == 0.0
    assert vals[2] > vals[3] > 0.0
    # even in t, so reflection about the center is exact
    assert np.array_equal(vals, mollifier_eval(-xs, eps, center=0.0))
    shifted = mollifier_eval(xs + 0.3, eps, center=0.3)
    assert np.allclose(vals, shifted, rtol=1e-12, atol=0.0)
    with pytest.raises(InvalidSpec):
        mollifier_eval(0.0, 0.0)


def test_mollified_point_mass_carries_its_weight():
    eps = 0.05
    mass, _ = quad(lambda x: float(mollify_measure([(0.3, 2.0)], None, eps, [x])[0]),
                   0.3 - eps, 0.3 + eps, epsabs=1e-13, epsrel=1e-13, limit=200)
    assert abs(mass - 2.0) <= MASS_TOL


def test_mollified_constant_density_keeps_its_floor():
    eps = 0.02
    pts = np.linspace(-1.0, 1.0, 401)
    vals = mollify_measure([], 3.0, eps, pts)
    assert np.all(vals >= 3.0 - MASS_TOL)
    assert np.all(vals <= 3.0 + MASS_TOL)
    with_mass = mollify_measure([(0.0, 1.0)], 3.0, eps, pts)
    assert np.all(with_mass >= 3.0 - MASS_TOL)
    assert with_mass.max() > 3.0 + 1.0


# ----------------------------------------------------------- coefficients

def test_coefficient_kinds_evaluate():
    x = np.linspace(-1.0, 1.0, 9)
    const = CoefficientNet.constant(GRID, 2.5)
    assert const.eval(x).shape == (GRID.K, x.size)
    assert np.all(const.eval(x) == 2.5)

    heav = CoefficientNet.heaviside_nu(GRID, nu_exponent=2.0, jump_at=0.0, high=3.0)
    vals = heav.eval(x)[3]  # eps_4 = 2**-4
    low = GRID.values[3] ** 2.0
    assert np.all(vals[x > 0.0] == 3.0)
    assert np.all(vals[x <= 0.0] == low)

    tab = CoefficientNet.tabulated(GRID, [0.0, 1.0], [1.0, 3.0])
    assert np.allclose(tab.eval([0.5]), 2.0)
    with pytest.raises(InvalidSpec):
        CoefficientNet.tabulated(GRID, [0.0, 1.0], np.ones((5, 2)))
    with pytest.raises(InvalidSpec):
        CoefficientNet.heaviside_nu(GRID, nu_exponent=0.0)
    with pytest.raises(InvalidSpec):
        CoefficientNet(GRID, "nope", {}).eval(x)


@seed(20261018)
@settings(max_examples=120, deadline=None)
@given(
    K=st.integers(min_value=8, max_value=30),
    base=st.floats(min_value=0.2, max_value=0.9),
    kind=st.sampled_from(["constant", "heaviside_nu", "masses", "density",
                          "callable_density", "tabulated"]),
    draw=st.integers(0, 2**32 - 1),
)
def test_batched_coefficient_eval_matches_the_per_sample_oracle(K, base, kind, draw):
    rng = np.random.default_rng(draw)
    grid = EpsGrid.geometric(K, base)
    centers = rng.uniform(-0.5, 0.5, 2)
    jump = float(rng.uniform(-0.5, 0.5))
    # random points in any order, plus points at the jump, at the centers
    # and at distance eps_k from them, where the mollifier's support ends
    x = np.concatenate([rng.uniform(-1.0, 1.0, int(rng.integers(0, 300))), [jump],
                        centers, (centers[:, None] + grid.values[None, :]).ravel(),
                        (centers[:, None] - grid.values[None, :]).ravel()])
    rng.shuffle(x)
    masses = [(float(x0), float(w)) for x0, w in zip(centers, rng.uniform(-3.0, 3.0, 2))]
    coef = {
        "constant": lambda: CoefficientNet.constant(grid, float(rng.normal())),
        "heaviside_nu": lambda: CoefficientNet.heaviside_nu(
            grid, nu_exponent=float(rng.uniform(0.1, 3.0)), jump_at=jump,
            high=float(rng.uniform(0.5, 2.0))),
        "masses": lambda: CoefficientNet.mollified_measure(grid, masses),
        "density": lambda: CoefficientNet.mollified_measure(grid, masses[:1], density=2.5),
        "callable_density": lambda: CoefficientNet.mollified_measure(
            grid, [], density=lambda y: np.sin(3.0 * y)),
        "tabulated": lambda: CoefficientNet.tabulated(
            grid, np.linspace(-1.0, 1.0, 7), rng.normal(size=(K, 7))),
    }[kind]()
    got = coef.eval(x)
    assert got.shape == (K, x.size)
    expected = np.stack([coefficient_per_k(coef, k, x) for k in range(K)])
    assert got.tobytes() == expected.tobytes()


def test_coefficient_json_is_serializable():
    import json

    tab = CoefficientNet.tabulated(GRID, [0.0, 1.0], [1.0, 3.0])
    meas = CoefficientNet.mollified_measure(GRID, [(0.0, 1.0)], density=lambda y: y)
    for coeff in (tab, meas):
        json.dumps(coeff.to_json())
    assert meas.to_json()["data"]["density"] == "<callable>"


# ------------------------------------------------------------- mesh, spec

def test_mesh_and_spec_validation():
    with pytest.raises(InvalidSpec):
        Mesh1D(1.0, 0.0, 10)
    with pytest.raises(InvalidSpec):
        Mesh1D(0.0, 1.0, 3)
    mesh = Mesh1D(0.0, 1.0, 8)
    assert mesh.h == 0.125 and mesh.nodes.size == 9
    with pytest.raises(InvalidSpec):
        _spec(mesh, boundary=(0.0,))
    with pytest.raises(InvalidSpec):
        _spec(mesh, point_loads=[(0.0, 1.0)])
    with pytest.raises(InvalidSpec):
        _spec(mesh, point_loads=[(1.5, 1.0)])
    with pytest.raises(InvalidSpec):
        solve_dirichlet(_spec(mesh, obstacle=0.0), POLICY)
    with pytest.raises(InvalidSpec):
        solve_obstacle(_spec(mesh), POLICY)
    with pytest.raises(InvalidSpec):
        solve_obstacle(_spec(mesh, rhs=-8.0, obstacle=1.0), POLICY)  # above boundary


@pytest.mark.parametrize("above,message", [
    ({(3, 0), (5, -1)}, "left endpoint at grid index k=4"),
    ({(5, -1), (8, 0)}, "right endpoint at grid index k=6"),
    ({(6, 0), (6, -1)}, "left endpoint at grid index k=7"),
], ids=["left", "right", "both"])
def test_obstacle_above_the_boundary_names_its_endpoint_and_grid_index(above, message):
    mesh = Mesh1D(0.0, 1.0, 8)
    psi = np.full((GRID.K, mesh.nodes.size), -1.0)
    for k, node in above:
        psi[k, node] = 0.5
    with pytest.raises(InvalidSpec, match=message):
        solve_obstacle(_spec(mesh, rhs=-8.0, obstacle=psi), POLICY)


def test_boundary_data_may_be_a_net():
    mesh = Mesh1D(0.0, 1.0, 16)
    g = GenScalar(GRID, GRID.values.copy())
    res = solve_dirichlet(_spec(mesh, boundary=(0.0, g)), POLICY)
    expect = GRID.values[:, None] * mesh.nodes[None, :]
    assert np.max(np.abs(res.u.samples - expect)) <= 1e-10
    huge = GenScalar(GRID, GRID.values ** -25.0)
    with pytest.raises(InvalidSpec):
        solve_dirichlet(_spec(mesh, boundary=(0.0, huge)), POLICY)


def test_under_resolved_follows_the_mesh_width():
    mesh = Mesh1D(0.0, 1.0, 4)  # 2h = 0.5 = eps_1, strict inequality
    spec = _spec(mesh)
    assert under_resolved_indices(spec) == list(range(2, GRID.K + 1))
    fine = _spec(Mesh1D(-1.0, 1.0, 200))
    assert under_resolved_indices(fine) == list(range(6, GRID.K + 1))


def test_poincare_constant_is_the_lowest_stiffness_eigenvalue():
    mesh = Mesh1D(-1.0, 1.0, 200)
    c_p = poincare_constant(mesh)
    n, h = mesh.n_elems, mesh.h
    unit = np.diag(np.full(n - 1, 2.0 / h)) - np.diag(np.full(n - 2, 1.0 / h), 1) \
        - np.diag(np.full(n - 2, 1.0 / h), -1)
    assert abs(c_p - np.linalg.eigvalsh(unit)[0]) <= 1e-10
    assert c_p > 0.01  # comfortably above the exam problem's demand


def test_h1_norm_of_the_identity_function():
    mesh = Mesh1D(0.0, 1.0, 4)
    u = np.tile(mesh.nodes, (GRID.K, 1))
    vals = h1_norm_net(mesh, GRID, u).samples
    # |x|_H1^2 = 1 + 1/3, and P1 interpolation of x is exact
    assert np.allclose(vals, np.sqrt(4.0 / 3.0), atol=1e-12)


# ---------------------------------------------------------------- assembly

def _assembly_case(case):
    mesh = Mesh1D(-1.0, 1.0, 24)
    xs = np.linspace(-1.0, 1.0, 7)
    rng = np.random.default_rng(709)
    if case == "singular":
        return _spec(mesh, diffusion=CoefficientNet.heaviside_nu(GRID),
                     potential=CoefficientNet.mollified_measure(GRID, [(0.0, 1.0)]),
                     rhs=1.0)
    if case == "point-loads":
        weights = GenScalar(GRID, GRID.values ** -0.5)
        return _spec(mesh, rhs=-2.0, point_loads=[(0.3, weights), (-0.55, 2.0)])
    # per-k sign-changing tabulated potential, nonzero and net boundary data
    return _spec(mesh,
                 diffusion=CoefficientNet.tabulated(GRID, xs, rng.uniform(0.5, 2.0, xs.size)),
                 potential=CoefficientNet.tabulated(
                     GRID, xs, rng.uniform(-3.0, 3.0, (GRID.K, xs.size))),
                 rhs=lambda x: np.sin(3.0 * x),
                 boundary=(1.5, GenScalar(GRID, -GRID.values)))


@pytest.mark.parametrize("case", ["singular", "point-loads", "boundary"])
def test_band_assembly_matches_dense_oracle(case):
    spec = _assembly_case(case)
    T, b, gtilde, *_ = _assemble_all(spec)
    dense = bands_to_dense(T.samples)
    for k in range(GRID.K):
        A_ref, b_ref, g_ref = assemble_p1_dense(spec, k)
        scale = np.abs(A_ref).max()
        assert np.max(np.abs(dense[k] - A_ref)) <= 1e-12 * scale
        lifted = max(1.0, np.abs(b_ref).max(), scale * np.abs(g_ref).max())
        assert np.max(np.abs(b[k] - b_ref)) <= 1e-12 * lifted
        assert np.max(np.abs(gtilde[k] - g_ref)) <= 1e-12 * max(1.0, np.abs(g_ref).max())


def test_negative_potential_fails_the_certificate_at_its_grid_point():
    # the assembled matrices are indefinite (lambda_min = -0.402); a bound
    # that ignored the potential would certify alpha = a c_P = 0.197
    spec = _spec(Mesh1D(0.0, 1.0, 50), rhs=1.0,
                 potential=CoefficientNet.constant(GRID, -30.0))
    T, *_ = _assemble_all(spec)
    assert np.all(T.eig_bounds()[0] < -0.4)
    first_tail = GRID.K - POLICY.tail + 1
    with pytest.raises(CoercivityFailure, match=rf"grid point {first_tail}$"):
        solve_dirichlet(spec, POLICY)
    with pytest.raises(CoercivityFailure, match=rf"grid point {first_tail}$"):
        solve_obstacle(_spec(Mesh1D(0.0, 1.0, 50), rhs=1.0, obstacle=-1.0,
                             potential=CoefficientNet.constant(GRID, -30.0)), POLICY)


@seed(20261018)
@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=40),
    a_levels=st.lists(st.floats(min_value=0.5, max_value=2.0), min_size=3, max_size=3),
    c_levels=st.lists(st.floats(min_value=-60.0, max_value=60.0), min_size=3, max_size=3),
    c_drift=st.floats(min_value=-1.0, max_value=1.0),
    loads=st.lists(st.tuples(st.floats(min_value=0.05, max_value=0.95),
                             st.floats(min_value=-5.0, max_value=5.0)), max_size=3),
)
def test_certified_alpha_never_exceeds_the_exact_lowest_eigenvalue(
        n, a_levels, c_levels, c_drift, loads):
    xs = np.array([0.0, 0.5, 1.0])
    # a sign-changing potential that also moves along the grid
    c_vals = np.outer(1.0 + c_drift * GRID.values, c_levels)
    spec = ProblemSpec(grid=GRID, mesh=Mesh1D(0.0, 1.0, n),
                       diffusion=CoefficientNet.tabulated(GRID, xs, a_levels),
                       potential=CoefficientNet.tabulated(GRID, xs, c_vals),
                       rhs=1.0, point_loads=loads)
    lam_min, lam_max = _assemble_all(spec)[0].eig_bounds()
    try:
        res = solve_dirichlet(spec, POLICY)
    except CoercivityFailure:
        return  # a conservative bound may refuse; it must never overclaim
    assert np.all(res.cert.alpha.samples <= lam_min + 1e-12 * np.abs(lam_max))
    assert np.all(res.residual.samples <= 1e-10)


# --------------------------------------------------------------- dirichlet

def test_point_load_reproduces_greens_function():
    # with the load at a mesh node the P1 solution is nodally exact
    mesh = Mesh1D(0.0, 1.0, 8)
    x0, w = 0.25, 1.0
    res = solve_dirichlet(_spec(mesh, point_loads=[(x0, w)]), POLICY)
    assert np.max(np.abs(res.u.samples - point_load_exact(mesh.nodes, x0) * w)) <= 1e-10
    assert res.moderate and res.cert.valid

    weights = GenScalar(GRID, GRID.values.copy())
    res = solve_dirichlet(_spec(mesh, point_loads=[(x0, weights)]), POLICY)
    expect = GRID.values[:, None] * point_load_exact(mesh.nodes, x0)[None, :]
    assert np.max(np.abs(res.u.samples - expect)) <= 1e-10


def test_reaction_diffusion_converges_at_second_order():
    errs = {}
    for n in (16, 32):
        mesh = Mesh1D(0.0, 1.0, n)
        spec = _spec(mesh, rhs=1.0, potential=CoefficientNet.constant(GRID, 1.0))
        res = solve_dirichlet(spec, POLICY)
        errs[n] = np.max(np.abs(res.u.samples[0] - cosh_exact(mesh.nodes)))
    assert errs[16] / errs[32] >= CONVERGE_RATIO


def test_dirichlet_residual_and_valuation():
    mesh = Mesh1D(0.0, 1.0, 32)
    res = solve_dirichlet(_spec(mesh, rhs=1.0), POLICY)
    assert np.all(res.residual.samples <= 1e-10)
    assert abs(res.valuation) <= 1e-6  # data constant in eps
    assert res.moderate
    blob = res.to_json()
    assert set(blob) == {"certificate", "residual", "h1_norm", "h1_valuation",
                         "moderate", "under_resolved"}


def test_diffusion_bound_guards():
    mesh = Mesh1D(0.0, 1.0, 8)
    with pytest.raises(CoercivityFailure):
        solve_dirichlet(_spec(mesh, diffusion=-1.0), POLICY)
    vanishing = CoefficientNet.heaviside_nu(GRID, nu_exponent=POLICY.N_mod + 1.0)
    with pytest.raises(CoercivityFailure):
        solve_dirichlet(_spec(Mesh1D(-1.0, 1.0, 8), diffusion=vanishing), POLICY)


def test_classical_consistency_verdicts():
    flat = _spec(Mesh1D(0.0, 1.0, 32), rhs=1.0)
    ok, dev = classical_consistency_check(solve_dirichlet(flat, POLICY))
    assert ok and dev <= 1e-10
    jumpy = _spec(Mesh1D(-1.0, 1.0, 32),
                  diffusion=CoefficientNet.heaviside_nu(GRID), rhs=1.0)
    ok, dev = classical_consistency_check(solve_dirichlet(jumpy, POLICY))
    assert not ok and dev > 1e-6


# ---------------------------------------------------------------- obstacle

def test_obstacle_benchmark_against_closed_form():
    mesh = Mesh1D(0.0, 1.0, 200)
    spec = _spec(mesh, rhs=-8.0, obstacle=-0.75)
    res = solve_obstacle(spec, POLICY)
    exact = obstacle_exact(mesh.nodes)
    assert np.max(np.abs(res.u.samples - exact[None, :])) <= BENCH_SUP_TOL
    assert np.all(res.u.samples >= res.psi - 1e-10)
    assert res.complementarity_ok and res.complementarity_max <= 1e-8
    # constant data: every grid point computes the identical solution
    assert np.max(np.abs(res.u.samples - res.u.samples[0][None, :])) <= 1e-10

    # the constrained solution minimizes the energy over the feasible set
    T, b, gtilde, *_ = _assemble_all(spec)
    w = res.u.samples[:, 1:-1] - gtilde[:, 1:-1]
    lower = res.psi[:, 1:-1] - gtilde[:, 1:-1]

    def energy(v):
        return np.einsum("ki,ki->k", v, T.matvec(v) - 2.0 * b)

    e_star = energy(w)
    rng = np.random.default_rng(701)
    for _ in range(20):
        v = np.maximum(lower, rng.uniform(-1.0, 0.5, w.shape))
        assert np.all(e_star <= energy(v) + 1e-9)


def test_inactive_obstacle_matches_the_unconstrained_solve():
    mesh = Mesh1D(0.0, 1.0, 64)
    free = solve_dirichlet(_spec(mesh, rhs=-8.0), POLICY)
    pinned = solve_obstacle(_spec(mesh, rhs=-8.0, obstacle=-1e6), POLICY)
    assert np.max(np.abs(free.u.samples - pinned.u.samples)) <= 1e-8
    blob = pinned.to_json()
    assert blob["complementarity_ok"]
    assert len(blob["iterations"]) == GRID.K


# ------------------------------------------------- the singular exam case

def test_vanishing_diffusion_with_singular_potential():
    # diffusion eps on one side of a jump, a mollified point mass as the
    # potential: every sample solves cleanly and the H1 net blows up no
    # faster than 1/eps
    mesh = Mesh1D(-1.0, 1.0, 200)
    spec = _spec(
        mesh,
        diffusion=CoefficientNet.heaviside_nu(GRID, nu_exponent=1.0),
        potential=CoefficientNet.mollified_measure(GRID, [(0.0, 1.0)]),
        rhs=1.0,
    )
    res = solve_dirichlet(spec, POLICY)
    assert res.cert.valid
    assert res.cert.witness_exponent <= 2
    c_p = poincare_constant(mesh)
    assert np.all(res.cert.alpha.samples >= 0.99 * c_p * GRID.values)
    assert np.all(res.residual.samples <= 1e-10)
    assert res.valuation >= -1.1
    assert res.moderate
    assert res.under_resolved == list(range(6, GRID.K + 1))


# -------------------------------------------------------------------- csv

def test_nodal_csv_layout(tmp_path):
    mesh = Mesh1D(0.0, 1.0, 4)
    res = solve_dirichlet(_spec(mesh, rhs=1.0), POLICY)
    path = tmp_path / "solution.csv"
    res.write_solution_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "k,eps,node_index,x,u"
    assert len(lines) == 1 + GRID.K * (mesh.n_elems + 1)
    first = lines[1].split(",")
    assert first[0] == "1" and first[2] == "0"
    assert float(first[1]) == 0.5 and float(first[4]) == 0.0


def test_nodal_csv_bytes_match_per_row_formatting(tmp_path):
    mesh = Mesh1D(-1.0, 1.0, 12)
    rng = np.random.default_rng(719)
    vals = rng.standard_normal((GRID.K, 13)) * np.logspace(-300, 300, 13)
    vals[0, 0], vals[1, 1], vals[2, 2] = -0.0, 5e-324, 0.1
    u = GenVector(GRID, vals)
    path = tmp_path / "solution.csv"
    _write_nodal_csv(path, mesh, u)
    rows = ["k,eps,node_index,x,u\n"]
    for k in range(GRID.K):
        eps = repr(float(GRID.values[k]))
        for i, x in enumerate(mesh.nodes):
            rows.append(f"{k + 1},{eps},{i},{float(x)!r},{float(u.samples[k, i])!r}\n")
    assert path.read_bytes() == "".join(rows).encode()
