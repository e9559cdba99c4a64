"""P1 elements on an eps-indexed family of 1D elliptic problems."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from _oracles import (
    BUMP_UNIT_MASS,
    assemble_gauss_dense,
    assemble_p1_dense,
    band_eig_bounds,
    bands_to_dense,
    coefficient_per_k,
    cosh_exact,
    obstacle_exact,
    point_load_exact,
    solve_box_vi,
    symmetric_bands,
)
from gennet import (
    BasicOperator,
    CoefficientNet,
    ConvexSetNet,
    CoercivityFailure,
    EmptySet,
    EpsGrid,
    GenScalar,
    GenVector,
    InvalidSpec,
    Mesh1D,
    NoConvergence,
    NumericPolicy,
    ProblemSpec,
    TridiagonalOperator,
    classical_consistency_check,
    h1_norm_net,
    poincare_constant,
    solve_dirichlet,
    solve_obstacle,
    under_resolved_indices,
    vi_solve_contraction,
)
from gennet.fem import _MOLLIFIER_NORM, _assemble_all, _error_bound, _pdas, _write_nodal_csv

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


def test_oracle_bump_constant_is_the_bump_integral():
    val, _ = quad(lambda t: np.exp(-1.0 / (1.0 - t * t)), -1.0, 1.0,
                  epsabs=1e-14, epsrel=1e-13)
    assert abs(BUMP_UNIT_MASS - 1.0 / val) <= 2.0 * np.spacing(1.0 / val)


def _mollifier(eps, center=0.0):
    """phi_eps(x - center) as a unit point mass at ``center`` evaluates it: row 0
    of a mollified_measure net on a grid whose first width is ``eps``."""
    net = CoefficientNet.mollified_measure(EpsGrid(eps * 0.5 ** np.arange(8)), [(center, 1.0)])
    return lambda x: net.eval(x)[0]


@pytest.mark.parametrize("eps", [0.1, 0.01])
def test_mollifier_has_unit_mass(eps):
    phi = _mollifier(eps)
    mass, _ = quad(lambda x: float(phi(x)[0]), -eps, eps,
                   epsabs=1e-13, epsrel=1e-13, limit=200)
    assert abs(mass - 1.0) <= MASS_TOL


def test_mollifier_support_and_shape():
    eps = 0.05
    xs = np.array([-2 * eps, -eps, 0.0, eps / 2, eps, 3 * eps])
    vals = _mollifier(eps)(xs)
    assert vals[0] == 0.0 and vals[1] == 0.0 and vals[4] == 0.0 and vals[5] == 0.0
    assert vals[2] > vals[3] > 0.0
    # even in t, so reflection about the center is exact
    assert np.array_equal(vals, _mollifier(eps)(-xs))
    shifted = _mollifier(eps, center=0.3)(xs + 0.3)
    assert np.allclose(vals, shifted, rtol=1e-12, atol=0.0)


def test_mollified_point_mass_carries_its_weight():
    k = 4  # eps_5 = 2**-5
    eps = GRID.values[k]
    meas = CoefficientNet.mollified_measure(GRID, [(0.3, 2.0)])
    mass, _ = quad(lambda x: float(meas.eval([x])[k, 0]),
                   0.3 - eps, 0.3 + eps, epsabs=1e-13, epsrel=1e-13, limit=200)
    assert abs(mass - 2.0) <= MASS_TOL


def test_mollified_constant_density_keeps_its_floor():
    pts = np.linspace(-1.0, 1.0, 401)
    vals = CoefficientNet.mollified_measure(GRID, [], 3.0).eval(pts)
    assert np.all(vals >= 3.0 - MASS_TOL)
    assert np.all(vals <= 3.0 + MASS_TOL)
    with_mass = CoefficientNet.mollified_measure(GRID, [(0.0, 1.0)], 3.0).eval(pts)
    assert np.all(with_mass >= 3.0 - MASS_TOL)
    assert np.all(with_mass.max(axis=1) > 3.0 + 1.0)


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
    kind=st.sampled_from(["constant", "heaviside_nu", "masses", "density", "tabulated"]),
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
        "tabulated": lambda: CoefficientNet.tabulated(
            grid, np.linspace(-1.0, 1.0, 7), rng.normal(size=(K, 7))),
    }[kind]()
    got = coef.eval(x)
    assert got.shape == (K, x.size)
    expected = np.stack([coefficient_per_k(coef, k, x) for k in range(K)])
    assert got.tobytes() == expected.tobytes()
    # the Gauss points of a random mesh, grouped three to a row: the jump
    # lies inside an element or (up to rounding) on a node, and the mass
    # supports cross element edges or, on short meshes, cover the mesh
    n = int(rng.integers(4, 60))
    h = float(rng.uniform(0.05, 1.5)) / n
    x_left = jump - h * float(rng.choice([rng.integers(0, n + 1), rng.uniform(0.0, n)]))
    pts, _ = Mesh1D(x_left, x_left + n * h, n).gauss_points()
    dense = coef.gauss_values(pts).dense()
    assert dense.shape == (K, n, 3)
    expected = np.stack([coefficient_per_k(coef, k, pts.ravel()) for k in range(K)])
    assert dense.tobytes() == expected.tobytes()


def test_functions_are_refused_as_coefficient_data():
    with pytest.raises(TypeError):
        CoefficientNet.mollified_measure(GRID, [(0.0, 1.0)], density=lambda y: y)
    mesh = Mesh1D(0.0, 1.0, 8)
    with pytest.raises(TypeError):
        _spec(mesh, rhs=lambda y: y)
    with pytest.raises(TypeError):
        solve_obstacle(_spec(mesh, rhs=-8.0, obstacle=lambda y: -y), POLICY)


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


@pytest.mark.parametrize("interval,message", [
    ((0.0, np.inf), "infinite end"), ((-np.inf, 0.0), "infinite end"),
    ((-1e308, 1e308), "width past the float range"),
    ((0.0, 1e160), "h = 1.25e+159: h^2 is not a positive finite float"),
    ((0.0, 1e-170), "h = 1.25e-171: h^2 is not a positive finite float"),
], ids=["inf-right", "inf-left", "width", "h-squared-overflows", "h-squared-underflows"])
def test_a_mesh_refuses_an_interval_the_stiffness_cannot_divide_by(interval, message):
    # [0, inf] and [-1e308, 1e308] failed coercivity with alpha = NaN, and
    # h ** 2 = 1.25e159 ** 2 raised OverflowError in the assembly
    with pytest.raises(InvalidSpec, match=re.escape(message)):
        Mesh1D(*interval, 8)
    assert Mesh1D(0.0, 1e150, 8).h == 1.25e149  # h^2 = 1.6e298


@pytest.mark.parametrize("place,check", [
    (lambda g: {"boundary": (0.0, g)}, "boundary_k"),
    (lambda g: {"point_loads": [(0.5, g)]}, "point_load_k"),
], ids=["boundary", "point-load"])
def test_complex_boundary_and_point_load_data_are_refused(place, check):
    # the imaginary part was dropped: a boundary value 1 + 1j was solved as
    # 1, and a point load 1j as 0
    mesh = Mesh1D(0.0, 1.0, 8)
    samples = np.ones(GRID.K, dtype=complex)
    samples[5:] += 1j
    with pytest.raises(InvalidSpec, match=rf"^{check} not real: nonzero imaginary part at "
                                          r"grid index k=6$"):
        solve_dirichlet(_spec(mesh, **place(GenScalar(GRID, samples))), POLICY)
    # a net over C whose samples are real solves as the real net does
    real = solve_dirichlet(_spec(mesh, **place(GenScalar(GRID, samples.real))), POLICY)
    as_complex = GenScalar(GRID, samples.real.astype(complex))
    assert np.array_equal(solve_dirichlet(_spec(mesh, **place(as_complex)), POLICY).u.samples,
                          real.u.samples)


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
    if case == "density":
        return _spec(mesh, rhs=CoefficientNet.mollified_measure(GRID, [(0.25, 2.0)],
                                                                density=0.1))
    # per-k sign-changing tabulated potential, nonzero and net boundary data
    return _spec(mesh,
                 diffusion=CoefficientNet.tabulated(GRID, xs, rng.uniform(0.5, 2.0, xs.size)),
                 potential=CoefficientNet.tabulated(
                     GRID, xs, rng.uniform(-3.0, 3.0, (GRID.K, xs.size))),
                 rhs=CoefficientNet.tabulated(GRID, xs, np.sin(3.0 * xs)),
                 boundary=(1.5, GenScalar(GRID, -GRID.values)))


@pytest.mark.parametrize("case", ["singular", "point-loads", "boundary", "density"])
def test_band_assembly_matches_dense_oracle(case):
    spec = _assembly_case(case)
    T, b, g, *_ = _assemble_all(spec)
    dense = bands_to_dense(T.samples)
    for k in range(GRID.K):
        A_ref, b_ref, g_ref = assemble_p1_dense(spec, k)
        scale = np.abs(A_ref).max()
        assert np.max(np.abs(dense[k] - A_ref)) <= 1e-12 * scale
        size = max(1.0, np.abs(b_ref).max(), scale * np.abs(g_ref).max())
        assert np.max(np.abs(b[k] - b_ref)) <= 1e-12 * size
        assert np.array_equal(g[k], g_ref)


def _bitwise_case(case):
    mesh = Mesh1D(-1.0, 1.0, 24)  # nodes at multiples of 1/12
    mass = CoefficientNet.mollified_measure
    if case == "jump-in-element":
        return _spec(mesh, diffusion=CoefficientNet.heaviside_nu(GRID, 1.5, jump_at=0.01),
                     rhs=CoefficientNet.heaviside_nu(GRID, 0.5, jump_at=0.2, high=-2.0))
    if case == "jump-on-node":
        return _spec(mesh, diffusion=CoefficientNet.heaviside_nu(GRID),
                     potential=CoefficientNet.heaviside_nu(GRID, jump_at=0.5, high=3.0), rhs=1.0)
    if case == "jump-outside":  # only the eps^nu level is present
        return _spec(mesh, diffusion=CoefficientNet.heaviside_nu(GRID, 2.0, jump_at=1.5), rhs=1.0)
    if case == "mass-across-edges":
        return _spec(mesh, potential=mass(GRID, [(0.03, 1.5)]), rhs=mass(GRID, [(-0.47, 2.0)]))
    if case == "mass-covers-mesh":  # eps_1 = 0.5 reaches past both ends
        return _spec(Mesh1D(-0.2, 0.2, 16), potential=mass(GRID, [(0.0, 1.0)]),
                     rhs=mass(GRID, [(0.05, 1.0)]))
    if case == "overlapping-masses":
        both = mass(GRID, [(0.0, 1.0), (0.05, 2.0)], density=0.5)
        return _spec(mesh, potential=both, rhs=both)
    if case == "negative-mass":
        return _spec(mesh, potential=mass(GRID, [(0.1, -0.5), (-0.6, 1.0)], density=4.0),
                     rhs=mass(GRID, [(-0.3, -1.0)]))
    if case == "point-loads-and-boundary":
        return _spec(mesh, rhs=-2.0, point_loads=[(0.3, GenScalar(GRID, GRID.values ** -0.5)),
                                                  (-0.55, 2.0)],
                     boundary=(GenScalar(GRID, 1.0 + GRID.values), -0.25))
    if case == "criterion-8":
        return _spec(Mesh1D(0.0, 1.0, 200), rhs=-8.0, obstacle=-0.75)
    return _assembly_case(case)


@pytest.mark.parametrize("case", [
    "jump-in-element", "jump-on-node", "jump-outside", "mass-across-edges",
    "mass-covers-mesh", "overlapping-masses", "negative-mass", "point-loads-and-boundary",
    "criterion-8", "singular", "point-loads", "boundary", "density"])
def test_assembly_matches_the_dense_gauss_assembly_bit_for_bit(case):
    spec = _bitwise_case(case)
    T, *rest = _assemble_all(spec)
    ref = assemble_gauss_dense(spec)
    for got, want in zip([T.samples, *rest], ref):
        assert got.shape == want.shape
        assert np.array_equal(np.ascontiguousarray(got).view(np.uint64),
                              np.ascontiguousarray(want).view(np.uint64))


def test_assembly_peak_memory_stays_under_the_dense_nets():
    # the dirichlet-singular problem (K = 24, n = 1000) keeps 0.55 MiB of
    # outputs: the (K, 2, n - 1) band net, the loads and the boundary values.
    # Dense (K, n, 3) quadrature nets and a copied band net peaked at
    # 2.23 MiB; assembled by structure the peak measured 1.54 MiB with a
    # (K, 3, n - 1) band net and 1.36 MiB with the two-row one (numpy 2.4,
    # Python 3.11), with or without the (K, n + 1) lifting
    spec = _spec(Mesh1D(-1.0, 1.0, 1000), diffusion=CoefficientNet.heaviside_nu(GRID),
                 potential=CoefficientNet.mollified_measure(GRID, [(0.0, 1.0)]), rhs=1.0)
    _assemble_all(spec)
    tracemalloc.start()
    try:
        _assemble_all(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.0 * 2 ** 20


def test_gauss_values_list_only_the_rows_off_their_level():
    pts, _ = Mesh1D(-1.0, 1.0, 24).gauss_points()
    inside = CoefficientNet.heaviside_nu(GRID, jump_at=0.01).gauss_values(pts)
    assert inside.split == 12 and set(inside.elems) == {12} and inside.rows.shape == (GRID.K, 3)
    on_node = CoefficientNet.heaviside_nu(GRID).gauss_values(pts)
    assert on_node.split == 12 and on_node.rows.shape == (0, 3)
    lo, hi = CoefficientNet.heaviside_nu(GRID, jump_at=1.5).gauss_values(pts).bounds()
    assert np.array_equal(lo, GRID.values) and np.array_equal(hi, GRID.values)
    mass = CoefficientNet.mollified_measure(GRID, [(0.0, 1.0)]).gauss_values(pts)
    # the rows are the elements with a Gauss point within eps_k of the mass:
    # 2 eps_1 / h = 12 of them at k = 1, none once eps_k is under-resolved
    per_k = np.bincount(mass.ks, minlength=GRID.K)
    assert per_k[0] == 12 and per_k[-1] == 0


def test_negative_potential_fails_the_certificate_at_its_grid_point():
    # the assembled matrices are indefinite (lambda_min = -0.402); a bound
    # that ignored the potential would certify alpha = a c_P = 0.197
    spec = _spec(Mesh1D(0.0, 1.0, 50), rhs=1.0,
                 potential=CoefficientNet.constant(GRID, -30.0))
    T, *_ = _assemble_all(spec)
    assert np.all(band_eig_bounds(T.samples)[0] < -0.4)
    first_tail = GRID.K - POLICY.tail + 1
    with pytest.raises(CoercivityFailure, match=rf"at grid index k={first_tail}$") as err:
        solve_dirichlet(spec, POLICY)
    assert err.value.k == first_tail
    with pytest.raises(CoercivityFailure, match=rf"at grid index k={first_tail}$") as err:
        solve_obstacle(_spec(Mesh1D(0.0, 1.0, 50), rhs=1.0, obstacle=-1.0,
                             potential=CoefficientNet.constant(GRID, -30.0)), POLICY)
    assert err.value.k == first_tail


def test_certificate_failure_names_the_failed_check():
    # a constant potential of -30 makes alpha negative on the whole grid
    spec = _spec(Mesh1D(0.0, 1.0, 50), rhs=1.0,
                 potential=CoefficientNet.constant(GRID, -30.0))
    with pytest.raises(CoercivityFailure,
                       match=r"^alpha_k < -eps_k\^q_neg: alpha = -\S+ at grid index k=17$") as err:
        solve_dirichlet(spec, POLICY)
    assert (err.value.k, err.value.check) == (17, "alpha_k < -eps_k^q_neg")


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
    lam_min, lam_max = band_eig_bounds(_assemble_all(spec)[0].samples)
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
    with pytest.raises(CoercivityFailure, match=r"^diffusion_k <= 0 at grid index k=1$") as err:
        solve_dirichlet(_spec(mesh, diffusion=-1.0), POLICY)
    assert (err.value.k, err.value.check) == (1, "diffusion_k <= 0")
    vanishing = CoefficientNet.heaviside_nu(GRID, nu_exponent=POLICY.N_mod + 1.0)
    with pytest.raises(CoercivityFailure,
                       match=r"^diffusion_k outside eps_k\^±N_mod at grid index k=1$") as err:
        solve_dirichlet(_spec(Mesh1D(-1.0, 1.0, 8), diffusion=vanishing), POLICY)
    assert (err.value.k, err.value.check) == (1, "diffusion_k outside eps_k^±N_mod")


def test_nan_diffusion_fails_the_positivity_gate_at_its_grid_point():
    # np.interp between +inf and -inf gives NaN at the quadrature points of
    # sample k = 3; NaN is not > 0, so neither solve may run on it
    values = np.ones((GRID.K, 2))
    values[2] = [np.inf, -np.inf]
    nan_diffusion = CoefficientNet.tabulated(GRID, [0.0, 1.0], values)
    for solve, obstacle in ((solve_dirichlet, None), (solve_obstacle, -1.0)):
        spec = _spec(Mesh1D(0.0, 1.0, 8), diffusion=nan_diffusion, rhs=1.0, obstacle=obstacle)
        with pytest.raises(CoercivityFailure,
                           match=r"^diffusion_k <= 0 at grid index k=3$") as err:
            solve(spec, POLICY)
        assert (err.value.k, err.value.check) == (3, "diffusion_k <= 0")


@pytest.mark.parametrize("row", [[np.inf, -np.inf], [np.nan, 1.0], [np.inf, np.inf]],
                         ids=["inf-minus-inf", "nan", "inf"])
def test_non_finite_potential_fails_at_its_grid_point(row):
    # NaN or +inf at the quadrature points of sample k = 1; +inf leaves the
    # minimum finite, and NaN would reach the solve as a NaN residual
    values = np.ones((GRID.K, 2))
    values[0] = row
    potential = CoefficientNet.tabulated(GRID, [0.0, 1.0], values)
    for solve, obstacle in ((solve_dirichlet, None), (solve_obstacle, -1.0)):
        spec = _spec(Mesh1D(0.0, 1.0, 8), potential=potential, rhs=1.0, obstacle=obstacle)
        with pytest.raises(CoercivityFailure,
                           match=r"^potential_k not finite at grid index k=1$") as err:
            solve(spec, POLICY)
        assert (err.value.k, err.value.check) == (1, "potential_k not finite")


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
    T, b, *_ = _assemble_all(spec)
    w = res.u.samples[:, 1:-1]
    lower = res.psi[:, 1:-1]

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
    assert len(blob["steps"]) == GRID.K


def test_boundary_data_move_the_obstacle_problem_by_the_linear_interpolant():
    # with constant diffusion and no potential, the P1 net sends the linear
    # interpolant ell of (g_l, g_r) to 0 in every interior row, so the solve
    # with boundary (g_l, g_r) under psi + ell is the zero-boundary solve
    # under psi, plus ell: within both certified error bounds, with the same
    # active-set steps and contact nodes
    mesh = Mesh1D(0.0, 1.0, 200)
    gl, gr = GenScalar(GRID, 0.5 + GRID.values), -0.25
    ell = gl.samples[:, None] + (gr - gl.samples[:, None]) * mesh.nodes
    base = solve_obstacle(_spec(mesh, rhs=-8.0, obstacle=-0.75), POLICY)
    moved = solve_obstacle(_spec(mesh, rhs=-8.0, boundary=(gl, gr), obstacle=CoefficientNet
                                 .tabulated(GRID, mesh.nodes, -0.75 + ell)), POLICY)
    gap = np.max(np.abs(moved.u.samples - (base.u.samples + ell)), axis=1)
    rounding = 4.0 * np.finfo(float).eps * np.abs(ell).max(axis=1)
    assert np.all(gap <= base.error_bound.samples + moved.error_bound.samples + rounding)
    assert np.array_equal(moved.steps, base.steps)
    assert np.array_equal(moved.contact_nodes, base.contact_nodes)
    assert np.all(base.contact_nodes > 0) and moved.complementarity_ok


def test_contact_is_exact_equality_with_the_obstacle():
    # criterion 8 at n = 8: the exact discrete solution touches psi at
    # x = 3/8, 1/2 and 5/8, with multiplier 0 at x = 3/8; PDAS leaves that
    # node free, a rounding error above psi, and it is not counted
    psi = -0.75
    res = solve_obstacle(_spec(Mesh1D(0.0, 1.0, 8), rhs=-8.0, obstacle=psi), POLICY)
    assert np.all(res.contact_nodes == 2)
    gap = res.u.samples - res.psi
    assert np.all(gap[:, [4, 5]] == 0.0)
    assert np.all((gap[:, 3] > 0.0) & (gap[:, 3] <= 4 * 2.0 ** -53 * abs(psi)))


@pytest.mark.filterwarnings("error")
def test_an_obstacle_at_minus_dbl_max_is_never_touched():
    # its np.spacing overflowed and pinned every node to -1.8e308
    mesh = Mesh1D(0.0, 1.0, 8)
    free = solve_dirichlet(_spec(mesh, rhs=-8.0), POLICY)
    res = solve_obstacle(_spec(mesh, rhs=-8.0, obstacle=-np.finfo(float).max), POLICY)
    assert np.max(np.abs(res.u.samples - free.u.samples)) <= 1e-12
    assert np.all(res.contact_nodes == 0) and res.complementarity_ok


@pytest.mark.filterwarnings("error")
def test_minus_infinite_obstacle_nodes_never_constrain():
    mesh = Mesh1D(0.0, 1.0, 16)
    free = solve_dirichlet(_spec(mesh, rhs=-8.0), POLICY)
    nowhere = CoefficientNet.tabulated(GRID, [0.0, 1.0], [-np.inf, -np.inf])
    res = solve_obstacle(_spec(mesh, rhs=-8.0, obstacle=nowhere), POLICY)
    assert res.complementarity_ok and res.complementarity_max <= 1e-8
    assert np.max(np.abs(res.u.samples - free.u.samples)) <= 1e-8

    # -inf on the left half; a far-away finite obstacle there is the same problem
    left = mesh.nodes < 0.5
    res = solve_obstacle(_spec(mesh, rhs=-8.0, obstacle=np.where(left, -np.inf, -0.75)),
                         POLICY)
    far = solve_obstacle(_spec(mesh, rhs=-8.0, obstacle=np.where(left, -1e6, -0.75)),
                         POLICY)
    assert res.complementarity_ok and res.complementarity_max <= 1e-8
    assert np.max(np.abs(res.u.samples - far.u.samples)) <= 1e-8
    assert np.all(res.u.samples[:, ~left] >= -0.75 - 1e-10)


@pytest.mark.parametrize("value,error,name", [(np.nan, InvalidSpec, "NaN"),
                                               (np.inf, EmptySet, r"\+inf")])
def test_nan_or_plus_infinite_obstacle_is_refused_at_its_grid_point(value, error, name):
    mesh = Mesh1D(0.0, 1.0, 16)
    psi = np.full((GRID.K, mesh.nodes.size), -0.75)
    psi[4, 7] = value
    with pytest.raises(error, match=rf"obstacle bound is {name} at grid index k=5$"):
        solve_obstacle(_spec(mesh, rhs=-8.0, obstacle=psi), POLICY)


def test_active_set_solve_matches_dense_contraction_on_a_net_that_is_no_m_matrix():
    # potential -4 (1 + eps) near the ends, 5000 (1 + eps) around the middle:
    # there c h^2 > 6 a turns off-diagonals positive (no M-matrix), near the
    # ends c < 0 costs the rows their diagonal dominance, and alpha_k stays
    # positive through the Poincare constant
    xs = [0.0, 0.35, 0.5, 0.65, 1.0]
    c_vals = np.outer(1.0 + GRID.values, [-4.0, -4.0, 5000.0, -4.0, -4.0])
    spec = _spec(Mesh1D(0.0, 1.0, 24), rhs=-8.0, obstacle=-0.03,
                 potential=CoefficientNet.tabulated(GRID, xs, c_vals))
    res = solve_obstacle(spec, POLICY)
    T, b, *_ = _assemble_all(spec)
    reach = np.pad(np.abs(T.samples[:, 1, 1:]), ((0, 0), (1, 1)))
    assert np.all(np.any(T.samples[:, 1, 1:] > 0.0, axis=1))
    assert np.all(np.any(T.samples[:, 0] < reach[:, :-1] + reach[:, 1:], axis=1))
    assert res.complementarity_ok and np.all(res.contact_nodes > 0)
    lower = res.psi[:, 1:-1]
    dense = vi_solve_contraction(BasicOperator(GRID, bands_to_dense(T.samples)),
                                 GenVector(GRID, b), ConvexSetNet.obstacle(GRID, lower),
                                 res.cert, POLICY)
    w = res.u.samples[:, 1:-1]
    assert np.max(np.abs(w - dense.u.samples)) <= 1e-10
    assert np.all(res.error_bound.samples <= 1e-10)


SMALL_GRID = EpsGrid.geometric(8)


def _small_obstacle_problem(m, draw):
    """A symmetric positive definite band net on an 8-point grid with
    off-diagonals of both signs (no M-matrix), a load and an obstacle
    that is -inf at some nodes, and the exact coercivity constant of
    every sample.  Each diagonal starts strictly dominant and is then
    shifted down by a random share of the way to lambda_min = 1e-3, so
    most samples are not diagonally dominant either: nets on which the
    active-set method is tested, not proven, to converge."""
    rng = np.random.default_rng(draw)
    K = SMALL_GRID.K
    off = rng.standard_normal((K, m - 1)) * 10.0 ** rng.uniform(-1.0, 1.0, (K, 1))
    reach = np.pad(np.abs(off), ((0, 0), (1, 1)))
    diag = reach[:, :-1] + reach[:, 1:] + rng.uniform(0.05, 1.0, (K, m))
    lowest = band_eig_bounds(symmetric_bands(diag, off))[0]
    diag -= (rng.uniform(0.0, 1.0, K) * (lowest - 1e-3))[:, None]
    T = TridiagonalOperator(SMALL_GRID, symmetric_bands(diag, off))
    b = 3.0 * rng.standard_normal((K, m))
    lower = rng.uniform(-1.0, 0.5, (K, m))
    lower[rng.random((K, m)) < 0.2] = -np.inf
    return T, b, lower, band_eig_bounds(T.samples)[0]


@seed(20261018)
@settings(max_examples=40, deadline=None)
@given(m=st.integers(min_value=1, max_value=6), draw=st.integers(0, 2**32 - 1))
def test_active_set_solve_matches_active_set_enumeration(m, draw):
    T, b, lower, _ = _small_obstacle_problem(m, draw)
    w, steps = _pdas(T, b, lower)
    dense = bands_to_dense(T.samples)
    for k in range(SMALL_GRID.K):
        ref = solve_box_vi(dense[k], b[k], lower[k], np.full(m, np.inf))
        assert np.max(np.abs(w[k] - ref)) <= 1e-10 * (1.0 + np.abs(ref).max())
    assert np.all((1 <= steps) & (steps <= m + 1))
    # the active nodes are eliminated, so w sits on the obstacle exactly there,
    # and every other node solves its equation
    scale = np.abs(T.samples).max(axis=(1, 2)) * np.abs(w).max(axis=1) + np.abs(b).max(axis=1)
    free = np.abs(T.matvec(w) - b) <= 1e-12 * scale[:, None]
    assert np.all((w == lower) | free) and np.any(w == lower)


def test_active_set_solve_names_the_sample_still_moving_after_its_budget():
    # the indefinite sample [[1, -4], [-4, 1]] makes the active set cycle
    diag = np.ones((SMALL_GRID.K, 2))
    off = np.zeros((SMALL_GRID.K, 1))
    off[2] = -4.0
    b = np.zeros((SMALL_GRID.K, 2))
    b[2] = -3.0
    lower = np.full((SMALL_GRID.K, 2), -1.0)
    lower[2] = [-3.0, 2.0]
    T = TridiagonalOperator(SMALL_GRID, symmetric_bands(diag, off))
    with pytest.raises(NoConvergence,
                       match=r"^active set still changes: steps = 3 at grid index k=3$"):
        _pdas(T, b, lower)


@seed(20261018)
@settings(max_examples=40, deadline=None)
@given(m=st.integers(min_value=1, max_value=6), draw=st.integers(0, 2**32 - 1),
       size=st.floats(min_value=-6.0, max_value=0.0))
def test_error_bound_covers_the_error_of_perturbed_answers(m, draw, size):
    T, b, lower, alpha = _small_obstacle_problem(m, draw)
    dense = bands_to_dense(T.samples)
    exact = np.array([solve_box_vi(dense[k], b[k], lower[k], np.full(m, np.inf))
                      for k in range(SMALL_GRID.K)])
    rng = np.random.default_rng(draw + 1)
    guess = exact + 10.0 ** size * rng.standard_normal(exact.shape)
    keep = rng.random(exact.shape) < 0.3  # nodes already right, on or off the obstacle
    guess[keep] = exact[keep]
    w, contact, _, bound = _error_bound(T, b, lower, guess, alpha)
    assert np.all(w >= lower) and np.all(w[contact] == lower[contact])
    err = np.linalg.norm(w - exact, axis=1)
    assert np.all(err <= bound * (1.0 + 1e-9) + 1e-12)


@seed(20261018)
@settings(max_examples=10, deadline=None)
@given(c_first=st.floats(min_value=-60.0, max_value=-10.0),
       c_rest=st.floats(min_value=0.0, max_value=60.0))
def test_nonpositive_alpha_outside_the_tail_is_refused_at_its_grid_point(c_first, c_rest):
    # alpha_k = c_P + min(c_k, 0) h with c_P = 0.615 and h = 1/16: the
    # first sample's alpha is negative, the tail's positive, so the
    # certificate is valid but the active-set method may not run
    values = np.full((GRID.K, 2), c_rest)
    values[0] = c_first
    spec = _spec(Mesh1D(0.0, 1.0, 16), rhs=-8.0, obstacle=-0.75,
                 potential=CoefficientNet.tabulated(GRID, [0.0, 1.0], values))
    with pytest.raises(CoercivityFailure,
                       match=r"^alpha_k <= 0: alpha = -\S+ at grid index k=1$") as err:
        solve_obstacle(spec, POLICY)
    assert (err.value.k, err.value.check) == (1, "alpha_k <= 0")


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
    res.write_tables(tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["solution.csv"]
    lines = (tmp_path / "solution.csv").read_text().splitlines()
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
