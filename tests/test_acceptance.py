"""The acceptance gate: one test per advertised guarantee.

Each test is self-timed against its runtime budget; the terminal
summary hook in conftest.py prints one PASS/FAIL line per criterion.
"""

import json
import time

import numpy as np

import pytest

from _oracles import cosh_exact, obstacle_exact, solve_box_vi
from gennet import (
    BasicFunctional,
    BasicOperator,
    CoefficientNet,
    ConvexSetNet,
    EpsGrid,
    GenScalar,
    GenVector,
    GeneratorSet,
    IndexSet,
    Mesh1D,
    MixedScaleGenerator,
    NumericPolicy,
    ProblemSpec,
    adjoint,
    certify_coercivity,
    characterization_residual,
    classical_consistency_check,
    classify_operator,
    classify_submodule,
    close_infimum_check,
    idempotent,
    inner,
    interleaved_gram_schmidt,
    make_power_net,
    op_norm_net,
    poincare_constant,
    project_point,
    project_submodule,
    riesz_representer,
    rnorm,
    sharp_norm,
    solve_dirichlet,
    solve_obstacle,
    valuation_estimate,
    vi_solve_contraction,
)
from gennet.cli import main as cli_main

GRID = EpsGrid.geometric(24)
POLICY = NumericPolicy()


class _Budget:
    """Assert on exit that the block stayed within its runtime budget."""

    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            elapsed = time.perf_counter() - self.t0
            assert elapsed < self.seconds, (
                f"runtime {elapsed:.2f}s exceeds the {self.seconds}s budget")
        return False


def _random_moderate_net(rng):
    a = rng.uniform(-2.0, 2.5)
    c = rng.uniform(0.3, 3.0) * rng.choice([-1.0, 1.0])
    noise = np.exp(rng.uniform(-0.05, 0.05, GRID.K))
    return GenScalar(GRID, c * GRID.values ** a * noise)


def _random_vector(rng, d, scale_exp=None, complex_=False):
    base = rng.standard_normal((GRID.K, d))
    if complex_:
        base = base + 1j * rng.standard_normal((GRID.K, d))
    if scale_exp is not None:
        base = GRID.values[:, None] ** scale_exp * base
    return GenVector(GRID, base, "complex" if complex_ else "real")


def test_criterion_1_valuation_exactness():
    with _Budget(1.0):
        for a in (-3.0, 0.0, 1.0, 2.5):
            net = make_power_net(1.0, a, GRID)
            assert abs(valuation_estimate(net, POLICY) - a) <= 1e-9
            assert abs(sharp_norm(net, POLICY) - np.exp(-a)) <= 1e-9


def test_criterion_2_algebraic_invariants():
    rng = np.random.default_rng(2024)
    with _Budget(10.0):
        for _ in range(200):  # Cauchy-Schwarz and triangle, per sample
            u = _random_vector(rng, 6, scale_exp=rng.uniform(-1.5, 1.5))
            v = _random_vector(rng, 6, scale_exp=rng.uniform(-1.5, 1.5))
            nu, nv = rnorm(u).samples, rnorm(v).samples
            assert np.all(np.abs(inner(u, v).samples) <= nu * nv * (1.0 + 1e-12))
            assert np.all(rnorm(u + v).samples <= (nu + nv) * (1.0 + 1e-12))

        for _ in range(200):  # parallelogram, relative to the squared scale
            a = rng.uniform(-1.5, 1.5)
            u = _random_vector(rng, 5, scale_exp=a)
            v = _random_vector(rng, 5, scale_exp=a)
            nu2 = rnorm(u).samples ** 2
            nv2 = rnorm(v).samples ** 2
            lhs = rnorm(u + v).samples ** 2 + rnorm(u - v).samples ** 2
            gap = np.abs(lhs - 2.0 * (nu2 + nv2))
            assert np.all(gap <= 1e-12 * (1.0 + nu2 + nv2))

        for _ in range(200):  # complex polarization recovers <u, v>
            a = rng.uniform(-1.5, 1.5)
            u = _random_vector(rng, 4, scale_exp=a, complex_=True)
            v = _random_vector(rng, 4, scale_exp=a, complex_=True)
            quarters = np.zeros(GRID.K, dtype=complex)
            for p in range(4):
                w = v * (1j ** p)
                quarters += (1j ** p) * rnorm(u + w).samples.astype(complex) ** 2
            recovered = quarters / 4.0
            scale = rnorm(u).samples * rnorm(v).samples
            gap = np.abs(recovered - inner(u, v).samples)
            assert np.all(gap <= 1e-10 * (1.0 + scale))

        for _ in range(200):  # sharp norm is multiplicative on squares
            r = _random_moderate_net(rng)
            lhs = sharp_norm(r * r, POLICY)
            rhs = sharp_norm(r, POLICY) ** 2
            assert abs(lhs - rhs) <= 1e-6 * (1.0 + rhs)


def test_criterion_3_close_infimum_fixture():
    with _Budget(1.0):
        zero = GenScalar.constant(0.0, GRID)

        # two nets taking turns at being 1: each order-m margin over 0
        # is beaten somewhere on the tail by both, so 0 is a lower
        # bound but never a close one
        half = IndexSet.from_mask(np.arange(GRID.K) % 2 == 0)
        e_t = idempotent(half, GRID)
        e_c = idempotent(half.complement(), GRID)
        for m in range(1, 6):
            eps_m = make_power_net(1.0, float(m), GRID)
            family = [e_t + eps_m * e_c, e_c + eps_m * e_t]
            verdict = close_infimum_check(zero, family, POLICY)
            assert verdict.lower_bound
            assert not verdict.close
            assert verdict.witnesses == {}

        # the full power family witnesses every order
        powers = [make_power_net(1.0, float(m), GRID)
                  for m in range(1, POLICY.q_neg + 1)]
        verdict = close_infimum_check(zero, powers, POLICY)
        assert verdict.lower_bound and verdict.close
        assert set(verdict.witnesses) == set(range(1, POLICY.q_neg + 1))


def test_criterion_4_projection_suite():
    rng = np.random.default_rng(44)

    def random_set(d):
        kind = rng.choice(["box", "obstacle", "affine"])
        if kind == "box":
            lower = rng.uniform(-2.0, 0.0, d)
            upper = lower + rng.uniform(0.5, 2.5, d)
            C = ConvexSetNet.box(GRID, lower, upper)
            feasible = lambda: np.clip(rng.standard_normal(d), lower, upper)
        elif kind == "obstacle":
            lower = rng.uniform(-1.5, 0.5, d)
            C = ConvexSetNet.obstacle(GRID, lower)
            feasible = lambda: np.maximum(rng.standard_normal(d), lower)
        else:
            r = int(rng.integers(1, d + 1))
            rows = rng.standard_normal((r, d))
            offset = rng.standard_normal(d)
            C = ConvexSetNet.affine(GRID, rows, offset)
            feasible = lambda: offset + rng.standard_normal(r) @ rows
        return C, feasible

    with _Budget(30.0):
        for _ in range(100):
            d = int(rng.integers(1, 9))
            C, feasible = random_set(d)
            u = _random_vector(rng, d)
            v = _random_vector(rng, d)
            pu = project_point(C, u, POLICY)
            pv = project_point(C, v, POLICY)

            # nonexpansiveness and idempotence
            lhs = rnorm(pu - pv).samples
            assert np.all(lhs <= rnorm(u - v).samples * (1.0 + 1e-12) + 1e-12)
            again = project_point(C, pu, POLICY)
            assert np.all(rnorm(again - pu).samples
                          <= 1e-12 * (1.0 + rnorm(pu).samples))

            # minimality against feasible competitors
            dist = rnorm(u - pu).samples
            for _ in range(10):
                w = GenVector(GRID, np.tile(feasible(), (GRID.K, 1)))
                assert np.all(dist <= rnorm(u - w).samples + 1e-10)

            # the variational characterization of the projection
            probes = [GenVector(GRID, np.tile(feasible(), (GRID.K, 1)))
                      for _ in range(5)]
            res = characterization_residual(C, u, pu, probes, POLICY)
            assert np.all(res.samples <= 1e-10)


def test_criterion_5_gram_schmidt():
    rng = np.random.default_rng(55)
    with _Budget(30.0):
        for trial in range(100):
            d = int(rng.integers(2, 9))
            m = int(rng.integers(1, d + 1))
            gens = []
            for _ in range(m):
                v = rng.standard_normal((GRID.K, d))
                if trial % 2 == 1:  # mixed scales eps^p * v, p <= 4
                    v = GRID.values[:, None] ** float(rng.integers(0, 5)) * v
                gens.append(GenVector(GRID, v))
            g = GeneratorSet(tuple(gens))
            basis = interleaved_gram_schmidt(g, POLICY)
            for i in range(len(basis)):
                for j in range(i + 1, len(basis)):
                    ip = np.abs(inner(basis.vecs[i], basis.vecs[j]).samples)
                    assert np.all(ip <= 1e-10)
            # reconstruction is exact on each support; a residual that
            # falls below the invertibility scale at a grid point is
            # zeroed there by normalization, so allow the negligibility
            # threshold (eps^q_neg per dropped direction) off-support
            slack = d * GRID.values ** POLICY.q_neg
            for gen in g.gens:
                recon = project_submodule(basis, gen)
                gap = rnorm(recon - gen).samples
                assert np.all(gap <= 1e-10 * (1.0 + rnorm(gen).samples) + slack)

        norms = GRID.values ** np.arange(1, GRID.K + 1)
        beta = GenVector(GRID, np.stack([norms, np.zeros(GRID.K)], axis=1))
        with pytest.raises(MixedScaleGenerator):
            interleaved_gram_schmidt(GeneratorSet((beta,)), POLICY)


def test_criterion_6_riesz_adjoint_classifier():
    rng = np.random.default_rng(66)
    with _Budget(10.0):
        for _ in range(50):  # representer norm identity, per sample
            rows = rng.standard_normal((GRID.K, 5)) + 1j * rng.standard_normal((GRID.K, 5))
            f = BasicFunctional(GRID, rows, "complex")
            c = riesz_representer(f)
            gap = np.abs(rnorm(c).samples - np.linalg.norm(rows, axis=1))
            assert np.all(gap <= 1e-12)

        thetas = rng.uniform(0.0, 2 * np.pi, GRID.K)
        cs, sn = np.cos(thetas), np.sin(thetas)
        rot = np.zeros((GRID.K, 2, 2))
        rot[:, 0, 0] = cs
        rot[:, 0, 1] = -sn
        rot[:, 1, 0] = sn
        rot[:, 1, 1] = cs
        flags = classify_operator(BasicOperator(GRID, rot), POLICY)
        assert flags["unitary"] and flags["isometric"]

        e_s = (np.arange(GRID.K) % 2 == 0).astype(float)
        diag = np.zeros((GRID.K, 3, 3))
        diag[:, 0, 0] = e_s
        diag[:, 1, 1] = 1.0  # third axis stays zero
        flags = classify_operator(BasicOperator(GRID, diag), POLICY)
        assert flags["projection"] and flags["self_adjoint"]

        for i in range(50):  # (ST)* = T* S*
            complex_ = i % 2 == 0
            def rand_op(d_out, d_in):
                m = rng.standard_normal((GRID.K, d_out, d_in))
                if complex_:
                    m = m + 1j * rng.standard_normal((GRID.K, d_out, d_in))
                return BasicOperator(GRID, m, "complex" if complex_ else "real")
            S = rand_op(3, 4)
            T = rand_op(4, 2)
            lhs = adjoint(S.compose(T)).samples
            rhs = adjoint(T).compose(adjoint(S)).samples
            assert np.max(np.abs(lhs - rhs)) <= 1e-12 * (1.0 + np.max(np.abs(lhs)))


def test_criterion_7_contraction_vi_solver():
    rng = np.random.default_rng(77)
    with _Budget(60.0):
        for trial in range(50):
            d = int(rng.integers(1, 5))
            if trial % 2 == 0:
                Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
                mat = Q @ np.diag(rng.uniform(1.0, 4.0, d)) @ Q.T
            else:
                A = 0.4 * rng.standard_normal((d, d))
                lam = np.linalg.eigvalsh(0.5 * (A + A.T))[0]
                mat = A + (1.0 - lam) * np.eye(d)
            T = BasicOperator.constant(mat, GRID)
            c = _random_vector(rng, d)
            lower = rng.uniform(-1.0, 0.0, d)
            upper = lower + rng.uniform(0.5, 2.0, d)
            lower[rng.random(d) < 0.2] = -np.inf
            upper[rng.random(d) < 0.2] = np.inf
            C = ConvexSetNet.box(GRID, lower, upper)

            cert = certify_coercivity(T, POLICY)
            sol = vi_solve_contraction(T, c, C, cert, POLICY)

            M = op_norm_net(T).samples
            k_eps = np.sqrt(1.0 - cert.alpha.samples ** 2 / M ** 2)
            assert np.all(sol.max_step_ratio.samples <= k_eps + 1e-8)

            for k in range(GRID.K):
                ref = solve_box_vi(mat, c.samples[k], lower, upper)
                assert np.linalg.norm(sol.u.samples[k] - ref) <= 1e-8


def test_criterion_8_obstacle_benchmark():
    with _Budget(30.0):
        mesh = Mesh1D(0.0, 1.0, 200)
        spec = ProblemSpec(
            grid=GRID, mesh=mesh,
            diffusion=CoefficientNet.constant(GRID, 1.0),
            rhs=-8.0, obstacle=-0.75,
        )
        result = solve_obstacle(spec, POLICY)
        exact = obstacle_exact(mesh.nodes)
        sup_err = np.max(np.abs(result.u.samples - exact[None, :]))
        assert sup_err <= 2e-3
        assert result.complementarity_ok

        consistent, deviation = classical_consistency_check(result)
        assert consistent and deviation <= 1e-10


def test_criterion_9_dirichlet_benchmarks():
    with _Budget(60.0):
        errs = {}
        for n in (16, 32):
            mesh = Mesh1D(0.0, 1.0, n)
            spec = ProblemSpec(
                grid=GRID, mesh=mesh,
                diffusion=CoefficientNet.constant(GRID, 1.0),
                rhs=1.0, potential=CoefficientNet.constant(GRID, 1.0),
            )
            res = solve_dirichlet(spec, POLICY)
            assert np.all(res.residual.samples <= 1e-10)
            errs[n] = np.max(np.abs(res.u.samples[0] - cosh_exact(mesh.nodes)))
        assert errs[16] / errs[32] >= 3.5

        mesh = Mesh1D(-1.0, 1.0, 200)
        spec = ProblemSpec(
            grid=GRID, mesh=mesh,
            diffusion=CoefficientNet.heaviside_nu(GRID, nu_exponent=1.0),
            potential=CoefficientNet.mollified_measure(GRID, [(0.0, 1.0)]),
            rhs=1.0,
        )
        res = solve_dirichlet(spec, POLICY)
        assert res.cert.valid and res.cert.witness_exponent <= 2
        c_p = poincare_constant(mesh)
        assert np.all(res.cert.alpha.samples >= 0.99 * c_p * GRID.values)
        assert np.all(res.residual.samples <= 1e-10)
        assert res.valuation >= -1.1
        assert res.moderate


def test_criterion_10_cli_determinism(tmp_path):
    cfg_nets = tmp_path / "nets.json"
    cfg_nets.write_text(json.dumps({
        "nets": [{"kind": "power", "a": -3.0}, {"kind": "power", "a": 2.5},
                 {"kind": "constant", "value": 5.0}],
    }))
    first, second = tmp_path / "run1", tmp_path / "run2"
    assert cli_main(["gennum-check", "--config", str(cfg_nets), "--out", str(first)]) == 0
    assert cli_main(["gennum-check", "--config", str(cfg_nets), "--out", str(second)]) == 0
    assert (first / "nets.csv").read_bytes() == (second / "nets.csv").read_bytes()

    cfg_fem = tmp_path / "fem.json"
    cfg_fem.write_text(json.dumps({
        "problem": {"interval": [0.0, 1.0], "n_elems": 24,
                    "diffusion": 1.0, "rhs": 1.0,
                    "potential": {"kind": "mollified_measure",
                                  "masses": [[0.5, 1.0]]}},
    }))
    serial, parallel = tmp_path / "serial", tmp_path / "parallel"
    assert cli_main(["solve-dirichlet", "--config", str(cfg_fem),
                     "--out", str(serial)]) == 0
    assert cli_main(["solve-dirichlet", "--config", str(cfg_fem),
                     "--out", str(parallel), "--parallel", "true"]) == 0
    assert ((serial / "solution.csv").read_bytes()
            == (parallel / "solution.csv").read_bytes())
