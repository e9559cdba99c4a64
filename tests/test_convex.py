"""Projection onto per-epsilon convex sets: closed forms and checks."""

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import _oracles
from gennet import (
    ConvexSetNet,
    DimMismatch,
    EmptySet,
    EpsGrid,
    GenVector,
    InvalidSpec,
    NumericPolicy,
    ProbeNotInSet,
    characterization_residual,
    project_point,
)
from gennet.convex import _outside

GRID = EpsGrid.geometric(24)
POLICY = NumericPolicy()

NONEXPANSIVE_SLACK = 1e-12
ORACLE_AFFINE_TOL = 1e-10
CHARACTERIZATION_TOL = 1e-10
N_PAIRS = 100
N_FEASIBLE = 50


def _random_point(rng, d):
    return GenVector(GRID, 3.0 * rng.standard_normal((GRID.K, d)))


def _random_set(rng, d):
    kind = rng.choice(["box", "obstacle", "affine"])
    if kind == "box":
        lo = rng.uniform(-2.0, 0.0, d)
        return ConvexSetNet.box(GRID, lo, lo + rng.uniform(0.5, 3.0, d)), kind
    if kind == "obstacle":
        return ConvexSetNet.obstacle(GRID, rng.uniform(-1.0, 1.0, d)), kind
    r = int(rng.integers(1, d + 1))
    return ConvexSetNet.affine(GRID, rng.standard_normal((r, d)),
                               rng.standard_normal(d)), kind


def _feasible_point(rng, C, kind, d):
    if kind == "box":
        lo, up = C.data["lower"][0], C.data["upper"][0]
        return GenVector.constant(rng.uniform(lo, up), GRID)
    if kind == "obstacle":
        lo = C.data["lower"][0]
        return GenVector.constant(lo + rng.uniform(0.0, 2.0, d), GRID)
    t = rng.standard_normal(C.data["onb"].shape[2])
    pts = C.data["offset"] + np.einsum("kdr,r->kd", C.data["onb"], t)
    return GenVector(GRID, pts)


class TestClosedForms:
    def test_box_matches_clip_oracle(self):
        rng = np.random.default_rng(23)
        lo, up = np.array([-1.0, 0.0, 2.0]), np.array([1.0, 0.5, 2.0])
        C = ConvexSetNet.box(GRID, lo, up)
        u = _random_point(rng, 3)
        p = project_point(C, u)
        assert_allclose(p.samples, _oracles.project_box(u.samples, lo, up))

    def test_obstacle_matches_max_oracle(self):
        rng = np.random.default_rng(29)
        lo = np.array([0.0, -2.0])
        C = ConvexSetNet.obstacle(GRID, lo)
        u = _random_point(rng, 2)
        p = project_point(C, u)
        assert_allclose(p.samples, _oracles.project_obstacle(u.samples, lo))

    def test_affine_matches_lstsq_oracle(self):
        rng = np.random.default_rng(31)
        span = rng.standard_normal((2, 5))
        offset = rng.standard_normal(5)
        C = ConvexSetNet.affine(GRID, span, offset)
        u = _random_point(rng, 5)
        p = project_point(C, u)
        for k in range(GRID.K):
            assert_allclose(p.samples[k],
                            _oracles.project_affine(u.samples[k], span, offset),
                            atol=1e-10)

    def test_affine_handles_rank_deficient_span(self):
        span = np.array([[1.0, 1.0, 0.0],
                         [2.0, 2.0, 0.0]])  # rank 1
        C = ConvexSetNet.affine(GRID, span)
        u = GenVector.constant(np.array([1.0, 0.0, 3.0]), GRID)
        p = project_point(C, u)
        assert_allclose(p.samples[0], np.array([0.5, 0.5, 0.0]), atol=1e-12)

    def test_affine_keeps_directions_after_a_dependent_column(self):
        # an unpivoted QR reads the zero pivot of (2, 0, 0) as the end of
        # the span and drops e2
        span = np.array([[1.0, 0.0, 0.0],
                         [2.0, 0.0, 0.0],
                         [0.0, 1.0, 0.0]])
        C = ConvexSetNet.affine(GRID, span)
        u = GenVector.constant(np.array([0.3, 0.7, 0.9]), GRID)
        p = project_point(C, u)
        assert_allclose(p.samples, np.tile([0.3, 0.7, 0.0], (GRID.K, 1)), atol=1e-12)

    def test_affine_keeps_an_offset_far_along_its_span(self):
        # offset + QQ^T(x - offset) cancels 1e20 against 1e20 and loses x's
        # 0.3; the offset's part orthogonal to the span, (0, 1), does not
        C = ConvexSetNet.affine(GRID, [[1.0, 0.0]], [1e20, 1.0])
        x = np.tile([0.3, 1.0], (GRID.K, 1))
        assert np.all(C.violation(x) == 0.0)
        assert not _outside(C, x, POLICY).any()
        assert_allclose(C.batched_projector()(x), x, rtol=0.0, atol=1e-15)

    def test_affine_rank_cut_is_free_of_the_span_scale(self):
        # 1e-13 e1 spans the same line as e1: the cut is relative to the
        # largest singular value alone
        C = ConvexSetNet.affine(GRID, [[1e-13, 0.0]])
        assert_allclose(C.batched_projector()(np.ones((GRID.K, 2))),
                        np.tile([1.0, 0.0], (GRID.K, 1)), rtol=0.0, atol=1e-15)
        # a zero basis spans nothing: the set is the offset alone
        C = ConvexSetNet.affine(GRID, [[0.0, 0.0]], [2.0, 3.0])
        assert_allclose(C.batched_projector()(np.ones((GRID.K, 2))),
                        np.tile([2.0, 3.0], (GRID.K, 1)), rtol=0.0, atol=0.0)


@st.composite
def _affine_sets(draw):
    """Per-k spans (K, r, d) of rank q <= min(r, d), with zero rows."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 6))
    r = draw(st.integers(1, 7))
    q = draw(st.integers(0, min(r, d)))
    span = rng.standard_normal((GRID.K, r, q)) @ rng.standard_normal((GRID.K, q, d))
    span[:, rng.random(r) < 0.2] = 0.0
    return span, rng.standard_normal((GRID.K, d)), 3.0 * rng.standard_normal((GRID.K, d))


@seed(20261020)
@settings(max_examples=100, deadline=None)
@given(case=_affine_sets())
def test_affine_projection_matches_the_lstsq_oracle(case):
    span, offset, z = case
    got = ConvexSetNet.affine(GRID, span, offset).batched_projector()(z)
    for k in range(GRID.K):
        ref = _oracles.project_affine(z[k], span[k], offset[k])
        assert np.linalg.norm(got[k] - ref) <= ORACLE_AFFINE_TOL * (1.0 + np.linalg.norm(z[k]))


class TestProjectionProperties:
    def test_nonexpansive_idempotent_minimal(self):
        rng = np.random.default_rng(37)
        for _ in range(N_PAIRS):
            d = int(rng.integers(1, 9))
            C, kind = _random_set(rng, d)
            u, v = _random_point(rng, d), _random_point(rng, d)
            pu, pv = project_point(C, u), project_point(C, v)
            gap = np.linalg.norm(pu.samples - pv.samples, axis=1)
            bound = np.linalg.norm(u.samples - v.samples, axis=1)
            assert np.all(gap <= bound + NONEXPANSIVE_SLACK * (1.0 + bound))

            ppu = project_point(C, pu)
            assert np.allclose(ppu.samples, pu.samples, atol=1e-10)

            dist = np.linalg.norm(u.samples - pu.samples, axis=1)
            w = _feasible_point(rng, C, kind, d)
            alt = np.linalg.norm(u.samples - w.samples, axis=1)
            assert np.all(dist <= alt + 1e-10)

    def test_minimality_many_competitors(self):
        rng = np.random.default_rng(41)
        d = 4
        C, kind = _random_set(rng, d)
        u = _random_point(rng, d)
        pu = project_point(C, u)
        dist = np.linalg.norm(u.samples - pu.samples, axis=1)
        for _ in range(N_FEASIBLE):
            w = _feasible_point(rng, C, kind, d)
            alt = np.linalg.norm(u.samples - w.samples, axis=1)
            assert np.all(dist <= alt + 1e-10)

    def test_characterization_residual_nonpositive(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            d = int(rng.integers(1, 6))
            C, kind = _random_set(rng, d)
            u = _random_point(rng, d)
            v = project_point(C, u)
            probes = [_feasible_point(rng, C, kind, d) for _ in range(10)]
            res = characterization_residual(C, u, v, probes, POLICY)
            scale = 1.0 + np.linalg.norm(u.samples, axis=1)
            assert np.all(res.samples <= CHARACTERIZATION_TOL * scale)

    def test_characterization_flags_wrong_projection(self):
        C = ConvexSetNet.box(GRID, np.array([0.0]), np.array([1.0]))
        u = GenVector.constant(np.array([2.0]), GRID)
        not_proj = GenVector.constant(np.array([0.25]), GRID)
        probes = [GenVector.constant(np.array([1.0]), GRID)]
        res = characterization_residual(C, u, not_proj, probes, POLICY)
        assert np.all(res.samples > 0.1)  # strictly positive: 1.75 * 0.75

    def test_probe_outside_set_names_its_first_grid_point(self):
        C = ConvexSetNet.box(GRID, np.array([0.0]), np.array([1.0]))
        u = GenVector.constant(np.array([0.5]), GRID)
        inside = GenVector.constant(np.array([0.25]), GRID)
        bad = np.full((GRID.K, 1), 0.75)
        bad[4] = 5.0  # outside only at k = 5
        later = np.full((GRID.K, 1), 0.75)
        later[1] = -1.0  # outside only at k = 2, but a later probe
        probes = [inside, GenVector(GRID, bad), GenVector(GRID, later)]
        with pytest.raises(ProbeNotInSet, match=r"k=5$"):
            characterization_residual(C, u, u, probes, POLICY)
        bad[11] = 5.0
        with pytest.raises(ProbeNotInSet, match=r"k=5$"):
            characterization_residual(C, u, u, [GenVector(GRID, bad)], POLICY)

    def test_probe_outside_set_raises(self):
        C = ConvexSetNet.box(GRID, np.array([0.0]), np.array([1.0]))
        u = GenVector.constant(np.array([0.5]), GRID)
        bad = GenVector.constant(np.array([5.0]), GRID)
        with pytest.raises(ProbeNotInSet):
            characterization_residual(C, u, u, [bad], POLICY)

    def test_a_probe_whose_size_overflows_is_inside_only_at_violation_0(self):
        # |w| = 2.1e308 overflows, and the tolerance 100 tol_abs (1 + |w|) was
        # +inf: w missed the box [0, 1]^2 by 1.5e308 and still counted as inside
        far = GenVector.constant(np.array([1.5e308, 1.5e308]), GRID)
        u = GenVector.constant(np.array([0.5, 0.5]), GRID)
        box = ConvexSetNet.box(GRID, np.zeros(2), np.ones(2))
        with pytest.raises(ProbeNotInSet, match=r"k=1$"):
            characterization_residual(box, u, u, [far], POLICY)
        obstacle = ConvexSetNet.obstacle(GRID, np.zeros(2))  # far lies in {x >= 0}
        assert np.array_equal(characterization_residual(obstacle, u, u, [far], POLICY).samples,
                              np.zeros(GRID.K))

    def test_affine_projection_residual_orthogonal_to_span(self):
        rng = np.random.default_rng(47)
        span = rng.standard_normal((3, 6))
        C = ConvexSetNet.affine(GRID, span)
        u = _random_point(rng, 6)
        p = project_point(C, u)
        resid = u.samples - p.samples
        for b in span:
            assert np.all(np.abs(resid @ b) <= 1e-10 *
                          (1.0 + np.linalg.norm(u.samples, axis=1)))


class TestValidation:
    def test_empty_box_raises(self):
        with pytest.raises(EmptySet):
            ConvexSetNet.box(GRID, np.array([1.0]), np.array([0.0]))

    def test_infinite_obstacle_bound_raises(self):
        with pytest.raises(EmptySet):
            ConvexSetNet.obstacle(GRID, np.array([np.inf]))

    def test_an_infinite_bound_constrains_nothing_on_its_side(self):
        # a point at +inf (-inf) lies in a set whose upper (lower) bound is +inf (-inf)
        top = GenVector.constant(np.array([np.inf]), GRID)
        for C, p in [(ConvexSetNet.obstacle(GRID, [0.0]), top),
                     (ConvexSetNet.box(GRID, [0.0], [np.inf]), top),
                     (ConvexSetNet.box(GRID, [-np.inf], [0.0]), -top)]:
            assert np.all(C.violation(p.samples) == 0.0)

    @pytest.mark.parametrize("build,error,message", [
        (lambda nan, inf, one: ConvexSetNet.box(GRID, nan, one), InvalidSpec,
         "lower bound is NaN at grid index k=5"),
        (lambda nan, inf, one: ConvexSetNet.box(GRID, -one, nan), InvalidSpec,
         "upper bound is NaN at grid index k=5"),
        (lambda nan, inf, one: ConvexSetNet.obstacle(GRID, nan), InvalidSpec,
         "obstacle bound is NaN at grid index k=5"),
        (lambda nan, inf, one: ConvexSetNet.box(GRID, inf, one), EmptySet,
         "box has lower > upper at grid index k=7"),
        (lambda nan, inf, one: ConvexSetNet.obstacle(GRID, inf), EmptySet,
         "obstacle bound is \\+inf at grid index k=7"),
        (lambda nan, inf, one: ConvexSetNet.box(GRID, inf, inf + one), EmptySet,
         "lower bound is \\+inf at grid index k=7"),
        (lambda nan, inf, one: ConvexSetNet.box(GRID, -inf - one, -inf), EmptySet,
         "upper bound is -inf at grid index k=7"),
        # lower = upper = +inf at k = 7 and 12, lower > upper at k = 15 and 20
        (lambda nan, inf, one: ConvexSetNet.box(GRID, inf, inf + one - 2 * np.isnan(nan[::-1])),
         EmptySet, "lower bound is \\+inf at grid index k=7"),
    ], ids=["box-lower-nan", "box-upper-nan", "obstacle-nan", "box-empty", "obstacle-inf",
            "box-lower-plus-inf", "box-upper-minus-inf", "box-empty-first-k"])
    def test_bad_bounds_name_the_first_grid_index(self, build, error, message):
        nan = np.zeros((GRID.K, 2))
        nan[4, 1] = nan[9, 0] = np.nan  # first at k = 5
        inf = np.zeros((GRID.K, 2))
        inf[[6, 11], 0] = np.inf  # first at k = 7
        with pytest.raises(error, match=message):
            build(nan, inf, np.ones((GRID.K, 2)))

    def test_dim_mismatch_on_projection(self):
        C = ConvexSetNet.box(GRID, np.array([0.0]), np.array([1.0]))
        u = GenVector.constant(np.array([0.0, 0.0]), GRID)
        with pytest.raises(DimMismatch):
            project_point(C, u)

    def test_batched_projector_kinds(self):
        rng = np.random.default_rng(61)
        lo, up = np.array([0.0, -1.0]), np.array([1.0, 0.0])
        span, offset = np.array([[1.0, 2.0]]), np.array([0.5, 0.0])
        z = 3.0 * rng.standard_normal((GRID.K, 2))
        cases = [
            (ConvexSetNet.box(GRID, lo, up), lambda x: _oracles.project_box(x, lo, up)),
            (ConvexSetNet.obstacle(GRID, lo), lambda x: _oracles.project_obstacle(x, lo)),
            (ConvexSetNet.affine(GRID, span, offset),
             lambda x: _oracles.project_affine(x, span, offset)),
        ]
        subset = np.flatnonzero(rng.random(GRID.K) < 0.5)
        for C, oracle in cases:
            proj = C.batched_projector()
            assert callable(proj)
            got = proj(z)
            for k in range(GRID.K):
                assert_allclose(got[k], oracle(z[k]), atol=1e-12)
            # a subset of the grid gets the bits of the whole-grid projection
            assert np.array_equal(C.row_projector(subset)(z[subset]), got[subset])
