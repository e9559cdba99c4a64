"""Interleaved Gram-Schmidt, idempotent norms, and submodule projectors."""

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from _oracles import (
    gram_schmidt_per_point,
    idempotent_normalize_per_vector,
    orthonormality_failures,
    project_submodule_per_vector,
    projection_operator_per_vector,
    scale_offenders,
)
from gennet import (
    DimMismatch,
    EpsGrid,
    GenVector,
    GeneratorSet,
    GridMismatch,
    InvalidBasis,
    MixedScaleGenerator,
    NumericPolicy,
    OrthoBasis,
    apply,
    classify_operator,
    classify_submodule,
    inner,
    interleaved_gram_schmidt,
    project_submodule,
    rnorm,
    submodule_projection_operator,
)
from gennet.submodules import _sweep, _uniform_scale

GRID = EpsGrid.geometric(24)
POLICY = NumericPolicy()
UNDERFLOW_POLICY = NumericPolicy(m_inv=50)  # eps_k**m_inv is 0 from k = 22 on
GAP_POLICY = NumericPolicy(q_neg=12)  # tail norms in (eps^12, eps^10) have no scale

ORTHO_TOL = 1e-10
BASIS_TOL = 100 * POLICY.tol_abs  # orthonormality of a basis on its supports
SPAN_TOL = 1e-10   # relative, per sample
N_SETS = 25


def _constant(vec):
    return GenVector(GRID, np.tile(np.asarray(vec, dtype=float), (GRID.K, 1)))


def _random_generators(rng, m, d, max_power=0):
    gens = []
    for _ in range(m):
        v = rng.standard_normal((GRID.K, d))
        p = rng.integers(0, max_power + 1) if max_power else 0
        gens.append(GenVector(GRID, GRID.values[:, None] ** p * v))
    return GeneratorSet(tuple(gens))


def _beta_type_generator():
    """Sample norm eps_k**k: never settles on one scale across the grid."""
    norms = GRID.values ** np.arange(1, GRID.K + 1)
    samples = np.zeros((GRID.K, 2))
    samples[:, 0] = norms
    return GenVector(GRID, samples)


# ---------------------------------------------------------- hand examples

def test_gram_schmidt_small_perturbation_splits_axes():
    # second generator (eps, eps) reduces to its component off the first
    g = GeneratorSet((_constant([1.0, 0.0]),
                      GenVector(GRID, np.stack([GRID.values, GRID.values], axis=1))))
    basis = interleaved_gram_schmidt(g, POLICY)
    assert len(basis) == 2
    assert np.allclose(basis.samples[:, 0], [1.0, 0.0], atol=1e-15)
    assert np.allclose(basis.samples[:, 1], [0.0, 1.0], atol=1e-15)
    assert basis.support.all()


def test_gram_schmidt_keeps_the_dominant_generator():
    # (1,1) has the larger norm, so it survives unrotated and (1,0)
    # contributes only its orthogonal part
    g = GeneratorSet((_constant([1.0, 0.0]), _constant([1.0, 1.0])))
    basis = interleaved_gram_schmidt(g, POLICY)
    r = 1.0 / np.sqrt(2.0)
    assert np.allclose(basis.samples[:, 0], [r, -r], atol=1e-12)
    assert np.allclose(basis.samples[:, 1], [r, r], atol=1e-12)


@pytest.mark.parametrize("grid,policy", [
    (GRID, POLICY),
    (EpsGrid.geometric(200), POLICY),  # eps_k**m_inv is 0 from k = 108 on
    (GRID, UNDERFLOW_POLICY),
], ids=["K24", "K200", "K24-m_inv50"])
def test_duplicate_generator_is_dropped(grid, policy):
    # the copy's residual is an exact zero, never kept, even where the threshold is 0
    u = GenVector(grid, np.tile([3.0, 4.0], (grid.K, 1)))
    basis = interleaved_gram_schmidt(GeneratorSet((u, u)), policy)
    assert len(basis) == 1
    assert np.allclose(rnorm(GenVector(grid, basis.samples[:, 0])).samples, 1.0, atol=1e-14)
    assert not np.isnan(basis.samples).any()


def test_beta_type_generator_has_no_uniform_scale():
    g = GeneratorSet((_beta_type_generator(),))
    with pytest.raises(MixedScaleGenerator) as err:
        interleaved_gram_schmidt(g, POLICY)
    # support covers exactly the indices where eps**k >= eps**m_inv
    assert err.value.indices == list(range(1, POLICY.m_inv + 1))


# ------------------------------------------ batched recursion vs oracle

def _tower(vec):
    """Sample norm eps_k**k along the unit direction vec."""
    return GRID.values[:, None] ** np.arange(1.0, GRID.K + 1)[:, None] * np.asarray(vec)[None, :]


@st.composite
def _generator_samples(draw, kinds):
    """m <= 8 generator sample arrays (K, d), d <= 6, with one kind each.

    power: eps^p * v, p in 0..4, |v| in [0.5, 2], so input norms stay at
    least 32 times above the drop threshold eps_k**m_inv; duplicate: an
    exact copy of an earlier generator (a tie); zero; vanish: a power
    generator that is zero on a block of grid points (the drop branch);
    near_parallel: a multiple of an earlier generator plus noise of
    relative size 1e-15 .. 1e-11 (the flush branch and its neighbour);
    tower: eps_k**k * v, whose norm crosses the threshold at k = m_inv
    within rounding (the knife edge); gap: a power generator whose norm
    is eps_K**11 at random tail points, between eps**12 and eps**10.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 6))
    field = draw(st.sampled_from(["real", "complex", "mixed"]))
    out = []
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=8)):
        is_complex = field == "complex" or (field == "mixed" and rng.random() < 0.5)
        v = rng.standard_normal(d) + (1j * rng.standard_normal(d) if is_complex else 0.0)
        v = v / np.linalg.norm(v)
        s = GRID.values[:, None] ** float(rng.integers(0, 5)) * (rng.uniform(0.5, 2.0) * v)
        if kind == "duplicate" and out:
            s = out[rng.integers(len(out))].copy()
        elif kind == "zero":
            s = np.zeros_like(s)
        elif kind == "vanish":
            a = int(rng.integers(0, GRID.K))
            s[a:int(rng.integers(a + 1, GRID.K + 1))] = 0.0
        elif kind == "near_parallel" and out:
            base = out[rng.integers(len(out))]
            noise = rng.standard_normal(base.shape) * np.linalg.norm(base, axis=1)[:, None]
            s = rng.uniform(0.5, 2.0) * base + 10.0 ** rng.uniform(-15, -11) * noise
        elif kind == "tower":
            s = _tower(v)
        elif kind == "gap":  # norms eps^11 on a random part of the tail
            tail = np.arange(GRID.K - POLICY.tail, GRID.K)
            s[tail[rng.random(tail.size) < 0.5]] = GRID.values[-1] ** 11.0 * v
        out.append(s)
    return out


def _vector(samples):
    return GenVector(GRID, samples)


def _outcome(build):
    """A basis as (shape, sample bytes, support mask bytes), or the offenders it raised."""
    try:
        basis = build()
    except MixedScaleGenerator as err:
        return err.indices
    return basis.samples.shape, basis.samples.tobytes(), basis.support.tobytes()


def _empty_basis(d, dtype=float):
    """The basis of the zero submodule of K^d: r = 0."""
    return OrthoBasis(GRID, np.zeros((GRID.K, 0, d), dtype=dtype),
                      np.zeros((GRID.K, 0), dtype=bool))


def _oracle_basis(raw, policy=POLICY):
    vecs, supports = [], []
    for r in raw:
        w, support = idempotent_normalize_per_vector(r, GRID.values, policy)
        if support.any():
            vecs.append(w)
            supports.append(support)
    if not vecs:
        return _empty_basis(raw.shape[2], raw.dtype)
    return OrthoBasis(GRID, np.stack(vecs, axis=1), np.stack(supports, axis=1))


def _blocks(samples):
    """Each (K, d) sample array in its own block of d coordinates of a
    (K, m d) array: orthogonal generators, which the sweep only normalizes."""
    m, d = len(samples), samples[0].shape[1]
    out = []
    for j, s in enumerate(samples):
        b = np.zeros((GRID.K, m * d), dtype=s.dtype)
        b[:, j * d:(j + 1) * d] = s
        out.append(b)
    return out


def _oracle_offenders(want, left, policy):
    """The scale offenders of the oracle sweep's first generator that has any, else []."""
    support = np.any(want != 0.0, axis=2)
    for j in range(len(want)):
        if bad := scale_offenders(left[j], support[j], GRID.values, policy):
            return bad
    return []


@seed(20261018)
@settings(max_examples=150, deadline=None)
@given(samples=_generator_samples(["power", "duplicate", "zero", "vanish", "near_parallel",
                                   "gap"]))
def test_batched_gram_schmidt_matches_the_per_point_oracle(samples):
    # the first sweep bit for bit (unit outputs, supports, the norms the
    # generators left with); then the verdict, or a basis orthonormal after
    # the second sweep, whose supports are the first's but where an output
    # proved numerically dependent (at most d vectors per sample)
    g = GeneratorSet(tuple(_vector(s) for s in samples))
    for policy in (POLICY, UNDERFLOW_POLICY, GAP_POLICY):
        want, want_left = gram_schmidt_per_point(samples, GRID.values, policy)
        W, support, left = _sweep(np.stack(samples, axis=1), GRID.values, policy)
        assert W.dtype == want.dtype
        assert W.transpose(1, 0, 2).tobytes() == want.tobytes()
        assert np.array_equal(support.T, np.any(want != 0.0, axis=2))
        assert left.T.tobytes() == want_left.tobytes()
        offenders = _oracle_offenders(want, want_left, policy)
        try:
            basis = interleaved_gram_schmidt(g, policy)
        except MixedScaleGenerator as err:
            assert err.indices == offenders
            continue
        assert offenders == []
        first = support[:, support.any(axis=0)]
        assert len(basis) <= first.shape[1] and basis.support.sum() <= first.sum()
        if len(basis) == first.shape[1]:
            assert not (basis.support & ~first).any()
        assert np.all(basis.support.sum(axis=1) <= W.shape[2])
        assert orthonormality_failures(basis.samples, basis.support, BASIS_TOL) == []


@seed(20261019)
@settings(max_examples=100, deadline=None)
@given(samples=_generator_samples(["power", "duplicate", "vanish", "near_parallel", "tower"]))
def test_drop_decision_agrees_with_the_normalization_support(samples):
    # the support is the keep decision, made once: generator j is kept at k
    # exactly when the norm it left with passes 0 < norm >= eps_k**m_inv,
    # and its output is a unit vector there and zero elsewhere
    W, support, left = _sweep(np.stack(samples, axis=1), GRID.values, POLICY)
    threshold = GRID.values[:, None] ** POLICY.m_inv
    assert np.array_equal(support, (left > 0.0) & (left >= threshold))
    assert np.array_equal(np.any(W != 0.0, axis=2), support)
    assert np.all(np.abs(np.linalg.norm(W, axis=2)[support] - 1.0) <= 1e-15)


@seed(20261023)
@settings(max_examples=150, deadline=None)
@given(samples=_generator_samples(["power", "zero", "vanish", "tower", "gap"]))
def test_batched_normalization_matches_the_per_vector_oracle(samples):
    # generators in blocks of their own coordinates, which the first sweep
    # only normalizes: the same vectors and supports, or MixedScaleGenerator
    # naming the indices of the same first vector (power towers and gap tails)
    blocks = _blocks(samples)
    for policy in (GAP_POLICY, UNDERFLOW_POLICY):
        assert (_outcome(lambda: _oracle_basis(np.stack(blocks), policy))
                == _outcome(lambda: _first_sweep_basis(blocks, policy)))


def _first_sweep_basis(samples, policy):
    """The basis of the first sweep over (K, d) samples alone, before any
    second sweep, or the MixedScaleGenerator its recorded norms raise."""
    W, support, left = _sweep(np.stack(samples, axis=1), GRID.values, policy)
    _uniform_scale(left, support, GRID, policy)
    kept = support.any(axis=0)
    return OrthoBasis(GRID, W[:, kept], support[:, kept])


@pytest.mark.parametrize("first,offenders", [
    ("tower", list(range(1, POLICY.m_inv + 1))),
    ("gap", [GRID.K - 1]),
    ("gap_and_dies_out", list(range(GRID.K - POLICY.tail + 1, GRID.K + 1))),
], ids=["tower", "gap", "gap-and-dies-out"])
def test_batched_normalization_names_the_first_failing_vector(first, offenders):
    # a good vector, the failing one, then a power tower that fails too
    good = GRID.values[:, None] * np.array([1.0, 0.0])
    if first == "tower":
        bad = GRID.values[:, None] ** np.arange(1.0, GRID.K + 1)[:, None] * np.array([0.0, 1.0])
    elif first == "gap":  # one tail sample between eps^q_neg and eps^m_inv
        bad = good.copy()
        bad[-2] = GRID.values[-2] ** 11.0 * np.array([0.6, 0.8])
    else:  # support at the head only, every tail sample in the gap: the gap is named
        bad = np.zeros_like(good)
        bad[:3, 0] = 1.0
        bad[-POLICY.tail:, 1] = GRID.values[-POLICY.tail:] ** 11.0
    tower = GRID.values[:, None] ** np.arange(1.0, GRID.K + 1)[:, None] * np.array([1.0, 0.0])
    g = GeneratorSet(tuple(_vector(b) for b in _blocks([good, bad, tower])))
    with pytest.raises(MixedScaleGenerator) as err:
        interleaved_gram_schmidt(g, GAP_POLICY)
    assert err.value.indices == offenders
    with pytest.raises(MixedScaleGenerator) as one:
        idempotent_normalize_per_vector(bad, GRID.values, GAP_POLICY)
    assert one.value.indices == offenders


# Unit directions whose power tower has ||u_10|| = eps_10**10 in exact
# arithmetic: rounding puts the computed sample norm just above ("in") or
# just below ("out") the threshold.  A 1-D np.linalg.norm (a BLAS dot)
# may round the other way than the axis-wise reduce of rnorm; the
# recursion uses the latter, so k = 10 is offending exactly when the
# support test takes it.
KNIFE_EDGE = [
    ([0.018681436816318283, 0.742906754880426, 0.669134184952101], True),
    ([0.3635365676813111, 0.8642994867575062, 0.3476025908263671], False),
]


@pytest.mark.parametrize("vec,in_support", KNIFE_EDGE)
def test_power_tower_knife_edge_follows_the_support_test(vec, in_support):
    u = GenVector(GRID, _tower(vec))
    k10 = POLICY.m_inv - 1
    assert (rnorm(u).samples[k10] >= GRID.values[k10] ** POLICY.m_inv) == in_support
    verdict = classify_submodule(GeneratorSet((u,)), POLICY)
    assert verdict.diagnostics["offending_indices"] == list(
        range(1, POLICY.m_inv + (1 if in_support else 0)))


def test_a_nan_dominant_zeroes_the_rest_and_names_their_tail_samples():
    # a NaN sample wins the pick and fails 0 < norm, so the generators left
    # at that point are zeroed with it; they leave with their own norms,
    # which are no negligible scale: at a head point they only leave their
    # supports, at a tail point that point is named
    samples = np.tile(np.eye(2), (GRID.K, 1, 1))  # e1 and e2
    samples[2, 0, 0] = np.nan
    W, support, left = _sweep(samples, GRID.values, POLICY)
    assert not support[2].any() and np.isnan(left[2, 0]) and left[2, 1] == 1.0
    basis = interleaved_gram_schmidt(GeneratorSet((_vector(samples[:, 0]),
                                                   _vector(samples[:, 1]))), POLICY)
    assert np.array_equal(basis.support, np.arange(GRID.K)[:, None] != [2, 2])
    samples[-1, 0, 0] = np.nan
    with pytest.raises(MixedScaleGenerator) as err:
        interleaved_gram_schmidt(GeneratorSet((_vector(samples[:, 0]),
                                               _vector(samples[:, 1]))), POLICY)
    assert err.value.indices == [GRID.K]


def test_a_nan_generator_has_no_uniform_scale():
    # its norms are NaN everywhere, so it has no support and its tail samples
    # are not negligible; NaN > eps**q_neg was False, and the set passed as
    # closed and edged with an empty basis
    g = GeneratorSet((GenVector(GRID, np.full((GRID.K, 2), np.nan)),))
    verdict = classify_submodule(g, POLICY)
    assert not verdict.closed_edged and verdict.basis is None
    assert verdict.diagnostics["offending_indices"] == list(range(17, GRID.K + 1))
    with pytest.raises(MixedScaleGenerator):
        interleaved_gram_schmidt(g, POLICY)


def test_the_flush_scale_is_the_policy_tol_abs():
    # the second generator's residual off the first is 1e-11 of its norm:
    # a direction at the default tol_abs = 1e-12, rounding at 1e-10
    g = GeneratorSet((_constant([1.0, 0.0]), _constant([1.0, 1e-11])))
    assert len(interleaved_gram_schmidt(g, POLICY)) == 2
    assert len(interleaved_gram_schmidt(g, NumericPolicy(tol_abs=1e-10))) == 1


def test_complex_generators_whose_squares_underflow_project_without_nan():
    # |v|^2 ~ 1e-319 is subnormal, and a complex coefficient divided by it
    # overflows 1/|v|^2 to a NaN that zeroed the other generator; the
    # dominant sample is scaled first, as where its squares overflow
    a = GenVector(GRID, np.tile([1e-160 + 1e-160j, 0.0], (GRID.K, 1)))
    b = GenVector(GRID, np.tile([0.0, 2e-160j], (GRID.K, 1)))
    basis = interleaved_gram_schmidt(GeneratorSet((a, b)), UNDERFLOW_POLICY)
    # eps_k**50 = 2**(-50 k) lies below both norms from k = 11 on
    assert len(basis) == 2
    assert np.array_equal(basis.support, np.tile(np.arange(GRID.K)[:, None] >= 10, (1, 2)))
    assert orthonormality_failures(basis.samples, basis.support, BASIS_TOL) == []


# -------------------------------------------------- idempotent normalize

def _normalize_one(samples, policy):
    """The basis of one (K, d) generator, which the sweep only normalizes:
    (w, S), S its (K,) support mask."""
    basis = interleaved_gram_schmidt(GeneratorSet((_vector(samples),)), policy)
    return GenVector(GRID, basis.samples[:, 0]), basis.support[:, 0]


def test_normalize_on_partial_support():
    mask = np.zeros(GRID.K, dtype=bool)
    mask[-POLICY.tail:] = True
    samples = np.where(mask[:, None], 1.0, 0.0) * np.array([3.0, 4.0])
    w, S = _normalize_one(samples, POLICY)
    assert np.array_equal(S, mask)
    norms = rnorm(w).samples
    assert np.allclose(norms[mask], 1.0, atol=1e-14)
    assert np.all(norms[~mask] == 0.0)


def test_normalize_leaves_out_a_zero_sample_where_the_threshold_underflows():
    # eps_22**50 is 0, so 0 >= eps_22**m_inv holds, but 0 < ||u_22|| fails
    samples = np.ones((GRID.K, 2))
    samples[21] = 0.0
    w, S = _normalize_one(samples, UNDERFLOW_POLICY)
    assert np.array_equal(S, np.arange(1, GRID.K + 1) != 22)
    assert not np.isnan(w.samples).any()
    assert np.allclose(rnorm(w).samples, S, atol=1e-14)


def test_normalize_factorization():
    # u reassembles as rnorm(u) * w on the support
    rng = np.random.default_rng(31)
    u = GenVector(GRID, GRID.values[:, None] ** 2.0 * rng.standard_normal((GRID.K, 3)))
    w, S = _normalize_one(u.samples, POLICY)
    assert S.all()
    back = rnorm(u).samples[:, None] * w.samples
    assert np.allclose(back, u.samples, rtol=1e-13, atol=0.0)


def test_normalize_rejects_support_that_misses_the_tail():
    samples = np.zeros((GRID.K, 2))
    samples[0, 0] = 1.0  # visible at the head only
    with pytest.raises(MixedScaleGenerator):
        _normalize_one(samples, POLICY)


# ----------------------------------------------------- random invariants

@pytest.mark.parametrize("max_power", [0, 4])
def test_orthogonality_and_span_reconstruction(max_power):
    rng = np.random.default_rng(503 + max_power)
    for _ in range(N_SETS):
        d = int(rng.integers(2, 9))
        m = int(rng.integers(1, d + 1))
        g = _random_generators(rng, m, d, max_power=max_power)
        basis = interleaved_gram_schmidt(g, POLICY)
        assert orthonormality_failures(basis.samples, basis.support, BASIS_TOL) == []
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                ip = np.abs(inner(_vector(basis.samples[:, i]),
                                  _vector(basis.samples[:, j])).samples)
                assert np.all(ip <= ORTHO_TOL)
        for gen in g.gens:
            recon = project_submodule(basis, gen).samples
            gap = np.linalg.norm(recon - gen.samples, axis=1)
            assert np.all(gap <= SPAN_TOL * (1.0 + rnorm(gen).samples))


def test_complex_generators_orthogonalize():
    rng = np.random.default_rng(509)
    gens = tuple(
        GenVector(GRID,
                  rng.standard_normal((GRID.K, 4))
                  + 1j * rng.standard_normal((GRID.K, 4)))
        for _ in range(3))
    basis = interleaved_gram_schmidt(GeneratorSet(gens), POLICY)
    assert orthonormality_failures(basis.samples, basis.support, BASIS_TOL) == []
    assert basis.samples.dtype == np.complex128
    for gen in gens:
        recon = project_submodule(basis, gen).samples
        gap = np.linalg.norm(recon - gen.samples, axis=1)
        assert np.all(gap <= SPAN_TOL * (1.0 + rnorm(gen).samples))


# --------------------------------------------------- Gram-Schmidt twice

def _conditioned_samples(rng, delta, scale=1.0, d=6):
    """Four generators, constant in eps: the columns of
    scale * U diag(1, delta^(1/3), delta^(2/3), delta) V with U (d x 4)
    orthonormal and V orthogonal, both random, so kappa = 1/delta."""
    U, _ = np.linalg.qr(rng.standard_normal((d, 4)))
    V, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    A = scale * (U * delta ** (np.arange(4) / 3.0)) @ V
    return np.tile(A.T, (GRID.K, 1, 1))


@pytest.mark.parametrize("delta", [1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12])
def test_gram_schmidt_twice_is_orthonormal_at_any_conditioning(delta):
    # one sweep loses orthogonality like u * kappa (9e-11 at kappa = 1e6,
    # 8e-5 at 1e12); the second sweep restores it to rounding, keeps the
    # first sweep's supports and the span, and the projector is a projection
    rng = np.random.default_rng(1700 + int(-np.log10(delta)))
    for _ in range(20):
        stack = _conditioned_samples(rng, delta)
        g = GeneratorSet(tuple(_vector(stack[:, j]) for j in range(4)))
        first = _sweep(stack, GRID.values, POLICY)[1]
        basis = interleaved_gram_schmidt(g, POLICY)
        assert np.array_equal(basis.support, first)
        assert orthonormality_failures(basis.samples, basis.support, 1e-14) == []
        full = basis.support.all(axis=1)  # elsewhere eps_k**m_inv drops a direction
        for gen in g.gens:
            gap = np.linalg.norm(project_submodule(basis, gen).samples - gen.samples, axis=1)
            assert np.all(gap[full] <= 1e-14)
        assert classify_operator(submodule_projection_operator(basis), POLICY)["projection"]


def test_the_second_sweep_keeps_the_supports_where_eps_is_1():
    # at eps_1 = 1 the threshold eps_1**m_inv is 1, which a unit output
    # left with norm 1 - ulp by the second sweep's projections would fail:
    # that sweep tests no support against its scale again
    grid = EpsGrid(0.5 ** np.arange(24.0))
    stack = _conditioned_samples(np.random.default_rng(1710), 1e-10, scale=1e12)
    W, first, _ = _sweep(stack, grid.values, POLICY)
    assert first.all() and not _sweep(W, grid.values, POLICY)[1][0].all()
    basis = interleaved_gram_schmidt(
        GeneratorSet(tuple(GenVector(grid, stack[:, j]) for j in range(4))), POLICY)
    assert basis.support.all()
    assert orthonormality_failures(basis.samples, basis.support, 1e-14) == []


def test_the_second_sweep_drops_an_output_in_the_span_of_the_others():
    # four generators along one direction of K^3 apart from unit noise on a
    # 1e12 scale: the first sweep keeps all four at some samples, one only
    # through its lost orthogonality; the second finds that output
    # numerically in the span of the others (Kahan's test) and drops it
    rng = np.random.default_rng(0)
    b = rng.standard_normal(3)
    samples = [np.tile(1e12 * c * b, (GRID.K, 1)) + rng.standard_normal((GRID.K, 3))
               for c in (1.0, 1.5, 2.0, 2.5)]
    first = _sweep(np.stack(samples, axis=1), GRID.values, POLICY)[1]
    assert (first.sum(axis=1) == 4).any()
    basis = interleaved_gram_schmidt(GeneratorSet(tuple(map(_vector, samples))), POLICY)
    assert np.all(basis.support.sum(axis=1) <= 3) and not (basis.support & ~first).any()
    assert orthonormality_failures(basis.samples, basis.support, 1e-14) == []
    for s in samples:
        gap = np.linalg.norm(project_submodule(basis, _vector(s)).samples - s, axis=1)
        assert np.all(gap <= SPAN_TOL * np.linalg.norm(s, axis=1))


# ------------------------------------------------------------- projector

def test_projector_is_a_projection_operator():
    rng = np.random.default_rng(521)
    g = _random_generators(rng, 3, 6)
    basis = interleaved_gram_schmidt(g, POLICY)
    P = submodule_projection_operator(basis)
    flags = classify_operator(P, POLICY)
    assert flags["self_adjoint"] and flags["projection"]
    for _ in range(20):
        u = GenVector(GRID, rng.standard_normal((GRID.K, 6)))
        quad = inner(apply(P, u), u).samples
        assert np.all(quad >= -ORTHO_TOL * (1.0 + rnorm(u).samples ** 2))


def test_projectors_of_orthogonal_pieces_add():
    rng = np.random.default_rng(523)
    g = _random_generators(rng, 4, 7)
    basis = interleaved_gram_schmidt(g, POLICY)
    assert len(basis) == 4
    first = OrthoBasis(GRID, basis.samples[:, :2], basis.support[:, :2])
    second = OrthoBasis(GRID, basis.samples[:, 2:], basis.support[:, 2:])
    whole = submodule_projection_operator(basis).samples
    parts = (submodule_projection_operator(first).samples
             + submodule_projection_operator(second).samples)
    assert np.max(np.abs(whole - parts)) <= ORTHO_TOL


def test_projection_matches_operator_route():
    rng = np.random.default_rng(541)
    g = _random_generators(rng, 2, 5)
    basis = interleaved_gram_schmidt(g, POLICY)
    P = submodule_projection_operator(basis)
    for _ in range(10):
        u = GenVector(GRID, rng.standard_normal((GRID.K, 5)))
        gap = project_submodule(basis, u).samples - apply(P, u).samples
        assert np.max(np.abs(gap)) <= ORTHO_TOL


@st.composite
def _stacked_bases(draw):
    """(W, support, v): an orthonormal (K, r, d) basis stack, zero off a
    random (K, r) support mask, r = 0 .. d <= 6, with a (K, d) vector v;
    basis and v each real or complex."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 6))
    r = draw(st.integers(0, d))

    def sample(shape):
        x = rng.standard_normal(shape)
        return x + 1j * rng.standard_normal(shape) if draw(st.booleans()) else x

    q, _ = np.linalg.qr(sample((GRID.K, d, d)))
    support = rng.random((GRID.K, r)) < 0.7
    W = np.swapaxes(q[:, :, :r], 1, 2) * support[:, :, None]
    return W, support, sample((GRID.K, d))


@seed(20261020)
@settings(max_examples=150, deadline=None)
@given(case=_stacked_bases())
def test_batched_consumers_match_the_per_vector_oracles(case):
    W, support, v = case
    B = OrthoBasis(GRID, W, support)
    assert len(B) == W.shape[1]
    assert orthonormality_failures(B.samples, B.support, BASIS_TOL) == []

    def close(got, want, scale):
        assert got.dtype == want.dtype
        assert np.all(np.abs(got - want) <= 1e-12 * scale)

    close(project_submodule(B, _vector(v)).samples, project_submodule_per_vector(W, v),
          np.linalg.norm(v, axis=1)[:, None])
    close(submodule_projection_operator(B).samples, projection_operator_per_vector(W), 1.0)


# -------------------------------------------------------- classification

def test_classify_good_set_is_closed_edged():
    rng = np.random.default_rng(547)
    verdict = classify_submodule(_random_generators(rng, 3, 5, max_power=2), POLICY)
    assert verdict.closed_edged
    assert verdict.basis is not None and len(verdict.basis) == 3
    assert verdict.diagnostics == {}


def test_classify_beta_type_reports_offenders_instead_of_raising():
    verdict = classify_submodule(GeneratorSet((_beta_type_generator(),)), POLICY)
    assert not verdict.closed_edged
    assert verdict.basis is None
    assert verdict.diagnostics["offending_indices"] == list(range(1, POLICY.m_inv + 1))
    assert "tail window" in verdict.diagnostics["reason"]


# ------------------------------------------------------------ validation

def test_a_basis_needs_one_support_per_vector():
    samples = np.tile([1.0, 0.0], (GRID.K, 1, 1))
    OrthoBasis(GRID, samples, np.ones((GRID.K, 1), dtype=bool))
    with pytest.raises(InvalidBasis, match="one support per basis vector"):
        OrthoBasis(GRID, samples, np.zeros((GRID.K, 0), dtype=bool))


def test_the_orthonormality_oracle_names_each_failure():
    full = np.ones((GRID.K, 1), dtype=bool)
    assert orthonormality_failures(np.tile([1.0, 0.0], (GRID.K, 1, 1)), full, BASIS_TOL) == []
    assert orthonormality_failures(np.zeros((GRID.K, 0, 2)), full[:, :0], BASIS_TOL) == []
    forged = np.tile([1.0, 0.0], (GRID.K, 1, 1))
    forged[4] *= 1.1  # unit length fails at k = 5
    assert orthonormality_failures(forged, full, BASIS_TOL) == [("norm", 5, 0, 0)]
    off = full.copy()
    off[[2, 9]] = False  # nonzero off the support at k = 3 and 10
    assert orthonormality_failures(np.tile([1.0, 0.0], (GRID.K, 1, 1)), off, BASIS_TOL) == [
        ("norm", 3, 0, 0), ("norm", 10, 0, 0)]
    tilted = np.tile(np.eye(3)[[2, 0, 1]], (GRID.K, 1, 1))
    tilted[[6, 11], 2] = [1.0 / np.sqrt(2.0), 0.0, 1.0 / np.sqrt(2.0)]  # leans on w_0 and w_1
    assert orthonormality_failures(tilted, np.ones((GRID.K, 3), dtype=bool), BASIS_TOL) == [
        ("orthogonality", 7, 0, 2), ("orthogonality", 7, 1, 2),
        ("orthogonality", 12, 0, 2), ("orthogonality", 12, 1, 2)]


def test_generator_set_guards():
    with pytest.raises(ValueError):
        GeneratorSet(())
    with pytest.raises(GridMismatch):
        GeneratorSet((_constant([1.0]),
                      GenVector(EpsGrid.geometric(12), np.ones((12, 1)))))
    with pytest.raises(DimMismatch):
        GeneratorSet((_constant([1.0]), _constant([1.0, 0.0])))
