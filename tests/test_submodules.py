"""Interleaved Gram-Schmidt, idempotent norms, and submodule projectors."""

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from _oracles import gram_schmidt_per_point
from gennet import (
    DimMismatch,
    EpsGrid,
    GenScalar,
    GenVector,
    GeneratorSet,
    GridMismatch,
    IndexSet,
    InvalidBasis,
    MixedScaleGenerator,
    NumericPolicy,
    OrthoBasis,
    apply,
    classify_operator,
    classify_submodule,
    extend_functional,
    idempotent_normalize,
    inner,
    interleaved_gram_schmidt,
    project_submodule,
    rnorm,
    submodule_projection_operator,
)
from gennet.submodules import _orthogonalize

GRID = EpsGrid.geometric(24)
POLICY = NumericPolicy()

ORTHO_TOL = 1e-10
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
    assert np.allclose(basis.vecs[0].samples, [1.0, 0.0], atol=1e-15)
    assert np.allclose(basis.vecs[1].samples, [0.0, 1.0], atol=1e-15)
    assert all(len(S) == GRID.K for S in basis.supports)


def test_gram_schmidt_keeps_the_dominant_generator():
    # (1,1) has the larger norm, so it survives unrotated and (1,0)
    # contributes only its orthogonal part
    g = GeneratorSet((_constant([1.0, 0.0]), _constant([1.0, 1.0])))
    basis = interleaved_gram_schmidt(g, POLICY)
    r = 1.0 / np.sqrt(2.0)
    assert np.allclose(basis.vecs[0].samples, [r, -r], atol=1e-12)
    assert np.allclose(basis.vecs[1].samples, [r, r], atol=1e-12)


def test_duplicate_generator_is_dropped():
    u = _constant([3.0, 4.0])
    basis = interleaved_gram_schmidt(GeneratorSet((u, u)), POLICY)
    assert len(basis) == 1
    assert np.allclose(rnorm(basis.vecs[0]).samples, 1.0, atol=1e-14)


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
    within rounding (the knife edge).
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
        out.append(s)
    return out


def _vector(samples):
    return GenVector(GRID, samples, "complex" if np.iscomplexobj(samples) else "real")


def _outcome(build):
    """A basis as (vector bytes, supports), or the offenders it raised."""
    try:
        basis = build()
    except MixedScaleGenerator as err:
        return err.indices
    return ([w.samples.tobytes() for w in basis.vecs],
            [sorted(S.members) for S in basis.supports])


def _oracle_basis(raw):
    vecs, supports = [], []
    for r in raw:
        w, S = idempotent_normalize(_vector(r), POLICY)
        if len(S):
            vecs.append(w)
            supports.append(S)
    return OrthoBasis(vecs, supports)


@seed(20261018)
@settings(max_examples=150, deadline=None)
@given(samples=_generator_samples(["power", "duplicate", "zero", "vanish", "near_parallel"]))
def test_batched_gram_schmidt_matches_the_per_point_oracle(samples):
    want = gram_schmidt_per_point(samples, GRID.values, POLICY.m_inv)
    raw = _orthogonalize(np.stack(samples, axis=1), GRID.values, POLICY.m_inv)
    assert raw.dtype == want.dtype
    assert raw.transpose(1, 0, 2).tobytes() == want.tobytes()
    g = GeneratorSet(tuple(_vector(s) for s in samples))
    assert (_outcome(lambda: interleaved_gram_schmidt(g, POLICY))
            == _outcome(lambda: _oracle_basis(want)))


@seed(20261019)
@settings(max_examples=100, deadline=None)
@given(samples=_generator_samples(["power", "duplicate", "vanish", "near_parallel", "tower"]))
def test_drop_decision_agrees_with_the_normalization_support(samples):
    # a generator is kept at (j, k) exactly when idempotent_normalize's
    # support test ||w_k|| >= eps_k**m_inv puts k in its support
    raw = _orthogonalize(np.stack(samples, axis=1), GRID.values, POLICY.m_inv)
    threshold = GRID.values ** POLICY.m_inv
    for j in range(raw.shape[1]):
        support = rnorm(_vector(raw[:, j])).samples >= threshold
        assert np.array_equal(np.any(raw[:, j] != 0.0, axis=1), support)


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


# -------------------------------------------------- idempotent normalize

def test_normalize_on_partial_support():
    mask = np.zeros(GRID.K, dtype=bool)
    mask[-POLICY.tail:] = True
    samples = np.where(mask[:, None], 1.0, 0.0) * np.array([3.0, 4.0])
    w, S = idempotent_normalize(GenVector(GRID, samples), POLICY)
    assert np.array_equal(S.mask(), mask)
    norms = rnorm(w).samples
    assert np.allclose(norms[mask], 1.0, atol=1e-14)
    assert np.all(norms[~mask] == 0.0)


def test_normalize_factorization():
    # u reassembles as rnorm(u) * w on the support
    rng = np.random.default_rng(31)
    u = GenVector(GRID, GRID.values[:, None] ** 2.0 * rng.standard_normal((GRID.K, 3)))
    w, S = idempotent_normalize(u, POLICY)
    assert len(S) == GRID.K
    back = rnorm(u).samples[:, None] * w.samples
    assert np.allclose(back, u.samples, rtol=1e-13, atol=0.0)


def test_normalize_rejects_support_that_misses_the_tail():
    samples = np.zeros((GRID.K, 2))
    samples[0, 0] = 1.0  # visible at the head only
    with pytest.raises(MixedScaleGenerator):
        idempotent_normalize(GenVector(GRID, samples), POLICY)


# ----------------------------------------------------- random invariants

@pytest.mark.parametrize("max_power", [0, 4])
def test_orthogonality_and_span_reconstruction(max_power):
    rng = np.random.default_rng(503 + max_power)
    for _ in range(N_SETS):
        d = int(rng.integers(2, 9))
        m = int(rng.integers(1, d + 1))
        g = _random_generators(rng, m, d, max_power=max_power)
        basis = interleaved_gram_schmidt(g, POLICY)
        basis.validate(POLICY)
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                ip = np.abs(inner(basis.vecs[i], basis.vecs[j]).samples)
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
                  + 1j * rng.standard_normal((GRID.K, 4)), "complex")
        for _ in range(3))
    basis = interleaved_gram_schmidt(GeneratorSet(gens), POLICY)
    basis.validate(POLICY)
    assert all(w.field_tag == "complex" for w in basis.vecs)
    for gen in gens:
        recon = project_submodule(basis, gen).samples
        gap = np.linalg.norm(recon - gen.samples, axis=1)
        assert np.all(gap <= SPAN_TOL * (1.0 + rnorm(gen).samples))


# ------------------------------------------------------------- projector

def test_projector_is_a_projection_operator():
    rng = np.random.default_rng(521)
    g = _random_generators(rng, 3, 6)
    basis = interleaved_gram_schmidt(g, POLICY)
    P = submodule_projection_operator(basis, GRID, 6)
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
    first = OrthoBasis(basis.vecs[:2], basis.supports[:2])
    second = OrthoBasis(basis.vecs[2:], basis.supports[2:])
    whole = submodule_projection_operator(basis, GRID, 7).samples
    parts = (submodule_projection_operator(first, GRID, 7).samples
             + submodule_projection_operator(second, GRID, 7).samples)
    assert np.max(np.abs(whole - parts)) <= ORTHO_TOL


def test_projection_matches_operator_route():
    rng = np.random.default_rng(541)
    g = _random_generators(rng, 2, 5)
    basis = interleaved_gram_schmidt(g, POLICY)
    P = submodule_projection_operator(basis, GRID, 5)
    for _ in range(10):
        u = GenVector(GRID, rng.standard_normal((GRID.K, 5)))
        gap = project_submodule(basis, u).samples - apply(P, u).samples
        assert np.max(np.abs(gap)) <= ORTHO_TOL


# -------------------------------------------------------- classification

def test_classify_good_set_is_closed_edged():
    rng = np.random.default_rng(547)
    verdict = classify_submodule(_random_generators(rng, 3, 5, max_power=2), POLICY)
    assert verdict.closed_edged
    assert verdict.basis is not None and len(verdict.basis) == 3
    assert verdict.diagnostics == {}
    blob = verdict.to_json()
    assert blob["closed_edged"] and "basis" in blob


def test_classify_beta_type_reports_offenders_instead_of_raising():
    verdict = classify_submodule(GeneratorSet((_beta_type_generator(),)), POLICY)
    assert not verdict.closed_edged
    assert verdict.basis is None
    assert verdict.diagnostics["offending_indices"] == list(range(1, POLICY.m_inv + 1))
    assert "tail window" in verdict.diagnostics["reason"]


# -------------------------------------------------- functional extension

def test_extend_functional_agrees_on_basis_and_kills_complement():
    g = GeneratorSet((_constant([1.0, 0.0, 0.0]), _constant([0.0, 1.0, 0.0])))
    basis = interleaved_gram_schmidt(g, POLICY)
    values = [GenScalar(GRID, np.full(GRID.K, 2.0)),
              GenScalar(GRID, GRID.values.copy())]
    F = extend_functional(values, basis)
    for f_j, w in zip(values, basis.vecs):
        assert np.allclose(F(w).samples, f_j.samples, rtol=0.0, atol=1e-14)
    ortho = _constant([0.0, 0.0, 1.0])
    assert np.all(np.abs(F(ortho).samples) <= 1e-14)
    # acting through the projector changes nothing
    P = submodule_projection_operator(basis, GRID, 3)
    u = GenVector(GRID, np.tile([0.3, -1.2, 5.0], (GRID.K, 1)))
    assert np.allclose(F(u).samples, F(apply(P, u)).samples, rtol=0.0, atol=1e-12)


def test_extend_functional_validates_value_count():
    basis = interleaved_gram_schmidt(GeneratorSet((_constant([1.0, 0.0]),)), POLICY)
    one = GenScalar(GRID, np.ones(GRID.K))
    with pytest.raises(InvalidBasis):
        extend_functional([one, one], basis)
    with pytest.raises(InvalidBasis):
        extend_functional([], OrthoBasis((), ()))


# ------------------------------------------------------------ validation

def test_validate_flags_broken_bases():
    full = IndexSet.full(GRID)
    good = OrthoBasis((_constant([1.0, 0.0]),), (full,))
    good.validate(POLICY)
    with pytest.raises(InvalidBasis, match="unit length"):
        OrthoBasis((_constant([2.0, 0.0]),), (full,)).validate(POLICY)
    with pytest.raises(InvalidBasis, match="off its support"):
        OrthoBasis((_constant([1.0, 0.0]),),
                   (IndexSet.from_mask(np.zeros(GRID.K, dtype=bool)),)).validate(POLICY)
    r = 1.0 / np.sqrt(2.0)
    with pytest.raises(InvalidBasis, match="not orthogonal"):
        OrthoBasis((_constant([1.0, 0.0]), _constant([r, r])),
                   (full, full)).validate(POLICY)
    with pytest.raises(InvalidBasis):
        OrthoBasis((_constant([1.0, 0.0]),), ())


def test_validate_names_the_check_vectors_and_first_grid_point():
    full = IndexSet.full(GRID)
    forged = np.tile([1.0, 0.0], (GRID.K, 1))
    forged[4] *= 1.1  # sample 5
    with pytest.raises(InvalidBasis, match=r"^unit length: vector 0 .* k=5 "):
        OrthoBasis((GenVector(GRID, forged),), (full,)).validate(POLICY)
    mask = np.ones(GRID.K, dtype=bool)
    mask[[2, 9]] = False
    with pytest.raises(InvalidBasis, match=r"^zero off the support: vector 0 .* k=3 "):
        OrthoBasis((_constant([1.0, 0.0]),), (IndexSet.from_mask(mask),)).validate(POLICY)
    tilted = np.tile([0.0, 1.0], (GRID.K, 1))
    tilted[[6, 11]] = 1.0 / np.sqrt(2.0)
    with pytest.raises(InvalidBasis, match=r"^orthogonality: vectors 1 and 2 .* k=7 "):
        OrthoBasis((_constant([0.0, 0.0, 1.0]), _constant([1.0, 0.0, 0.0]),
                    GenVector(GRID, np.c_[tilted, np.zeros(GRID.K)])),
                   (full, full, full)).validate(POLICY)


def test_generator_set_guards():
    with pytest.raises(ValueError):
        GeneratorSet(())
    with pytest.raises(GridMismatch):
        GeneratorSet((_constant([1.0]),
                      GenVector(EpsGrid.geometric(12), np.ones((12, 1)))))
    with pytest.raises(DimMismatch):
        GeneratorSet((_constant([1.0]), _constant([1.0, 0.0])))
