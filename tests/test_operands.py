"""The operand rule of the nets: one module arithmetic, one grid check, one
``constant`` constructor.

Each kind has the operations it has always had: GenScalar ``+ - *`` and
unary ``-``, a plain number acting as the constant net; GenVector ``+ -``,
unary ``-`` and the action of a GenScalar or a number; BasicOperator ``-``.
Mixing kinds is a TypeError.  Every entry point that takes two nets raises
GridMismatch for a net on another grid and DimMismatch for a net of another
sample shape.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from gennet import (
    BasicFunctional,
    BasicOperator,
    ConvexSetNet,
    DimMismatch,
    EpsGrid,
    GeneratorSet,
    GenScalar,
    GenVector,
    GridMismatch,
    NumericPolicy,
    OrthoBasis,
    TridiagonalOperator,
    apply,
    certify_coercivity,
    close_infimum_check,
    inner,
    lax_milgram_solve,
    project_point,
    vi_solve_contraction,
)

GRID = EpsGrid.geometric(24)
OTHER_GRID = EpsGrid.geometric(16)
POLICY = NumericPolicy()


# ------------------------------------------------ exact module arithmetic

def _bits(net):
    """The sample bytes, with -0 read as +0: a product a*0 keeps the sign of a,
    so a*(x + y) and a*x + a*y may differ in the sign of a zero alone."""
    return (net.samples + 0.0).tobytes()


def _ints(shape, complex_):
    """Samples of small integers, where every sum and product is exact."""
    values = st.lists(st.integers(-40, 40), min_size=int(np.prod(shape)),
                      max_size=int(np.prod(shape)))
    part = values.map(lambda v: np.reshape(np.array(v, dtype=float), shape))
    if not complex_:
        return part
    return st.tuples(part, part).map(lambda p: p[0] + 1j * p[1])


@st.composite
def _operands(draw, kind, tail):
    complex_ = draw(st.booleans())
    x, y = (kind(GRID, draw(_ints((GRID.K, *tail), complex_))) for _ in range(2))
    a = draw(st.one_of(st.integers(-9, 9), st.integers(-9, 9).map(float),
                       _ints((GRID.K,), complex_).map(lambda s: GenScalar(GRID, s))))
    return x, y, a


@seed(20261022)
@settings(max_examples=60, deadline=None)
@given(ops=st.one_of(_operands(GenScalar, ()), _operands(GenVector, (3,))))
def test_scalar_and_vector_arithmetic_is_exact_on_small_integers(ops):
    x, y, a = ops
    assert _bits(x + y - y) == _bits(x)
    assert _bits(a * (x + y)) == _bits(a * x + a * y)
    assert _bits((x + y) * a) == _bits(a * (x + y))
    assert _bits(-(-x)) == _bits(x)
    assert type(x + y) is type(-x) is type(a * x) is type(x)


@seed(20261022)
@settings(max_examples=30, deadline=None)
@given(ops=_operands(BasicOperator, (2, 3)))
def test_operator_difference_is_exact_on_small_integers(ops):
    x, y, _ = ops
    assert _bits(x - (x - y)) == _bits(y)
    assert type(x - y) is BasicOperator


def test_a_number_acts_on_a_scalar_as_the_constant_net():
    x = GenScalar(GRID, np.arange(GRID.K, dtype=float))
    three = GenScalar.constant(3, GRID)
    for got, want in [(x + 3, x + three), (3 + x, three + x), (x - 3, x - three),
                      (3 - x, three - x), (3 * x, three * x), (x * 3, x * three)]:
        assert got.samples.tobytes() == want.samples.tobytes()


_U = GenVector.constant([1.0, 2.0], GRID)
_S = GenScalar.constant(2.0, GRID)
_T = BasicOperator.constant(np.eye(2), GRID)
_B = OrthoBasis(GRID, np.tile([[1.0, 0.0]], (GRID.K, 1, 1)), np.ones((GRID.K, 1), dtype=bool))
_BANDS = TridiagonalOperator(GRID, np.tile([[2.0, 2.0], [0.0, -1.0]], (GRID.K, 1, 1)))
_F = BasicFunctional(GRID, np.ones((GRID.K, 2)))

# mixed kinds, and the operations a kind does not have
MIXED = {
    "vector + scalar": lambda: _U + _S,
    "scalar + vector": lambda: _S + _U,
    "basis + basis": lambda: _B + _B,
    "basis - basis": lambda: _B - _B,
    "vector - scalar": lambda: _U - _S,
    "vector + number": lambda: _U + 1.0,
    "vector * vector": lambda: _U * _U,
    "operator + operator": lambda: _T + _T,
    "-operator": lambda: -_T,
    "number * operator": lambda: 2.0 * _T,
    "scalar * operator": lambda: _S * _T,
    "operator - scalar": lambda: _T - _S,
    "scalar - operator": lambda: _S - _T,
    "bands - bands": lambda: _BANDS - _BANDS,
    "functional + functional": lambda: _F + _F,
    "inner(vector, scalar)": lambda: inner(_U, _S),
}


@pytest.mark.parametrize("call", MIXED.values(), ids=MIXED.keys())
def test_mixing_kinds_is_a_type_error(call):
    with pytest.raises(TypeError):
        call()


# ------------------------------------------------ one grid and shape check

def _nets(grid, d):
    """One net of every kind on ``grid``, vectors of dimension d."""
    T = BasicOperator.constant(np.eye(d), grid)
    return SimpleNamespace(
        scalar=GenScalar.constant(1.0, grid), vector=GenVector.constant(np.ones(d), grid),
        operator=T, functional=BasicFunctional(grid, np.ones((grid.K, d))),
        box=ConvexSetNet.box(grid, -np.ones(d), np.ones(d)),
        cert=certify_coercivity(T, POLICY))


NETS, ON_OTHER_GRID, WIDER = _nets(GRID, 2), _nets(OTHER_GRID, 2), _nets(GRID, 3)

# (call(n, m) with n from NETS and m from another grid or shape, whether a
# shape of its own is possible: a scalar net has none)
ENTRY_POINTS = {
    "scalar + scalar": (lambda n, m: n.scalar + m.scalar, False),
    "scalar - scalar": (lambda n, m: n.scalar - m.scalar, False),
    "scalar * scalar": (lambda n, m: n.scalar * m.scalar, False),
    "vector + vector": (lambda n, m: n.vector + m.vector, True),
    "vector - vector": (lambda n, m: n.vector - m.vector, True),
    "vector * scalar": (lambda n, m: n.vector * m.scalar, False),
    "operator - operator": (lambda n, m: n.operator - m.operator, True),
    "inner": (lambda n, m: inner(n.vector, m.vector), True),
    "apply": (lambda n, m: apply(n.operator, m.vector), True),
    "compose": (lambda n, m: n.operator.compose(m.operator), True),
    "functional call": (lambda n, m: n.functional(m.vector), True),
    "project_point": (lambda n, m: project_point(n.box, m.vector), True),
    "GeneratorSet": (lambda n, m: GeneratorSet((n.vector, m.vector)), True),
    "close_infimum_check": (lambda n, m: close_infimum_check(n.scalar, [m.scalar], POLICY), False),
    "lax_milgram_solve": (lambda n, m: lax_milgram_solve(n.operator, m.vector, n.cert), True),
    "vi_solve_contraction": (lambda n, m: vi_solve_contraction(
        n.operator, m.vector, n.box, n.cert, POLICY), True),
}


@pytest.mark.parametrize("call,shaped", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
def test_two_net_entry_points_refuse_another_grid_or_shape(call, shaped):
    with pytest.raises(GridMismatch):
        call(NETS, ON_OTHER_GRID)
    if shaped:
        with pytest.raises(DimMismatch):
            call(NETS, WIDER)


# ------------------------------------------------ one constant constructor

@pytest.mark.parametrize("kind,value", [
    (GenScalar, 1.5),
    (GenScalar, 2),
    (GenVector, [1.0, -2.0, 3.0]),
    (BasicOperator, np.arange(6.0).reshape(2, 3)),
    (BasicOperator, np.array([[1, 2], [3, 4]])),
], ids=["scalar", "int-scalar", "vector", "operator", "int-operator"])
def test_constant_samples_are_np_tile_in_c_order(kind, value):
    # a broadcast view copied by astype keeps the view's axis order, not C
    # order, and matmul and einsum then round on another summation order
    want = np.tile(np.asarray(value, dtype=float), (GRID.K,) + (1,) * np.ndim(value))
    samples = kind.constant(value, GRID).samples
    assert samples.flags.c_contiguous
    assert samples.strides == want.strides
    assert samples.tobytes() == want.tobytes()
