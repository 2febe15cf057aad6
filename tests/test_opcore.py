"""Function/operator algebra: shifts act exactly, composition is associative."""

import math

import mpmath as mp
import numpy as np
import pytest

from fdosc import nonrel, rel
from fdosc.errors import EvaluationError
from fdosc.opcore import (
    SampleGrid,
    commutator,
    compose,
    const,
    coordinate,
    default_grid,
    deriv_op,
    exp_linear,
    from_callable,
    function_residual,
    gaussian,
    grid_ratio,
    identity_op,
    mixed_residual,
    monomial,
    mul_op,
    polynomial,
    residual,
    shift_op,
)

GRID = default_grid()


def test_shift_is_exact_argument_translation():
    f = exp_linear(0.3 + 0.4j)
    g = shift_op(1.5j)(f)
    for p in GRID:
        assert g(p) == f(p + 1.5j)


def test_inverse_shifts_compose_to_identity():
    op = compose(shift_op(0.7j), shift_op(-0.7j))
    f = gaussian(0.8) * polynomial([1.0, 2.0, -0.5])
    assert residual(op, identity_op(), f, GRID) < 1e-15


def test_composition_is_associative():
    A = mul_op(coordinate()) + shift_op(0.5j)
    B = deriv_op() - 2.0 * identity_op()
    C = shift_op(-1j) + mul_op(monomial(2))
    f = gaussian(1.0) * polynomial([0.3, -1.0, 0.7])
    lhs = compose(compose(A, B), C)
    rhs = compose(A, compose(B, C))
    assert residual(lhs, rhs, f, GRID) < 1e-13


def test_composition_order_matters():
    # [d/dz, z] = 1
    z_op = mul_op(coordinate())
    f = gaussian(1.0)
    assert residual(commutator(deriv_op(), z_op), identity_op(), f, GRID) < 1e-14


def test_commutator_antisymmetry():
    A = mul_op(monomial(2)) + shift_op(1j)
    B = deriv_op() + mul_op(coordinate())
    f = gaussian(0.7) * polynomial([1.0, 0.5])
    assert residual(commutator(A, B), -1.0 * commutator(B, A), f, GRID) < 1e-13


def test_leibniz_in_composition():
    # d/dz (z^2 f) = 2 z f + z^2 f'
    lhs = compose(deriv_op(), mul_op(monomial(2)))
    rhs = mul_op(2.0 * coordinate()) + compose(mul_op(monomial(2)), deriv_op())
    f = gaussian(1.2)
    assert residual(lhs, rhs, f, GRID) < 1e-13


def test_exact_derivatives_of_primitives():
    f = polynomial([1.0, -2.0, 3.0])      # 1 - 2z + 3z^2
    df = f.derivative()
    for p in (0.5, 1.5, 3.0):
        assert df(p) == pytest.approx(-2.0 + 6.0 * p, abs=1e-14)
    g = gaussian(0.9)
    dg = g.derivative()
    for p in (0.4, 2.0):
        assert abs(dg(p) - (-0.9 * p * g(p))) < 1e-14
    h = monomial(1.7)
    dh = h.derivative()
    for p in (0.5, 2.5):
        assert abs(dh(p) - 1.7 * p ** 0.7) < 1e-13


def test_callable_leaf_has_no_derivative():
    f = from_callable(np.cos, note="cos")
    assert f(0.7) == pytest.approx(math.cos(0.7))
    df = f.derivative()
    with pytest.raises(EvaluationError):
        df(0.7)
    with pytest.raises(EvaluationError):
        deriv_op()(f)(0.7)


_LEAVES = [
    ("const", const(1.5 - 0.5j), lambda z: mp.mpc(1.5, -0.5)),
    ("coordinate", coordinate(), lambda z: z),
    ("monomial", monomial(1.7), lambda z: z ** mp.mpf(1.7)),
    ("monomial_negative", monomial(-2), lambda z: z ** -2),
    ("polynomial", polynomial([1.0, -2.0, 0.5, 3.0, -0.25]),
     lambda z: 1 - 2 * z + mp.mpf(0.5) * z**2 + 3 * z**3 - mp.mpf(0.25) * z**4),
    ("gaussian", gaussian(0.9), lambda z: mp.exp(-mp.mpf(0.9) * z**2 / 2)),
    ("exp_linear", exp_linear(0.3 + 0.4j), lambda z: mp.exp(mp.mpc(0.3, 0.4) * z)),
    ("product_of_shifted",
     monomial(1.7).shifted(0.5j) * gaussian(0.9).shifted(-0.25)
     * polynomial([1.0, -2.0, 0.5]).shifted(0.3j),
     lambda z: (z + 0.5j) ** mp.mpf(1.7) * mp.exp(-mp.mpf(0.9) * (z - 0.25) ** 2 / 2)
     * (1 - 2 * (z + 0.3j) + mp.mpf(0.5) * (z + 0.3j) ** 2)),
]


@pytest.mark.parametrize("name,f,ref", _LEAVES, ids=[leaf[0] for leaf in _LEAVES])
def test_jet_derivatives_match_mpmath(name, f, ref):
    with mp.workdps(30):
        for p in (0.8 + 0.3j, 2.1 - 0.6j, 1.3 + 1.1j):
            df = f
            for order in range(1, 5):
                df = df.derivative()
                want = complex(mp.diff(ref, mp.mpc(p), order))
                assert abs(df(p) - want) <= 1e-12 * (1.0 + abs(want)), (name, p, order)


def test_array_evaluation_equals_pointwise():
    nr = nonrel.make_model(0.1)
    _, _, Kp = nonrel.su11_generators(nr)
    psi0 = nonrel.eigenfunction(nr, 0).wavefunction
    pts = np.array(GRID.points)
    for f in (rel.ladder_state(rel.make_rel_model(0.5, 0.1), 6).wavefunction, Kp(Kp(psi0))):
        values = f(pts)
        assert values.shape == pts.shape
        pointwise = [f(p) for p in pts]
        assert all(type(v) is complex for v in pointwise)
        # numpy's vectorised complex multiply rounds differently from its
        # one-element loop, so the two agree to rounding, normwise
        assert np.max(np.abs(values - pointwise)) <= 1e-14 * np.max(np.abs(values))


def test_term_merging_by_shift_and_order():
    op = shift_op(1j) + shift_op(1j)
    assert len(op.terms) == 1
    f = exp_linear(0.2)
    assert abs(op(f)(1.0) - 2.0 * f(1.0 + 1j)) < 1e-15


def test_grid_rejects_nonpositive_points():
    with pytest.raises(ValueError):
        SampleGrid((1.0, 0.0, 2.0))
    with pytest.raises(ValueError):
        SampleGrid((-0.5,))


def test_default_grid_shape():
    g = default_grid()
    assert len(g) == 32
    pts = list(g)
    assert pts[0] == pytest.approx(0.25)
    assert pts[-1] == pytest.approx(8.0)
    assert all(a < b for a, b in zip(pts, pts[1:]))


def test_mixed_residual_definition():
    assert mixed_residual([1.0], [1.0]) == 0.0
    assert mixed_residual([3.0], [1.0]) == pytest.approx(1.0)  # |3-1|/(1+1)


def test_function_residual_and_ratio():
    f = exp_linear(0.3)
    g = 2.0 * f
    assert function_residual(f, f, GRID) == 0.0
    mean, spread = grid_ratio(g, f, GRID)
    assert mean == pytest.approx(2.0)
    assert spread < 1e-15


def test_evaluation_error_on_nonfinite():
    f = from_callable(lambda z: 1.0 / (z - 1.0))
    with pytest.raises(EvaluationError):
        f(1.0)
    with pytest.raises(EvaluationError):
        f([0.5, 1.0, 2.0])
    with pytest.raises(EvaluationError):
        gaussian(1.0)(np.array([0.5, np.nan]))


def test_scalar_and_const_coefficients():
    op = 3.0 * identity_op() + mul_op(const(2.0))
    f = coordinate()
    assert op(f)(1.5) == pytest.approx(7.5)
