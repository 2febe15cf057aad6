"""Function/operator algebra: shifts act exactly, composition is associative,
rational functions keep one canonical form."""

import math

import mpmath as mp
import numpy as np
import pytest

from fdosc import nonrel, opcore, rel
from fdosc.errors import EvaluationError
from fdosc.opcore import (
    AnalyticFunction,
    DifferenceOperator,
    Term,
    compose,
    const,
    coordinate,
    default_grid,
    exp_linear,
    from_callable,
    gaussian,
    grid_ratio,
    identity_op,
    mixed_residual,
    monomial,
    mul_op,
    polynomial,
    shift_op,
    stacked,
)
from test_nonrel import _act, _powers

GRID = default_grid()


def test_shift_is_exact_argument_translation():
    f = exp_linear(0.3 + 0.4j)
    g = shift_op(1.5j)(f)
    for p in GRID:
        assert g(p) == f(p + 1.5j)


def _coefficients(op, pts):
    """{shift: coefficient on pts} of op's terms, a rational zero left out."""
    return {t.shift: t.coeff(pts) for t in op.terms
            if t.coeff.rational is None or t.coeff.rational.rows[0].any()}


def _assert_same_operator(A, B, tol=1e-13):
    """A and B have the same terms, each coefficient equal on a grid off the
    real axis; a term one of them lacks is zero in the other."""
    pts = GRID + 0.1j
    a, b = _coefficients(A, pts), _coefficients(B, pts)
    for key in {*a, *b}:
        ca, cb = a.get(key, np.zeros(len(pts))), b.get(key, np.zeros(len(pts)))
        assert np.max(np.abs(ca - cb)) <= tol * (1.0 + np.max(np.abs(cb))), key


def _minus(A, B):
    """A - B of nonrel operators {(m, p): c} = sum c xi^p D^m."""
    return nonrel.added(A, nonrel.scaled(-1.0, B))


def test_inverse_shifts_compose_to_identity():
    op = compose(shift_op(0.7j), shift_op(-0.7j))
    f = gaussian(0.8) * polynomial([1.0, 2.0, -0.5])
    assert mixed_residual(op(f)(GRID), identity_op()(f)(GRID)) < 1e-15


def test_composition_is_associative():
    A = mul_op(coordinate()) + shift_op(0.5j)
    B = shift_op(0.25j) - 2.0 * identity_op()
    C = shift_op(-1j) + mul_op(monomial(2))
    _assert_same_operator(compose(compose(A, B), C), compose(A, compose(B, C)))
    # nonrel operators, exactly: xi + xi^-1 D/2, D - 2 and D^2 + xi^2
    A, B, C = {(0, 1): 1.0, (1, -1): 0.5}, {(1, 0): 1.0, (0, 0): -2.0}, {(2, 0): 1.0, (0, 2): 1.0}
    assert nonrel.compose(nonrel.compose(A, B), C) == nonrel.compose(A, nonrel.compose(B, C))


def test_composition_order_matters():
    # [T(i), z] = i T(i): the shift moves the coordinate
    z_op = mul_op(coordinate())
    _assert_same_operator(compose(shift_op(1j), z_op) - compose(z_op, shift_op(1j)),
                          1j * shift_op(1j))
    # [D, xi] = 1, exactly
    D, xi = {(1, 0): 1.0}, {(0, 1): 1.0}
    assert _minus(nonrel.compose(D, xi), nonrel.compose(xi, D)) == {(0, 0): 1.0}


def test_commutator_antisymmetry():
    A = mul_op(monomial(2)) + shift_op(1j)
    B = shift_op(-0.5j) + mul_op(coordinate())
    lhs, rhs = compose(A, B) - compose(B, A), -1.0 * (compose(B, A) - compose(A, B))
    _assert_same_operator(lhs, rhs)
    A, B = {(0, 2): 1.0, (1, 0): 0.5}, {(1, 0): 1.0, (0, 1): 1.0}  # xi^2 + D/2, D + xi
    AB, BA = nonrel.compose(A, B), nonrel.compose(B, A)
    assert _minus(AB, BA) == nonrel.scaled(-1.0, _minus(BA, AB)) != {}


def test_leibniz_in_composition():
    # D (xi^2 f) = 2 xi f + xi^2 D f, exactly
    assert nonrel.compose({(1, 0): 1.0}, {(0, 2): 1.0}) == {(1, 2): 1.0, (0, 1): 2.0}
    # D^m xi^b = sum_j C(m, j) b(b-1)...(b-j+1) xi^(b-j) D^(m-j): a falling
    # factorial that ends at j = b for b = 0, 1, 2, ..., and runs to j = m else
    assert nonrel.compose({(3, 0): 1.0}, {(0, 4): 1.0}) == {
        (3, 4): 1.0, (2, 3): 12.0, (1, 2): 36.0, (0, 1): 24.0}
    assert nonrel.compose({(3, 0): 1.0}, {(0, 1): 1.0}) == {(3, 1): 1.0, (2, 0): 3.0}
    assert nonrel.compose({(2, 0): 1.0}, {(0, -1): 1.0}) == {
        (2, -1): 1.0, (1, -2): -2.0, (0, -3): 2.0}


def test_exact_derivatives_of_primitives():
    f = polynomial([1.0, -2.0, 3.0])      # 1 - 2z + 3z^2
    df = f.derivative()
    for p in (0.5, 1.5, 3.0):
        assert df(p) == pytest.approx(-2.0 + 6.0 * p, abs=1e-14)
    # only a Laurent sum has a derivative
    with pytest.raises(EvaluationError, match="not a Laurent sum"):
        gaussian(0.9).derivative()
    h = monomial(-3)
    dh = h.derivative()
    for p in (0.5, 2.5):
        assert abs(dh(p) - -3.0 * p ** -4) < 1e-13
    # a monomial's power is whole: z^1.7 is no rational function
    with pytest.raises(ValueError, match="whole power"):
        monomial(1.7)


def test_callable_leaf_has_no_derivative():
    f = from_callable(np.cos)
    assert f(0.7) == pytest.approx(math.cos(0.7))
    with pytest.raises(EvaluationError):
        f.derivative()


_LAURENT_LEAVES = [
    ("const", const(1.5 - 0.5j), lambda z: mp.mpc(1.5, -0.5)),
    ("coordinate", coordinate(), lambda z: z),
    ("monomial", monomial(5), lambda z: z ** 5),
    ("monomial_negative", monomial(-2), lambda z: z ** -2),
    ("polynomial", polynomial([1.0, -2.0, 0.5, 3.0, -0.25]),
     lambda z: 1 - 2 * z + mp.mpf(0.5) * z**2 + 3 * z**3 - mp.mpf(0.25) * z**4),
]
_LEAVES = _LAURENT_LEAVES + [
    ("gaussian", gaussian(0.9), lambda z: mp.exp(-mp.mpf(0.9) * z**2 / 2)),
    ("exp_linear", exp_linear(0.3 + 0.4j), lambda z: mp.exp(mp.mpc(0.3, 0.4) * z)),
    ("product_of_shifted",
     monomial(-3).shifted(0.5j) * gaussian(0.9).shifted(-0.25)
     * polynomial([1.0, -2.0, 0.5]).shifted(0.3j),
     lambda z: (z + 0.5j) ** -3 * mp.exp(-mp.mpf(0.9) * (z - 0.25) ** 2 / 2)
     * (1 - 2 * (z + 0.3j) + mp.mpf(0.5) * (z + 0.3j) ** 2)),
]


@pytest.mark.parametrize("name,f,ref", _LEAVES, ids=[leaf[0] for leaf in _LEAVES])
def test_leaf_values_match_mpmath(name, f, ref):
    pts = np.array([0.8 + 0.3j, 2.1 - 0.6j, 1.3 + 1.1j])
    with mp.workdps(30):
        want = np.array([complex(ref(mp.mpc(p))) for p in pts])
    assert np.max(np.abs(f(pts) - want) / (1.0 + np.abs(want))) <= 1e-15, name


@pytest.mark.parametrize("name,f,ref", _LAURENT_LEAVES, ids=[leaf[0] for leaf in _LAURENT_LEAVES])
def test_jet_derivatives_match_mpmath(name, f, ref):
    # the Taylor rows a jet carried are the derivatives of a Laurent sum,
    # now its exact term-by-term derivatives
    with mp.workdps(30):
        for p in (0.8 + 0.3j, 2.1 - 0.6j, 1.3 + 1.1j):
            df = f
            for order in range(1, 5):
                df = df.derivative()
                want = complex(mp.diff(ref, mp.mpc(p), order))
                assert abs(df(p) - want) <= 1e-12 * (1.0 + abs(want)), (name, p, order)


def test_array_evaluation_equals_pointwise():
    # a tower sums its terms in order at any number of points, so a point
    # alone gives the floats it gives inside an array, bit for bit; up to
    # the rel-tower benchmark's top level, with the node it reads there
    for omega0, g0 in ((0.6, 0.2), (0.5, 0.1)):
        model = rel.make_rel_model(omega0, g0)
        H = rel.hamiltonian_rel(model)
        _, B_plus = rel.ladder_B(model)
        state = rel.eigenfunction_rel(model, 0).wavefunction
        for n in range(15):
            for f in (state, H(state), H(rel.ladder_norm_constant(model, n) * state)):
                values = f(GRID)
                assert values.shape == GRID.shape
                pointwise = [f(p) for p in GRID]
                assert all(type(v) is complex for v in pointwise)
                assert np.array_equal(values, pointwise), (omega0, g0, n)
            state = B_plus(state)


def test_term_merging_by_shift_and_order():
    op = shift_op(1j) + shift_op(1j)
    assert len(op.terms) == 1
    f = exp_linear(0.2)
    assert abs(op(f)(1.0) - 2.0 * f(1.0 + 1j)) < 1e-15
    # a nonrel operator merges by (order of D, power of xi), a sum that
    # cancels dropped
    assert nonrel.added({(1, 2): 1.0, (0, 0): 2.0}, {(0, 0): -2.0, (1, 2): 0.5, (1, 0): 1.0}) \
        == {(1, 2): 1.5, (1, 0): 1.0}


def test_grid_rejects_nonpositive_points():
    with pytest.raises(ValueError):
        default_grid(4, 0.0, 2.0)
    with pytest.raises(ValueError):
        default_grid(4, -0.5, 2.0)


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
    assert mixed_residual(f(GRID), f(GRID)) == 0.0
    assert mixed_residual(identity_op()(f)(GRID), shift_op(0.0)(f)(GRID)) == 0.0
    mean, spread = grid_ratio(g, f, GRID)
    assert mean == pytest.approx(2.0)
    assert spread < 1e-15


def test_default_grid_serves_pointwise_and_ratio_callers():
    # what a caller outside the package does with the grid: len, iteration
    # with a scalar evaluation at each point, and grid_ratio over all of it
    grid = default_grid()
    assert len(grid) == 32
    assert all(isinstance(p, float) for p in grid)
    assert grid[0] == 0.25 and grid[-1] == 8.0
    model = rel.make_rel_model(0.6, 0.2)
    built = rel.ladder_state(model, 3).wavefunction
    assert all(type(built(p)) is complex for p in grid)
    mean, spread = grid_ratio(built, rel.eigenfunction_rel(model, 3).wavefunction, grid)
    assert type(mean) is complex and type(spread) is float
    assert spread < 1e-10


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


def test_constants_fold_when_built():
    c = const(2.0 - 1.0j)
    assert _powers(c + const(3.0)) == {0: 5.0 - 1.0j}
    assert _powers(c + -1.0) == {0: 1.0 - 1.0j}
    assert _powers(-c) == {0: -2.0 + 1.0j}
    assert _powers(3.0 * c) == _powers(c * const(3.0)) == {0: 6.0 - 3.0j}
    assert c.shifted(1j) is c
    assert _powers(c.derivative()) == {}
    assert _powers(coordinate()) == {1: 1.0}
    assert _powers(gaussian(1.0)) is None
    # operator coefficients stay constants through merging and composition
    op = compose(shift_op(0.5j), 2.0 * shift_op(-0.5j)) + identity_op()
    assert [_powers(t.coeff) for t in op.terms] == [{0: 3.0}]


def test_laurent_sums_fold_when_built():
    # +, *, scaling and derivative fold two Laurent sums into one; a term
    # that cancels reads 0
    xi, inv2 = coordinate(), monomial(-2)
    assert _powers(xi * xi + 0.5 * inv2) == {2: 1.0, -2: 0.5}
    assert _powers((xi + 1.0) * (xi + -1.0)) == {2: 1.0, 0: -1.0}
    assert _powers(xi + -xi) == {}
    assert _powers(monomial(3) * inv2) == {1: 1.0}
    assert _powers(polynomial([1.0, 0.0, 3.0]).derivative()) == {1: 6.0}
    assert _powers(inv2.derivative().derivative()) == {-4: 6.0}
    # a shifted polynomial is a polynomial; a shifted pole leaves the
    # Laurent sums, and so does a product with any other function
    assert _powers(xi.shifted(1j)) == {0: 1j, 1: 1.0}
    assert _powers(inv2.shifted(1j)) is None and _powers(xi * gaussian(1.0)) is None


def _poles(f):
    return {q for q, _ in f.rational.poles}


def _form(f):
    """A rational function's canonical form as plain lists: numerator,
    sizes and poles."""
    r = f.rational
    return r.rows[0].tolist(), r.rows[1].real.tolist(), list(r.poles)


def test_rational_sums_fold_when_built():
    # one canonical form N / prod (z - q)^k: a product convolves the
    # numerators and adds the pole orders, a linear factor meeting a pole
    # cancels one order of it, and a sum lifts both parts to their common
    # denominator; the sizes follow each step over absolute values
    r2 = monomial(1) * monomial(1, at=-1j)  # rho (rho + i), a polynomial
    assert _form(r2) == ([0j, 1j, 1], [0.0, 1.0, 1.0], [])
    inv = monomial(-1) * monomial(-1, at=-1j)  # 1 / (rho (rho + i))
    assert _form(inv) == ([1], [1.0], [(-1j, 1), (0j, 1)])
    assert _form(monomial(1, at=-1j) * inv) == ([1], [1.0], [(0j, 1)])
    assert _powers(monomial(1) * (monomial(1, at=-1j) * inv)) == {0: 1.0}
    # a quadratic factor is no linear one: r2 inv keeps its poles, and is 1
    assert _form(r2 * inv)[2] == [(-1j, 1), (0j, 1)]
    assert (r2 * inv)(2.5 + 0.5j) == pytest.approx(1.0, abs=1e-15)
    assert _form(monomial(-1) + -2.0 * monomial(-1, at=-1j)) == (
        [1j, -1], [1.0, 3.0], [(-1j, 1), (0j, 1)])
    assert _powers(2.0 * r2 + -r2 + -r2) == {}
    assert _form(r2 + 3.0)[:2] == ([3, 1j, 1], [3.0, 1.0, 1.0])
    assert _powers(monomial(0, at=2j)) == {0: 1.0}
    # only a Laurent sum has a derivative, and a product with any other
    # function is no rational function
    with pytest.raises(EvaluationError, match="not a Laurent sum"):
        inv.derivative()
    assert (r2 * gaussian(1.0)).rational is None


def test_shifted_keeps_a_rational_sum_rational():
    f = 2.0 * monomial(-1, at=0.5j) * monomial(2) + (1.0 - 1j) * monomial(-2, at=-1j) + 3.0
    g = f.shifted(0.75j)
    # each pole q moved to q - a with its order, the numerator Taylor-shifted:
    # N_g(z) = N_f(z + a), and the sizes of N_g those of sum_j |n_j| (z + |a|)^j
    assert g.rational.poles == tuple((q - 0.75j, k) for q, k in f.rational.poles)
    z = np.array([0.3, 1.1 + 0.2j, 2.5])
    polyval = np.polynomial.polynomial.polyval
    assert np.max(np.abs(polyval(z, g.rational.rows[0]) / polyval(z + 0.75j, f.rational.rows[0])
                         - 1.0)) < 1e-15
    assert np.max(np.abs(polyval(z.real, g.rational.rows[1].real)
                         / polyval(z.real + 0.75, f.rational.rows[1].real) - 1.0)) < 1e-15
    assert _poles(g) == {q - 0.75j for q in _poles(f)}
    pts = GRID + 0.3j
    assert np.max(np.abs(g(pts) - f(pts + 0.75j)) / np.abs(f(pts + 0.75j))) < 1e-15
    # shifted off 0 and back, a Laurent sum is the same Laurent sum
    xi = polynomial([1.0, -2.0, 0.5]) + monomial(-1)
    assert _powers(xi.shifted(1j)) is None and xi.shifted(1j).rational is not None
    assert _powers(xi.shifted(1j).shifted(-1j)) == _powers(xi)


def test_a_product_of_poles_is_read_as_a_product():
    # 1/prod_k (z + k i/2), k = 0..5, at z = 30: read as partial fractions
    # its terms cancel to a 1.4e-8 relative error; read as one product of its
    # factors it holds double precision
    f = const(1.0)
    for k in range(6):
        f = f * monomial(-1, at=-0.5j * k)
    assert _form(f)[:2] == ([1], [1.0]) and len(f.rational.poles) == 6
    with mp.workdps(50):
        ref = 1 / mp.fprod(mp.mpf(30) + mp.mpc(0, 0.5 * k) for k in range(6))
        assert abs(f(30.0) - complex(ref)) <= 1e-15 * abs(complex(ref))


def test_a_rational_batch_reads_each_point_alone():
    # a point's values do not depend on the other points of the call, so a
    # tower's powers stay bit for bit: the rows of B+'s coefficients, and one
    # folded coefficient, at each point alone, at a few points, and at many
    B_minus, B_plus = rel.ladder_B(_REL)
    pts = np.concatenate([(GRID + 0.5j * np.arange(-8, 9)[:, None]).reshape(-1), [30.0]])
    for batch in (B_plus.coefficient_batch, stacked([compose(B_minus, B_plus).terms[4].coeff]).values):
        every = batch(pts)
        assert np.array_equal(every[:, :7], batch(pts[:7]))
        assert np.array_equal(every, np.stack([batch(pts[i:i + 1])[:, 0]
                                               for i in range(len(pts))], axis=1))


def test_folded_constants_give_the_jets_they_replace():
    # a folded constant gives the values of the same constant as a leaf
    c = const(2.0 - 1.0j)
    c_plain = from_callable(lambda z: np.full(len(z), 2.0 - 1.0j))
    f = gaussian(0.8) * polynomial([1.0, 2.0, -0.5])
    z = GRID + 0.3j
    for folded, plain in ((c * f, c_plain * f), (f * c, f * c_plain),
                          (f + c, f + c_plain), (c + -f, c_plain + -f)):
        assert _powers(folded) is None
        assert np.array_equal(folded(z), plain(z))
    folded_op = 2.0 * shift_op(1j) + mul_op(c)
    plain_op = compose(mul_op(from_callable(lambda z: np.full(len(z), 2.0))),
                       shift_op(1j)) + mul_op(c_plain)
    assert np.array_equal(folded_op(f)(z), plain_op(f)(z))


def test_scaling_by_zero_still_reports_nonfinite():
    f = 0.0 * from_callable(lambda z: 1.0 / (z - 1.0))
    with pytest.raises(EvaluationError):
        f(1.0)


# ---- operator towers ---------------------------------------------------
#
# op(op(...op(f))) with one operator object is one node that evaluates the
# coefficients once per call; it must equal the same steps taken as separate
# nodes, and the operator product built with compose.

_REL = rel.make_rel_model(0.5, 0.1)
_NONREL = nonrel.make_model(0.1)


def _tower(op, f, n):
    for _ in range(n):
        f = op(f)
    return f


def _power(op, n):
    out = identity_op()
    for _ in range(n):
        out = compose(op, out)
    return out


def _assert_close(got, want, tol=1e-13):
    got, want = np.asarray(got), np.asarray(want)
    assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))


def _chain(op, f, n):
    """op^n f as n separate nodes: a twin of op with the same terms takes
    every other step, so no two successive steps share an operator."""
    ops = (op, DifferenceOperator(op.terms))
    for k in range(n):
        f = ops[k % 2](f)
    return f


def _opaque(op):
    """op with each coefficient known by its values only: compose then
    multiplies coefficients as products of values."""
    return DifferenceOperator(Term(AnalyticFunction(t.coeff.values), t.shift)
                              for t in op.terms)


def test_rel_tower_equals_composed_power():
    _, B_plus = rel.ladder_B(_REL)
    opaque = _opaque(B_plus)
    phi0 = rel.eigenfunction_rel(_REL, 0).wavefunction
    pts = GRID[::3]
    power, product = identity_op(), identity_op()
    for n in range(1, 7):
        tower, chain = _tower(B_plus, phi0, n), _chain(B_plus, phi0, n)
        _assert_close(tower(pts), chain(pts))
        _assert_close([tower(p) for p in pts[::4]], chain(pts[::4]))
        power = compose(B_plus, power)
        # B+^n grows polynomially: 4n + 1 shifts, numerators of at most
        # (n + 2)^2 + 1 coefficients (9, 17, 26, 37, 50 and 65 at n = 1..6)
        # over denominators of degree (n + 1)^2
        assert len(power.terms) == 4 * n + 1
        assert max(len(t.coeff.rational.rows[0]) for t in power.terms) <= (n + 2) ** 2 + 1
        assert max(sum(k for _, k in t.coeff.rational.poles) for t in power.terms) == (n + 1) ** 2
        # its values match the tower's to n = 3 (6.7e-14 of the largest);
        # past that its power-basis numerators, 37 to 65 coefficients with
        # zeros and poles along the imaginary axis, lose precision on the
        # grid: 2.4e-10, 1.5e-6 and 5.9e-3 of the largest at n = 4, 5 and 6
        # (dividing out the poles its merged sums do not have leaves
        # 5.3e-11, 3.7e-8 and 1.6e-4).  As products of values it holds to n = 5.
        if n <= 3:
            _assert_close(tower(pts), power(phi0)(pts))
        if n <= 5:
            product = compose(opaque, product)
            _assert_close(tower(pts), product(phi0)(pts))


@pytest.mark.parametrize("order", [0, 1, 2])
def test_nonrel_tower_jets_equal_separate_steps(order):
    # a differential operator acts on a Laurent sum by the algebra: K+ taken
    # n times, then differentiated `order` times, gives the coefficients of
    # its composed power applied once, to rounding
    _, _, K_plus = nonrel.su11_generators(_NONREL)
    g = polynomial([1.0, 0.0, -0.5, 0.0, 0.25])
    steps, power = g, {(0, 0): 1.0}
    for n in range(1, 5):
        steps, power = _act(K_plus, steps), nonrel.compose(K_plus, power)
        a, b = steps, _act(power, g)
        for _ in range(order):
            a, b = a.derivative(), b.derivative()
        a, b = _powers(a), _powers(b)
        scale = max(map(abs, b.values()))
        assert max(abs(a.get(p, 0) - b.get(p, 0)) for p in {*a, *b}) <= 1e-14 * scale, n


def test_towers_under_another_operator():
    B_minus, B_plus = rel.ladder_B(_REL)
    H = rel.hamiltonian_rel(_REL)
    phi0 = rel.eigenfunction_rel(_REL, 0).wavefunction
    pts = GRID
    tower, chain = _tower(B_plus, phi0, 3), _chain(B_plus, phi0, 3)
    _assert_close(B_minus(tower)(pts), B_minus(chain)(pts))
    _assert_close(H(_tower(B_plus, phi0, 5))(pts), H(_chain(B_plus, phi0, 5))(pts))


def test_tower_on_coincident_points_equals_distinct_and_single_points():
    # points are not merged: a repeated point, and points one shift of H apart
    H = rel.hamiltonian_rel(_REL)
    f = H(rel.ladder_state(_REL, 3).wavefunction)
    pts = np.array([1, 1, 1 + 1j, 1 - 1j, 2.5, 1 + 2j])
    got = f(pts)
    distinct, where = np.unique(pts, return_inverse=True)
    assert np.array_equal(got, f(distinct)[where])
    assert np.array_equal(got, [f(p) for p in pts])
    # fused towers, whose shift sums reach each point from several terms
    pts = np.array([1.0, 1.0, 2.5, 0.5 + 0.1j, 2.5])
    distinct, where = np.unique(pts, return_inverse=True)
    for model in (rel.make_rel_model(0.6, 0.2), _REL):
        _, B_plus = rel.ladder_B(model)
        g = rel.eigenfunction_rel(model, 0).wavefunction
        for n in range(1, 10):
            g = B_plus(g)
            assert np.array_equal(g(pts), g(distinct)[where]), n
            assert np.array_equal(g(pts), [g(p) for p in pts]), n


def _mixed_operator():
    """Terms with a constant and function coefficients, at five shifts."""
    return DifferenceOperator([
        Term(const(0.7 - 0.2j), 0.5j),
        Term(polynomial([0.3, -1.1, 0.4]), -0.5j),
        Term(exp_linear(0.2 + 0.1j), 0.0),
        Term(const(-1.3), 1j),
        Term(gaussian(0.4), 0.25),
    ])


def test_stacked_step_matches_each_term_built_by_hand():
    op = _mixed_operator()
    f = gaussian(0.8) * polynomial([1.0, 0.5, -0.3])
    by_hand = const(0.0)
    for t in op.terms:
        by_hand = by_hand + t.coeff * f.shifted(t.shift)
    pts = GRID[::3] + 0.2j
    _assert_close(op(f)(pts), by_hand(pts), tol=1e-14)
    _assert_close(op(f)(pts[4:5]), by_hand(pts[4:5]), tol=1e-14)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_stacked_tower_matches_separate_steps(k):
    """Towers of depth 2, 3 and 4, fused against unfused."""
    op = _mixed_operator()
    f = gaussian(0.8) * polynomial([1.0, 0.5, -0.3])
    pts = GRID[::3] + 0.2j
    tower, chain = _tower(op, f, 2 + k), _chain(op, f, 2 + k)
    _assert_close(tower(pts), chain(pts), tol=1e-14)
    _assert_close(tower(pts[4:5]), chain(pts[4:5]), tol=1e-14)


def _counting(fn, counts, key):
    def leaf(z):
        counts[key] = counts.get(key, 0) + 1
        return fn(z)
    return from_callable(leaf)


def test_equal_operator_objects_do_not_fuse():
    counts = {}
    op = DifferenceOperator([Term(_counting(np.cos, counts, "coeff"), 1j),
                             Term(const(0.5), -1j)])
    twin = DifferenceOperator(op.terms)
    f = exp_linear(0.3)
    pts = GRID
    fused, unfused = op(op(f)), twin(op(f))
    assert np.array_equal(unfused(pts), fused(pts))
    counts.clear()
    fused(pts)
    assert counts == {"coeff": 1}
    counts.clear()
    unfused(pts)
    assert counts == {"coeff": 2}


def test_operator_without_terms_gives_zero():
    empty = DifferenceOperator([])
    assert empty(empty(gaussian(1.0)))([1.0, 2.0]).tolist() == [0j, 0j]


def test_scaled_tower_is_not_fused():
    _, B_plus = rel.ladder_B(_REL)
    phi0 = rel.eigenfunction_rel(_REL, 0).wavefunction
    pts = GRID
    scaled = B_plus(2.0 * B_plus(phi0))
    _assert_close(scaled(pts), 2.0 * B_plus(B_plus(phi0))(pts), tol=1e-15)


def test_tower_lattice_on_a_pole_raises_like_the_product():
    _, B_plus = rel.ladder_B(_REL)
    phi0 = rel.eigenfunction_rel(_REL, 0).wavefunction
    # 2i - 2i = 0 is on the lattice of B+B+ at 2i: Gamma(i rho) has a pole there
    for z in (2j, [1.0, 2j]):
        with pytest.raises(EvaluationError) as product_error:
            _power(B_plus, 2)(phi0)(z)
        with pytest.raises(product_error.type):
            _tower(B_plus, phi0, 2)(z)


@pytest.mark.parametrize("n", [1, 4, 8])
def test_tower_evaluates_each_leaf_once_per_call(n):
    counts = {}
    op = DifferenceOperator([Term(_counting(np.cos, counts, "coeff"), 1j),
                             Term(const(0.5), -0.5j), Term(polynomial([0.0, 1.0]), 0.0)])
    tower = _tower(op, _counting(np.exp, counts, "base"), n)
    tower(GRID)
    assert counts == {"coeff": 1, "base": 1}
    counts.clear()
    tower(1.5)
    assert counts == {"coeff": 1, "base": 1}


# ---- batches: op(F)(points) for a batched F ---------------------------


def _rel_batch(ns):
    """The rel closed forms phi_n, n in ns, as one batched leaf, and each
    phi_n as its own function."""
    return (rel.eigenfunctions(_REL, ns),
            [rel.eigenfunction_rel(_REL, n).wavefunction for n in ns])


def _batch_equals_calls(op, F, fs, pts, calls=None):
    batch = op(F)(pts)
    assert batch.shape == (len(fs), len(pts))
    assert np.array_equal(batch, np.array(calls or [op(f)(pts) for f in fs]))


def test_values_equal_calls_for_a_commutator():
    B_minus, B_plus = rel.ladder_B(_REL)
    bracket = compose(B_minus, B_plus) - compose(B_plus, B_minus)
    F, fs = _rel_batch([0, 2, 5])
    _batch_equals_calls(bracket, F, fs, GRID)
    _batch_equals_calls(bracket, F, fs, GRID[::5] + 0.3j)


def test_values_equal_calls_for_rel_shift_only_ladder():
    B_minus, B_plus = rel.ladder_B(_REL)
    F, fs = _rel_batch(range(4))
    _batch_equals_calls(B_minus, F, fs, GRID)
    _batch_equals_calls(B_plus, F, fs, GRID)
    _batch_equals_calls(B_plus, F, fs, GRID[::5] + 1j)


def test_a_scaled_batch_scales_each_row():
    _, B_plus = rel.ladder_B(_REL)
    F, fs = _rel_batch(range(4))
    scale = np.array([1.0, -2.0, 0.5j, 3.0])
    assert np.array_equal((scale * F)(GRID)[1], -2.0 * fs[1](GRID))
    _batch_equals_calls(B_plus, scale * F, [c * f for c, f in zip(scale, fs)], GRID)


def test_values_of_no_functions_is_an_empty_batch():
    assert mul_op(coordinate())(nonrel.eigenfunctions(_NONREL, []))(GRID).shape \
        == (0, len(GRID))
    _, B_plus = rel.ladder_B(_REL)
    assert B_plus(rel.eigenfunctions(_REL, []))(GRID).shape == (0, len(GRID))


def _rows(*fns):
    """A batched leaf whose row i is fns[i](z)."""
    return from_callable(lambda z: np.array([fn(z) for fn in fns]))


def test_values_name_the_first_nonfinite_point_of_the_batch():
    op = mul_op(coordinate())
    fns = [np.exp, lambda z: 1.0 / (z - 2.0), np.cos]
    with pytest.raises(EvaluationError, match=r"non-finite value at z = \(2\+0j\)"):
        op(_rows(*fns))([0.5, 1.0, 2.0, 3.0])
    # the first in row order: a later row failing at an earlier point is not named
    fns.append(lambda z: 1.0 / (z - 1.0))
    with pytest.raises(EvaluationError, match=r"non-finite value at z = \(2\+0j\)"):
        op(_rows(*fns))([0.5, 1.0, 2.0, 3.0])


def test_values_evaluate_each_coefficient_once_per_batch():
    counts = {}
    op = DifferenceOperator([Term(_counting(np.cos, counts, "coeff"), 1j),
                             Term(const(0.5), -0.5j)])
    op(nonrel.eigenfunctions(_NONREL, range(5)))(GRID)
    assert counts == {"coeff": 1}


def test_nested_towers_over_a_batch_evaluate_each_block_once(monkeypatch):
    B_minus, B_plus = rel.ladder_B(_REL)
    blocks = []
    coefficients = opcore._Tower.coefficients

    def counting(tower, z):
        blocks.append(tower.op)
        return coefficients(tower, z)

    monkeypatch.setattr(opcore._Tower, "coefficients", counting)
    F = rel.eigenfunctions(_REL, range(4))
    B_minus(B_plus(F))(GRID)
    assert blocks.count(B_plus) == 1 and blocks.count(B_minus) == 1


@pytest.mark.parametrize("n", [1, 3])
def test_a_tower_call_makes_one_coefficient_call(n, monkeypatch):
    # every path: rational coefficients read as one coefficient matrix, and
    # any others stacked; a batched base and a tower under another operator
    rational = rel.ladder_B(_REL)[1]
    mixed = _mixed_operator()
    calls = []
    batch = DifferenceOperator.coefficient_batch.func

    def counting(op):
        rows = batch(op)
        return lambda z: calls.append(op) or rows(z)

    monkeypatch.setattr(DifferenceOperator, "coefficient_batch", property(counting))
    for op, base in ((rational, rel.eigenfunctions(_REL, range(3))), (mixed, gaussian(0.8))):
        tower = _tower(op, base, n)
        for z in (1.5, GRID):
            calls.clear()
            tower(z)
            assert calls == [op]
        calls.clear()
        H = rel.hamiltonian_rel(_REL)
        H(tower)(GRID)
        assert calls == [op, H]  # the base tower first


def test_a_batched_call_at_one_point_keeps_its_row_axis():
    F = nonrel.eigenfunctions(_NONREL, [0, 1, 3, 4])
    fs = [nonrel.eigenfunction(_NONREL, n).wavefunction for n in (0, 1, 3, 4)]
    assert F(0.5).shape == (4,)
    assert F([[0.5, 1.0]]).shape == (4, 1, 2)
    assert F(0.5).tolist() == [f(0.5) for f in fs] == [F[i](0.5) for i in range(4)]
    pts = np.concatenate([GRID, GRID[::5] - 0.7j])
    assert np.array_equal(F[3](pts), fs[3](pts))
    assert np.array_equal(F[1:3](pts), F(pts)[1:3])


# ---- polynomials: exact derivatives -----------------------------------


def _horner_rows(coeffs, z, K):
    """Row k of the jet, sum_j C(j, k) coeffs[j] z^(j-k), each by its own
    Horner sum from its highest coefficient."""
    z = np.asarray(z, dtype=complex)
    out = np.zeros((K + 1, len(z)), dtype=complex)
    for k in range(min(K, len(coeffs) - 1) + 1):
        cs = [math.comb(j, k) * complex(coeffs[j]) for j in range(len(coeffs) - 1, k - 1, -1)]
        acc = np.full(len(z), cs[0])
        for c in cs[1:]:
            acc = acc * z + c
        out[k] = acc
    return out


_POLYNOMIALS = [
    [2.5],
    [0.0, 1.0],
    [1.0, -2.0, 0.5, 3.0, -0.25],
    [0.3 - 1j, 2j, -0.5 + 0.25j, 1.5],
    list(np.random.default_rng(5).uniform(-1.0, 1.0, 13)),
]


@pytest.mark.parametrize("coeffs", _POLYNOMIALS, ids=lambda c: f"degree{len(c) - 1}")
def test_polynomial_jet_equals_a_horner_sum_per_row(coeffs):
    # row k of the Taylor jet, p^(k)/k!, from the exact derivatives of the
    # Laurent sum, against its own Horner sum: equal to the rounding of the
    # terms, rows past the degree exactly 0
    pts = np.concatenate([GRID, GRID[::5] - 0.7j, [-1.25 + 0.5j]])
    rows = _horner_rows(coeffs, pts, len(coeffs) + 1)
    f = polynomial(coeffs)
    for k, row in enumerate(rows):
        size = sum(math.comb(j, k) * abs(complex(c)) * np.abs(pts) ** (j - k)
                   for j, c in enumerate(coeffs) if j >= k)
        assert np.all(np.abs(f(pts) / math.factorial(k) - row) <= 1e-14 * (1.0 + size)), k
        f = f.derivative()
