"""Function/operator algebra: shifts act exactly, composition is associative."""

import math

import mpmath as mp
import numpy as np
import pytest

from fdosc import nonrel, opcore, rel
from fdosc.errors import EvaluationError
from fdosc.opcore import (
    DifferenceOperator,
    Term,
    compose,
    const,
    coordinate,
    default_grid,
    deriv_op,
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
    assert mixed_residual(op(f)(GRID), identity_op()(f)(GRID)) < 1e-15


def test_composition_is_associative():
    A = mul_op(coordinate()) + shift_op(0.5j)
    B = deriv_op() - 2.0 * identity_op()
    C = shift_op(-1j) + mul_op(monomial(2))
    f = gaussian(1.0) * polynomial([0.3, -1.0, 0.7])
    lhs = compose(compose(A, B), C)
    rhs = compose(A, compose(B, C))
    assert mixed_residual(lhs(f)(GRID), rhs(f)(GRID)) < 1e-13


def test_composition_order_matters():
    # [d/dz, z] = 1
    z_op = mul_op(coordinate())
    f = gaussian(1.0)
    lhs, rhs = compose(deriv_op(), z_op) - compose(z_op, deriv_op()), identity_op()
    assert mixed_residual(lhs(f)(GRID), rhs(f)(GRID)) < 1e-14


def test_commutator_antisymmetry():
    A = mul_op(monomial(2)) + shift_op(1j)
    B = deriv_op() + mul_op(coordinate())
    f = gaussian(0.7) * polynomial([1.0, 0.5])
    lhs, rhs = compose(A, B) - compose(B, A), -1.0 * (compose(B, A) - compose(A, B))
    assert mixed_residual(lhs(f)(GRID), rhs(f)(GRID)) < 1e-13


def test_leibniz_in_composition():
    # d/dz (z^2 f) = 2 z f + z^2 f'
    lhs = compose(deriv_op(), mul_op(monomial(2)))
    rhs = mul_op(2.0 * coordinate()) + compose(mul_op(monomial(2)), deriv_op())
    f = gaussian(1.2)
    assert mixed_residual(lhs(f)(GRID), rhs(f)(GRID)) < 1e-13


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
    pts = GRID
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
    assert (c + const(3.0)).value == 5.0 - 1.0j
    assert (c + -1.0).value == 1.0 - 1.0j
    assert (-c).value == -2.0 + 1.0j
    assert (3.0 * c).value == (c * const(3.0)).value == 6.0 - 3.0j
    assert c.shifted(1j) is c
    assert c.derivative().value == 0.0
    assert coordinate().value is None
    # operator coefficients stay constants through merging and composition
    op = compose(shift_op(0.5j), 2.0 * shift_op(-0.5j)) + identity_op()
    assert [t.coeff.value for t in op.terms] == [3.0]


def test_folded_constants_give_the_jets_they_replace():
    # polynomial([c]) is the same constant without the fold
    c, c_plain = const(2.0 - 1.0j), polynomial([2.0 - 1.0j])
    f = gaussian(0.8) * polynomial([1.0, 2.0, -0.5])
    z = GRID + 0.3j
    for folded, plain in ((c * f, c_plain * f), (f * c, f * c_plain),
                          (f + c, f + c_plain), (c + -f, c_plain + -f)):
        assert folded.value is None
        assert np.array_equal(folded.jet(z, 3), plain.jet(z, 3))
    folded_op = 2.0 * shift_op(1j) + mul_op(c) + deriv_op()
    plain_op = compose(mul_op(polynomial([2.0])), shift_op(1j)) + mul_op(c_plain) + deriv_op()
    assert np.array_equal(folded_op(f).jet(z, 2), plain_op(f).jet(z, 2))


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


def test_rel_tower_equals_composed_power():
    _, B_plus = rel.ladder_B(_REL)
    phi0 = rel.eigenfunction_rel(_REL, 0).wavefunction
    pts = GRID[::3]
    product = identity_op()
    for n in range(1, 7):
        tower, chain = _tower(B_plus, phi0, n), _chain(B_plus, phi0, n)
        _assert_close(tower(pts), chain(pts))
        _assert_close([tower(p) for p in pts[::4]], chain(pts[::4]))
        # the coefficient trees of compose grow as 5^n: n = 6 takes ~1 s
        if n <= 5:
            product = compose(B_plus, product)
            _assert_close(tower(pts), product(phi0)(pts))


@pytest.mark.parametrize("order", [0, 1, 2])
def test_nonrel_tower_jets_equal_separate_steps(order):
    _, _, K_plus = nonrel.su11_generators(_NONREL)
    psi0 = nonrel.eigenfunction(_NONREL, 0).wavefunction
    pts = GRID[::2] + 0.1j
    for n in range(1, 5):
        tower, chain, product = (_tower(K_plus, psi0, n), _chain(K_plus, psi0, n),
                                 _power(K_plus, n)(psi0))
        for _ in range(order):
            tower, chain, product = tower.derivative(), chain.derivative(), product.derivative()
        _assert_close(tower(pts), chain(pts))
        _assert_close(tower(pts[3]), chain(pts[3]))
        _assert_close(tower.jet(pts, 2), chain.jet(pts, 2))
        # compose expands K+^n into coefficients that cancel: against the
        # separate steps it is off by up to 1.6e-11 normwise at n = 4, order 2
        _assert_close(tower(pts), product(pts), tol=1e-13 if n < 3 else 1e-10)


def test_towers_under_another_operator():
    K0, K_minus, K_plus = nonrel.su11_generators(_NONREL)
    psi0 = nonrel.eigenfunction(_NONREL, 0).wavefunction
    pts = GRID
    tower, chain = _tower(K_plus, psi0, 3), _chain(K_plus, psi0, 3)
    _assert_close(K_minus(tower)(pts), K_minus(chain)(pts))
    _assert_close(K0(tower).derivative()(pts), K0(chain).derivative()(pts))
    _, B_plus = rel.ladder_B(_REL)
    H = rel.hamiltonian_rel(_REL)
    phi0 = rel.eigenfunction_rel(_REL, 0).wavefunction
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
    # a tower whose terms share one shift and differ in derivative order
    _, _, K_plus = nonrel.su11_generators(_NONREL)
    g = _tower(K_plus, nonrel.eigenfunction(_NONREL, 0).wavefunction, 3)
    pts = np.array([1.0, 1.0, 2.5, 0.5 + 0.1j, 2.5])
    distinct, where = np.unique(pts, return_inverse=True)
    assert np.array_equal(g(pts), g(distinct)[where])
    _assert_close(g(pts), [g(p) for p in pts], tol=1e-15)


def _mixed_operator():
    """Terms with a constant and function coefficients, derivative orders 0, 1, 2."""
    return DifferenceOperator([
        Term(const(0.7 - 0.2j), 0.5j, 0),
        Term(polynomial([0.3, -1.1, 0.4]), -0.5j, 1),
        Term(exp_linear(0.2 + 0.1j), 0.0, 2),
        Term(const(-1.3), 1j, 2),
        Term(gaussian(0.4), 0.25, 1),
    ])


def test_stacked_step_matches_each_term_built_by_hand():
    op = _mixed_operator()
    f = gaussian(0.8) * polynomial([1.0, 0.5, -0.3])
    by_hand = const(0.0)
    for t in op.terms:
        g = f
        for _ in range(t.dorder):
            g = g.derivative()
        by_hand = by_hand + t.coeff * g.shifted(t.shift)
    pts = GRID[::3] + 0.2j
    for K in range(3):
        _assert_close(op(f).jet(pts, K), by_hand.jet(pts, K), tol=1e-14)
        _assert_close(op(f).jet(pts[4:5], K), by_hand.jet(pts[4:5], K), tol=1e-14)


@pytest.mark.parametrize("K", [0, 1, 2])
def test_stacked_tower_matches_separate_steps(K):
    op = _mixed_operator()
    f = gaussian(0.8) * polynomial([1.0, 0.5, -0.3])
    pts = GRID[::3] + 0.2j
    tower, chain = _tower(op, f, 3), _chain(op, f, 3)
    _assert_close(tower.jet(pts, K), chain.jet(pts, K), tol=1e-14)
    _assert_close(tower.jet(pts[4:5], K), chain.jet(pts[4:5], K), tol=1e-14)


def _counting(fn, counts, key):
    def leaf(z):
        counts[key] = counts.get(key, 0) + 1
        return fn(z)
    return from_callable(leaf, note=key)


def test_equal_operator_objects_do_not_fuse():
    counts = {}
    op = DifferenceOperator([Term(_counting(np.cos, counts, "coeff"), 1j, 0),
                             Term(const(0.5), -1j, 0)])
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


def test_callable_coefficient_in_tower_needs_no_derivative_until_asked():
    op = mul_op(from_callable(np.cos, note="cos")) + deriv_op()
    f = gaussian(0.8)
    assert op(f)(0.7) == pytest.approx(math.cos(0.7) * f(0.7) + f.derivative()(0.7))
    # a second application differentiates the coefficient of the first
    with pytest.raises(EvaluationError):
        op(op(f))(0.7)
    with pytest.raises(EvaluationError):
        op(op(f))([0.7, 1.2])


@pytest.mark.parametrize("n", [1, 4, 8])
def test_tower_evaluates_each_leaf_once_per_call(n):
    counts = {}
    op = DifferenceOperator([Term(_counting(np.cos, counts, "coeff"), 1j, 0),
                             Term(const(0.5), -0.5j, 0), Term(polynomial([0.0, 1.0]), 0.0, 0)])
    tower = _tower(op, _counting(np.exp, counts, "base"), n)
    tower(GRID)
    assert counts == {"coeff": 1, "base": 1}
    counts.clear()
    tower(1.5)
    assert counts == {"coeff": 1, "base": 1}


# ---- batches: op(F)(points) for a batched F ---------------------------


def _nonrel_batch(ns):
    """The nonrel closed forms psi_n, n in ns, as one batched leaf with
    derivative jets, and each psi_n as its own function."""
    return (nonrel.eigenfunctions(_NONREL, ns),
            [nonrel.eigenfunction(_NONREL, n).wavefunction for n in ns])


def _batch_equals_calls(op, F, fs, pts, calls=None):
    batch = op(F)(pts)
    assert batch.shape == (len(fs), len(pts))
    assert np.array_equal(batch, np.array(calls or [op(f)(pts) for f in fs]))


def test_values_equal_calls_for_a_commutator_with_derivatives():
    _, Km, Kp = nonrel.su11_generators(_NONREL)
    bracket = compose(Km, Kp) - compose(Kp, Km)
    F, fs = _nonrel_batch([0, 2, 5])
    _batch_equals_calls(bracket, F, fs, GRID)
    # a jet deeper than a value call, row by row as well
    for row, f in zip(bracket(F).jet(GRID, 2), fs):
        assert np.array_equal(row, bracket(f).jet(GRID, 2))


def test_values_equal_calls_for_rel_shift_only_ladder():
    B_minus, B_plus = rel.ladder_B(_REL)
    F = rel.eigenfunctions(_REL, range(4))
    fs = [rel.eigenfunction_rel(_REL, n).wavefunction for n in range(4)]
    _batch_equals_calls(B_minus, F, fs, GRID)
    _batch_equals_calls(B_plus, F, fs, GRID)
    _batch_equals_calls(B_plus, F, fs, GRID[::5] + 1j)


def test_a_scaled_batch_scales_each_row():
    _, B_plus = rel.ladder_B(_REL)
    F = rel.eigenfunctions(_REL, range(4))
    fs = [rel.eigenfunction_rel(_REL, n).wavefunction for n in range(4)]
    scale = np.array([1.0, -2.0, 0.5j, 3.0])
    assert np.array_equal((scale * F)(GRID)[1], -2.0 * fs[1](GRID))
    _batch_equals_calls(B_plus, scale * F, [c * f for c, f in zip(scale, fs)], GRID)


def test_values_of_no_functions_is_an_empty_batch():
    assert deriv_op()(nonrel.eigenfunctions(_NONREL, []))(GRID).shape == (0, len(GRID))
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
    op = DifferenceOperator([Term(_counting(np.cos, counts, "coeff"), 1j, 0),
                             Term(const(0.5), -0.5j, 1)])
    op(nonrel.eigenfunctions(_NONREL, range(5)))(GRID)
    assert counts == {"coeff": 1}


def test_nested_towers_over_a_batch_evaluate_each_block_once(monkeypatch):
    B_minus, B_plus = rel.ladder_B(_REL)
    blocks = []
    coefficients = opcore._Tower.coefficients

    def counting(tower, z, rows):
        blocks.append(tower.op)
        return coefficients(tower, z, rows)

    monkeypatch.setattr(opcore._Tower, "coefficients", counting)
    F = rel.eigenfunctions(_REL, range(4))
    B_minus(B_plus(F))(GRID)
    assert blocks.count(B_plus) == 1 and blocks.count(B_minus) == 1


def test_a_batched_call_at_one_point_keeps_its_row_axis():
    F, fs = _nonrel_batch([0, 1, 3, 4])
    assert F(0.5).shape == (4,)
    assert F([[0.5, 1.0]]).shape == (4, 1, 2)
    assert F(0.5).tolist() == [f(0.5) for f in fs] == [F[i](0.5) for i in range(4)]
    pts = np.concatenate([GRID, GRID[::5] - 0.7j])
    assert np.array_equal(F[3](pts), fs[3](pts))
    assert np.array_equal(F[1:3].jet(pts, 2), F.jet(pts, 2)[1:3])


# ---- polynomials: every coefficient row in one Horner pass -------------


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
    pts = np.concatenate([GRID, GRID[::5] - 0.7j, [-1.25 + 0.5j]])
    for K in range(len(coeffs) + 2):
        assert np.array_equal(polynomial(coeffs).jet(pts, K), _horner_rows(coeffs, pts, K))


# ---- powers: every level of a tower from one pass ----------------------


def test_powers_equal_separate_towers_bit_for_bit():
    model = rel.make_rel_model(0.6, 0.2)
    _, B_plus = rel.ladder_B(model)
    phi0 = rel.eigenfunction_rel(model, 0).wavefunction
    levels = opcore.powers(B_plus, phi0, 15)(GRID)
    assert levels.shape == (16, len(GRID))
    for n, row in enumerate(levels):
        assert np.array_equal(row, _tower(B_plus, phi0, n)(GRID)), n


@pytest.mark.parametrize("K", [0, 1, 2])
def test_powers_carry_every_jet_row_bit_for_bit(K):
    _, _, K_plus = nonrel.su11_generators(_NONREL)
    psi0 = nonrel.eigenfunction(_NONREL, 0).wavefunction
    pts = np.concatenate([GRID, GRID[::3] + 0.1j])
    levels = opcore.powers(K_plus, psi0, 8).jet(pts, K)
    assert levels.shape == (9, K + 1, len(pts))
    for n, row in enumerate(levels):
        assert np.array_equal(row, _tower(K_plus, psi0, n).jet(pts, K)), n


def test_powers_of_a_batched_base_and_of_a_tower():
    _, _, K_plus = nonrel.su11_generators(_NONREL)
    base = nonrel.eigenfunctions(_NONREL, [0, 2, 5])
    levels = opcore.powers(K_plus, base, 4)(GRID)
    assert levels.shape == (5, 3, len(GRID))
    for n, rows in enumerate(levels):
        assert np.array_equal(rows, _tower(K_plus, base, n)(GRID)), n
    # a tower of the operator as the base fuses: its level k is op^(k+2) f
    psi0 = nonrel.eigenfunction(_NONREL, 0).wavefunction
    fused = opcore.powers(K_plus, _tower(K_plus, psi0, 2), 3)(GRID)
    assert np.array_equal(fused, opcore.powers(K_plus, psi0, 5)(GRID)[2:])


def test_powers_need_a_zero_shift_term_and_one_step():
    with pytest.raises(ValueError, match="shift 0"):
        opcore.powers(shift_op(1j), gaussian(1.0), 3)
    with pytest.raises(ValueError, match="p must be >= 1"):
        opcore.powers(identity_op(), gaussian(1.0), 0)
