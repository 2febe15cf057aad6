"""Non-relativistic singular oscillator: algebra, eigenfunctions, oracle."""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from fdosc import nonrel, specfun
from fdosc.errors import CouplingError
from fdosc.opcore import const, default_grid, monomial, polynomial

GRID = default_grid()
MODEL = nonrel.make_model(0.1)


def _laguerre(n, d=MODEL.d):
    """L_n^d(xi^2) as a Laurent sum in xi."""
    c = specfun.laguerre_coefficients(n, d)
    return polynomial([c[j // 2] if j % 2 == 0 else 0.0 for j in range(2 * n + 1)])


def _powers(f):
    """{p: c_p} of a Laurent sum sum_p c_p z^p, c_p != 0, read off its
    numerator over z^k; None for any other function."""
    r = f.rational
    if r is None or any(q != 0 for q, _ in r.poles):
        return None
    k = r.poles[0][1] if r.poles else 0
    return {j - k: complex(c) for j, c in enumerate(r.rows[0]) if c != 0}


def _act(op, g):
    """op g = sum of c xi^p D^m g over the terms of the nonrel operator op,
    by the algebra, through derivative() and products of Laurent sums: the
    reference for the harness's walk over coefficient dicts."""
    out = const(0.0)
    for (m, p), c in op.items():
        h = g
        for _ in range(m):
            h = h.derivative()
        out = out + c * monomial(p) * h
    return out


def _in_gauge(op, g, model=MODEL):
    """psi_0^-1 op psi_0 applied to the Laurent sum g: psi = psi_0 g."""
    return _act(nonrel.gauged(model, op), g)


def _largest_gap(a, b) -> float:
    """max |a_p - b_p| over the powers of either Laurent sum."""
    a, b = _powers(a), _powers(b)
    return max((abs(a.get(p, 0) - b.get(p, 0)) for p in {*a, *b}), default=0.0)


def _assert_same_sum(a, b, tol):
    """a and b agree coefficient by coefficient to tol of b's largest."""
    assert _largest_gap(a, b) <= tol * max(map(abs, _powers(b).values()))


def test_exponent_value():
    # d = sqrt(1 + 0.8)/2
    assert MODEL.d == pytest.approx(0.6708203932499369, abs=1e-15)


def test_coupling_validation():
    with pytest.raises(CouplingError):
        nonrel.make_model(-0.125)
    with pytest.raises(CouplingError):
        nonrel.make_model(-1.0)
    # attractive but above the collapse threshold is fine
    assert nonrel.make_model(-0.1).d == pytest.approx(0.5 * math.sqrt(0.2))
    # 8 g0 overflows above ~2.25e307 (1e308 is rejected)
    assert math.isfinite(nonrel.make_model(2e307).d)


@pytest.mark.parametrize("g0", [math.nan, math.inf, -math.inf, 1e308])
def test_non_finite_coupling_is_rejected(g0):
    with pytest.raises(CouplingError, match="finite"):
        nonrel.make_model(g0)


def test_free_case_reduces_to_plain_oscillator():
    m = nonrel.make_model(0.0)
    assert m.d == 0.5
    assert nonrel.energy(m, 0) == pytest.approx(1.5)  # odd-sector ground level


def test_ground_energy_frozen():
    assert nonrel.energy(MODEL, 0) == pytest.approx(1.6708203932499369, abs=1e-14)


@pytest.mark.parametrize("n", range(6))
def test_eigen_equation(n):
    # psi_n = (c_n/c_0) psi_0 L_n^d(xi^2), so H psi_n = E_n psi_n reads
    # H~ L_n = E_n L_n in the gauge, on coefficients
    L = _laguerre(n)
    _assert_same_sum(_in_gauge(nonrel.hamiltonian(MODEL), L),
                     nonrel.energy(MODEL, n) * L, 1e-13)


@pytest.mark.parametrize("g0", [0.1, -0.1, 5.0])
def test_ground_log_derivative_matches_mpmath(g0):
    model = nonrel.make_model(g0)
    pts = np.concatenate([GRID[::3], GRID[1::8] + 0.3j])
    w = sum(c * pts ** p for (_, p), c in nonrel.ground_log_derivative(model).items())
    with mp.workdps(30):
        p = mp.mpf(model.d) + mp.mpf(0.5)
        want = [complex(mp.diff(lambda x: mp.log(x ** p * mp.exp(-x * x / 2)), mp.mpc(z)))
                for z in pts]
    assert np.max(np.abs(w - want) / np.abs(want)) <= 1e-14


@pytest.mark.parametrize("g0", [-0.1, 1e-12, 0.1, 6e4])
def test_gauged_raising_operator_has_its_closed_form(g0):
    # psi_0^-1 A+ psi_0 = 1/2 D^2 + (p/xi - 2 xi) D + (2 xi^2 - 2p - 1), p = d + 1/2,
    # which uses p(p-1) = 2 g0.  The gauge takes p(p-1) as 2 g0 exactly, so
    # the xi^-2 coefficient left is A+'s own rounding: c 2 g0 - g0, its D^2
    # coefficient c being (1/sqrt(2))^2 = 1/2 - 2^-54.  H, whose D^2
    # coefficient -1/2 is exact, gauges to no xi^-2 term at all
    model = nonrel.make_model(g0)
    A_plus = nonrel.ladder_A(model)[1]
    p = model.d + 0.5
    gauged = {}
    for (m, power), c in nonrel.gauged(model, A_plus).items():
        gauged.setdefault(m, {})[power] = c
    want = {0: {2: 2.0, 0: -2.0 * p - 1.0}, 1: {-1: p, 1: -2.0}, 2: {0: 0.5}}
    assert gauged.keys() == want.keys()
    for order, powers in want.items():
        got = gauged[order]
        assert set(got) - set(powers) <= {-2}
        assert all(abs(got[k] - v) <= 1e-15 * abs(v) for k, v in powers.items()), order
    assert gauged[0].get(-2, 0.0) == A_plus[(2, 0)] * (2.0 * g0) + A_plus[(0, -2)]
    assert (0, -2) not in nonrel.gauged(model, nonrel.hamiltonian(model))


@pytest.mark.parametrize("n", [0, 1, 3])
def test_unit_l2_norm(n):
    wf = nonrel.eigenfunction(MODEL, n).wavefunction
    val, err = quad(lambda x: abs(wf(x)) ** 2, 0.0, 30.0, limit=200)
    assert val == pytest.approx(1.0, abs=1e-8)


def test_wavefunction_boundary_decay():
    wf = nonrel.eigenfunction(MODEL, 2).wavefunction
    assert abs(wf(1e-4)) < 1e-4
    assert abs(wf(12.0)) < 1e-20


def test_factorization_closes():
    c_minus, c_plus = nonrel.ladder_c(MODEL)
    H = nonrel.hamiltonian(MODEL)
    fact = nonrel.added(nonrel.compose(c_plus, c_minus), {(0, 0): MODEL.d + 1.0})
    L = _laguerre(2)
    _assert_same_sum(_in_gauge(fact, L), _in_gauge(H, L), 1e-13)


def test_lowering_forms_agree_and_annihilate_ground():
    form1, form2 = nonrel.lowering_forms(MODEL)
    L = _laguerre(2)
    _assert_same_sum(_in_gauge(form1, L), _in_gauge(form2, L), 1e-13)
    for form in (form1, form2):
        assert _largest_gap(_in_gauge(form, const(1.0)), const(0.0)) < 1e-15


def test_two_step_ladder_shifts_by_two_levels():
    _, A_plus = nonrel.ladder_A(MODEL)
    raised = _in_gauge(A_plus, _laguerre(1))
    _assert_same_sum(_in_gauge(nonrel.hamiltonian(MODEL), raised),
                     (nonrel.energy(MODEL, 1) + 2.0) * raised, 1e-13)


def test_su11_commutation_on_states():
    K0, Km, Kp = nonrel.su11_generators(MODEL)
    L = _laguerre(2)
    bracket = nonrel.added(nonrel.compose(Km, Kp), nonrel.scaled(-1.0, nonrel.compose(Kp, Km)))
    _assert_same_sum(_in_gauge(bracket, L), 2.0 * _in_gauge(K0, L), 1e-13)


# the g0 of the four digest couplings, and three far from them
@pytest.mark.parametrize("g0", [0.1, 0.05, 0.6, 0.2, -0.1, 5.0, 1e3])
def test_compose_equals_one_operator_after_the_other(g0):
    # nonrel.compose(A, B) g against A (B g), each product applied through
    # derivative() and products of Laurent sums, never through compose
    model = nonrel.make_model(g0)
    A_minus, A_plus = nonrel.ladder_A(model)
    _, K_minus, K_plus = nonrel.su11_generators(model)
    ops = [nonrel.hamiltonian(model), *nonrel.ladder_c(model), A_minus, A_plus,
           K_minus, K_plus, {(0, -2): 1.0}]
    g = polynomial([1.0, -0.5, 0.25, 0.0, 2.0]) + 0.75 * monomial(-1)
    images = [_act(B, g) for B in ops]
    for A in ops:
        for B, image in zip(ops, images):
            _assert_same_sum(_act(nonrel.compose(A, B), g), _act(A, image), 1e-14)


def test_matrix_oracle_frozen_ground_value():
    eigs = nonrel.matrix_oracle(MODEL)
    assert eigs[0] == pytest.approx(1.6708203932499369, rel=1e-11)


def test_matrix_oracle_spacing_is_two():
    eigs = nonrel.matrix_oracle(MODEL)
    gaps = np.diff(eigs)
    assert np.all(np.abs(gaps - 2.0) < 1e-11)


# the four digest couplings, the attractive side and the edges of the
# couplings the perfbench verify workload draws
@pytest.mark.parametrize("g0", [0.1, 0.05, 0.6, 0.2, -0.1, -0.12, 0.00434, 1.28, 50.0])
def test_matrix_oracle_agrees_with_the_spectrum(g0):
    model = nonrel.make_model(g0)
    exact = 2.0 * np.arange(5) + 0.5 * math.sqrt(1.0 + 8.0 * g0) + 1.0
    np.testing.assert_allclose(nonrel.matrix_oracle(model), exact, rtol=1e-11, atol=0.0)


# the docstring's declared accuracy where the left end stops at s = -300
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("g0, bound", [(-0.1249, 1e-5), (-0.12499999, 1e-2)])
def test_matrix_oracle_near_the_collapse_threshold(g0, bound):
    model = nonrel.make_model(g0)
    exact = 2.0 * np.arange(5) + model.d + 1.0
    eigs = nonrel.matrix_oracle(model)
    assert np.all(np.isfinite(eigs))
    assert np.max(np.abs(eigs - exact) / exact) < bound


def test_norm_constant_frozen():
    # c_0 = sqrt(2 / Gamma(d+1)) at d = 0.67082...
    assert nonrel.norm_constant(MODEL, 0) == pytest.approx(
        math.sqrt(2.0 / math.gamma(MODEL.d + 1.0)), abs=1e-14)


def test_eigenfunction_rejects_negative_index():
    with pytest.raises(ValueError):
        nonrel.eigenfunction(MODEL, -1)


@pytest.mark.parametrize("g0", [0.1, 0.05, 0.6, 0.2, -0.1])
def test_batched_eigenfunctions_equal_each_level_bit_for_bit(g0):
    model = nonrel.make_model(g0)
    pts = np.concatenate([GRID, GRID[::4] + 0.3j])
    batch = nonrel.eigenfunctions(model, range(13))
    rows = batch(pts)
    assert rows.shape == (13, len(pts))
    for n, row in enumerate(rows):
        assert np.array_equal(row, nonrel.eigenfunction(model, n).wavefunction(pts))
    # any choice and order of levels gives the same rows
    assert np.array_equal(nonrel.eigenfunctions(model, [7, 2])(pts), batch(pts)[[7, 2]])


def test_batched_eigenfunctions_reject_a_negative_index():
    with pytest.raises(ValueError):
        nonrel.eigenfunctions(MODEL, [0, 3, -1])


def test_a_batched_leaf_is_not_iterable():
    # rows are taken lazily, so iterating would never stop at the last one
    batch = nonrel.eigenfunctions(MODEL, [0, 1])
    with pytest.raises(TypeError):
        iter(batch)
    with pytest.raises(TypeError):
        list(batch)


@pytest.mark.parametrize("g0", [0.1, -0.1])
def test_laguerre_rows_match_mpmath_to_level_32(g0):
    # the leaf's L_n^d(xi^2) rows, which the nonrel eigenstate checks no
    # longer evaluate: they read L_n on its coefficients
    d = nonrel.make_model(g0).d
    pts = np.concatenate([GRID[::2], GRID[1::8] + 0.3j])
    rows = nonrel._laguerre_rows(range(33), d)(pts)
    assert rows.shape == (33, len(pts))
    with mp.workdps(30):
        d = mp.mpf(d)
        for n in range(33):
            ref = np.array([complex(mp.laguerre(n, d, mp.mpc(p.real, p.imag) ** 2)) for p in pts])
            assert np.max(np.abs(rows[n] - ref)) <= 1e-12 * np.max(np.abs(ref)), n


def test_levels_past_the_power_basis_match_mpmath():
    # the power basis lost every digit here (max |psi_170| read 1.9e49) and
    # stopped at n = 170; the recurrence has no largest n
    for n in (40, 60, 170, 171):
        vals = nonrel.eigenfunction(MODEL, n).wavefunction(GRID)
        with mp.workdps(30):
            d = mp.mpf(MODEL.d)
            cn = mp.sqrt(2 * mp.factorial(n) / mp.gamma(n + d + 1))
            ref = np.array([float(cn * mp.mpf(x) ** (d + 0.5) * mp.exp(-mp.mpf(x) ** 2 / 2)
                                  * mp.laguerre(n, d, mp.mpf(x) ** 2)) for x in GRID])
        assert np.max(np.abs(vals - ref)) <= 1e-12 * np.max(np.abs(ref)), n


def test_eigenfunctions_use_no_power_basis(monkeypatch):
    def refuse(*args):
        raise AssertionError("laguerre_coefficients called")

    assert not hasattr(nonrel, "laguerre_coefficients")
    monkeypatch.setattr(specfun, "laguerre_coefficients", refuse)
    assert nonrel.eigenfunctions(MODEL, range(9))(GRID).shape == (9, len(GRID))
    assert nonrel.eigenfunctions(MODEL, [])(GRID).shape == (0, len(GRID))
