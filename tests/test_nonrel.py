"""Non-relativistic singular oscillator: algebra, eigenfunctions, oracle."""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from fdosc import nonrel, specfun
from fdosc.errors import CouplingError
from fdosc.opcore import (
    commutator, compose, default_grid, identity_op, mixed_residual,
)

GRID = default_grid()
MODEL = nonrel.make_model(0.1)


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


@pytest.mark.parametrize("g0", [math.nan, math.inf, -math.inf])
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
    H = nonrel.hamiltonian(MODEL)
    st = nonrel.eigenfunction(MODEL, n)
    out = H(st.wavefunction)
    worst = max(abs(out(p) - st.energy * st.wavefunction(p)) for p in GRID)
    assert worst < 1e-10


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
    fact = compose(c_plus, c_minus) + (MODEL.d + 1.0) * identity_op()
    st = nonrel.eigenfunction(MODEL, 2)
    worst = max(abs(fact(st.wavefunction)(p) - H(st.wavefunction)(p)) for p in GRID)
    assert worst < 1e-12


def test_lowering_forms_agree_and_annihilate_ground():
    form1, form2 = nonrel.lowering_forms(MODEL)
    wf0 = nonrel.eigenfunction(MODEL, 0).wavefunction
    assert mixed_residual(form1(wf0)(GRID), form2(wf0)(GRID)) < 1e-12
    assert max(abs(form2(wf0)(p)) for p in GRID) < 1e-13


def test_two_step_ladder_shifts_by_two_levels():
    _, A_plus = nonrel.ladder_A(MODEL)
    H = nonrel.hamiltonian(MODEL)
    st = nonrel.eigenfunction(MODEL, 1)
    raised = A_plus(st.wavefunction)
    out = H(raised)
    worst = max(abs(out(p) - (st.energy + 2.0) * raised(p)) for p in GRID)
    assert worst < 1e-10


def test_su11_commutation_on_states():
    K0, Km, Kp = nonrel.su11_generators(MODEL)
    st = nonrel.eigenfunction(MODEL, 2)
    f = st.wavefunction
    worst = max(abs(commutator(Km, Kp)(f)(p) - 2.0 * K0(f)(p)) for p in GRID)
    assert worst < 1e-10


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
    for K in range(5):
        rows = batch.jet(pts, K)
        assert rows.shape == (13, K + 1, len(pts))
        for n, row in enumerate(rows):
            assert np.array_equal(row, nonrel.eigenfunction(model, n).wavefunction.jet(pts, K))
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
def test_laguerre_jets_match_mpmath_to_level_32(g0):
    # rows f, f' and f''/2 of f(xi) = L_n^d(xi^2), from dL_n^d/dy = -L_(n-1)^(d+1)
    d = nonrel.make_model(g0).d
    pts = np.concatenate([GRID[::2], GRID[1::8] + 0.3j])
    jets = nonrel._laguerre_rows(range(33), d).jet(pts, 2)
    assert jets.shape == (33, 3, len(pts))
    with mp.workdps(30):
        d = mp.mpf(d)
        for n in range(33):
            ref = np.zeros((3, len(pts)), dtype=complex)
            for j, p in enumerate(pts):
                x = mp.mpc(p.real, p.imag)
                y = x * x
                l1 = -mp.laguerre(n - 1, d + 1, y) if n >= 1 else 0
                l2 = mp.laguerre(n - 2, d + 2, y) if n >= 2 else 0
                ref[:, j] = [complex(mp.laguerre(n, d, y)), complex(2 * x * l1),
                             complex(l1 + 2 * y * l2)]
            for order in range(3):
                scale = np.max(np.abs(ref[order]))
                assert np.max(np.abs(jets[n, order] - ref[order])) <= 1e-12 * scale, (n, order)


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
    assert nonrel.eigenfunctions(MODEL, range(9)).jet(GRID, 2).shape == (9, 3, len(GRID))
    assert nonrel.eigenfunctions(MODEL, [])(GRID).shape == (0, len(GRID))
