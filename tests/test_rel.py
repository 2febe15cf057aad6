"""Relativistic singular oscillator: parameters, spectrum, ladder algebra."""

import math

import mpmath as mp
import numpy as np
import pytest

from fdosc import rel, specfun
from fdosc.errors import CouplingError
from fdosc.opcore import default_grid, grid_ratio

GRID = default_grid()
MODEL = rel.make_rel_model(0.5, 0.1)


def test_exponents_frozen():
    assert MODEL.alpha == pytest.approx(1.179077033921902, abs=1e-14)
    assert MODEL.nu == pytest.approx(2.5096901208892457, abs=1e-14)


def test_exponent_identities():
    # the pair of constraints that make the factorization close
    a, nu, w0, g0 = MODEL.alpha, MODEL.nu, MODEL.omega0, MODEL.g0
    assert a * (a - 1.0) + nu * (nu - 1.0) == pytest.approx(1.0 / w0**2, rel=1e-13)
    assert a * (a - 1.0) * nu * (nu - 1.0) == pytest.approx(
        2.0 * g0 / w0**2, rel=1e-13)


def test_ground_energy_frozen():
    assert rel.energy(MODEL, 0) == pytest.approx(1.8443835774055741, abs=1e-13)
    assert rel.energy(MODEL, 3) == pytest.approx(1.8443835774055741 + 3.0,
                                                 abs=1e-12)


def test_coupling_validation():
    with pytest.raises(CouplingError):
        rel.make_rel_model(0.0, 0.1)
    with pytest.raises(CouplingError):
        rel.make_rel_model(-0.5, 0.1)
    with pytest.raises(CouplingError):
        rel.make_rel_model(0.5, 0.0)
    with pytest.raises(CouplingError):
        rel.make_rel_model(0.5, -0.1)
    with pytest.raises(CouplingError):
        rel.make_rel_model(0.5, 0.6)  # 8 g0 omega0^2 > 1


@pytest.mark.parametrize("omega0, g0", [(math.nan, 0.1), (0.5, math.nan), (math.inf, 0.1),
                                        (0.5, math.inf), (-math.inf, 0.1)])
def test_non_finite_couplings_are_rejected(omega0, g0):
    # every comparison with NaN is false, so the range checks alone let it through
    with pytest.raises(CouplingError, match="finite"):
        rel.make_rel_model(omega0, g0)


def test_omega0_floor():
    # at the floor alpha and nu are finite; one ulp below, 4/omega0^2 overflows
    m = rel.make_rel_model(rel.OMEGA0_FLOOR, 0.1)
    assert math.isfinite(m.alpha) and math.isfinite(m.nu)
    for omega0 in (math.nextafter(rel.OMEGA0_FLOOR, 0.0), 1e-154, 1e-200):
        with pytest.raises(CouplingError, match="below the floor 1.492e-154"):
            rel.make_rel_model(omega0, 0.1)


def test_boundary_coupling_admitted():
    # 8 g0 omega0^2 = 1 exactly: exponents stay real and coincide in root
    m = rel.make_rel_model(0.5, 0.5)
    assert m.alpha == pytest.approx(m.nu, rel=1e-12)
    assert rel.energy(m, 0) > 1.0


@pytest.mark.parametrize("n", range(5))
def test_eigen_equation(n):
    H = rel.hamiltonian_rel(MODEL)
    st = rel.eigenfunction_rel(MODEL, n)
    out = H(st.wavefunction)
    worst = max(abs(out(p) - st.energy_mc2 * st.wavefunction(p))
                / (1.0 + abs(st.energy_mc2 * st.wavefunction(p))) for p in GRID)
    assert worst < 1e-10


def test_wavefunction_evaluable_at_operator_shift_points():
    wf = rel.eigenfunction_rel(MODEL, 2).wavefunction
    for p in (0.5, 2.0, 7.0):
        for shift in (0.0, 0.5j, -0.5j, 1j):
            val = wf(p + shift)
            assert np.isfinite(val.real) and np.isfinite(val.imag)


def test_half_shift_pair_annihilates_ground():
    b_minus, _ = rel.ladder_b(MODEL)
    wf0 = rel.eigenfunction_rel(MODEL, 0).wavefunction
    scale = max(abs(wf0(p)) for p in GRID)
    assert max(abs(b_minus(wf0)(p)) for p in GRID) / scale < 1e-12


def test_two_step_raising_maps_to_next_state():
    _, B_plus = rel.ladder_B(MODEL)
    for n in range(3):
        st = rel.eigenfunction_rel(MODEL, n)
        nxt = rel.eigenfunction_rel(MODEL, n + 1)
        ratio, spread = grid_ratio(B_plus(st.wavefunction), nxt.wavefunction, GRID)
        assert spread < 1e-10
        # in this normalization the raising map is exactly -1
        assert ratio == pytest.approx(-1.0, abs=1e-10)


def test_printed_two_step_variant_differs_by_known_scalar():
    Bm, _ = rel.ladder_B(MODEL)
    Bm_printed, _ = rel.ladder_B_printed(MODEL)
    wf = rel.eigenfunction_rel(MODEL, 1).wavefunction
    offset = 0.5 / MODEL.omega0
    worst = max(abs(Bm(wf)(p) - Bm_printed(wf)(p) - offset * wf(p)) for p in GRID)
    assert worst < 1e-10 * max(abs(wf(p)) for p in GRID)


def test_spectral_weight_positive_on_spectrum():
    for n in range(8):
        assert rel.spectral_f(MODEL, rel.energy(MODEL, n)) > 0.0
    # closed form: f(E_n) = 4 omega0^2 (n+alpha-1/2)(n+nu-1/2)
    a, nu, w0 = MODEL.alpha, MODEL.nu, MODEL.omega0
    for n in range(4):
        assert rel.spectral_f(MODEL, rel.energy(MODEL, n)) == pytest.approx(
            4.0 * w0**2 * (n + a - 0.5) * (n + nu - 0.5), rel=1e-12)


def test_ladder_state_proportional_to_closed_form():
    st = rel.ladder_state(MODEL, 2)
    ref = rel.eigenfunction_rel(MODEL, 2)
    _, spread = grid_ratio(st.wavefunction, ref.wavefunction, GRID)
    assert spread < 1e-10


def test_nonrel_limit_deviation_shrinks():
    devs = rel.nonrel_limit(0.1, [1e-2, 5e-3, 2.5e-3])
    assert devs[0] > devs[1] > devs[2]
    assert devs[0] / devs[1] == pytest.approx(2.0, rel=0.05)


def test_nonrel_limit_against_mpmath():
    # the exact deviation |alpha + nu - 1/omega0 - (d + 1)| at 50 digits
    omegas = [1e-2, 1e-4, 1e-6, 1e-8]
    with mp.workdps(50):
        g0 = mp.mpf(0.1)
        d = mp.sqrt(1 + 8 * g0) / 2
        refs = []
        for w in map(mp.mpf, omegas):
            r = mp.sqrt(1 - 8 * g0 * w * w)
            alpha = (1 + mp.sqrt(1 + 2 / w**2 * (1 - r))) / 2
            nu = (1 + mp.sqrt(1 + 2 / w**2 * (1 + r))) / 2
            refs.append(float(abs(alpha + nu - 1 / w - (d + 1))))
    for dev, ref in zip(rel.nonrel_limit(0.1, omegas), refs):
        assert abs(dev - ref) <= 1e-12 * ref
    # the leading term omega0 (1 - 8 g0)/8
    assert refs[-1] / omegas[-1] == pytest.approx(0.025, rel=1e-6)


@pytest.mark.parametrize("omega0_sequence", [[], [1e-2]])
def test_nonrel_limit_rejects_g0_outside_domain(omega0_sequence):
    # a CouplingError, not the math domain error of sqrt(1 + 8 g0)
    with pytest.raises(CouplingError):
        rel.nonrel_limit(-0.2, omega0_sequence)


def test_eigenfunction_rejects_negative_index():
    with pytest.raises(ValueError):
        rel.eigenfunction_rel(MODEL, -1)


@pytest.mark.parametrize("n", [0, 5, 12])
def test_eigenfunction_array_equals_pointwise(n):
    # the grid and its shifts by +-i, +-2i, evaluated in one call
    pts = np.concatenate([GRID + s for s in (0.0, 1j, -1j, 2j, -2j)])
    wf = rel.eigenfunction_rel(MODEL, n).wavefunction
    values = wf(pts)
    pointwise = np.array([wf(p) for p in pts])
    assert np.max(np.abs(values - pointwise)) <= 1e-14 * np.max(np.abs(pointwise))


# ---- the batched eigenfunction leaf -------------------------------------


@pytest.mark.parametrize("shift", [0.0, 1j, -1j, 2j, -2j])
def test_eigenfunction_rows_equal_the_scalar_leaf_bit_for_bit(shift):
    pts = GRID + shift
    family = rel.eigenfunctions(MODEL, range(13))(pts)
    assert family.shape == (13, len(GRID))
    for n, row in enumerate(family):
        assert row.tobytes() == rel.eigenfunction_rel(MODEL, n).wavefunction(pts).tobytes()


def _closed_form(model, n, z):
    """phi_n at the points z, with the operations and the order of the
    leaf's definition: one log_gamma call on the stacked arguments, then the
    prefactor times the dual Hahn sum."""
    a, nu = model.alpha, model.nu
    iz = 1j * z
    lg_a, lg_0, lg_nu = specfun.log_gamma(np.stack((a + iz, iz, nu + iz)))
    prefactor = np.exp(1j * math.pi * a / 2.0 + lg_a - lg_0 + iz * math.log(model.omega0)
                       + lg_nu)
    return prefactor * specfun.cdhahn_complex(n, z, a, nu, 0.5)


@pytest.mark.parametrize("couplings", [(0.5, 0.1), (0.9, 0.05), (0.35, 0.6), (0.6, 0.2)])
def test_eigenfunctions_keep_the_closed_form_floats(couplings):
    # the rel tables are digested byte by byte: the rows and the one-row
    # leaf give the closed form's own floats, on the grid and at each point
    model = rel.make_rel_model(*couplings)
    pts = np.concatenate([GRID, GRID[::4] + 1j, GRID[::4] - 2j])
    family = rel.eigenfunctions(model, range(13))(pts)
    for n in range(13):
        want = _closed_form(model, n, pts)
        assert family[n].tobytes() == want.tobytes()
        wf = rel.eigenfunction_rel(model, n).wavefunction
        for p in pts[::5]:
            assert wf(p) == complex(_closed_form(model, n, np.array([p]))[0])


def test_eigenfunction_family_makes_one_log_gamma_call(monkeypatch):
    calls = []
    log_gamma = rel.log_gamma

    def counting(z):
        calls.append(np.shape(z))
        return log_gamma(z)

    monkeypatch.setattr(rel, "log_gamma", counting)
    rel.eigenfunctions(MODEL, range(9))(GRID)
    assert calls == [(3, len(GRID))]


def test_eigenfunction_family_rejects_negative_degrees():
    with pytest.raises(ValueError):
        rel.eigenfunctions(MODEL, [0, -1])
    assert rel.eigenfunctions(MODEL, [])(GRID).shape == (0, len(GRID))
