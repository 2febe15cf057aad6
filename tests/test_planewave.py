"""Plane waves and the free symmetric-shift Hamiltonian."""

import math

import numpy as np
import pytest

from fdosc import planewave
from fdosc.opcore import default_grid, mixed_residual

GRID = default_grid()


@pytest.mark.parametrize("chi", [0.0, 0.5, -0.5, 1.0, 2.3])
def test_plane_wave_is_cosh_eigenfunction(chi):
    H0 = planewave.free_hamiltonian()
    wave = planewave.plane_wave(chi)
    out = H0(wave)
    worst = max(abs(out(p) - math.cosh(chi) * wave(p)) for p in GRID)
    assert worst < 1e-13


@pytest.mark.parametrize("chi", [0.0, 0.7, -1.2])
def test_power_form_equals_exponential_form(chi):
    assert mixed_residual(planewave.plane_wave(chi)(GRID),
                          planewave.plane_wave_power_form(chi)(GRID)) < 1e-13


def test_mass_shell():
    for chi in np.linspace(-3.0, 3.0, 61):
        st = planewave.make_state(chi)
        assert st.p0 ** 2 - st.p ** 2 == pytest.approx(1.0, abs=1e-13)


def test_state_fields():
    st = planewave.make_state(0.5)
    assert st.chi == 0.5
    assert st.p == pytest.approx(math.sinh(0.5))
    assert st.p0 == pytest.approx(math.cosh(0.5))
    assert st.energy == st.p0


def test_energy_at_rest_is_rest_energy():
    assert planewave.make_state(0.0).energy == 1.0
