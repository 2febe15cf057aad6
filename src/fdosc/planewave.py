"""One-dimensional relativistic plane waves and the free shift Hamiltonian.

Units: energies in mc^2, momenta in mc, coordinate rho = x / (hbar/mc).
A plane wave of rapidity chi is exp(i rho chi); the free Hamiltonian is
the symmetric unit shift cosh(i d/drho), whose eigenvalue on that wave is
cosh(chi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .opcore import AnalyticFunction, DifferenceOperator, exp_linear, from_callable, shift_op


@dataclass(frozen=True)
class PlaneWaveState:
    chi: float
    p: float
    p0: float
    energy: float


def make_state(chi: float) -> PlaneWaveState:
    chi = float(chi)
    p0 = math.cosh(chi)
    return PlaneWaveState(chi=chi, p=math.sinh(chi), p0=p0, energy=p0)


def plane_wave(chi: float) -> AnalyticFunction:
    """exp(i rho chi)."""
    return exp_linear(1j * float(chi))


def plane_wave_power_form(chi: float) -> AnalyticFunction:
    """((p0 - p)/mc)^(-i rho), the power form of the same wave.

    Since p0 - p = exp(-chi), this equals exp(i rho chi) identically; both
    forms are exposed so the equality can be asserted numerically.
    """
    base = math.cosh(chi) - math.sinh(chi)
    log_base = math.log(base)
    return from_callable(lambda z: np.exp(-1j * z * log_base))


def free_hamiltonian() -> DifferenceOperator:
    """cosh(i d/drho) = (shift(+i) + shift(-i)) / 2, in units mc^2."""
    return 0.5 * (shift_op(1j) + shift_op(-1j))
