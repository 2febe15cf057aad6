"""Non-relativistic linear singular oscillator.

Hamiltonian (units hbar*omega, coordinate xi = sqrt(m omega/hbar) x):

    H = -1/2 d^2/dxi^2 + 1/2 xi^2 + g0 / xi^2,   g0 > -1/8,

with exponent d = 1/2 sqrt(1 + 8 g0).  The module builds the ladder
factorization, the su(1,1) generators, the closed-form Laguerre
eigenfunctions and an independent tridiagonal-diagonalization oracle for
the spectrum E_n = 2n + d + 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, CouplingError
from .opcore import (
    AnalyticFunction,
    DifferenceOperator,
    compose,
    const,
    coordinate,
    deriv_op,
    gaussian,
    identity_op,
    monomial,
    mul_op,
    polynomial,
)
from .specfun import laguerre_coefficients

_SQRT2 = math.sqrt(2.0)

# matrix_oracle's (xi_min, xi_max, n_points, n_eigs)
ORACLE_GRID = (1e-3, 20.0, 4000, 5)


@dataclass(frozen=True)
class NonRelModel:
    g0: float
    d: float


@dataclass(frozen=True)
class NonRelEigenState:
    n: int
    energy: float
    wavefunction: AnalyticFunction


def make_model(g0: float) -> NonRelModel:
    g0 = float(g0)
    if not math.isfinite(g0):
        raise CouplingError(f"g0 must be finite, got {g0}")
    if g0 <= -0.125:
        raise CouplingError(f"g0 must exceed -1/8, got {g0}")
    return NonRelModel(g0=g0, d=0.5 * math.sqrt(1.0 + 8.0 * g0))


def hamiltonian(model: NonRelModel) -> DifferenceOperator:
    """-1/2 D^2 + 1/2 xi^2 + g0/xi^2."""
    potential = 0.5 * coordinate() * coordinate() + model.g0 * monomial(-2)
    return -0.5 * deriv_op(2) + mul_op(potential)


def ladder_a() -> tuple[DifferenceOperator, DifferenceOperator]:
    """Plain oscillator ladder pair a-+ = (xi +- D)/sqrt(2)."""
    xi = mul_op(coordinate())
    a_minus = (1.0 / _SQRT2) * (xi + deriv_op())
    a_plus = (1.0 / _SQRT2) * (xi - deriv_op())
    return a_minus, a_plus


def ladder_c(model: NonRelModel) -> tuple[DifferenceOperator, DifferenceOperator]:
    """Singular-oscillator pair c-+ = (xi +- D - (d+1/2)/xi)/sqrt(2)."""
    xi = mul_op(coordinate())
    sing = mul_op((model.d + 0.5) * monomial(-1))
    c_minus = (1.0 / _SQRT2) * (xi + deriv_op() - sing)
    c_plus = (1.0 / _SQRT2) * (xi - deriv_op() - sing)
    return c_minus, c_plus


def lowering_forms(model: NonRelModel) -> tuple[DifferenceOperator, DifferenceOperator]:
    """The two printed closed forms of the lowering operator.

    Form 1: sqrt(2) xi c^- - H + (d+1).
    Form 2: (a^-)^2 - g0/xi^2.
    They agree identically; both are exposed for the cross-check.
    """
    c_minus, _ = ladder_c(model)
    form1 = _SQRT2 * compose(mul_op(coordinate()), c_minus) - hamiltonian(model) \
        + (model.d + 1.0) * identity_op()
    return form1, ladder_A(model)[0]


def ladder_A(model: NonRelModel) -> tuple[DifferenceOperator, DifferenceOperator]:
    """Two-step lowering/raising pair A-+ = (a-+)^2 - g0/xi^2."""
    a_minus, a_plus = ladder_a()
    sing = mul_op(model.g0 * monomial(-2))
    return compose(a_minus, a_minus) - sing, compose(a_plus, a_plus) - sing


def su11_generators(model: NonRelModel):
    """(K0, K-, K+) with K0 = H/2 and K-+ = A-+/2."""
    A_minus, A_plus = ladder_A(model)
    return 0.5 * hamiltonian(model), 0.5 * A_minus, 0.5 * A_plus


def energy(model: NonRelModel, n: int) -> float:
    return 2.0 * n + model.d + 1.0


def norm_constant(model: NonRelModel, n: int) -> float:
    """c_n = sqrt(2 n! / Gamma(n+d+1)), giving unit L2 norm on (0, inf)."""
    return math.sqrt(2.0) * math.exp(
        0.5 * (math.lgamma(n + 1) - math.lgamma(n + model.d + 1))
    )


def eigenfunction(model: NonRelModel, n: int) -> NonRelEigenState:
    """c_n xi^(d+1/2) exp(-xi^2/2) L_n^d(xi^2), with exact derivatives."""
    if n < 0:
        raise ValueError("n must be >= 0")
    cn = norm_constant(model, n)
    lag = laguerre_coefficients(n, model.d)
    # L_n^d(xi^2) as an even polynomial in xi
    even = [0.0] * (2 * n + 1)
    for k, c in enumerate(lag):
        even[2 * k] = c
    wf = const(cn) * monomial(model.d + 0.5) * gaussian(1.0) * polynomial(even)
    return NonRelEigenState(n=n, energy=energy(model, n), wavefunction=wf)


def matrix_oracle(model: NonRelModel) -> np.ndarray:
    """Lowest n_eigs eigenvalues of the tridiagonal discretization, n_eigs
    and its grid fixed by ORACLE_GRID.

    Dirichlet walls exactly at xi_min and xi_max; unknowns at the n_points
    interior nodes of a uniform grid.  Independent of the operator algebra,
    so it adjudicates the spectrum empirically.
    """
    xi_min, xi_max, n_points, n_eigs = ORACLE_GRID
    # scipy.linalg takes ~0.3 s to import; only this oracle needs it
    from scipy.linalg import eigh_tridiagonal

    h = (xi_max - xi_min) / (n_points + 1)
    xi = xi_min + h * np.arange(1, n_points + 1)
    diag = 1.0 / h**2 + 0.5 * xi**2 + model.g0 / xi**2
    off = np.full(n_points - 1, -0.5 / h**2)
    try:
        vals = eigh_tridiagonal(diag, off, select="i",
                                select_range=(0, n_eigs - 1))[0]
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise ConvergenceError(f"tridiagonal eigensolver failed: {exc}") from exc
    return np.sort(vals)
