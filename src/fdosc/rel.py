"""Relativistic linear singular oscillator as a finite-difference model.

Units: H in mc^2, P in mc, coordinate rho = x/(hbar/mc).  With
omega0 = hbar*omega/mc^2 and g0 = m*g/hbar^2 the Hamiltonian is

    H = cosh(i d/drho) + [ omega0^2/2 * rho(rho+i) + g0/(rho(rho+i)) ] e^{i d/drho},

rho(rho+i) the generalized second-degree power.  The module builds the
half-shift factorization pair b-+, the two-step ladder pair B-+, the
generalized momentum, the spectral weight f(E) of the su(1,1) construction
and the continuous dual Hahn eigenfunctions.  The su(1,1) generators act on
the eigenbasis only: K-+ = B-+ / sqrt(f(E)), f at the eigenvalue the
operator ordering dictates, and K0 = H/(2 omega0), so [K0, K-+] = -+K-+
follows from [H, B-+] = -+2 omega0 B-+ as operators; f(E_n) = 4 omega0^2
(n + alpha - 1/2)(n + nu - 1/2) > 0 since alpha, nu >= 1.  Every operator
coefficient is a rational function in opcore's canonical form, its poles on
the lattice (i/2)Z; only the eigenfunction leaves are callables.  No inner
product is specified, so every "conjugate" operator is built from its
printed closed form, and every ladder coefficient is measured as a ratio
between eigenstates.

phi_n(rho) = P(rho) S_n(rho^2; alpha, nu, 1/2), one gamma prefactor P for
every n (Koekoek, Lesky & Swarttouw, sec. 9.3).  P(rho + i)/P(rho) is
rational (``step_ratio``), so ``gauged(model, op)`` = P^-1 op P of an
operator with whole shifts, such as H and B-+, has rational coefficients
and maps polynomials to rational functions: the harness reads the
eigenstate identities on the coefficients of S_n (Turbiner, Commun. Math.
Phys. 118 (1988) 467, for the same gauge in the nonrel model).
``eigenfunctions(model, ns)`` is one batched leaf: a call evaluates P once,
with one log_gamma call, and every S_n row in one pass of the dual Hahn
recurrence; ``eigenfunction_rel(model, n)`` is its row for [n].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import nonrel
from .errors import CouplingError
from .opcore import (
    AnalyticFunction,
    DifferenceOperator,
    Term,
    compose,
    coordinate,
    from_callable,
    monomial,
    mul_op,
    polynomial,
    shift_op,
)
from .specfun import cdhahn_rows, log_gamma, pochhammer

_SQRT2 = math.sqrt(2.0)

# Least omega0 at which nu's radicand 1 + 2(1 + r)/omega0^2 <= 1 + 4/omega0^2
# stays finite; below it alpha and nu become nan or inf.
OMEGA0_FLOOR = 2.0 / math.sqrt(np.finfo(float).max)  # 1.49e-154


@dataclass(frozen=True)
class RelModel:
    omega0: float
    g0: float
    alpha: float
    nu: float
    alpha_m1: float  # alpha - 1, to a few ulps however near 1 alpha is
    nu_m1: float  # nu - 1, likewise


@dataclass(frozen=True)
class RelEigenState:
    n: int
    energy_mc2: float
    wavefunction: AnalyticFunction


def make_rel_model(omega0: float, g0: float) -> RelModel:
    omega0 = float(omega0)
    g0 = float(g0)
    if not (math.isfinite(omega0) and math.isfinite(g0)):
        raise CouplingError(f"couplings must be finite, got omega0={omega0}, g0={g0}")
    if omega0 <= 0.0:
        raise CouplingError(f"omega0 must be positive, got {omega0}")
    if omega0 < OMEGA0_FLOOR:
        raise CouplingError(f"4/omega0^2 must be finite: omega0 = {omega0} is below "
                            f"the floor {OMEGA0_FLOOR:.4g}")
    if g0 <= 0.0:
        raise CouplingError(f"g0 must be positive, got {g0}")
    disc = 1.0 - 8.0 * g0 * omega0 * omega0
    if disc < 0.0:
        raise CouplingError(
            f"8 g0 omega0^2 = {8 * g0 * (omega0 * omega0)} > 1: exponents become complex"
        )
    root = math.sqrt(disc)
    # 2 (1 - root)/omega0^2 = 16 g0/(1 + root): no 1 - root to cancel at small omega0
    x, y = 16.0 * g0 / (1.0 + root), 2.0 / omega0**2 * (1.0 + root)
    # alpha - 1 = (sqrt(1 + x) - 1)/2 = x/(2(sqrt(1 + x) + 1)), with no 1 to
    # cancel at small g0; nu - 1 likewise in y, at large omega0
    a1, nu1 = (t / (2.0 * (math.sqrt(1.0 + t) + 1.0)) for t in (x, y))
    return RelModel(omega0=omega0, g0=g0, alpha=0.5 + 0.5 * math.sqrt(1.0 + x),
                    nu=0.5 + 0.5 * math.sqrt(1.0 + y), alpha_m1=a1, nu_m1=nu1)


def energy(model: RelModel, n: int) -> float:
    """E_n in units mc^2: omega0 (2n + alpha + nu)."""
    return model.omega0 * (2.0 * n + model.alpha + model.nu)


# ---- coefficient functions ---------------------------------------------


def _generalized_square(p, at=0.0) -> AnalyticFunction:
    """((rho - at)(rho - at + i))^p, the generalized second-degree power
    (rho - at)^(2) to the p: for p < 0, poles at `at` and at - i."""
    return monomial(p, at=at) * monomial(p, at=at - 1j)


def _interaction(model: RelModel) -> AnalyticFunction:
    """omega0^2/2 rho(rho+i) + g0 / (rho(rho+i)); singular at rho = 0, -i."""
    return 0.5 * model.omega0**2 * _generalized_square(1) + model.g0 * _generalized_square(-1)


def hamiltonian_rel(model: RelModel) -> DifferenceOperator:
    """cosh(i d/drho) + interaction * e^{i d/drho}, in units mc^2."""
    return DifferenceOperator([Term(0.5, -1j), Term(0.5 + _interaction(model), 1j)])


def momentum_P(model: RelModel) -> DifferenceOperator:
    """-[sinh(i d/drho) + interaction * e^{i d/drho}], in units mc."""
    return DifferenceOperator([Term(0.5, -1j), Term(-(0.5 + _interaction(model)), 1j)])


def ladder_b(model: RelModel) -> tuple[DifferenceOperator, DifferenceOperator]:
    """Half-shift factorization pair, operator ordering exactly as printed.

    b^- = [e^{-i/2 d} - omega0 e^{+i/2 d} (nu + i rho)(1 + alpha/(i rho))]/sqrt(2)
    b^+ = [e^{-i/2 d} - omega0 (nu - i rho)(1 - alpha/(i rho)) e^{+i/2 d}]/sqrt(2)

    so e^{+i/2 d} u(rho) = u(rho + i/2) e^{+i/2 d} in b^-.
    """
    a, nu, w0 = model.alpha, model.nu, model.omega0
    # Laurent sums in rho: alpha/(i rho) = -i alpha rho^-1
    u = polynomial([nu, 1j]) * (1.0 + -1j * a * monomial(-1))
    v = polynomial([nu, -1j]) * (1.0 + 1j * a * monomial(-1))
    scale = 1.0 / _SQRT2
    return (DifferenceOperator([Term(scale, -0.5j), Term(-w0 * scale * u.shifted(0.5j), 0.5j)]),
            DifferenceOperator([Term(scale, -0.5j), Term(-w0 * scale * v, 0.5j)]))


def ladder_B(model: RelModel) -> tuple[DifferenceOperator, DifferenceOperator]:
    """Two-step lowering/raising pair (exact closed forms).

    B^- = i rho [sqrt(2) e^{-i/2 d} b^- - H + omega0(alpha+nu)]
          + H/2 - (H^2 - 1)/(2 omega0) + omega0 alpha nu.

    The H^2 term must enter with the rest energy subtracted, (H^2 - 1);
    without the extra scalar 1/(2 omega0) the commutator [H, B^-] misses
    -2 omega0 B^- by exactly that constant (printed_tail).

    B^+ is the formal conjugate under the natural pairing where e^{-i/2 d}
    and H are self-adjoint and (i rho)* = -i rho:

    B^+ = [sqrt(2) b^+ e^{-i/2 d} - H + omega0(alpha+nu)] (-i rho)
          + H/2 - (H^2 - 1)/(2 omega0) + omega0 alpha nu.
    """
    w0, a, nu = model.omega0, model.alpha, model.nu
    H = hamiltonian_rel(model)
    b_minus, b_plus = ladder_b(model)
    centre = mul_op(w0 * (a + nu)) - H  # in both brackets
    scalar_tail = 0.5 * H - (0.5 / w0) * compose(H, H) + mul_op(w0 * a * nu + 0.5 / w0)
    bracket_minus = _SQRT2 * compose(shift_op(-0.5j), b_minus) + centre
    bracket_plus = _SQRT2 * compose(b_plus, shift_op(-0.5j)) + centre
    return (compose(mul_op(1j * coordinate()), bracket_minus) + scalar_tail,
            compose(bracket_plus, mul_op(-1j * coordinate())) + scalar_tail)


def printed_tail(model: RelModel) -> DifferenceOperator:
    """-1/(2 omega0): B-+ plus this is the printed pair, its H^2 tail literal."""
    return mul_op(-0.5 / model.omega0)


def ladder_B_compact(model: RelModel) -> tuple[DifferenceOperator, DifferenceOperator]:
    """Cross-check forms B-+ = [(omega0 rho -+ iP)^2 - 2 g0/(rho^2+1)] / (2 omega0).

    Kept exactly as printed (including the rho^2 + 1 denominator) so the
    discrepancy against the primary forms can be measured, not assumed; the
    square is expanded, (omega0 rho)^2 -+ i omega0 (rho P + P rho) - P^2, so
    the pair shares its products.
    """
    w0 = model.omega0
    P = momentum_P(model)
    w0rho = mul_op(w0 * coordinate())
    even = compose(w0rho, w0rho) - compose(P, P) - mul_op(
        2.0 * model.g0 * monomial(-1, at=1j) * monomial(-1, at=-1j))
    odd = 1j * (compose(w0rho, P) + compose(P, w0rho))
    return (0.5 / w0) * (even - odd), (0.5 / w0) * (even + odd)


def bb_commutator_rhs(model: RelModel) -> DifferenceOperator:
    """Printed right-hand side of the [b^-, b^+] commutator.

    omega0/2 (1 + alpha nu/(rho^2 + 1/4) + omega0 Delta e^{i d}), with
    Delta = alpha + nu - 1/4
            + alpha nu [ -(alpha-1)(nu-1)/rho^(2) + alpha nu/((rho+i/2)^(2)) ].
    """
    a, nu, w0 = model.alpha, model.nu, model.omega0
    # rho^2 + 1/4 = (rho - i/2)^(2)
    local = 0.5 * w0 * (1.0 + a * nu * _generalized_square(-1, at=0.5j))
    delta = a + nu - 0.25 + a * nu * (-(a - 1.0) * (nu - 1.0) * _generalized_square(-1)
                                      + a * nu * _generalized_square(-1, at=-0.5j))
    return mul_op(local) + compose(mul_op(0.5 * w0 * w0 * delta), shift_op(1j))


def BB_commutator_rhs(model: RelModel) -> DifferenceOperator:
    """Printed right-hand side of [B^-, B^+]: omega0 H (1 + 2(H^2 - 1)/omega0^2)."""
    w0 = model.omega0
    H = hamiltonian_rel(model)
    H2 = compose(H, H)
    return w0 * (H + (2.0 / w0**2) * (compose(H2, H) - H))


def spectral_f(model: RelModel, energy_mc2: float) -> float:
    """f(E) = [E + omega0(alpha-nu-1)][E + omega0(nu-alpha-1)] (E in mc^2)."""
    w0, a, nu = model.omega0, model.alpha, model.nu
    return (energy_mc2 + w0 * (a - nu - 1.0)) * (energy_mc2 + w0 * (nu - a - 1.0))


def eigenfunctions(model: RelModel, ns) -> AnalyticFunction:
    """The closed-form eigenfunctions phi_n, n in ns, unnormalized, as one
    batched leaf whose row i is phi_ns[i]:

    phi_n(rho) = P(rho) * S_n(rho^2; alpha, nu, 1/2),
    P(rho) = (-rho)^(alpha) omega0^{i rho} Gamma(nu + i rho),

    with (-rho)^(alpha) = i^alpha Gamma(alpha + i rho)/Gamma(i rho).  All
    gamma ratios are assembled in log space so P stays evaluable at the
    complex-shifted points the operators need; the three log-gammas come
    from one log_gamma call on the stacked arguments, made once per call
    for all of ns.  Every S_n row comes from one cdhahn_rows pass of the
    dual Hahn recurrence up to max(ns); row n holds the same floats
    whatever the other levels are, and a leaf of phi_0 alone runs no
    recurrence.
    """
    ns = list(ns)
    if any(n < 0 for n in ns):
        raise ValueError("n must be >= 0")
    a, nu = model.alpha, model.nu
    top = max(ns, default=0)

    def rows(z):
        prefactor = np.exp(log_prefactor(model, z))
        s_rows = cdhahn_rows(top, z, a, nu, 0.5)
        # one 1-d product per row: at one point numpy rounds a complex product
        # of 2-d operands differently, and a row's floats would then depend
        # on the shape of the call
        return np.array([prefactor * s_rows[n] for n in ns]).reshape(len(ns), len(z))

    return from_callable(rows)


def log_prefactor(model: RelModel, z):
    """log P(z) of the eigenfunctions' gamma prefactor at a 1-d array of
    points: i pi alpha/2 + log Gamma(alpha + iz) - log Gamma(iz)
    + iz log omega0 + log Gamma(nu + iz), from one log_gamma call."""
    a, nu, w0 = model.alpha, model.nu, model.omega0
    iz = 1j * z
    lg_a, lg_0, lg_nu = log_gamma(np.stack((a + iz, iz, nu + iz)))
    return 1j * math.pi * a / 2.0 + lg_a - lg_0 + iz * math.log(w0) + lg_nu


def step_ratio(model: RelModel, z):
    """r+(z) = P(z + i)/P(z) = (iz - 1)/((alpha + iz - 1)(nu + iz - 1) omega0),
    exactly: the gamma ratios of P step by one factor each."""
    iz = 1j * z
    return (iz - 1.0) / ((model.alpha_m1 + iz) * (model.nu_m1 + iz) * model.omega0)


def gauged(model: RelModel, op: DifferenceOperator) -> DifferenceOperator:
    """P^-1 op P for an operator whose shifts are whole multiples of i, P the
    gamma prefactor every eigenfunction shares: the term c(rho) T(k i)
    becomes c(rho) P(rho + k i)/P(rho) T(k i), the ratio a product of k
    factors r+(rho + j i), j < k, for k > 0, and of -k factors r-(rho - j i)
    for k < 0:

        r+(rho) = -i (rho + i) / (omega0 (rho - i(alpha - 1)) (rho - i(nu - 1))),
        r-(rho) = i omega0 (rho - i alpha) (rho - i nu) / rho,

    multiplied in as rational functions, so a zero of the ratio at a pole
    of c cancels one order of it.  ValueError for any other shift."""
    a, nu, w0 = model.alpha, model.nu, model.omega0
    a1, nu1 = model.alpha_m1, model.nu_m1
    terms = []
    for t in op.terms:
        k, c = round(t.shift.imag), t.coeff
        if t.shift != 1j * k:
            raise ValueError(f"only shifts at whole multiples of i can be gauged, got {t.shift}")
        for j in range(abs(k)):
            if k > 0:
                c = c * polynomial([1j * (j + 1), 1.0]) * monomial(-1, at=1j * (a1 - j)) \
                    * monomial(-1, at=1j * (nu1 - j))
            else:
                c = c * polynomial([-1j * (a + j), 1.0]) * polynomial([-1j * (nu + j), 1.0]) \
                    * monomial(-1, at=1j * j)
        terms.append(Term((-1j / w0) ** k * c if k > 0 else (1j * w0) ** -k * c, t.shift))
    return DifferenceOperator(terms)


def eigenfunction_rel(model: RelModel, n: int) -> RelEigenState:
    """phi_n as a scalar function: the one row of eigenfunctions(model, [n])."""
    wf = eigenfunctions(model, [n])[0]
    return RelEigenState(n=n, energy_mc2=energy(model, n), wavefunction=wf)


def ladder_norm_constant(model: RelModel, n: int) -> float:
    """N_n^{-1} = (2 omega0)^n sqrt(n! (alpha+nu)_n (alpha+1/2)_n (nu+1/2)_n),
    so that ||N_n (B^+)^n phi_0|| = ||phi_0|| under d rho on (0, inf)."""
    a, nu, w0 = model.alpha, model.nu, model.omega0
    inv = (2.0 * w0) ** n * math.sqrt(
        math.factorial(n)
        * pochhammer(a + nu, n).real
        * pochhammer(a + 0.5, n).real
        * pochhammer(nu + 0.5, n).real
    )
    return 1.0 / inv


def ladder_state(model: RelModel, n: int) -> RelEigenState:
    """N_n (B^+)^n phi_0, built by repeated operator application."""
    _, B_plus = ladder_B(model)
    state = eigenfunction_rel(model, 0).wavefunction
    for _ in range(n):
        state = B_plus(state)
    wf = ladder_norm_constant(model, n) * state
    return RelEigenState(n=n, energy_mc2=energy(model, n), wavefunction=wf)


def nonrel_limit(g0: float, omega0_sequence) -> list[float]:
    """Deviations |(alpha + nu - 1/omega0) - (d + 1)| along an omega0 sequence.

    The combination alpha + nu - 1/omega0 approaches d + 1 linearly in
    omega0 (the leading deviation is omega0 (1 - 8 g0)/8).  Both parts are
    formed without subtracting numbers of size 1/omega0: with
    q = 1 + sqrt(1 - 8 g0 omega0^2) and s = 2 - q = 8 g0 omega0^2 / q,

        alpha - (d + 1/2)   = 4 g0 s / (q (sqrt(1 + 16 g0/q) + 2d)),
        nu - 1/omega0 - 1/2 = omega0 (2(1 - 8 g0) - s) / (2q (sqrt(omega0^2 + 2q) + 2)).
    """
    models = [make_rel_model(w0, g0) for w0 in omega0_sequence]
    d = nonrel.make_model(g0).d  # checks g0 > -1/8 before its square root
    devs = []
    for m in models:
        w2, g0 = m.omega0 * m.omega0, m.g0
        q = 1.0 + math.sqrt(1.0 - 8.0 * g0 * w2)
        s = 8.0 * g0 * w2 / q
        alpha_part = 4.0 * g0 * s / (q * (math.sqrt(1.0 + 16.0 * g0 / q) + 2.0 * d))
        nu_part = m.omega0 * (2.0 * (1.0 - 8.0 * g0) - s) \
            / (2.0 * q * (math.sqrt(w2 + 2.0 * q) + 2.0))
        devs.append(abs(alpha_part + nu_part))
    return devs
