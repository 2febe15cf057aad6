"""Relativistic linear singular oscillator as a finite-difference model.

Units: H in mc^2, P in mc, coordinate rho = x/(hbar/mc).  With
omega0 = hbar*omega/mc^2 and g0 = m*g/hbar^2 the Hamiltonian is

    H = cosh(i d/drho) + [ omega0^2/2 * rho(rho+i) + g0/(rho(rho+i)) ] e^{i d/drho},

where rho(rho+i) is the generalized second-degree power.  The module
builds the half-shift factorization pair b-+, the two-step ladder pair
B-+, the generalized momentum, the spectral weight f(E) of the su(1,1)
construction, and the continuous dual Hahn eigenfunctions.  The su(1,1)
generators act on the eigenbasis only: K-+ = B-+ / sqrt(f(E)), with f at
the eigenvalue the operator ordering dictates, and K0 = H/(2 omega0).
f(E_n) = 4 omega0^2 (n + alpha - 1/2)(n + nu - 1/2) is positive at every
level, since alpha, nu >= 1.  On psi_n each K-+ is a scalar times B-+, so
[K0, K-+] = -+K-+ follows from the operator identities [H, B-+] =
-+2 omega0 B-+, which the harness checks term by term; it reads only
[K-, K+] = 2 K0 and the Casimir on the eigenbasis.

Every coefficient of H, P, b-+ and B-+, and of the printed and compact
forms and commutator right-hand sides, is a rational sum of monomials
c prod (rho - q)^p with every pole q on the lattice (i/2)Z: the
interaction is omega0^2/2 rho^(2) + g0/rho^(2), rho^(2) = rho (rho + i)
one monomial with poles at 0 and -i, and compose folds the products
exactly (see opcore).  Only the eigenfunction leaves are callables.

No inner product is specified for the model, so every "conjugate"
operator is built from its printed closed form, and every ladder
coefficient is measured as a ratio between eigenstates (basis-independent).

Every eigenfunction has the form phi_n(rho) = P(rho) S_n(rho^2; alpha, nu,
1/2), with the same gamma prefactor P for every n (Koekoek, Lesky &
Swarttouw, Hypergeometric Orthogonal Polynomials, sec. 9.3).  For a whole
step, P(rho + i)/P(rho) is rational (``step_ratio``), so an operator whose
shifts are whole multiples of i, such as H and B-+, becomes in the P gauge
a difference operator with rational coefficients that maps polynomials to
rational functions: ``gauged(model, op)`` is P^-1 op P, exact numerators
over their poles, and the harness reads the eigenstate identities on the
coefficients of S_n (Turbiner, Commun. Math. Phys. 118 (1988) 467, for the
same gauge in the nonrel model).
``eigenfunctions(model, ns)`` is one batched leaf whose row i is phi_ns[i]:
a call evaluates P once, with one log_gamma call, and every S_n row in one
pass of the dual Hahn three-term recurrence in n.
``eigenfunction_rel(model, n)`` is its one row for [n], a scalar function,
as ``nonrel.eigenfunction`` is for nonrel.
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
    compose,
    coordinate,
    from_callable,
    identity_op,
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
    alpha = 0.5 + 0.5 * math.sqrt(1.0 + 16.0 * g0 / (1.0 + root))
    nu = 0.5 + 0.5 * math.sqrt(1.0 + 2.0 / omega0**2 * (1.0 + root))
    return RelModel(omega0=omega0, g0=g0, alpha=alpha, nu=nu)


def energy(model: RelModel, n: int) -> float:
    """E_n in units mc^2: omega0 (2n + alpha + nu)."""
    return model.omega0 * (2.0 * n + model.alpha + model.nu)


# ---- coefficient functions ---------------------------------------------


def _generalized_square(p, at=0.0) -> AnalyticFunction:
    """((rho - at)(rho - at + i))^p, the generalized second-degree power
    (rho - at)^(2) to the p: one monomial with poles at `at` and at - i."""
    return monomial(p, at=at) * monomial(p, at=at - 1j)


def _interaction(model: RelModel) -> AnalyticFunction:
    """omega0^2/2 rho(rho+i) + g0 / (rho(rho+i)); singular at rho = 0, -i."""
    return 0.5 * model.omega0**2 * _generalized_square(1) + model.g0 * _generalized_square(-1)


def hamiltonian_rel(model: RelModel) -> DifferenceOperator:
    """cosh(i d/drho) + interaction * e^{i d/drho}, in units mc^2."""
    return 0.5 * shift_op(1j) + 0.5 * shift_op(-1j) \
        + compose(mul_op(_interaction(model)), shift_op(1j))


def momentum_P(model: RelModel) -> DifferenceOperator:
    """-[sinh(i d/drho) + interaction * e^{i d/drho}], in units mc."""
    return -(0.5 * shift_op(1j) - 0.5 * shift_op(-1j)
             + compose(mul_op(_interaction(model)), shift_op(1j)))


def ladder_b(model: RelModel) -> tuple[DifferenceOperator, DifferenceOperator]:
    """Half-shift factorization pair, operator ordering exactly as printed.

    b^- = [e^{-i/2 d} - omega0 e^{+i/2 d} (nu + i rho)(1 + alpha/(i rho))]/sqrt(2)
    b^+ = [e^{-i/2 d} - omega0 (nu - i rho)(1 - alpha/(i rho)) e^{+i/2 d}]/sqrt(2)
    """
    a, nu, w0 = model.alpha, model.nu, model.omega0
    # Laurent sums in rho: alpha/(i rho) = -i alpha rho^-1
    u = polynomial([nu, 1j]) * (1.0 + -1j * a * monomial(-1))
    v = polynomial([nu, -1j]) * (1.0 + 1j * a * monomial(-1))
    b_minus = (1.0 / _SQRT2) * (
        shift_op(-0.5j) - w0 * compose(shift_op(0.5j), mul_op(u))
    )
    b_plus = (1.0 / _SQRT2) * (
        shift_op(-0.5j) - w0 * compose(mul_op(v), shift_op(0.5j))
    )
    return b_minus, b_plus


def _ladder_B_from_tail(model: RelModel, tail_constant: float):
    w0, a, nu = model.omega0, model.alpha, model.nu
    H = hamiltonian_rel(model)
    b_minus, b_plus = ladder_b(model)
    irho = mul_op(1j * coordinate())
    neg_irho = mul_op(-1j * coordinate())
    scalar_tail = 0.5 * H - (0.5 / w0) * compose(H, H) + tail_constant * identity_op()
    bracket_minus = _SQRT2 * compose(shift_op(-0.5j), b_minus) - H \
        + (w0 * (a + nu)) * identity_op()
    bracket_plus = _SQRT2 * compose(b_plus, shift_op(-0.5j)) - H \
        + (w0 * (a + nu)) * identity_op()
    B_minus = compose(irho, bracket_minus) + scalar_tail
    B_plus = compose(bracket_plus, neg_irho) + scalar_tail
    return B_minus, B_plus


def ladder_B(model: RelModel) -> tuple[DifferenceOperator, DifferenceOperator]:
    """Two-step lowering/raising pair (exact closed forms).

    B^- = i rho [sqrt(2) e^{-i/2 d} b^- - H + omega0(alpha+nu)]
          + H/2 - (H^2 - 1)/(2 omega0) + omega0 alpha nu.

    The H^2 term must enter with the rest energy subtracted, (H^2 - 1);
    without the extra scalar 1/(2 omega0) the commutator [H, B^-] misses
    -2 omega0 B^- by exactly that constant (see ladder_B_printed for the
    uncorrected variant, kept for the discrepancy report).

    B^+ is the formal conjugate under the natural pairing where e^{-i/2 d}
    and H are self-adjoint and (i rho)* = -i rho:

    B^+ = [sqrt(2) b^+ e^{-i/2 d} - H + omega0(alpha+nu)] (-i rho)
          + H/2 - (H^2 - 1)/(2 omega0) + omega0 alpha nu.
    """
    w0, a, nu = model.omega0, model.alpha, model.nu
    return _ladder_B_from_tail(model, w0 * a * nu + 0.5 / w0)


def ladder_B_printed(model: RelModel) -> tuple[DifferenceOperator, DifferenceOperator]:
    """The same pair with the H^2 term taken literally (no rest-energy
    subtraction); differs from ladder_B by the scalar 1/(2 omega0)."""
    w0, a, nu = model.omega0, model.alpha, model.nu
    return _ladder_B_from_tail(model, w0 * a * nu)


def ladder_B_compact(model: RelModel) -> tuple[DifferenceOperator, DifferenceOperator]:
    """Cross-check forms B-+ = [(omega0 rho -+ iP)^2 - 2 g0/(rho^2+1)] / (2 omega0).

    Kept exactly as printed (including the rho^2 + 1 denominator) so the
    discrepancy against the primary forms can be measured, not assumed.
    """
    w0 = model.omega0
    P = momentum_P(model)
    w0rho = mul_op(w0 * coordinate())
    sing = mul_op(2.0 * model.g0 * monomial(-1, at=1j) * monomial(-1, at=-1j))
    inner_minus = w0rho - 1j * P
    inner_plus = w0rho + 1j * P
    B_minus = (0.5 / w0) * (compose(inner_minus, inner_minus) - sing)
    B_plus = (0.5 / w0) * (compose(inner_plus, inner_plus) - sing)
    return B_minus, B_plus


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
    return (iz - 1.0) / ((model.alpha + iz - 1.0) * (model.nu + iz - 1.0) * model.omega0)


def gauged(model: RelModel, op: DifferenceOperator) -> dict:
    """P^-1 op P for an operator whose shifts are whole multiples of i, P the
    gamma prefactor every eigenfunction shares: {shift: (numerator, sizes,
    poles)}, the coefficient of T(shift) being numerator(rho) over
    prod (rho - q)^order, q = i(x + j) for each pole (x, j) -> order, x one
    of 0, alpha and nu and j an integer, so a shift by k i moves pole (x, j)
    to (x, j - k) exactly.  numerator holds the coefficients of rho^0,
    rho^1, ..., and sizes the same sums taken over absolute values, the
    scale their rounding is measured against.

    The term c(rho) T(k i) becomes c(rho) P(rho + k i)/P(rho) T(k i), the
    ratio a product of k factors r+(rho + j i), j < k, for k > 0, and of -k
    factors r-(rho - j i) for k < 0:

        r+(rho) = -i (rho + i) / (omega0 (rho - i(alpha - 1)) (rho - i(nu - 1))),
        r-(rho) = i omega0 (rho - i alpha) (rho - i nu) / rho.

    c's rational sum, each monomial's poles on the lattice iZ, gives its
    numerator over its poles, every monomial lifted to their common
    denominator; a zero of the ratio at a pole of c cancels one order of it.
    Raises ValueError for any other shift or pole, or a power that is not
    whole."""
    a, nu, w0 = model.alpha, model.nu, model.omega0
    factors, weights, terms = [], [], []
    for t in op.terms:
        k = _whole(t.shift)
        lift = {}  # pole -> its order in the common denominator
        for m in t.coeff.monomials:
            for q, p in m:
                if p != int(p):
                    raise ValueError(f"a gauged coefficient has a power that is not whole: {p}")
                lift[q] = max(lift.get(q, 0), -int(p))
        lift = {(q, _whole(q)): e for q, e in lift.items()}  # each pole i j on the lattice
        if k > 0:
            scale = (-1j / w0) ** k
            zeros = [(0.0, -j - 1) for j in range(k)]
            poles = [(x, -j - 1) for j in range(k) for x in (a, nu)]
        else:
            scale = (1j * w0) ** -k
            zeros = [(x, j) for j in range(-k) for x in (a, nu)]
            poles = [(0.0, j) for j in range(-k)]
        order = {(0.0, j): e for (_, j), e in lift.items() if e > 0}
        kept = []
        for q in zeros:
            if order.get(q):
                order[q] -= 1
            else:
                kept.append(1j * (q[0] + q[1]))
        for q in poles:
            order[q] = order.get(q, 0) + 1
        first = len(factors)
        for m, c in t.coeff.monomials.items():
            m = dict(m)
            factors.append([1j * j for (q, j), e in lift.items()
                            for _ in range(int(m.get(q, 0)) + e)] + kept)
            weights.append(scale * c)
        terms.append((t.shift, first, len(factors), {q: e for q, e in order.items() if e}))
    # one row per monomial, the product of its factors (rho - q) taken one at
    # a time over all rows, a row short of factors multiplied by 1; its sizes
    # alike from the factors (rho + |q|), on the second plane
    depth = max(map(len, factors))
    low = np.array([[-q for q in roots] + [1.0] * (depth - len(roots)) for roots in factors]).T
    high = np.array([[1.0] * len(roots) + [0.0] * (depth - len(roots)) for roots in factors]).T
    low, high = np.stack((low, np.abs(low)), axis=1), high[:, None]
    rows = np.zeros((2, len(factors), depth + 1), dtype=complex)
    rows[:, :, 0] = 1.0
    for u, v in zip(low, high):
        rows[:, :, 1:] = u[..., None] * rows[:, :, 1:] + v[..., None] * rows[:, :, :-1]
        rows[:, :, 0] *= u
    rows, sizes = rows[0], rows[1]
    # each term's monomials summed with their weights, in one product (in
    # complex arithmetic, where np.einsum calls no BLAS)
    summing = np.zeros((len(terms), len(factors)), dtype=complex)
    for t, (_, first, last, _) in enumerate(terms):
        summing[t, first:last] = weights[first:last]
    numerators = np.einsum("tm,mj->tj", summing, rows)
    sizes = np.einsum("tm,mj->tj", np.abs(summing), sizes, dtype=complex).real
    out = {}
    for t, (shift, first, last, poles) in enumerate(terms):
        width = 1 + max(len(f) for f in factors[first:last])
        out[shift] = (numerators[t, :width], sizes[t, :width], poles)
    return out


def _whole(shift) -> int:
    """The integer k of shift = k i; ValueError for any other shift."""
    k = round(shift.imag)
    if shift != 1j * k:
        raise ValueError(f"only shifts and poles at whole multiples of i can be gauged, "
                         f"got {shift}")
    return k


def eigenfunction_rel(model: RelModel, n: int) -> RelEigenState:
    """phi_n as a scalar function: the one row of eigenfunctions(model, [n])."""
    wf = eigenfunctions(model, [n])[0]
    return RelEigenState(n=n, energy_mc2=energy(model, n), wavefunction=wf)


def ladder_norm_constant(model: RelModel, n: int) -> float:
    """N_n^{-1} = (2 omega0)^n sqrt(n! (alpha+nu+1)_n (alpha+1/2)_n (nu+1/2)_n)."""
    a, nu, w0 = model.alpha, model.nu, model.omega0
    inv = (2.0 * w0) ** n * math.sqrt(
        math.factorial(n)
        * pochhammer(a + nu + 1.0, n).real
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
