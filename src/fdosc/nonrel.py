"""Non-relativistic linear singular oscillator.

Hamiltonian (units hbar*omega, coordinate xi = sqrt(m omega/hbar) x):

    H = -1/2 d^2/dxi^2 + 1/2 xi^2 + g0 / xi^2,   g0 > -1/8,

with exponent d = 1/2 sqrt(1 + 8 g0).  The module builds the ladder
factorization, the su(1,1) generators, the closed-form Laguerre
eigenfunctions and an independent sinc-collocation oracle for the spectrum
E_n = 2n + d + 1.
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
    coordinate,
    deriv_op,
    gaussian,
    identity_op,
    monomial,
    mul_op,
)

_SQRT2 = math.sqrt(2.0)

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


def _laguerre_rows(ns, d: float) -> AnalyticFunction:
    """L_n^d(xi^2), n in ns, as one batched function of xi with exact
    derivatives, every row from one pass of the three-term recurrence
    (Koekoek, Lesky & Swarttouw, sec. 9.12)

        (k+1) L_(k+1) = (2k+1+d - y) L_k - (k+d) L_(k-1),   y = xi^2,

    run on jets.  The jet of y has the rows (xi^2, 2 xi, 1), so row m of
    y L_k is xi^2 L_k,m + 2 xi L_k,m-1 + L_k,m-2, exactly.  Row n depends on
    levels 0..n only, so it holds the same floats whatever ns is."""
    top, at = max(ns, default=0), np.array(ns, dtype=int)

    def jet(z, K):
        out = np.empty((len(ns), K + 1, len(z)), dtype=complex)
        y, two_z = z * z, 2.0 * z
        low = np.zeros((K + 1, len(z)), dtype=complex)
        low[0] = 1.0
        for k in range(top):
            out[at == k] = low
            nxt = (2 * k + 1 + d - y) * low
            if K:  # the derivative rows of y L_k
                nxt[1:] -= two_z * low[:-1]
                nxt[2:] -= low[:-2]
            if k:
                nxt -= (k + d) * prev
            # the (re, im) pairs divided by k + 1: one rounding each, where
            # numpy's complex quotient multiplies by a rounded reciprocal
            pairs = nxt.view(float)
            pairs /= k + 1
            prev, low = low, nxt
        out[at == top] = low
        return out

    return AnalyticFunction(jet)


def eigenfunctions(model: NonRelModel, ns) -> AnalyticFunction:
    """The closed forms psi_n = c_n xi^(d+1/2) exp(-xi^2/2) L_n^d(xi^2), n in
    ns, with exact derivatives, as one batched leaf whose row i is psi_ns[i].
    A call evaluates the two prefactor jets once for all rows, and every
    L_n^d(xi^2) jet in one pass of the Laguerre recurrence in n, which holds
    its precision at any n."""
    ns = list(ns)
    if any(n < 0 for n in ns):
        raise ValueError("n must be >= 0")
    cn = np.array([norm_constant(model, n) for n in ns])
    return cn * monomial(model.d + 0.5) * gaussian(1.0) * _laguerre_rows(ns, model.d)


def eigenfunction(model: NonRelModel, n: int) -> NonRelEigenState:
    """psi_n as a scalar function: the one row of eigenfunctions(model, [n])."""
    wf = eigenfunctions(model, [n])[0]
    return NonRelEigenState(n=n, energy=energy(model, n), wavefunction=wf)


def matrix_oracle(model: NonRelModel) -> np.ndarray:
    """The lowest five eigenvalues of H, ascending, by sinc collocation on
    ~45-135 nodes, from H alone, never the closed forms.  Relative error
    <= 1.1e-13 over g0 in [-0.124, 50]; nearer -1/8 the left end stops at
    s = -300, cutting the xi^(d+1/2) tail: 4.7e-6 at g0 = -0.1249 and 3.1e-3
    at -0.12499999.  Raises ConvergenceError if the SVD fails."""
    # The Liouville map xi = e^s, psi = xi^(1/2) u gives -1/2 u'' +
    # (g0 + 1/8 + 1/2 e^(4s)) u = E e^(2s) u on the real line, and s = phi(t)
    # = t - e^(-t) makes the slow e^(ds) tail at xi -> 0 decay double
    # exponentially in t (Stenger 1993; Eggert, Jarratt & Lund, J. Comput.
    # Phys. 69 (1987) 209).  With u = w y, w = e^(-s) phi'^(-1/2), the weak
    # form on a uniform t grid is A y = E y, A = 1/2 K^T K + diag(V), with
    # K = phi'^(-1/2) D1 w, D1 the sinc first-derivative matrix and
    # V = 1/2 xi^2 + (g0 + 1/8)/xi^2.  Ends: e^(ds) = 1e-8 on the left (d the
    # exponent at xi = 0), floored so that e^(-2s) stays finite (phi(-6) <
    # -300); on the right 1/2 e^(2t) = d + 50, d being also the minimum of V.
    h, d = 0.06, model.d
    t = h * np.arange(math.floor(-6.0 / h), 0.5 * math.log(2.0 * (d + 50.0)) / h)
    t = t[t - np.exp(-t) >= max(math.log(1e-8) / d, -300.0)]
    s = t - np.exp(-t)
    dphi = 1.0 + np.exp(-t)
    m = np.subtract.outer(np.arange(len(t)), np.arange(len(t)))
    d1 = np.where(m == 0, 0.0, (-1.0) ** m / (h * np.where(m == 0, 1, m)))
    K = d1 * (np.exp(-s) / np.sqrt(dphi)) / np.sqrt(dphi)[:, None]
    V = 0.5 * np.exp(2.0 * s) + (model.g0 + 0.125) * np.exp(-2.0 * s)
    # A = G^T G with G = [K / sqrt(2); diag(sqrt(V))], so its eigenvalues are
    # the squared singular values of G.  A is graded, its entries falling
    # from ~e^(-2s) at the left end in its top left corner: eigvalsh(A) loses
    # up to 7e-12 of the low eigenvalues to that, an SVD of G ~1e-15.  Both
    # need the nodes in increasing s; reversed, they lose them entirely.
    G = np.vstack([math.sqrt(0.5) * K, np.diag(np.sqrt(V))])
    try:
        return np.linalg.svd(G, compute_uv=False)[:-6:-1] ** 2
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise ConvergenceError(f"sinc-collocation SVD failed: {exc}") from exc
