"""Non-relativistic linear singular oscillator.

Hamiltonian (units hbar*omega, coordinate xi = sqrt(m omega/hbar) x):

    H = -1/2 d^2/dxi^2 + 1/2 xi^2 + g0 / xi^2,   g0 > -1/8,

with exponent d = 1/2 sqrt(1 + 8 g0).  The module builds the ladder
factorization, the su(1,1) generators, the closed-form Laguerre
eigenfunctions and an independent sinc-collocation oracle for the spectrum
E_n = 2n + d + 1.

An operator is its exact normal form, a dict {(m, p): c} meaning
sum c xi^p D^m, D = d/dxi: ``added`` sums operators, ``scaled`` scales one
and ``compose`` multiplies two by D^m xi^b = sum_j C(m, j) b(b-1)...(b-j+1)
xi^(b-j) D^(m-j), so every coefficient is exact algebra.  In the
ground-state gauge psi = psi_0 g, psi_0 = xi^(d+1/2) exp(-xi^2/2)
(Turbiner, Commun. Math. Phys. 118 (1988) 467), ``gauged`` gives
psi_0^-1 op psi_0 = sum c xi^p (D + w)^m, w = psi_0'/psi_0, in the same
form, so it maps a Laurent sum g to one exactly; psi_n is psi_0 times
L_n^d(xi^2), up to c_n/c_0.  It takes p(p-1), p = d + 1/2, as the 2 g0 it
equals, so the gauge adds no rounding of its own at xi^-2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, CouplingError
from .opcore import AnalyticFunction, from_callable

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
    d = 0.5 * math.sqrt(1.0 + 8.0 * g0)
    if not math.isfinite(d):  # 8 g0 overflows above ~2.25e307
        raise CouplingError(f"g0 = {g0} is too large: d = sqrt(1 + 8 g0)/2 must be finite")
    return NonRelModel(g0=g0, d=d)


def added(*ops) -> dict:
    """The sum of the operators, key by key in order of first appearance;
    a coefficient that sums to 0 is dropped."""
    total: dict = {}
    for op in ops:
        for key, c in op.items():
            total[key] = total.get(key, 0) + c
    return {key: c for key, c in total.items() if c != 0}


def scaled(c, op: dict) -> dict:
    """c op, coefficient by coefficient."""
    return {key: c * v for key, v in op.items()}


def compose(A: dict, B: dict) -> dict:
    """The product A B (apply B first): each a xi^p D^m of A times each
    b xi^q D^n of B is a b sum_j C(m, j) q(q-1)...(q-j+1) xi^(p+q-j) D^(m+n-j),
    summed key by key."""
    terms = []
    for (m, p), a in A.items():
        for (n, q), b in B.items():
            falling = 1  # q(q-1)...(q-j+1)
            for j in range(m + 1):
                terms.append({(m + n - j, p + q - j): a * b * math.comb(m, j) * falling})
                falling *= q - j
    return added(*terms)


def hamiltonian(model: NonRelModel) -> dict:
    """-1/2 D^2 + 1/2 xi^2 + g0/xi^2."""
    return added({(2, 0): -0.5, (0, 2): 0.5, (0, -2): model.g0})


def ladder_a() -> tuple[dict, dict]:
    """Plain oscillator ladder pair a-+ = (xi +- D)/sqrt(2)."""
    s = 1.0 / _SQRT2
    return {(0, 1): s, (1, 0): s}, {(0, 1): s, (1, 0): -s}


def ladder_c(model: NonRelModel) -> tuple[dict, dict]:
    """Singular-oscillator pair c-+ = (xi +- D - (d+1/2)/xi)/sqrt(2)."""
    s = 1.0 / _SQRT2
    sing = {(0, 1): s, (0, -1): -(model.d + 0.5) * s}
    return added(sing, {(1, 0): s}), added(sing, {(1, 0): -s})


def lowering_forms(model: NonRelModel) -> tuple[dict, dict]:
    """The two printed closed forms of the lowering operator.

    Form 1: sqrt(2) xi c^- - H + (d+1).
    Form 2: (a^-)^2 - g0/xi^2.
    They agree identically; both are exposed for the cross-check.
    """
    c_minus, _ = ladder_c(model)
    form1 = added(scaled(_SQRT2, compose({(0, 1): 1.0}, c_minus)),
                  scaled(-1.0, hamiltonian(model)), {(0, 0): model.d + 1.0})
    return form1, ladder_A(model)[0]


def ladder_A(model: NonRelModel) -> tuple[dict, dict]:
    """Two-step lowering/raising pair A-+ = (a-+)^2 - g0/xi^2."""
    a_minus, a_plus = ladder_a()
    sing = {(0, -2): -model.g0}
    return added(compose(a_minus, a_minus), sing), added(compose(a_plus, a_plus), sing)


def su11_generators(model: NonRelModel) -> tuple[dict, dict, dict]:
    """(K0, K-, K+) with K0 = H/2 and K-+ = A-+/2."""
    A_minus, A_plus = ladder_A(model)
    return scaled(0.5, hamiltonian(model)), scaled(0.5, A_minus), scaled(0.5, A_plus)


def ground_log_derivative(model: NonRelModel) -> dict:
    """w = psi_0'/psi_0 = (d+1/2)/xi - xi, as the operator multiplying by it."""
    return {(0, -1): model.d + 0.5, (0, 1): -1.0}


def gauged(model: NonRelModel, op: dict) -> dict:
    """psi_0^-1 op psi_0 = sum c xi^p (D + w)^m over the terms c xi^p D^m
    of op, each power (D + w)^m built once by compose."""
    step = added({(1, 0): 1.0}, ground_log_derivative(model))
    # (D + w)^2's xi^-2 coefficient p(p-1), p = d + 1/2, is the 2 g0 it
    # equals exactly (d^2 - 1/4 = 2 g0): formed as p*p - p it rounds at ~eps,
    # however small 2 g0 is.  So a term c D^2 gives c 2 g0 xi^-2 with no other
    # rounding, and H's -1/2 D^2 + g0/xi^2 no xi^-2 term at all
    steps = [{(0, 0): 1.0}, step, {**compose(step, step), (0, -2): 2.0 * model.g0}]
    terms = []
    for (m, p), c in op.items():
        while len(steps) <= m:
            steps.append(compose(step, steps[-1]))
        terms.append(compose({(0, p): c}, steps[m]))
    return added(*terms)


def energy(model: NonRelModel, n: int) -> float:
    return 2.0 * n + model.d + 1.0


def norm_constant(model: NonRelModel, n: int) -> float:
    """c_n = sqrt(2 n! / Gamma(n+d+1)), giving unit L2 norm on (0, inf)."""
    return math.sqrt(2.0) * math.exp(
        0.5 * (math.lgamma(n + 1) - math.lgamma(n + model.d + 1))
    )


def _laguerre_rows(ns, d: float):
    """xi -> the rows L_n^d(xi^2), n in ns, every row from one pass of the
    three-term recurrence (Koekoek, Lesky & Swarttouw, sec. 9.12)

        (k+1) L_(k+1) = (2k+1+d - y) L_k - (k+d) L_(k-1),   y = xi^2.

    Row n depends on levels 0..n only, so it holds the same floats whatever
    ns is."""
    top, at = max(ns, default=0), np.array(ns, dtype=int)

    def values(z):
        out = np.empty((len(ns), len(z)), dtype=complex)
        y = z * z
        low = np.ones(len(z), dtype=complex)
        for k in range(top):
            out[at == k] = low
            nxt = (2 * k + 1 + d - y) * low
            if k:
                nxt -= (k + d) * prev
            # the (re, im) pairs divided by k + 1: one rounding each, where
            # numpy's complex quotient multiplies by a rounded reciprocal
            pairs = nxt.view(float)
            pairs /= k + 1
            prev, low = low, nxt
        out[at == top] = low
        return out

    return values


def eigenfunctions(model: NonRelModel, ns) -> AnalyticFunction:
    """The closed forms psi_n = c_n xi^(d+1/2) exp(-xi^2/2) L_n^d(xi^2), n in
    ns, as one batched leaf whose row i is psi_ns[i], one callable as in
    rel.eigenfunctions: a call evaluates the two prefactors once for all
    rows, and every L_n^d(xi^2) in one pass of the Laguerre recurrence in n,
    which holds its precision at any n."""
    ns = list(ns)
    if any(n < 0 for n in ns):
        raise ValueError("n must be >= 0")
    cn = np.array([norm_constant(model, n) for n in ns], dtype=complex)[:, None]
    power = complex(model.d + 0.5)  # not whole, so a plain power, principal branch
    laguerre = _laguerre_rows(ns, model.d)
    # ((c_n xi^(d+1/2)) exp(-xi^2/2)) L_n^d(xi^2), in this order: the
    # wavefunction tables print these floats, and any other grouping rounds
    # differently in the last bit
    return from_callable(lambda z: cn * np.power(z, power) * np.exp(-0.5 * z * z) * laguerre(z))


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
