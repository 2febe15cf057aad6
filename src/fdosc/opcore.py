"""Analytic-function and shift-operator algebra.

An AnalyticFunction evaluates on an array of points as a truncated Taylor
jet, the coefficients f^(k)(z)/k! for k = 0..K (Taylor-mode propagation;
Griewank & Walther, *Evaluating Derivatives*, 2nd ed., ch. 13).  The
primitives give their jets in closed form, so derivatives are exact.
Nothing is cached: a call evaluates the expression once on all its points.

A DifferenceOperator is a finite sum of terms coeff(z) * D^k f(z + shift);
shifts act exactly as argument translation, so operator identities can be
verified to machine precision.

``from_callable(fn)`` wraps an array function, fn(complex ndarray) ->
values of the same shape.  Such a leaf has no derivative: evaluating one
raises EvaluationError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EvaluationError


class AnalyticFunction:
    """Deterministic complex function of one complex variable.

    Closed under +, -, *, scalar multiplication, argument shift and
    differentiation.  ``jet(z, K)`` maps a 1-d complex array of points to
    the (K+1, len(z)) array of Taylor coefficients f^(k)(z)/k!.
    """

    __slots__ = ("jet", "note")

    def __init__(self, jet, note: str = ""):
        self.jet = jet
        self.note = note

    def __call__(self, z):
        """f(z) for a scalar (a complex) or a sequence or array (an ndarray)."""
        pts = np.asarray(z, dtype=complex)
        with np.errstate(all="ignore"):
            try:
                w = self.jet(pts.reshape(-1), 0)[0]
            except (ZeroDivisionError, OverflowError, ValueError) as exc:
                where = complex(pts) if pts.ndim == 0 else f"{pts.size} points"
                raise EvaluationError(f"evaluation failed at z = {where}: {exc}") from exc
        bad = ~np.isfinite(w)
        if bad.any():
            raise EvaluationError(f"non-finite value at z = {complex(pts.reshape(-1)[bad][0])}")
        return complex(w[0]) if pts.ndim == 0 else w.reshape(pts.shape)

    def derivative(self) -> "AnalyticFunction":
        jet = self.jet
        return AnalyticFunction(lambda z, K: _derivative_rows(jet(z, K + 1), 1),
                                note=f"d[{self.note}]")

    def shifted(self, a) -> "AnalyticFunction":
        a = complex(a)
        if a == 0:
            return self
        jet = self.jet
        return AnalyticFunction(lambda z, K: jet(z + a, K), note=f"shift({a})[{self.note}]")

    # ---- algebra -------------------------------------------------------

    def __add__(self, other):
        f, g = self.jet, _as_function(other).jet
        return AnalyticFunction(lambda z, K: f(z, K) + g(z, K))

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-_as_function(other))

    def __rsub__(self, other):
        return _as_function(other) + (-self)

    def __neg__(self):
        f = self.jet
        return AnalyticFunction(lambda z, K: -f(z, K))

    def __mul__(self, other):
        f = self.jet
        if isinstance(other, AnalyticFunction):
            g = other.jet
            return AnalyticFunction(lambda z, K: _cauchy(f(z, K), g(z, K)))
        c = complex(other)
        if c == 1:
            return self
        return AnalyticFunction(lambda z, K: c * f(z, K))

    __rmul__ = __mul__


def _as_function(x) -> AnalyticFunction:
    if isinstance(x, AnalyticFunction):
        return x
    return const(x)


def _cauchy(a, b):
    """Truncated Cauchy product: the jet of a product from the jets of its factors.

    Row k is accumulated in a fixed order, a_k b_0 + a_(k-1) b_1 + ...; a
    numpy sum over rows would switch to pairwise order for a single point.
    """
    out = a * b[0]
    for m in range(1, len(a)):
        out[m:] += a[:-m] * b[m]
    return out


def _derivative_rows(c, k: int):
    """Jet of D^k f from a jet of f that is k rows longer."""
    if k == 0:
        return c
    scale = [math.perm(j + k, k) for j in range(len(c) - k)]  # (j+k)!/j!
    return c[k:] * np.array(scale, dtype=float)[:, None]


# ---- primitive functions ----------------------------------------------


def const(c) -> AnalyticFunction:
    return polynomial([c])


def coordinate() -> AnalyticFunction:
    return polynomial([0.0, 1.0])


def monomial(p) -> AnalyticFunction:
    """z**p on the principal branch; the k-th coefficient is C(p, k) z**(p-k)."""
    p = complex(p)

    def jet(z, K):
        out = np.zeros((K + 1, len(z)), dtype=complex)
        binom = 1.0
        for k in range(K + 1):
            if binom == 0:  # integer p >= 0: the rest vanish
                break
            out[k] = binom * z ** (p - k)
            binom *= (p - k) / (k + 1)
        return out

    return AnalyticFunction(jet, note=f"z**{p}")


def polynomial(coeffs) -> AnalyticFunction:
    """sum_k coeffs[k] z^k, every coefficient row by Horner's rule."""
    coeffs = [complex(c) for c in coeffs]
    # rows[k] holds the coefficients of p^(k)/k!, highest power first
    rows = [[math.comb(j, k) * coeffs[j] for j in range(len(coeffs) - 1, k - 1, -1)]
            for k in range(len(coeffs))]

    def jet(z, K):
        out = np.zeros((K + 1, len(z)), dtype=complex)
        for k, cs in enumerate(rows[: K + 1]):
            acc = np.full(len(z), cs[0])
            for c in cs[1:]:
                acc = acc * z + c
            out[k] = acc
        return out

    return AnalyticFunction(jet, note=f"poly(deg={len(coeffs) - 1})")


def _exp_of_polynomial(coeffs, note: str) -> AnalyticFunction:
    """exp(u), u a polynomial of degree d: e_k = sum_{j<=min(k,d)} j u_j e_{k-j} / k."""
    u_jet = polynomial(coeffs).jet
    degree = len(coeffs) - 1

    def jet(z, K):
        u = u_jet(z, K)
        out = np.empty_like(u)
        out[0] = np.exp(u[0])
        for k in range(1, K + 1):
            acc = u[1] * out[k - 1]
            for j in range(2, min(k, degree) + 1):
                acc += j * u[j] * out[k - j]
            out[k] = acc / k
        return out

    return AnalyticFunction(jet, note=note)


def gaussian(a=1.0) -> AnalyticFunction:
    """exp(-a z^2 / 2)."""
    a = complex(a)
    return _exp_of_polynomial([0.0, 0.0, -a / 2.0], note=f"gauss({a})")


def exp_linear(k) -> AnalyticFunction:
    """exp(k z)."""
    k = complex(k)
    return _exp_of_polynomial([0.0, k], note=f"exp({k}z)")


def from_callable(fn, note="") -> AnalyticFunction:
    """Leaf from an array function fn(z) -> values; it has no derivative."""

    def jet(z, K):
        if K:
            raise EvaluationError(f"no derivative is known for {note or 'a plain callable'}")
        return np.asarray(fn(z), dtype=complex).reshape(1, len(z))

    return AnalyticFunction(jet, note=note)


# ---- operators ---------------------------------------------------------


@dataclass(frozen=True)
class Term:
    coeff: AnalyticFunction
    shift: complex
    dorder: int = 0


class DifferenceOperator:
    """Finite sum of terms f(z) -> coeff(z) * (D^k f)(z + shift).

    Immutable; terms with identical (shift, dorder) are merged by adding
    their coefficient functions.
    """

    def __init__(self, terms):
        merged: dict = {}
        for t in terms:
            coeff = _as_function(t.coeff)
            key = (complex(t.shift).real, complex(t.shift).imag, t.dorder)
            if key in merged:
                merged[key] = merged[key] + coeff
            else:
                merged[key] = coeff
        self.terms = tuple(
            Term(coeff, complex(k[0], k[1]), k[2]) for k, coeff in sorted(
                merged.items(), key=lambda kv: (kv[0][2], kv[0][1], kv[0][0])
            )
        )

    def __call__(self, f: AnalyticFunction) -> AnalyticFunction:
        """One node: f is evaluated once, at the distinct points z + shift of
        all terms and the highest derivative order any term needs."""
        f_jet = _as_function(f).jet
        terms = self.terms
        shifts = list(dict.fromkeys(t.shift for t in terms))
        shift_col = np.array(shifts, dtype=complex)[:, None]
        top = max((t.dorder for t in terms), default=0)

        def jet(z, K):
            points, where = np.unique(z + shift_col, return_inverse=True)
            values = f_jet(points, K + top)[:, where.reshape(-1)]
            values = values.reshape(K + top + 1, len(shifts), len(z))
            out = np.zeros((K + 1, len(z)), dtype=complex)
            for t in terms:
                g = values[: K + t.dorder + 1, shifts.index(t.shift)]
                out += _cauchy(t.coeff.jet(z, K), _derivative_rows(g, t.dorder))
            return out

        return AnalyticFunction(jet)

    apply = __call__

    def __add__(self, other):
        return DifferenceOperator(self.terms + other.terms)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return DifferenceOperator(Term(-t.coeff, t.shift, t.dorder) for t in self.terms)

    def __mul__(self, scalar):
        scalar = complex(scalar)
        return DifferenceOperator(
            Term(scalar * t.coeff, t.shift, t.dorder) for t in self.terms
        )

    __rmul__ = __mul__


def shift_op(a) -> DifferenceOperator:
    """Operator f(z) -> f(z + a)."""
    return DifferenceOperator([Term(const(1.0), complex(a), 0)])


def mul_op(c) -> DifferenceOperator:
    """Multiplication by the function (or scalar) c."""
    return DifferenceOperator([Term(_as_function(c), 0.0, 0)])


def deriv_op(order: int = 1) -> DifferenceOperator:
    """d^order/dz^order."""
    if order < 0:
        raise ValueError("derivative order must be >= 0")
    return DifferenceOperator([Term(const(1.0), 0.0, order)])


def identity_op() -> DifferenceOperator:
    return shift_op(0.0)


def compose(A: DifferenceOperator, B: DifferenceOperator) -> DifferenceOperator:
    """Operator product A B (apply B first)."""
    terms = []
    for ta in A.terms:
        for tb in B.terms:
            # D^{da} [ cb(z) g(z + sb) ] expanded with the Leibniz rule,
            # then shifted by sa and scaled by ca(z).
            cb_k = tb.coeff
            for k in range(ta.dorder + 1):
                coeff = ta.coeff * math.comb(ta.dorder, k) * cb_k.shifted(ta.shift)
                terms.append(Term(coeff, ta.shift + tb.shift, ta.dorder - k + tb.dorder))
                if k < ta.dorder:
                    cb_k = cb_k.derivative()
    return DifferenceOperator(terms)


def commutator(A: DifferenceOperator, B: DifferenceOperator) -> DifferenceOperator:
    return compose(A, B) - compose(B, A)


# ---- grids and residuals ----------------------------------------------


@dataclass(frozen=True)
class SampleGrid:
    points: tuple = field(default_factory=tuple)
    description: str = ""

    def __post_init__(self):
        pts = tuple(float(p) for p in self.points)
        if any(p <= 0.0 for p in pts):
            raise ValueError("grid points must be strictly positive")
        object.__setattr__(self, "points", pts)

    def __iter__(self):
        return iter(self.points)

    def __len__(self):
        return len(self.points)


def default_grid(n_points: int = 32, lo: float = 0.25, hi: float = 8.0) -> SampleGrid:
    """Logarithmically spaced grid staying off the origin."""
    pts = np.geomspace(lo, hi, n_points)
    return SampleGrid(tuple(pts), f"{n_points} log-spaced points in [{lo}, {hi}]")


def mixed_residual(values_a, values_b) -> float:
    """max |a - b| / (1 + |b|), elementwise over paired samples."""
    va = np.asarray(values_a, dtype=complex)
    vb = np.asarray(values_b, dtype=complex)
    return float(np.max(np.abs(va - vb) / (1.0 + np.abs(vb))))


def residual(A: DifferenceOperator, B: DifferenceOperator, f: AnalyticFunction,
             grid: SampleGrid) -> float:
    """Mixed-norm residual of A f against B f over the grid."""
    if len(grid) == 0:
        raise ValueError("grid must be non-empty")
    return function_residual(A(f), B(f), grid)


def function_residual(f: AnalyticFunction, g: AnalyticFunction, grid: SampleGrid) -> float:
    """Mixed-norm residual between two functions over the grid."""
    return mixed_residual(f(grid.points), g(grid.points))


def grid_ratio(f: AnalyticFunction, g: AnalyticFunction, grid: SampleGrid):
    """Pointwise ratio f/g over the grid: (mean, stddev/|mean|)."""
    vals = f(grid.points) / g(grid.points)
    mean = complex(np.mean(vals))
    spread = float(np.std(vals)) / abs(mean) if mean != 0 else math.inf
    return mean, spread
