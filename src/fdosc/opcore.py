"""Analytic-function and shift-operator algebra.

An AnalyticFunction evaluates on an array of points, ``values(z)``.  A
rational function also holds its canonical form, ``rational``: a Rational
N(z) / prod_q (z - q)^k_q, its rows N's coefficients (z^0 first) and their
sizes, the same sums over absolute values through every step that built
it.  Arithmetic is on rational functions only: a product convolves the
numerators and adds the pole orders, a linear factor meeting a pole
cancelling one order of it; a sum lifts its parts to their common
denominator (``lifted``); ``shifted(a)`` Taylor-shifts N and moves each
pole q to q - a.  A rational function whose only pole is 0 is a Laurent
sum, the only kind with a ``derivative``.  A leaf, known by its values
alone (``exp_linear``, ``from_callable``, an eigenfunction, an operator
applied to a function), can be called, be an operator's argument and be
scaled by a number; any other arithmetic on it raises TypeError.

A DifferenceOperator is a finite sum of terms coeff(z) f(z + shift), each
coefficient rational (TypeError naming the shift for any other), merged
by shift; ``compose(A, B)`` = sum_(s, t) a_s(z) b_t(z + s) T(s + t), T(s)
the shift by s.  Its ``coefficient_batch`` evaluates every coefficient as
its numerator over its expanded denominator, all on one table of powers
of z in one np.einsum, so a point's values never depend on the other
points of the call.  Applying an operator is one application, op(f): a
call evaluates f once at z + every shift and the coefficient batch once
at z, and sums the terms in shift order; op(op(f)) nests, its cost the
number of terms to the n for n levels.  A function may be batched,
values (*B, len(z)): op(F) evaluates the coefficients once for all rows,
and its row i holds the floats op(F[i]) gives; F[i] and F[a:b] are rows
taken lazily, so a function is not iterable.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .errors import EvaluationError


class Rational(NamedTuple):
    """N(z) / prod (z - q)^k over the poles ((q, k), ...) in pole order:
    rows[0] holds N's coefficients, z^0 first, and rows[1] their sizes, one
    complex array so that every step treats both at once."""
    rows: np.ndarray
    poles: tuple = ()


class AnalyticFunction:
    """Deterministic complex function of one complex variable: ``values(z)``
    maps a 1-d complex array of points to the (*B, len(z)) array of values,
    B empty for a scalar function.  ``rational`` is its Rational for a
    rational function, and None otherwise."""

    __slots__ = ("values", "rational")
    __array_ufunc__ = None  # ndarray * f defers to f.__rmul__
    __iter__ = None  # f[i] never raises IndexError, so iterating would not end

    def __init__(self, values, rational=None):
        self.values = values
        self.rational = rational

    def __call__(self, z):
        """f(z) for a scalar (a complex) or a sequence or array (an ndarray);
        a batched function gives an ndarray of shape (*B, *z.shape)."""
        pts = np.asarray(z, dtype=complex)
        w = _checked_values(self.values, pts)
        if w.ndim == 1 and pts.ndim == 0:
            return complex(w[0])
        return w.reshape(w.shape[:-1] + pts.shape)

    def __getitem__(self, i) -> "AnalyticFunction":
        """Row i, or the rows of a slice i, of a batched function: its first
        batch axis indexed."""
        values = self.values
        return AnalyticFunction(lambda z: values(z)[i])

    def derivative(self) -> "AnalyticFunction":
        """The derivative of a Laurent sum, term by term; EvaluationError for
        any other function."""
        r = self.rational
        if r is None or any(q != 0 for q, _ in r.poles):
            raise EvaluationError("no derivative is known for a function that is "
                                  "not a Laurent sum")
        # N z^-k has the derivative sum_j (j - k) n_j z^(j-k-1)
        k = r.poles[0][1] if r.poles else 0
        order = np.arange(r.rows.shape[1]) - k
        rows = np.stack((order, np.abs(order))) * r.rows
        if k:
            return _function(rows, ((0j, k + 1),))
        return _function(rows[:, 1:] if len(order) > 1 else rows)  # the constant term drops out

    def shifted(self, a) -> "AnalyticFunction":
        """f(z + a) of a rational function: its numerator Taylor-shifted and
        each pole q moved to q - a, exactly."""
        a, r = complex(a), _rational(self)
        if a == 0 or (r.rows.shape[1] == 1 and not r.poles):  # a constant
            return self
        return _function(np.einsum("rkj,rj->rk", _taylor(r.rows.shape[1], a), r.rows),
                         tuple((q - a, k) for q, k in r.poles))

    # ---- algebra: rational functions, and a leaf scaled by a number ------

    def __add__(self, other):
        return _sum([_rational(self), _rational(_as_function(other))])

    __radd__ = __add__

    def __neg__(self):
        r = _rational(self)
        return _function(r.rows * _NEGATED, r.poles)

    def __mul__(self, other):
        if isinstance(other, AnalyticFunction):
            return _function(*_product(_rational(self), _rational(other)))
        c = complex(other)
        if c == 1:
            return self
        r = self.rational
        if r is None:
            f = self.values
            return AnalyticFunction(lambda z: c * f(z))
        return _function(r.rows * np.array([[c], [abs(c)]]), r.poles)

    __rmul__ = __mul__


def _rational(f: AnalyticFunction) -> Rational:
    """f's Rational.  TypeError for a leaf: a leaf is called, is an
    operator's argument and is scaled by a number, and enters no other
    arithmetic."""
    if f.rational is None:
        raise TypeError("a leaf takes no arithmetic but scaling by a number")
    return f.rational


_NEGATED = np.array([[-1.0], [1.0]])  # -N, with N's sizes


def _sum(rationals) -> AnalyticFunction:
    """The sum of rational functions: each lifted to their common
    denominator, then the numerators and sizes added in order."""
    lifts, poles = lifted(rationals)
    total = np.zeros((2, max(rows.shape[1] for rows in lifts)), dtype=complex)
    for rows in lifts:
        total[:, :rows.shape[1]] += rows
    return _function(total, poles)


def _product(a: Rational, b: Rational) -> Rational:
    """The product a b: a linear factor c (z - r) of one, with no pole,
    cancels one order of the other's pole r; otherwise the numerators and
    their sizes convolve and the pole orders add."""
    for x, y in ((a, b), (b, a)):
        if y.poles and x.rows.shape[1] == 2 and not x.poles and x.rows[0, 1] != 0:
            orders, root = dict(y.poles), complex(-x.rows[0, 0] / x.rows[0, 1])
            if root in orders:
                orders[root] -= 1
                return Rational(x.rows[:, 1:] * y.rows, tuple(p for p in orders.items() if p[1]))
    if not (a.poles and b.poles):  # already in order
        return Rational(_convolved(a.rows, b.rows), a.poles or b.poles)
    orders = dict(a.poles)
    for q, k in b.poles:
        orders[q] = orders.get(q, 0) + k
    return Rational(_convolved(a.rows, b.rows), _ordered(orders))


def _convolved(a, b) -> np.ndarray:
    """Row by row, the coefficients of the product of two polynomials."""
    if a.shape[1] == 1 or b.shape[1] == 1:
        return a * b
    return np.array([np.convolve(a[0], b[0]), np.convolve(a[1], b[1])])


def lifted(rationals) -> tuple[list, tuple]:
    """Rational functions (Rationals) over their common denominator D, the
    least product of their poles: each one's numerator and sizes over D as
    its rows, and D's poles.  A part whose poles are D's is not lifted."""
    poles = rationals[0].poles
    if any(r.poles != poles for r in rationals):
        orders: dict = {}
        for r in rationals:
            for q, k in r.poles:
                orders[q] = max(orders.get(q, 0), k)
        poles = _ordered(orders)
    return [r.rows if r.poles == poles else _lift(r, poles) for r in rationals], poles


def _lift(r: Rational, poles) -> np.ndarray:
    """r's rows over the poles, which hold its own: times the product of
    the factors (z - q) they add."""
    own = dict(r.poles)
    return _convolved(r.rows, expanded(
        tuple((q, k - own.get(q, 0)) for q, k in poles if k > own.get(q, 0))))


@functools.lru_cache(maxsize=256)
def expanded(poles) -> np.ndarray:
    """The coefficients of prod (z - q)^k over the poles ((q, k), ...), z^0
    first, and in row 1 those of prod (z + |q|)^k, their sizes."""
    rows = np.ones((2, 1), dtype=complex)
    for q, k in poles:
        for _ in range(k):
            rows = _convolved(rows, np.array([[-q, 1.0], [abs(q), 1.0]]))
    rows.flags.writeable = False  # shared by every caller
    return rows


@functools.lru_cache(maxsize=256)
def _taylor(n: int, a: complex) -> np.ndarray:
    """The matrices [k, j] that take the n coefficients of N and their
    sizes to those of N(z + a): C(j, k) a^(j-k) and C(j, k) |a|^(j-k)."""
    binomial = np.array([[math.comb(j, k) for j in range(n)] for k in range(n)], dtype=float)
    steps = np.array([[a], [abs(a)]]) ** np.arange(n)
    matrices = binomial * steps[:, np.maximum(np.subtract.outer(range(n), range(n)).T, 0)]
    matrices.flags.writeable = False  # shared by every caller
    return matrices


def _ordered(orders: dict) -> tuple:
    """The items of a dict keyed by shift or pole, in their order (_shift_order)."""
    return tuple(sorted(orders.items(), key=lambda item: _shift_order(item[0])))


def _checked_values(evaluate, pts):
    """evaluate(flat points) -> the values there, under the one error contract
    of every evaluation: numpy warnings off, ZeroDivisionError, OverflowError
    and ValueError raised as EvaluationError, and a non-finite value an
    EvaluationError that names its point."""
    flat = pts.reshape(-1)
    with np.errstate(all="ignore"):
        try:
            w = evaluate(flat)
        except (ZeroDivisionError, OverflowError, ValueError) as exc:
            where = complex(pts) if pts.ndim == 0 else f"{pts.size} points"
            raise EvaluationError(f"evaluation failed at z = {where}: {exc}") from exc
    bad = ~np.isfinite(w)
    if bad.any():  # the first in row order; a batch has one row per function
        raise EvaluationError(
            f"non-finite value at z = {complex(np.broadcast_to(flat, w.shape)[bad][0])}")
    return w


def _as_function(x) -> AnalyticFunction:
    if isinstance(x, AnalyticFunction):
        return x
    return const(x)


# ---- primitive functions ----------------------------------------------


def _function(rows, poles=()) -> AnalyticFunction:
    """The rational function of the Rational (rows, poles); its tables are
    built at its first call and kept by it."""
    r = Rational(rows, poles)
    batch = None

    def values(z):
        nonlocal batch
        if batch is None:
            batch = _evaluator([r])
        return batch(z)[0]

    return AnalyticFunction(values, r)


def _evaluator(rationals):
    """z -> the values of the rational functions at z, (len(rationals),
    len(z)): numerators and expanded denominators on one table of powers of
    z, in one np.einsum (complex: no BLAS)."""
    polys = [r.rows[0] for r in rationals] + [expanded(r.poles)[0] for r in rationals]
    width = max(map(len, polys), default=1)
    matrix = np.zeros((len(polys), width), dtype=complex)
    for row, p in zip(matrix, polys):
        row[:len(p)] = p

    def rows(z):
        powers = np.empty((width, len(z)), dtype=complex)  # 1, z, z^2, ... by running products
        powers[0], powers[1:] = 1.0, z
        values = np.einsum("tj,jz->tz", matrix, np.cumprod(powers, axis=0, out=powers))
        return values[:len(rationals)] / values[len(rationals):]

    return rows


def const(c) -> AnalyticFunction:
    c = complex(c)
    return _function(np.array([[c], [abs(c)]]))


def coordinate() -> AnalyticFunction:
    return monomial(1)


def monomial(p: int, at=0.0) -> AnalyticFunction:
    """(z - at)**p for a whole power p: z**p, a Laurent sum, at the default
    pole 0.  ValueError for any other power."""
    if p != int(p):
        raise ValueError(f"a monomial has a whole power, got {p}")
    p, at = int(p), complex(at)
    if p < 0:
        return _function(np.ones((2, 1), dtype=complex), ((at, -p),))
    return _function(expanded(((at, p),)))


def polynomial(coeffs) -> AnalyticFunction:
    """sum_k coeffs[k] z^k."""
    coeffs = np.array(coeffs, dtype=complex).reshape(-1)
    return _function(np.array([coeffs, np.abs(coeffs)]))


def exp_linear(k) -> AnalyticFunction:
    """exp(k z)."""
    k = complex(k)
    return AnalyticFunction(lambda z: np.exp(k * z))


def from_callable(fn) -> AnalyticFunction:
    """Leaf from an array function fn(z) -> values of shape (*B, len(z))."""
    return AnalyticFunction(lambda z: np.asarray(fn(z), dtype=complex))


# ---- operators ---------------------------------------------------------


class Term(NamedTuple):
    coeff: AnalyticFunction
    shift: complex


class DifferenceOperator:
    """Finite sum of terms f(z) -> coeff(z) * f(z + shift).

    Immutable; terms with identical shift are merged by adding their
    coefficient functions, and kept in order of shift (_shift_order).
    """

    def __init__(self, terms):
        merged: dict = {}
        for t in terms:
            coeff = _as_function(t.coeff)
            if coeff.rational is None:
                raise TypeError(f"the coefficient at shift {t.shift} is not a rational function")
            merged.setdefault(complex(t.shift), []).append(coeff)
        self.terms = tuple([Term(coeffs[0] if len(coeffs) == 1
                                 else _sum([c.rational for c in coeffs]), shift)
                            for shift, coeffs in _ordered(merged)])

    @functools.cached_property
    def coefficient_batch(self):
        """Every term's coefficient in one batch, z -> (terms, len(z))
        values, built once, at the first call of an application."""
        return _evaluator([t.coeff.rational for t in self.terms])

    def __call__(self, f: AnalyticFunction) -> AnalyticFunction:
        """self applied to f once: a call evaluates f once at z + every
        shift and the coefficient batch once at z, and sums the terms'
        products in shift order.  So n nested applications of an operator of
        T terms evaluate the innermost f at T^n points per point."""
        f_values = _as_function(f).values
        shifts = np.array([t.shift for t in self.terms], dtype=complex)[:, None]

        def values(z):
            w = f_values((z + shifts).reshape(-1))
            w = w.reshape(w.shape[:-1] + (len(shifts), len(z)))
            # from -0.0, the identity of +, so the sum keeps each product's
            # sign of zero; np.multiply, not *: numpy may compute a * b of a
            # large temporary as b * a, and its complex product is not
            # commutative in the last bit
            return functools.reduce(np.add, (np.multiply(c, w[..., t, :]) for t, c in
                                             enumerate(self.coefficient_batch(z))),
                                    np.full(w.shape[:-2] + z.shape, complex(-0.0, -0.0)))

        return AnalyticFunction(values)

    apply = __call__

    def __add__(self, other):
        return DifferenceOperator(self.terms + other.terms)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return DifferenceOperator(Term(-t.coeff, t.shift) for t in self.terms)

    def __mul__(self, scalar):
        scalar = complex(scalar)
        return DifferenceOperator(Term(scalar * t.coeff, t.shift) for t in self.terms)

    __rmul__ = __mul__


def _shift_order(shift):
    """Shifts, and poles, in order of imaginary part, then of real part."""
    return shift.imag, shift.real


def shift_op(a) -> DifferenceOperator:
    """Operator f(z) -> f(z + a)."""
    return DifferenceOperator([Term(const(1.0), complex(a))])


def mul_op(c) -> DifferenceOperator:
    """Multiplication by the function (or scalar) c."""
    return DifferenceOperator([Term(_as_function(c), 0.0)])


def identity_op() -> DifferenceOperator:
    return shift_op(0.0)


def compose(A: DifferenceOperator, B: DifferenceOperator) -> DifferenceOperator:
    """Operator product A B (apply B first): sum over term pairs of
    a_s(z) b_t(z + s) T(s + t)."""
    return DifferenceOperator(products(A, B))


def products(A: DifferenceOperator, B: DifferenceOperator):
    """The terms a_s(z) b_t(z + s) T(s + t) of A B, one per term pair, not
    yet merged by shift."""
    return (Term(ta.coeff * tb.coeff.shifted(ta.shift), ta.shift + tb.shift)
            for ta in A.terms for tb in B.terms)


# ---- grids and residuals ----------------------------------------------


def default_grid(n_points: int = 32, lo: float = 0.25, hi: float = 8.0) -> np.ndarray:
    """n_points logarithmically spaced sample points in [lo, hi], lo > 0 so
    the grid stays off the origin."""
    if not lo > 0.0:
        raise ValueError(f"grid points must be strictly positive, got lo = {lo}")
    return np.geomspace(lo, hi, n_points)


def mixed_residual(values_a, values_b) -> float:
    """max |a - b| / (1 + |b|), elementwise over paired samples."""
    va = np.asarray(values_a, dtype=complex)
    vb = np.asarray(values_b, dtype=complex)
    return float(np.max(np.abs(va - vb) / (1.0 + np.abs(vb))))


def grid_ratio(f: AnalyticFunction, g: AnalyticFunction, points):
    """Pointwise ratio f/g at the points: (mean, stddev/|mean|)."""
    vals = np.asarray(f(points)) / np.asarray(g(points))
    mean = complex(np.mean(vals))
    spread = float(np.std(vals)) / abs(mean) if mean != 0 else math.inf
    return mean, spread
