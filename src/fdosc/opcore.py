"""Analytic-function and shift-operator algebra.

An AnalyticFunction evaluates on an array of points, ``values(z)``.  A
rational function also holds its canonical form, ``rational``: a Rational
N(z) / prod_q (z - q)^k_q, its rows N's coefficients (z^0 first) and their
sizes, the same sums over absolute values through every step that built
it.  A product convolves the numerators and adds the pole orders, a
linear factor meeting a pole cancelling one order of it; a sum lifts its
parts to their common denominator (``lifted``); ``shifted(a)``
Taylor-shifts N and moves each pole q to q - a.  A rational function whose
only pole is 0 is a Laurent sum, the only kind with a ``derivative``.
``stacked(fns)`` is one batched function whose row i is fns[i]: rational
rows as their numerators over their expanded denominators, all on one
table of powers of z in one np.einsum, so a point's values never depend on
the other points of the call.

A DifferenceOperator is a finite sum of terms coeff(z) f(z + shift), merged
by shift; ``compose(A, B)`` = sum_(s, t) a_s(z) b_t(z + s) T(s + t), T(s)
the shift by s.  Applying an operator gives one tower node, and applying
the same operator object to it again extends the node, so (B^+)^n phi_0 is
one node: a call evaluates phi_0 once at z + S_n, S_n the shift sums, and
the operator's ``coefficient_batch`` once at z plus every shift sum below
n, then steps down to z, each step one gather and one multiply-add over
all terms, summed in order.  A node keeps one shift set and one gather
per application and is laid out at its first call, so building (B^+)^n
phi_0 level by level lays out only the node that is called.  A function
may be batched, values (*B, len(z)): op(F) evaluates the coefficients once
for all rows, and its row i holds the floats op(F[i]) gives; F[i] and
F[a:b] are rows taken lazily, so a function is not iterable.
"""

from __future__ import annotations

import functools
import itertools
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
        """f(z + a): a rational function Taylor-shifts its numerator and
        moves each pole q to q - a, exactly."""
        a = complex(a)
        if a == 0 or _constant(self) is not None:
            return self
        r = self.rational
        if r is not None:
            return _function(np.einsum("rkj,rj->rk", _taylor(r.rows.shape[1], a), r.rows),
                             tuple((q - a, k) for q, k in r.poles))
        values = self.values
        return AnalyticFunction(lambda z: values(z + a))

    # ---- algebra -------------------------------------------------------

    def __add__(self, other):
        other = _as_function(other)
        if self.rational is not None and other.rational is not None:
            return _sum([self.rational, other.rational])
        if _constant(self) is not None:
            self, other = other, self
        f, g, c = self.values, other.values, _constant(other)
        if c is not None:
            return AnalyticFunction(lambda z: f(z) + c)
        return AnalyticFunction(lambda z: f(z) + g(z))

    __radd__ = __add__

    def __neg__(self):
        if self.rational is not None:
            r = self.rational
            return _function(r.rows * _NEGATED, r.poles)
        f = self.values
        return AnalyticFunction(lambda z: -f(z))

    def __mul__(self, other):
        if isinstance(other, AnalyticFunction):
            a, b = self.rational, other.rational
            if a is not None and b is not None:
                return _function(*_product(a, b))
            c, d = _constant(self), _constant(other)
            if d is not None:
                return self * d
            if c is not None:
                return other * c
            f, g = self.values, other.values
            return AnalyticFunction(lambda z: f(z) * g(z))
        if not isinstance(other, (int, float, complex)) and np.ndim(other) == 1:
            scale = np.asarray(other, dtype=complex)[:, None]  # one factor per row of a batch
            f = self.values
            return AnalyticFunction(lambda z: scale * f(z))
        c = complex(other)
        if c == 1:
            return self
        if self.rational is not None:
            r = self.rational
            return _function(r.rows * np.array([[c], [abs(c)]]), r.poles)
        f = self.values
        return AnalyticFunction(lambda z: c * f(z))

    __rmul__ = __mul__


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


def _constant(f: AnalyticFunction):
    """The value of a constant function, None for any other."""
    r = f.rational
    if r is not None and not r.poles and r.rows.shape[1] == 1:
        return complex(r.rows[0, 0])
    return None


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


def _summed(terms, axis) -> np.ndarray:
    """The complex array summed over one axis, term after term, whatever the
    other axes' lengths: reduced on its float view, whose inner (re, im) axis
    keeps numpy's reduction sequential, where over the only axis longer than
    1 it would add pairwise."""
    return np.add.reduce(terms.view(float), axis=axis).view(complex)


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


def gaussian(a=1.0) -> AnalyticFunction:
    """exp(-a z^2 / 2)."""
    a = complex(a)
    return AnalyticFunction(lambda z: np.exp(-a / 2.0 * z * z))


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
            merged.setdefault(complex(t.shift), []).append(_as_function(t.coeff))
        self.terms = tuple([Term(coeffs[0] if len(coeffs) == 1 else _merged(coeffs), shift)
                            for shift, coeffs in _ordered(merged)])

    @functools.cached_property
    def coefficient_batch(self):
        """Every term's coefficient as one batched function, z -> (terms,
        len(z)) values: the batch `stacked` builds, once, at the operator's
        first tower."""
        return stacked(t.coeff for t in self.terms).values

    def __call__(self, f: AnalyticFunction) -> AnalyticFunction:
        """One tower node: self applied to f, or once more to a tower of self."""
        return AnalyticFunction(_Tower(self, _as_function(f).values))

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


def _merged(coeffs) -> AnalyticFunction:
    """The sum of the coefficients that share a shift, in order: at once
    over their common denominator when every one is rational."""
    if all(c.rational is not None for c in coeffs):
        return _sum([c.rational for c in coeffs])
    return functools.reduce(AnalyticFunction.__add__, coeffs)


def _shift_order(shift):
    """Shifts, and poles, in order of imaginary part, then of real part."""
    return shift.imag, shift.real


class _Layout(NamedTuple):
    """Where a tower's values sit: the shift sums the coefficients act at
    (union), those the base acts at (base_shifts, a column), and the steps in
    the order they run, from level p - 1 down to 0, each (the place of S_j
    in union, the gather from S_(j+1))."""
    union: np.ndarray
    base_shifts: np.ndarray
    plan: tuple


class _Tower:
    """Values of op^p f: p applications of one operator object as one node.

    S_j lists the distinct shift sums of j applications, S_0 = [0] and
    S_(j+1) = S_j + shifts, each in order of shift (_shift_order);
    steps[j][t, k] is the index of S_j[k] plus the shift of term t in
    S_(j+1), so one gather reads every term's shifted values.  A node keeps
    only these, one level and one step per application, and is laid out
    (``layout``) at its first call: the base acts at z + S_p, the
    coefficients at z + union, union = S_0 | ... | S_(p-1) in the same
    order, and each S_j is placed in it, as a slice when S_j is a run of it,
    as it is for shifts along one line.  So a node p applications deep is
    laid out once, not once per application.
    """

    def __init__(self, op: DifferenceOperator, f_values):
        self.op = op
        inner = f_values if isinstance(f_values, _Tower) and f_values.op is op else None
        if inner is None:
            self.base, levels, steps = f_values, ((0j,),), ()
        else:
            self.base, levels, steps = inner.base, inner.levels, inner.steps
        last = levels[-1]
        # terms that share a shift share their entries of S_(j+1)
        following = tuple(sorted({s + t.shift for t in op.terms for s in last}, key=_shift_order))
        index = dict(zip(following, itertools.count()))
        self.levels = levels + (following,)
        self.steps = steps + (np.array([[index[s + t.shift] for s in last] for t in op.terms],
                                       dtype=np.intp).reshape(len(op.terms), len(last)),)

    @functools.cached_property
    def layout(self) -> _Layout:
        """The node's _Layout, built at its first call and kept."""
        union = sorted(set().union(*self.levels[:-1]), key=_shift_order)
        place = dict(zip(union, itertools.count()))
        at_union = [_run([place[s] for s in level]) for level in self.levels[:-1]]
        return _Layout(np.array(union, dtype=complex),
                       np.array(self.levels[-1], dtype=complex)[:, None],
                       tuple(zip(at_union, self.steps))[::-1])

    def coefficients(self, z):
        """The coefficient values at z + union on a term axis, shape (terms,
        |union|, len(z)), shared by every row of a batched base: one call of
        the operator's coefficient_batch."""
        n, union = len(z), self.layout.union
        points = z if len(union) == 1 else (z + union[:, None]).reshape(-1)
        return self.op.coefficient_batch(points).reshape(len(self.op.terms), len(union), n)

    def __call__(self, z):
        """The base once at z + S_p, then p steps over all terms and rows."""
        n = len(z)
        _, base_shifts, plan = self.layout
        values = self.base((z + base_shifts).reshape(-1))
        values = values.reshape(values.shape[:-1] + (len(base_shifts), n))
        block = self.coefficients(z)
        for at, step in plan:
            # values holds the values at z + S_(j+1), shape (*B, |S_(j+1)|, n);
            # the gather gives term t's shifted values at z + S_j on axis -3
            # (a ufunc call, not *: for a large temporary operand numpy computes
            # a * b as b * a in place, and its complex product is not commutative
            # in the last bit), summed over terms in order
            values = _summed(np.multiply(block[:, at], values[..., step, :]), -3)
        return values.reshape(values.shape[:-2] + (n,))


def _run(where):
    """Indices as a slice when they run consecutively, else as an array."""
    start = where[0] if where else 0
    if where == list(range(start, start + len(where))):
        return slice(start, start + len(where))
    return np.array(where, dtype=np.intp)


def stacked(fns) -> AnalyticFunction:
    """One batched function whose row i is fns[i], each a scalar function:
    their Rationals evaluated in one batch when every one is rational, else
    their values stacked."""
    fns = list(fns)
    if all(f.rational is not None for f in fns):
        return AnalyticFunction(_evaluator([f.rational for f in fns]))
    return AnalyticFunction(lambda z: np.array([f.values(z) for f in fns],
                                               dtype=complex).reshape(len(fns), len(z)))


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


def ratio_spread(values_a, values_b):
    """Pointwise ratio a/b over paired samples: (mean, stddev/|mean|)."""
    vals = np.asarray(values_a, dtype=complex) / np.asarray(values_b, dtype=complex)
    mean = complex(np.mean(vals))
    spread = float(np.std(vals)) / abs(mean) if mean != 0 else math.inf
    return mean, spread


def grid_ratio(f: AnalyticFunction, g: AnalyticFunction, points):
    """Pointwise ratio f/g at the points: (mean, stddev/|mean|)."""
    return ratio_spread(f(points), g(points))
