"""Analytic-function and shift-operator algebra.

An AnalyticFunction evaluates on an array of points, ``values(z)``.  A
rational sum sum_m c_m prod_(q, p) in m (z - q)^p, each monomial m a
frozenset of (pole q, real power p) factors (principal branch), also holds
its coefficients, ``monomials`` = {m: c_m}: +, *, scaling and ``shifted``
fold rational sums into one when an expression is built, so their
coefficients are exact algebra.  A product multiplies monomials, adding
the exponents at a shared pole, and f.shifted(a) relabels each pole q as
q - a; no sum is ever split into partial fractions.  ``monomial(p, at=q)``
is (z - q)^p.  A rational sum whose only pole is 0 is a Laurent sum
sum_p c_p z^p; only a Laurent sum has a derivative, and asking any other
function for one raises EvaluationError.  A call evaluates the expression
once on all its points; what outlives a call is an operator's
``coefficient_batch``, built at its first tower, and a rational sum's
own evaluation tables, built at its first call.

``stacked(fns)`` is one batched function whose row i is fns[i].  When every
one is a rational sum it holds one coefficient matrix over the union of
their monomials: a call evaluates each factor (z - q)^p once, each monomial
as the product of its factors, and each row as its monomials summed in
order, a point's values never depending on the other points of the call;
otherwise it stacks their values.

A DifferenceOperator is a finite sum of terms coeff(z) * f(z + shift);
shifts act exactly as argument translation, so operator identities can be
verified to machine precision.  ``compose`` gives the product
sum_(s, t) a_s(z) b_t(z + s) T(s + t) of A = sum_s a_s T(s) and
B = sum_t b_t T(t), T(s) the shift by s.

Applying an operator gives one tower node.  Applied to the output of the
same operator object, it gives one node for op^(p+1) f over the same base
f, so a ladder state (B^+)^n phi_0 is one node.  A call evaluates f once
at z + S_p, S_p the distinct shift sums of p applications, and every
coefficient in one call of the operator's ``coefficient_batch`` (its
terms' coefficients ``stacked``, built at its first tower), at z plus the
union of S_0..S_(p-1), on a term axis; points are not merged across z.
Then p steps carry the values from z + S_p down to z, each one gather of
every term's shifted values and one stacked multiply-add, summed over the
terms in order, so a point's values do not depend on the other points of
the call.  Any other wrapper, such as 2.0 * op(f) or an operator object
with equal terms, starts a new tower.

A function may be vector-valued, with values of shape (*B, len(z)): the
batched leaves (``nonrel.eigenfunctions``, ``rel.eigenfunctions``, a
batched ``from_callable``) and products with one; multiplying one by a
1-d array scales each row.  op(F) of a batched F is one tower whose call
evaluates the coefficients once for all rows, and row i of op(F) holds the
floats op(F[i]) gives.  F[i] is row i as a function and F[a:b] rows
a..b-1, taken lazily, so a function is not iterable.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import NamedTuple

import numpy as np

from .errors import EvaluationError

_ONE = frozenset()  # the monomial of a constant, no factor
_BLOCK = 2**12  # complex entries of one pass's (slot, sum, point) block of a rational batch


class AnalyticFunction:
    """Deterministic complex function of one complex variable: ``values(z)``
    maps a 1-d complex array of points to the (*B, len(z)) array of values,
    B empty for a scalar function.  ``monomials`` is {m: c_m} for a rational
    sum sum_m c_m prod_(q, p) in m (z - q)^p, m a frozenset of (pole q,
    exponent p) pairs, and None otherwise."""

    __slots__ = ("values", "monomials")
    __array_ufunc__ = None  # ndarray * f defers to f.__rmul__
    __iter__ = None  # f[i] never raises IndexError, so iterating would not end

    def __init__(self, values, monomials=None):
        self.values = values
        self.monomials = monomials

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
        monomials = self.monomials
        if monomials is None or any(q != 0 for m in monomials for q, _ in m):
            raise EvaluationError("no derivative is known for a function that is "
                                  "not a Laurent sum")
        # each monomial of a Laurent sum is one factor z^p, a constant none
        return _rational({_monomial(p - 1): p * c for m, c in monomials.items() for _, p in m})

    def shifted(self, a) -> "AnalyticFunction":
        """f(z + a): a rational sum relabels each pole q as q - a, exactly."""
        a = complex(a)
        if a == 0 or _constant(self) is not None:
            return self
        if self.monomials is not None:
            return _rational({frozenset([(q - a, p) for q, p in m]): c
                              for m, c in self.monomials.items()})
        values = self.values
        return AnalyticFunction(lambda z: values(z + a))

    # ---- algebra -------------------------------------------------------

    def __add__(self, other):
        other = _as_function(other)
        a, b = self.monomials, other.monomials
        if a is not None and b is not None:
            return _rational(_folded_sum(a, b))
        if _constant(self) is not None:
            self, other = other, self
        f, g, c = self.values, other.values, _constant(other)
        if c is not None:
            return AnalyticFunction(lambda z: f(z) + c)
        return AnalyticFunction(lambda z: f(z) + g(z))

    __radd__ = __add__

    def __neg__(self):
        if self.monomials is not None:
            return _rational({m: -c for m, c in self.monomials.items()})
        f = self.values
        return AnalyticFunction(lambda z: -f(z))

    def __mul__(self, other):
        if isinstance(other, AnalyticFunction):
            c, d = _constant(self), _constant(other)
            if d is not None:
                return self * d
            if c is not None:
                return other * c
            a, b = self.monomials, other.monomials
            if a is not None and b is not None:
                return _rational(_folded_product(a, b))
            f, g = self.values, other.values
            return AnalyticFunction(lambda z: f(z) * g(z))
        if not isinstance(other, (int, float, complex)) and np.ndim(other) == 1:
            scale = np.asarray(other, dtype=complex)[:, None]  # one factor per row of a batch
            f = self.values
            return AnalyticFunction(lambda z: scale * f(z))
        c = complex(other)
        if c == 1:
            return self
        if self.monomials is not None:
            return _rational({m: c * v for m, v in self.monomials.items()})
        f = self.values
        return AnalyticFunction(lambda z: c * f(z))

    __rmul__ = __mul__


def _folded_sum(a: dict, b: dict) -> dict:
    """{key: a_key + b_key}, keys in order of first appearance."""
    total = dict(a)
    for k, v in b.items():
        total[k] = total.get(k, 0) + v
    return total


def _folded_product(a: dict, b: dict) -> dict:
    """{k l: sum of a_k b_l} of two rational sums, accumulated in the order
    of a, then b."""
    product: dict = {}
    get = product.get
    for k, u in a.items():
        for l, v in b.items():
            kl = _times(k, l)
            product[kl] = get(kl, 0) + u * v
    return product


def _times(m: frozenset, n: frozenset) -> frozenset:
    """The monomial m n: exponents at a shared pole add, and a pole whose
    exponent sums to 0 drops out."""
    if not m:
        return n
    if not n:
        return m
    out = dict(m)
    for q, p in n:
        p += out.pop(q, 0)
        if p:
            out[q] = p
    return frozenset(out.items())


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
    if f.monomials is not None and f.monomials.keys() <= {_ONE}:
        return f.monomials.get(_ONE, 0j)
    return None


# ---- primitive functions ----------------------------------------------


def _monomial(p, at=0j) -> frozenset:
    """The monomial (z - at)^p: one factor, none for p = 0."""
    return frozenset({(complex(at), p)}) if p else _ONE


def _rational(monomials) -> AnalyticFunction:
    """The rational sum of {m: c_m}, a zero c_m dropped.  Its
    _rational_rows tables are built at its first call and kept by it."""
    if 0 in monomials.values():
        monomials = {m: c for m, c in monomials.items() if c != 0}
    rows = None

    def values(z):
        nonlocal rows
        if rows is None:
            rows = _rational_rows([monomials])
        return rows(z)[0]

    return AnalyticFunction(values, monomials)


def _rational_rows(sums):
    """z -> the values of the rational sums at z, shape (len(sums), len(z)):
    one coefficient matrix over the union of their monomials, held as each
    sum's (monomial, coefficient) pairs in its own order.

    Each monomial is the product of its factors (z - q)^p in order of pole,
    never split into partial fractions.  Each row sums its monomials in
    order, so a point's values do not depend on the other points of the
    call; the points are taken in passes of at most _BLOCK products."""
    # the union of the monomials, the constant first: it pads the shorter rows
    index = dict(zip(dict.fromkeys(itertools.chain([_ONE], *sums)), itertools.count()))
    slots = _padded([[index[m] for m in s] for s in sums], np.intp).T
    coeffs = _padded([list(s.values()) for s in sums], complex).T[:, :, None]
    # the factor table in order of pole, after row 0, z^0 = 1, which pads
    # the shorter monomials: each multiplies its factors in row order
    factors = [(0j, 0)] + sorted(frozenset().union(*index), key=_factor_order)
    row = dict(zip(factors[1:], itertools.count(1)))
    where = _padded([sorted(row[f] for f in m) for m in index], np.intp)
    poles = np.array([q for q, _ in factors], dtype=complex)[:, None]
    exponents = np.array([p for _, p in factors], dtype=complex)[:, None]

    def chunk(z):
        # ufunc calls, not operators: for a large temporary operand numpy
        # computes a * b as b * a in place, and its complex product is not
        # commutative in the last bit
        table = np.power(z - poles, exponents)
        values = table[where[:, 0]]
        for column in where.T[1:]:
            values = np.multiply(values, table[column])
        terms = values[slots]
        np.multiply(coeffs, terms, out=terms)
        return _summed(terms, 0)

    step = max(1, _BLOCK // (slots.size or 1))

    def rows(z):
        if len(z) <= step:
            return chunk(z)
        out = np.empty((len(sums), len(z)), dtype=complex)
        for start in range(0, len(z), step):
            out[:, start:start + step] = chunk(z[start:start + step])
        return out

    return rows


def _summed(terms, axis) -> np.ndarray:
    """The complex array summed over one axis, term after term, whatever the
    other axes' lengths: reduced on its float view, whose inner (re, im) axis
    keeps numpy's reduction sequential, where over the only axis longer than
    1 it would add pairwise."""
    return np.add.reduce(terms.view(float), axis=axis).view(complex)


def _padded(rows, dtype) -> np.ndarray:
    """The rows as one array, each padded with zeros to the longest, at
    least 1."""
    width = max(map(len, rows), default=0) or 1
    return np.array([row + [0] * (width - len(row)) for row in rows],
                    dtype=dtype).reshape(len(rows), width)


def _factor_order(factor):
    q, p = factor
    return (*_shift_order(q), p)


def const(c) -> AnalyticFunction:
    return _rational({_ONE: complex(c)})


def coordinate() -> AnalyticFunction:
    return monomial(1)


def monomial(p, at=0.0) -> AnalyticFunction:
    """(z - at)**p on the principal branch: z**p, a Laurent sum, at the
    default pole 0."""
    return _rational({_monomial(p, at): 1.0 + 0j})


def polynomial(coeffs) -> AnalyticFunction:
    """sum_k coeffs[k] z^k."""
    return _rational({_monomial(k): complex(c) for k, c in enumerate(coeffs)})


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
            coeff = _as_function(t.coeff)
            shift = complex(t.shift)
            merged[shift] = merged[shift] + coeff if shift in merged else coeff
        self.terms = tuple(Term(merged[shift], shift)
                           for shift in sorted(merged, key=_shift_order))

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


def _shift_order(shift):
    """Shifts, and poles, in order of imaginary part, then of real part."""
    return shift.imag, shift.real


class _Tower:
    """Values of op^p f: p applications of one operator object as one node.

    S_j lists the distinct shift sums of j applications, S_0 = [0] and
    S_(j+1) = S_j + shifts, each in order of shift (_shift_order);
    steps[j][t, k] is the index of S_j[k] plus the shift of term t in
    S_(j+1), so one gather reads every term's shifted values.  The base acts
    at z + S_p, the coefficients at z + union, union = S_0 | ... | S_(p-1) in
    the same order; at_union[j] places S_j in it, as a slice when S_j is a
    run of it, as it is for shifts along one line.
    """

    def __init__(self, op: DifferenceOperator, f_values):
        self.op = op
        inner = f_values if isinstance(f_values, _Tower) and f_values.op is op else None
        if inner is None:
            self.base, levels, steps = f_values, [[0j]], []
        else:
            self.base, levels, steps = inner.base, list(inner.levels), list(inner.steps)
        last = levels[-1]
        # terms that share a shift share their entries of S_(j+1)
        following = sorted({s + t.shift for t in op.terms for s in last}, key=_shift_order)
        index = dict(zip(following, itertools.count()))
        steps.append(np.array([[index[s + t.shift] for s in last] for t in op.terms],
                              dtype=np.intp).reshape(len(op.terms), len(last)))
        levels.append(following)
        union = sorted(set().union(*levels[:-1]), key=_shift_order)
        place = dict(zip(union, itertools.count()))
        self.levels, self.steps = levels, steps
        self.at_union = [_run([place[s] for s in level]) for level in levels[:-1]]
        self.union = np.array(union, dtype=complex)
        self.base_shifts = np.array(following, dtype=complex)[:, None]

    def coefficients(self, z):
        """The coefficient values at z + union on a term axis, shape (terms,
        |union|, len(z)), shared by every row of a batched base: one call of
        the operator's coefficient_batch."""
        n = len(z)
        points = z if len(self.union) == 1 else (z + self.union[:, None]).reshape(-1)
        return self.op.coefficient_batch(points).reshape(len(self.op.terms), len(self.union), n)

    def __call__(self, z):
        """The base once at z + S_p, then p steps over all terms and rows."""
        n = len(z)
        values = self.base((z + self.base_shifts).reshape(-1))
        values = values.reshape(values.shape[:-1] + (len(self.base_shifts), n))
        block = self.coefficients(z)
        for j in reversed(range(len(self.steps))):
            # values holds the values at z + S_(j+1), shape (*B, |S_(j+1)|, n);
            # the gather gives term t's shifted values at z + S_j on axis -3
            # (a ufunc call, not *: see _rational_rows), summed over terms in order
            values = _summed(np.multiply(block[:, self.at_union[j]],
                                         values[..., self.steps[j], :]), -3)
        return values.reshape(values.shape[:-2] + (n,))


def _run(where):
    """Indices as a slice when they run consecutively, else as an array."""
    start = where[0] if where else 0
    if where == list(range(start, start + len(where))):
        return slice(start, start + len(where))
    return np.array(where, dtype=np.intp)


def stacked(fns) -> AnalyticFunction:
    """One batched function whose row i is fns[i], each a scalar function: one
    coefficient matrix over their monomials when every one is a rational
    sum, else their values stacked."""
    fns = list(fns)
    sums = [f.monomials for f in fns]
    if all(s is not None for s in sums):
        return AnalyticFunction(_rational_rows(sums))
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
    return DifferenceOperator(Term(ta.coeff * tb.coeff.shifted(ta.shift), ta.shift + tb.shift)
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
