"""Analytic-function and shift-operator algebra.

An AnalyticFunction evaluates on an array of points as a truncated Taylor
jet, the coefficients f^(k)(z)/k! for k = 0..K (Taylor-mode propagation;
Griewank & Walther, *Evaluating Derivatives*, 2nd ed., ch. 13).  The
primitives give their jets in closed form, so derivatives are exact;
``polynomial`` gives every coefficient row of its jet from one Horner pass,
the rows zero-padded in front to one length.  Nothing is cached: a call
evaluates the expression once on all its points.

A DifferenceOperator is a finite sum of terms coeff(z) * D^k f(z + shift);
shifts act exactly as argument translation, so operator identities can be
verified to machine precision.

Applying an operator gives one tower node.  Applied to the output of the
same operator object, it gives one node for op^(p+1) f over the same base f
instead of a node around a node, so a ladder state (B^+)^n phi_0 is one
node.  A call evaluates f once at z + S_p, where S_p holds the distinct
shift sums of p applications, and each coefficient once, at z plus the
union of S_0..S_(p-1), stacked on a term axis.  Points are not merged
across z: a point given twice, or two points one shift apart, are
evaluated twice.  Then p stencil steps carry the jets from z + S_p down to
z, each one gather of every term's derivative rows and one stacked
multiply-add over all terms.  Power 1 is the same code.  Any other
wrapper, such as 2.0 * op(f) or a different operator object with equal
terms, starts a new tower.

A function may be vector-valued: its jet then has leading batch axes,
shape (*B, K+1, len(z)), and a call returns shape (*B, *z.shape).  Batches
come from batched leaves, such as ``nonrel.eigenfunctions``,
``rel.eigenfunctions`` and a batched ``from_callable``, and from products
with one; multiplying one by a 1-d array scales each row.  Primitives and
operator coefficients stay scalar; the algebra and the towers index the
order axis from the end and broadcast over the batch axes.  So op(F) of a
batched F is one tower whose call evaluates the coefficients once for all
rows and runs one pass of base and stencil steps over all of them, and
A(B(F)) evaluates each of A's and B's coefficient blocks once; row i of
op(F) holds the floats op(F[i]) gives.  F[i] is row i of a batched F as a
function, and F[a:b] its rows a..b-1; a row is taken lazily, with no end to
check, so a function is not iterable.

A ladder level is an axis too.  ``powers(op, f, p)`` is op^k f for k = 0..p
on a leading axis, from the one pass of the tower op^p f: on its way down
that pass holds op^k f at z + S_(p-k), and an operator with a zero-shift
term has 0 in every S_j, so each level is read there, bit for bit the
floats of the tower op^k f.

``from_callable(fn)`` wraps an array function, fn(complex ndarray) ->
values of the same shape, or of shape (*B, len(z)) for a batched leaf.
Such a leaf has no derivative: evaluating one raises EvaluationError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError


class AnalyticFunction:
    """Deterministic complex function of one complex variable.

    Closed under +, negation, *, scalar multiplication, argument shift and
    differentiation.  ``jet(z, K)`` maps a 1-d complex array of points to
    the (*B, K+1, len(z)) array of Taylor coefficients f^(k)(z)/k!, where
    the batch axes B are empty for a scalar function.  ``value`` is the
    complex value of a constant and None otherwise; the algebra folds
    constants when an expression is built, so they cost no jet at run time.
    """

    __slots__ = ("jet", "value")
    __array_ufunc__ = None  # ndarray * f defers to f.__rmul__
    __iter__ = None  # f[i] never raises IndexError, so iterating would not end

    def __init__(self, jet, value=None):
        self.jet = jet
        self.value = value

    def __call__(self, z):
        """f(z) for a scalar (a complex) or a sequence or array (an ndarray);
        a batched function gives an ndarray of shape (*B, *z.shape)."""
        pts = np.asarray(z, dtype=complex)
        w = _checked_values(lambda flat: self.jet(flat, 0)[..., 0, :], pts)
        if w.ndim == 1 and pts.ndim == 0:
            return complex(w[0])
        return w.reshape(w.shape[:-1] + pts.shape)

    def __getitem__(self, i) -> "AnalyticFunction":
        """Row i, or the rows of a slice i, of a batched function: its first
        batch axis indexed."""
        jet = self.jet
        return AnalyticFunction(lambda z, K: jet(z, K)[i])

    def derivative(self) -> "AnalyticFunction":
        if self.value is not None:
            return const(0.0)
        jet = self.jet
        # row j of the jet of f' is (j + 1) times row j + 1 of the jet of f
        return AnalyticFunction(
            lambda z, K: jet(z, K + 1)[..., 1:, :] * np.arange(1.0, K + 2)[:, None])

    def shifted(self, a) -> "AnalyticFunction":
        a = complex(a)
        if a == 0 or self.value is not None:
            return self
        jet = self.jet
        return AnalyticFunction(lambda z, K: jet(z + a, K))

    # ---- algebra -------------------------------------------------------

    def __add__(self, other):
        other = _as_function(other)
        if other.value is not None:
            return self._plus_const(other.value)
        if self.value is not None:
            return other._plus_const(self.value)
        f, g = self.jet, other.jet
        return AnalyticFunction(lambda z, K: f(z, K) + g(z, K))

    __radd__ = __add__

    def __neg__(self):
        if self.value is not None:
            return const(-self.value)
        f = self.jet
        return AnalyticFunction(lambda z, K: -f(z, K))

    def __mul__(self, other):
        if isinstance(other, AnalyticFunction):
            if other.value is not None:
                return self * other.value
            if self.value is not None:
                return other * self.value
            f, g = self.jet, other.jet
            return AnalyticFunction(lambda z, K: _cauchy(f(z, K), g(z, K)))
        if np.ndim(other) == 1:  # one factor per row of a batch
            scale = np.asarray(other, dtype=complex)[:, None, None]
            f = self.jet
            return AnalyticFunction(lambda z, K: scale * f(z, K))
        c = complex(other)
        if self.value is not None:
            return const(c * self.value)
        if c == 1:
            return self
        f = self.jet
        return AnalyticFunction(lambda z, K: c * f(z, K))

    __rmul__ = __mul__

    def _plus_const(self, c: complex) -> "AnalyticFunction":
        """self + c: a constant adds to the value row only."""
        if self.value is not None:
            return const(self.value + c)
        f = self.jet

        def jet(z, K):
            out = f(z, K).copy()
            out[..., 0, :] += c
            return out

        return AnalyticFunction(jet)


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


def _cauchy(a, b, tail=1):
    """Truncated Cauchy product: the jet of a product from the jets of its
    factors, whose order axis is the one before their last `tail` axes; the
    other axes broadcast.

    Row k is accumulated in a fixed order, a_k b_0 + a_(k-1) b_1 + ...; a
    numpy sum over rows would switch to pairwise order for a single point.
    """
    if a.shape[-1 - tail] == 1:  # a value call: the same product, without
        return a * b             # the index tuples (1-1.6 us a product)
    rest = (slice(None),) * tail
    out = a * b[(..., slice(0, 1), *rest)]
    for m in range(1, a.shape[-1 - tail]):
        out[(..., slice(m, None), *rest)] += \
            a[(..., slice(None, -m), *rest)] * b[(..., slice(m, m + 1), *rest)]
    return out


# ---- primitive functions ----------------------------------------------


def const(c) -> AnalyticFunction:
    c = complex(c)

    def jet(z, K):
        out = np.zeros((K + 1, len(z)), dtype=complex)
        out[0] = c
        return out

    return AnalyticFunction(jet, value=c)


def coordinate() -> AnalyticFunction:
    return _COORDINATE


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

    return AnalyticFunction(jet)


def polynomial(coeffs) -> AnalyticFunction:
    """sum_k coeffs[k] z^k.  One Horner pass gives every coefficient row of
    the jet."""
    coeffs = np.asarray(coeffs, dtype=complex)
    top = len(coeffs) - 1
    # Row k of the table holds the coefficients of p^(k)/k!, C(j, k) coeffs[j],
    # highest power j first, behind k zeros: its Horner steps meet only zeros
    # until its first coefficient, so all rows take the same steps and each
    # gives the floats of its own shorter sum.  columns[i] is column i of the
    # table as (rows, 1).
    columns = np.zeros((top + 1, top + 1, 1), dtype=complex)
    for k in range(top + 1):
        columns[k:, k, 0] = coeffs[k:][::-1] * [math.comb(j, k) for j in range(top, k - 1, -1)]

    def jet(z, K):
        out = np.zeros((K + 1, len(z)), dtype=complex)
        steps = columns[:, : K + 1]
        acc = out[: steps.shape[1]]  # the rows above the degree stay 0
        acc[...] = steps[0]
        for c in steps[1:]:
            acc *= z
            acc += c
        return out

    return AnalyticFunction(jet)


_COORDINATE = polynomial([0.0, 1.0])  # functions are immutable: one serves every caller


def _exp_of_polynomial(coeffs) -> AnalyticFunction:
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

    return AnalyticFunction(jet)


def gaussian(a=1.0) -> AnalyticFunction:
    """exp(-a z^2 / 2)."""
    a = complex(a)
    return _exp_of_polynomial([0.0, 0.0, -a / 2.0])


def exp_linear(k) -> AnalyticFunction:
    """exp(k z)."""
    k = complex(k)
    return _exp_of_polynomial([0.0, k])


def from_callable(fn, note="") -> AnalyticFunction:
    """Leaf from an array function fn(z) -> values of shape (*B, len(z)); it
    has no derivative."""

    def jet(z, K):
        if K:
            raise EvaluationError(f"no derivative is known for {note or 'a plain callable'}")
        w = np.asarray(fn(z), dtype=complex)
        return w.reshape(w.shape[:-1] + (1, len(z)))

    return AnalyticFunction(jet)


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
        """One tower node: self applied to f, or once more to a tower of self."""
        return AnalyticFunction(_Tower(self, _as_function(f).jet))

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


class _Tower:
    """Jet of op^p f: p applications of one operator object as one node.

    S_j is the list of distinct shift sums of j applications, S_0 = [0] and
    S_(j+1) = S_j + shifts; steps[j][t, k] is the index of S_j[k] plus the
    shift of term t in S_(j+1), so one gather reads every term's shifted
    rows.  The base acts at z + S_p, point by point: points are not merged
    across z, even where two of them coincide.  The coefficients act at
    z + union, union = S_0 | ... | S_(p-1) in order of first appearance;
    at_union[j] places S_j in it, as a slice when S_j is a prefix (S_0
    always is).  The stencil tables give row k of term t's derivative jet
    as row stencil_rows[k, t] of its shifted jet, times stencil_scale[k, t]
    = (k+d)!/k! for derivative order d.
    """

    def __init__(self, op: DifferenceOperator, f_jet):
        self.op = op
        inner = f_jet if isinstance(f_jet, _Tower) and f_jet.op is op else None
        if inner is None:
            self.base = f_jet
            self.top = max((t.dorder for t in op.terms), default=0)
            last, steps, place, at_union = [0j], [], {}, []
        else:
            self.base, self.top = inner.base, inner.top
            last, steps, place, at_union = (
                inner.last, list(inner.steps), dict(inner.place), list(inner.at_union))
        where = [place.setdefault(s, len(place)) for s in last]
        at_union.append(slice(0, len(where)) if where == list(range(len(where)))
                        else np.array(where))
        # terms that share a shift share their entries of S_(j+1)
        following: dict = {}
        step = [[following.setdefault(s + t.shift, len(following)) for s in last]
                for t in op.terms]
        steps.append(np.array(step, dtype=np.intp).reshape(len(op.terms), len(last)))
        self.last, self.steps, self.place, self.at_union = list(following), steps, place, at_union
        self.union = np.array(list(place), dtype=complex)
        self.base_shifts = np.array(self.last, dtype=complex)[:, None]
        # the tables a value call (K = 0) needs; a deeper jet builds its own
        value_rows = (len(steps) - 1) * self.top + 1
        self.stencil_rows, self.stencil_scale = self._stencil(value_rows)

    def _stencil(self, rows):
        """Row index and scale tables of every term's derivative jet, rows k < rows."""
        orders = [t.dorder for t in self.op.terms]
        index = [[k + d for d in orders] for k in range(rows)]
        scale = [[math.perm(k + d, d) for d in orders] for k in range(rows)]
        return (np.array(index, dtype=np.intp).reshape(rows, len(orders), 1),
                np.array(scale, dtype=float).reshape(rows, len(orders), 1, 1))

    def coefficients(self, z, rows):
        """The coefficient jets at z + union on a term axis, shape (rows,
        terms, |union|, len(z)), shared by every row of a batched base; a
        constant is the jet (value, 0, 0, ...)."""
        n = len(z)
        points = z if len(self.union) == 1 else (z + self.union[:, None]).reshape(-1)
        block = np.zeros((rows, len(self.op.terms), len(self.union), n), dtype=complex)
        for i, t in enumerate(self.op.terms):
            if t.coeff.value is None:
                block[:, i] = t.coeff.jet(points, rows - 1).reshape(rows, len(self.union), n)
            else:
                block[0, i] = t.coeff.value
        return block

    def __call__(self, z, K, at=None):
        """The base once at z + S_p, then p stencil steps, each one gather and
        one stacked multiply-add over all terms and all rows of a batch.

        With `at`, where 0 sits in each S_j, the jet of every power op^k f at
        z, k = 0..p, read after the step that reaches it, on a leading axis."""
        n, top, power = len(z), self.top, len(self.steps)
        values = self.base((z + self.base_shifts).reshape(-1), K + power * top)
        values = values.reshape(values.shape[:-1] + (len(self.last), n))
        if at is not None:
            levels = [values[..., : K + 1, at[power], :]]
        rows = K + (power - 1) * top + 1
        index, scale = self.stencil_rows, self.stencil_scale
        if rows > len(index):  # a deeper jet than a value call
            index, scale = self._stencil(rows)
        block = self.coefficients(z, rows)
        for j in reversed(range(power)):
            # values holds the jets at z + S_(j+1), shape (*B, rows, |S_(j+1)|, n);
            # derivs[..., k, t, :, :] is row k of term t's derivative jet at z + S_j
            rows = K + j * top + 1
            derivs = values[..., index[:rows], self.steps[j], :]
            if top:  # every scale is 1 when no term differentiates
                derivs *= scale[:rows]
            values = _cauchy(block[:rows, :, self.at_union[j]], derivs, 3).sum(axis=-3)
            if at is not None:
                levels.append(values[..., : K + 1, at[j], :])
        if at is not None:
            return np.stack(levels)
        return values.reshape(values.shape[:-2] + (n,))


def powers(op: DifferenceOperator, f, p: int) -> AnalyticFunction:
    """op^k f for k = 0..p as one batched function, k on a new leading axis,
    from the one tower pass of op^p f.  That pass holds op^k f at z + S_(p-k)
    on its way down, and a term with shift 0 puts 0 in every S_j, so each
    power is read there; row k holds the floats op^k f gives.  Raises
    ValueError for p < 1 or an operator without a zero-shift term."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    zero = [i for i, t in enumerate(op.terms) if t.shift == 0]
    if not zero:
        raise ValueError("the powers of an operator are read at shift 0: it needs "
                         "a term with shift 0")
    tower = _as_function(f)
    for _ in range(p):
        tower = op(tower)
    tower = tower.jet
    at = [0]  # S_0 = [0]; the zero-shift term takes 0 in S_j to 0 in S_(j+1)
    for step in tower.steps:
        at.append(int(step[zero[0], at[-1]]))
    # a tower of op as f fuses into this one: its own powers come first
    return AnalyticFunction(lambda z, K: tower(z, K, at)[-(p + 1):])


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
