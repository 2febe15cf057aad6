"""Complex special functions used by the closed-form wavefunctions.

Everything here is plain double precision but cdhahn_coefficients, which
runs its recurrence in exact integers.  log_gamma uses a Lanczos
approximation (g = 607/128, 15 coefficients; Lanczos, SIAM J. Numer.
Anal. B 1 (1964) 86-96) with reflection for the left half-plane, and keeps
a continuous branch for re(z) > 0 so that ratios of huge gamma values can
be formed in log space; gamma is exp(log_gamma).  A call maps every point
to one Lanczos argument and runs one Lanczos sum over all of them, in
blocks of _BLOCK points.  Only the branches that some point takes cost
anything: the argument is z itself when every point is right of the
strip, and the strip and reflection terms are formed for the points that
take them alone.

log_gamma, gamma, pochhammer, generalized_degree, cdhahn_complex and
cdhahn_rows evaluate arrays: a scalar argument gives a complex, an array
(or sequence) gives an ndarray of its shape, computed by numpy calls over
all points at once.  There is no separate scalar path, and a point's value
never depends on the other points of the call.  A pole anywhere in the
array raises PoleError naming the first pole; only the points within
1e-12 of the real axis are looked at for poles.  gamma and
generalized_degree share log_gamma's sum but not its pole scan.

The continuous dual Hahn polynomials come two ways.  cdhahn_rows gives
S_0 .. S_n on a leading axis from one pass of their three-term recurrence
in n, stable in double precision at least to n = 30; the closed-form
eigenfunctions use it.  cdhahn_coefficients runs the same recurrence on
coefficient vectors, exactly, and rounds each coefficient once, for the
rel eigenstate checks.  cdhahn_complex sums the terminating
hypergeometric series for one n, whose alternating terms cancel as n
grows; it is kept as the independent form that the recurrence is checked
against.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError, PoleError

_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)
_LANCZOS_TAIL = np.array(_LANCZOS_C[1:])
_LANCZOS_K = np.arange(1.0, len(_LANCZOS_C))
_BLOCK = 256  # points per block of the Lanczos sum: a 57 KB temporary

_LOG_SQRT_TWO_PI = 0.5 * math.log(2.0 * math.pi)
_LOG_PI = math.log(math.pi)
# |Im z| beyond which exp(pi |Im z|) passes the largest double: sin(pi z)
# overflows there or is within a factor 2 of it
_SIN_OVERFLOW_IM = math.log(np.finfo(float).max) / math.pi  # 225.9


def _points(z):
    """z as a 1-d complex array, and the shape to give the result back."""
    arr = np.asarray(z, dtype=complex)
    return arr.reshape(-1), arr.shape


def _shaped(w, shape):
    """A complex for a scalar argument, else an ndarray of the argument's shape."""
    return complex(w[0]) if shape == () else w.reshape(shape)


def _first_pole(z, tol: float = 1e-12):
    """The index of the first point within tol of 0, -1, -2, ..., or None.
    Only the points within tol of the real axis are looked at further."""
    near = (np.abs(z.imag) <= tol).nonzero()[0]
    if len(near):
        x = z.real[near]
        bad = near[(x <= tol) & (np.abs(x - np.round(x)) <= tol)]
        if len(bad):
            return int(bad[0])
    return None


def _reject_poles(z, name: str):
    i = _first_pole(z)
    if i is not None:
        raise PoleError(f"{name} pole at z = {complex(z[i])}")


def _log_gamma_right(z):
    # Lanczos series, valid for re(z) >= 0.5.  The (points, 14) broadcast
    # of the sum is formed _BLOCK points at a time, so its temporary stays
    # at most _BLOCK * 14 complex values however many points come in.
    zm = z - 1.0
    s = np.empty_like(zm)
    for lo in range(0, len(zm), _BLOCK):
        terms = zm[lo:lo + _BLOCK, None] + _LANCZOS_K
        np.divide(_LANCZOS_TAIL, terms, out=terms).sum(axis=1, out=s[lo:lo + _BLOCK])
    s += _LANCZOS_C[0]
    t = zm + _LANCZOS_G + 0.5
    return _LOG_SQRT_TWO_PI + (zm + 0.5) * np.log(t) - t + np.log(s)


def _log_sin_pi(z):
    """log sin(pi z), modulo 2 pi i.  Where |Im z| > _SIN_OVERFLOW_IM,
    sin(pi z) = (s i / 2) exp(-s i pi z) (1 - exp(2 s i pi z)) with
    s = sign(Im z), and the last factor is 1 to far below double precision,
    so the log is taken from that form: s i pi (1/2 - z) - log 2."""
    far = np.abs(z.imag) > _SIN_OVERFLOW_IM
    if not far.any():
        return np.log(np.sin(math.pi * z))
    out = np.empty_like(z)
    out[~far] = np.log(np.sin(math.pi * z[~far]))
    out[far] = np.sign(z.imag[far]) * 1j * math.pi * (0.5 - z[far]) - math.log(2.0)
    return out


def log_gamma(z):
    """log Gamma(z), continuous along re(z) > 0.

    One Lanczos sum serves every point: z itself where re(z) >= 0.5; z + 1
    on the strip 0 < re(z) < 0.5, where log Gamma(z) = L(z + 1) - log z
    keeps the branch continuous; 1 - z where re(z) <= 0, by the reflection
    Gamma(z) Gamma(1 - z) = pi / sin(pi z).  There the imaginary part is
    only defined modulo 2*pi*i, which is harmless for exponentiated ratios.
    The reflection stays finite at large |Im z|: where sin(pi z) would
    overflow, log sin(pi z) is taken from its exponential form.
    """
    z, shape = _points(z)
    _reject_poles(z, "log_gamma")
    return _shaped(_log_gamma(z), shape)


def _log_gamma(z):
    """log_gamma of a 1-d array already scanned for poles.  A branch that no
    point takes costs nothing: the Lanczos argument is z itself when every
    point is right of the strip, and the strip and reflection terms are
    formed only for the points that take them."""
    x = z.real
    left = x <= 0.0
    strip = ~((x >= 0.5) | left)
    in_strip, in_left = strip.any(), left.any()
    w = z
    if in_strip:
        w = np.where(strip, z + 1.0, w)
    if in_left:
        w = np.where(left, 1.0 - z, w)
    out = _log_gamma_right(w)
    if in_strip:
        out[strip] -= np.log(z[strip])
    if in_left:
        out[left] = _LOG_PI - _log_sin_pi(z[left]) - out[left]
    return out


def gamma(z):
    """Gamma(z) = exp(log_gamma(z)) for complex z, relative error below
    1e-13 for |z| <= 50."""
    z, shape = _points(z)
    _reject_poles(z, "gamma")
    return _shaped(np.exp(_log_gamma(z)), shape)


def pochhammer(a, n: int):
    """Rising factorial (a)_n = a (a+1) ... (a+n-1), with (a)_0 = 1."""
    if n < 0:
        raise ValueError("pochhammer requires n >= 0")
    a, shape = _points(a)
    result = np.ones_like(a)
    for k in range(n):
        result *= a + k
    return _shaped(result, shape)


def generalized_degree(rho, lam):
    """Finite-difference power rho^(lam) = i^lam Gamma(lam - i rho) / Gamma(-i rho).

    i^lam is taken on the principal branch, exp(i pi lam / 2), and the gamma
    ratio is formed in log space, integer lam included (at lam = 3 it gives
    rho (rho + i)(rho + 2i) to a few ulps).  rho and lam broadcast against
    each other like the other functions here take arrays.
    """
    rho, lam = np.broadcast_arrays(np.asarray(rho, dtype=complex), np.asarray(lam, dtype=complex))
    shape = rho.shape
    rho, lam = rho.reshape(-1), lam.reshape(-1)
    num = lam - 1j * rho
    den = -1j * rho
    poles = [i for i in (_first_pole(num), _first_pole(den)) if i is not None]
    if poles:
        i = min(poles)
        raise PoleError(f"generalized_degree pole: rho={complex(rho[i])}, lam={complex(lam[i])}")
    out = np.exp(1j * math.pi * lam / 2.0) * np.exp(_log_gamma(num) - _log_gamma(den))
    return _shaped(out, shape)


LAGUERRE_MAX_N = 170  # the largest k whose k! converts to a double


def laguerre_coefficients(n: int, d: float) -> list[float]:
    """Coefficients c_k of L_n^d(y) = sum_k c_k y^k, n <= LAGUERRE_MAX_N.

    The nonrel eigenstate checks read L_n^d(xi^2) on them, as coefficients.
    The nonrel eigenfunctions do not evaluate them: their alternating sum
    loses every digit past n ~ 30 on the default grid."""
    if n < 0:
        raise ValueError("laguerre requires n >= 0")
    if n > LAGUERRE_MAX_N:
        raise ParameterError(f"L_n^d power-basis coefficients divide by k! for k <= n, "
                             f"and {LAGUERRE_MAX_N + 1}! is past the largest double: "
                             f"n = {n} > {LAGUERRE_MAX_N}")
    lg_top = math.lgamma(n + d + 1)
    coeffs = []
    for k in range(n + 1):
        c = math.exp(lg_top - math.lgamma(n - k + 1) - math.lgamma(d + k + 1)) / math.factorial(k)
        coeffs.append(c if k % 2 == 0 else -c)
    return coeffs


def cdhahn_complex(n: int, z, a, b, c):
    """Continuous dual Hahn polynomial S_n(z^2; a, b, c) for complex argument z.

    Terminating hypergeometric sum
        S_n = (a+b)_n (a+c)_n sum_{k=0}^{n} (-n)_k (a+iz)_k (a-iz)_k
                                             / [(a+b)_k (a+c)_k k!].
    Polynomial in z^2, so the analytic continuation off the real axis is
    just the same finite sum.  The real parameters a, b, c are scalars or
    arrays of z's shape.  The terms come from _cdhahn_terms.  For n = 0 the
    sum holds only its k = 0 term and both prefactors are empty products,
    so S_0 = 1 exactly and no table is built.
    """
    if n < 0:
        raise ValueError("cdhahn requires n >= 0")
    z, shape = _points(z)
    if n == 0:
        return _shaped(np.ones_like(z), shape)
    prefactor, terms = _cdhahn_terms(n, z, a, b, c)
    # cumsum adds the terms in order whatever the number of points
    total = np.cumsum(terms, axis=0, out=terms)[-1]
    return _shaped(prefactor * total, shape)


def _cdhahn_terms(n: int, z, a, b, c):
    """The prefactor (a+b)_n (a+c)_n of cdhahn_complex's sum, and its terms
    k = 0..n as the rows of an (n + 1, points) array, for a 1-d z.

    The term ratios fill rows 1..n and the terms are their running product
    down the rows.  |prefactor| * sum_k |term k| is the size of what the
    sum cancels, the scale its rounding error is measured against.
    """
    a, b, c = (np.asarray(p, dtype=float).reshape(-1) for p in (a, b, c))
    k = np.arange(n)[:, None]
    ab, ac = a + b + k, a + c + k
    vanishing = (ab == 0.0) | (ac == 0.0)
    if vanishing.any():
        i, j = np.argwhere(vanishing)[0]
        raise ParameterError(
            f"cdhahn denominator Pochhammer vanishes at k={i + 1} "
            f"(a+b={ab[0, j]}, a+c={ac[0, j]})"
        )
    ak = a + k
    iz = 1j * z
    # row 0 is the k = 0 term; the ratios fill the other rows in place
    terms = np.ones((n + 1, len(z)), dtype=complex)
    ratios = np.add(ak, iz, out=terms[1:])
    ratios *= ak - iz
    ratios *= -(n - k) / (ab * ac * (k + 1))
    np.cumprod(terms, axis=0, out=terms)
    return pochhammer(a + b, n) * pochhammer(a + c, n), terms


def cdhahn_rows(n_top: int, z, a, b, c):
    """S_n(z^2; a, b, c) for n = 0..n_top on a leading axis, shape
    (n_top + 1, *z.shape), from one pass of the three-term recurrence
    (Koekoek, Lesky & Swarttouw, sec. 9.3):

        -(a^2 + z^2) S~_n = A_n S~_(n+1) - (A_n + C_n) S~_n + C_n S~_(n-1),

    S~_n = S_n / ((a+b)_n (a+c)_n), A_n = (n+a+b)(n+a+c), C_n = n(n+b+c-1).
    It runs with the scale folded in: since (a+b)_(n+1) (a+c)_(n+1) =
    A_n (a+b)_n (a+c)_n,

        S_(n+1) = (A_n + C_n - a^2 - z^2) S_n - A_(n-1) C_n S_(n-1),

    with no division, so no parameter makes it singular.  Row n depends on
    rows 0..n only, so it holds the same floats whatever n_top is.  z is
    complex, a, b, c real scalars or arrays of z's shape.  For n_top = 0 the
    one row is exactly 1 and no recurrence runs.
    """
    if n_top < 0:
        raise ValueError("cdhahn requires n >= 0")
    z, shape = _points(z)
    rows = np.ones((n_top + 1, len(z)), dtype=complex)
    if n_top:
        a, b, c = (np.asarray(p, dtype=float).reshape(-1) for p in (a, b, c))
        n = np.arange(n_top)[:, None]
        A, C = (n + a + b) * (n + a + c), n * (n + b + c - 1.0)
        diagonal, below = A + C, A[:-1] * C[1:]  # below[n - 1] multiplies S_(n-1)
        u = a * a + z * z
        np.subtract(diagonal[0], u, out=rows[1])  # C_0 = 0
        for k in range(1, n_top):
            nxt = np.subtract(diagonal[k], u, out=rows[k + 1])
            nxt *= rows[k]
            nxt -= below[k - 1] * rows[k - 1]
    return rows.reshape((n_top + 1,) + shape)


def cdhahn_coefficients(n_top: int, a: float, b: float, c: float):
    """The coefficients of S_n(y; a, b, c) in powers of y, n = 0..n_top, each
    the exact value rounded once.  Returns (rows, exponents): S_n =
    2^exponents[n] sum_j rows[n, j] y^j, each row scaled by a power of two
    to a largest |coefficient| in [1/2, 1), so no level leaves double range.

    cdhahn_rows' recurrence runs on coefficient vectors in Python integers:
    a, b and c are integers over one power of two u, and s_k = u^(2k) S_k
    obeys s_(k+1) = d_k s_k - u^2 y s_k - l_k s_(k-1), with the integers
    d_k = u^2 (A_k + C_k - a^2) and l_k = u^4 A_(k-1) C_k.  Integer true
    division is correctly rounded.  ParameterError for a non-finite a, b or c."""
    if n_top < 0:
        raise ValueError("cdhahn requires n >= 0")
    if not all(map(math.isfinite, (a, b, c))):
        raise ParameterError(f"cdhahn needs finite parameters, got a={a}, b={b}, c={c}")
    ratios = [float(p).as_integer_ratio() for p in (a, b, c)]
    shift = max(den.bit_length() - 1 for _, den in ratios)  # u = 2^shift
    a, b, c = (num << (shift - den.bit_length() + 1) for num, den in ratios)
    u = 1 << shift
    rows, exponents = np.zeros((n_top + 1, n_top + 1)), []
    s, previous, A_below = [1], [], 0  # s_0, s_(-1), u^2 A_(-1)
    for k in range(n_top + 1):
        largest = max(map(abs, s))
        top = largest.bit_length()
        if largest / (1 << top) == 1.0:  # it rounds up to 2^top
            top += 1
        rows[k, :k + 1] = [v / (1 << top) for v in s]
        exponents.append(top - 2 * k * shift)
        A = (k * u + a + b) * (k * u + a + c)
        C = k * u * (k * u + b + c - u)
        d, below = A + C - a * a, A_below * C
        s, previous, A_below = [d * v - (w << 2 * shift) - below * x for v, w, x in
                                zip(s + [0], [0] + s, previous + [0, 0])], s, A
    return rows, np.array(exponents)
