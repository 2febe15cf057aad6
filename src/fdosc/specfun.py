"""Complex special functions used by the closed-form wavefunctions.

Everything here is plain double precision.  log_gamma uses a Lanczos
approximation (g = 607/128, 15 coefficients; Lanczos, SIAM J. Numer.
Anal. B 1 (1964) 86-96) with reflection for the left half-plane, and keeps
a continuous branch for re(z) > 0 so that ratios of huge gamma values can
be formed in log space; gamma is exp(log_gamma).  A call maps every point
to one Lanczos argument and runs one Lanczos sum over all of them, in
blocks of _BLOCK points; the strip and reflection terms are then applied
under masks.

log_gamma, gamma, pochhammer, generalized_degree and cdhahn_complex
evaluate arrays: a scalar argument gives a complex, an array (or sequence)
gives an ndarray of its shape, computed by numpy calls over all points at
once.  There is no separate scalar path.  A pole anywhere in the array
raises PoleError naming that point.
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


def _nonpositive_integers(z, tol: float = 1e-12):
    """Mask of the points within tol of 0, -1, -2, ..."""
    return (np.abs(z.imag) <= tol) & (z.real <= tol) & (np.abs(z.real - np.round(z.real)) <= tol)


def _reject_poles(z, name: str):
    bad = _nonpositive_integers(z)
    if bad.any():
        raise PoleError(f"{name} pole at z = {complex(z[bad][0])}")


def _log_gamma_right(z):
    # Lanczos series, valid for re(z) >= 0.5.  The (points, 14) broadcast
    # of the sum is formed _BLOCK points at a time, so its temporary stays
    # at most _BLOCK * 14 complex values however many points come in.
    zm = z - 1.0
    s = np.empty_like(zm)
    buf = np.empty((min(len(zm), _BLOCK), len(_LANCZOS_TAIL)), dtype=complex)
    for lo in range(0, len(zm), _BLOCK):
        part = zm[lo:lo + _BLOCK]
        terms = np.add(part[:, None], _LANCZOS_K, out=buf[:len(part)])
        np.divide(_LANCZOS_TAIL, terms, out=terms).sum(axis=1, out=s[lo:lo + len(part)])
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
    left = z.real <= 0.0
    strip = ~((z.real >= 0.5) | left)
    out = _log_gamma_right(np.where(left, 1.0 - z, np.where(strip, z + 1.0, z)))
    if strip.any():
        out[strip] -= np.log(z[strip])
    if left.any():
        out[left] = _LOG_PI - _log_sin_pi(z[left]) - out[left]
    return _shaped(out, shape)


def gamma(z):
    """Gamma(z) = exp(log_gamma(z)) for complex z, relative error below
    1e-13 for |z| <= 50."""
    z, shape = _points(z)
    _reject_poles(z, "gamma")
    return _shaped(np.exp(log_gamma(z)), shape)


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
    bad = _nonpositive_integers(num) | _nonpositive_integers(den)
    if bad.any():
        i = int(bad.argmax())
        raise PoleError(f"generalized_degree pole: rho={complex(rho[i])}, lam={complex(lam[i])}")
    out = np.exp(1j * math.pi * lam / 2.0) * np.exp(log_gamma(num) - log_gamma(den))
    return _shaped(out, shape)


def laguerre_coefficients(n: int, d: float) -> list[float]:
    """Coefficients c_k of L_n^d(y) = sum_k c_k y^k."""
    if n < 0:
        raise ValueError("laguerre requires n >= 0")
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
    arrays of z's shape.  The term ratios form one (n, points) array and
    the terms are its running product down the rows.  For n = 0 the sum
    holds only its k = 0 term and both prefactors are empty products, so
    S_0 = 1 exactly and no table is built.
    """
    if n < 0:
        raise ValueError("cdhahn requires n >= 0")
    z, shape = _points(z)
    if n == 0:
        return _shaped(np.ones_like(z), shape)
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
    # cumsum adds the terms in order whatever the number of points
    total = np.cumsum(terms, axis=0, out=terms)[-1]
    return _shaped(pochhammer(a + b, n) * pochhammer(a + c, n) * total, shape)

