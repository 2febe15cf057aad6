"""Independent 30-digit evaluation of the closed-form eigenfunctions.

Written from the formulas, not from fdosc's code:

* nonrel: psi_n(xi) = c_n xi^(d+1/2) exp(-xi^2/2) L_n^d(xi^2),
  c_n = sqrt(2 n! / Gamma(n+d+1)), d = sqrt(1 + 8 g0)/2;
* rel: phi_n(rho) = i^alpha Gamma(alpha+i rho)/Gamma(i rho) omega0^(i rho)
  Gamma(nu+i rho) S_n(rho^2; alpha, nu, 1/2), with S_n the continuous dual
  Hahn polynomial (a+b)_n (a+c)_n 3F2(-n, a+ix, a-ix; a+b, a+c; 1) and
  alpha, nu = 1/2 + 1/2 sqrt(1 + 2/omega0^2 (1 -+ sqrt(1 - 8 g0 omega0^2))).
"""

from __future__ import annotations

import mpmath

DPS = 30


def rel_exponents(omega0: float, g0: float):
    with mpmath.workdps(DPS):
        w0 = mpmath.mpf(omega0)
        root = mpmath.sqrt(1 - 8 * mpmath.mpf(g0) * w0 ** 2)
        alpha = mpmath.mpf(1) / 2 + mpmath.sqrt(1 + 2 / w0 ** 2 * (1 - root)) / 2
        nu = mpmath.mpf(1) / 2 + mpmath.sqrt(1 + 2 / w0 ** 2 * (1 + root)) / 2
        return alpha, nu


def rel_eigenfunction(n: int, omega0: float, g0: float, rho: float) -> complex:
    with mpmath.workdps(DPS):
        a, nu = rel_exponents(omega0, g0)
        c = mpmath.mpf(1) / 2
        x = mpmath.mpf(rho)
        ix = 1j * x
        s_n = mpmath.rf(a + nu, n) * mpmath.rf(a + c, n) * mpmath.hyp3f2(
            -n, a + ix, a - ix, a + nu, a + c, 1)
        value = (mpmath.exp(1j * mpmath.pi * a / 2)
                 * mpmath.gamma(a + ix) / mpmath.gamma(ix)
                 * mpmath.power(mpmath.mpf(omega0), ix)
                 * mpmath.gamma(nu + ix) * s_n)
        return complex(value)


def nonrel_eigenfunction(n: int, g0: float, xi: float) -> complex:
    with mpmath.workdps(DPS):
        d = mpmath.sqrt(1 + 8 * mpmath.mpf(g0)) / 2
        x = mpmath.mpf(xi)
        cn = mpmath.sqrt(2 * mpmath.factorial(n) / mpmath.gamma(n + d + 1))
        value = cn * x ** (d + mpmath.mpf(1) / 2) * mpmath.exp(-x * x / 2) \
            * mpmath.laguerre(n, d, x * x)
        return complex(value)
