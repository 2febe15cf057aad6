"""Special-function oracles: mpmath arbitrary precision and frozen values."""

import math
import re
import warnings

import mpmath as mp
import numpy as np
import pytest

from fdosc import specfun
from fdosc.errors import ParameterError, PoleError

mp.mp.dps = 40


def test_gamma_frozen_value():
    # mpmath, 40 digits
    ref = 0.15443097618696283 - 0.18052756337372855j
    assert abs(specfun.gamma(0.5 + 1.5j) - ref) < 1e-15


def test_gamma_against_mpmath_grid():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(300):
        z = complex(rng.uniform(-15, 15), rng.uniform(-15, 15))
        if abs(z.imag) < 5e-2 and abs(z.real - round(z.real)) < 5e-2:
            continue
        ref = complex(mp.gamma(mp.mpc(z.real, z.imag)))
        worst = max(worst, abs(specfun.gamma(z) - ref) / abs(ref))
    assert worst < 1e-12


def test_log_gamma_matches_mpmath_modulo_branch():
    # compare through exp so branch choices cannot differ
    for z in (0.25 - 2.0j, -3.3 + 0.7j, 4.2 + 0.1j, 0.9j):
        ref = complex(mp.gamma(mp.mpc(complex(z).real, complex(z).imag)))
        val = np.exp(specfun.log_gamma(z))
        assert abs(val - ref) / abs(ref) < 1e-13


def _mixed_branch_points():
    """|z| <= 50, off the poles, with points in all three log_gamma branches
    (re >= 0.5, 0 < re < 0.5, re <= 0), in one shuffled array."""
    rng = np.random.default_rng(17)
    z = rng.uniform(0.0, 50.0, 120) * np.exp(1j * rng.uniform(0.0, 2 * np.pi, 120))
    z = z[(np.abs(z.imag) >= 5e-2) | (np.abs(z.real - np.round(z.real)) >= 5e-2)]
    strip = [0.25 - 2.0j, 0.1 + 0.3j, 0.45 + 10.0j, 0.3 - 40.0j]
    edges = [0.5 + 0.0j, 0.9j, -3.3 + 0.7j, -20.5 + 1e-3j, 4.2 + 0.1j]
    z = np.concatenate([z, strip, edges])
    rng.shuffle(z)
    assert (z.real >= 0.5).any() and ((z.real > 0) & (z.real < 0.5)).any() and (z.real <= 0).any()
    return z


def _mp_gamma(z):
    with mp.workdps(30):
        return np.array([complex(mp.gamma(mp.mpc(w.real, w.imag))) for w in z])


def test_gamma_array_matches_mpmath_elementwise():
    z = _mixed_branch_points()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning for |z| <= 50
        val = specfun.gamma(z)
    assert isinstance(val, np.ndarray) and val.shape == z.shape
    ref = _mp_gamma(z)
    assert np.max(np.abs(val - ref) / np.abs(ref)) < 1e-13


def test_log_gamma_array_matches_mpmath_modulo_branch():
    z = _mixed_branch_points()
    val = specfun.log_gamma(z)
    assert isinstance(val, np.ndarray) and val.shape == z.shape
    ref = _mp_gamma(z)
    assert np.max(np.abs(np.exp(val) - ref) / np.abs(ref)) < 1e-13


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_log_gamma_reflection_is_finite_at_large_imaginary_part():
    # sin(pi z) overflows for |Im z| beyond about 226; log Gamma stays finite
    z = np.array([complex(x, s * y) for x in (0.0, -0.3, -2.5, -7.5)
                  for y in (230.0, 300.0, 1000.0, 1e4) for s in (1, -1)])
    val = specfun.log_gamma(z)
    ref = np.array([complex(mp.loggamma(mp.mpc(w.real, w.imag))) for w in z])
    diff = val - ref
    diff -= 2j * np.pi * np.round(diff.imag / (2 * np.pi))  # modulo 2 pi i
    assert np.max(np.abs(diff) / np.abs(ref)) < 1e-14
    # and what is built on it, exponentiated from logs of size ~1e3: gamma at
    # 1e-158 and rho^(lambda) at rho = 230
    ref = complex(mp.gamma(mp.mpc(0, 230)))
    assert abs(specfun.gamma(230j) - ref) / abs(ref) < 1e-12
    ref = complex(mp.exp(0.75j * mp.pi) * mp.gamma(mp.mpc(1.5, -230)) / mp.gamma(mp.mpc(0, -230)))
    assert abs(specfun.generalized_degree(230.0, 1.5) - ref) / abs(ref) < 1e-12


def test_array_keeps_its_shape_and_scalar_gives_complex():
    z = _mixed_branch_points()[:12].reshape(3, 4)
    for fn in (specfun.gamma, specfun.log_gamma, lambda w: specfun.pochhammer(w, 3),
               lambda w: specfun.cdhahn_complex(3, w, 0.7, 1.1, 0.4)):
        out = fn(z)
        assert out.shape == (3, 4)
        assert type(fn(complex(z[1, 2]))) is complex
        assert type(fn(0.75)) is complex
        assert abs(out[1, 2] - fn(complex(z[1, 2]))) <= 1e-15 * abs(out[1, 2])


def _long_mixed_branch_points():
    """Over two Lanczos blocks of points, all three branches spread through it."""
    rng = np.random.default_rng(31)
    z = np.concatenate([_mixed_branch_points() for _ in range(5)])
    z = z + rng.uniform(-0.2, 0.2, len(z))  # move the copies apart, off the poles
    z = z[np.abs(z.real - np.round(z.real)) >= 1e-2]
    b = specfun._BLOCK
    assert len(z) > 2 * b
    for block in (z[:b].real, z[b:2 * b].real, z[2 * b:].real):
        assert (block >= 0.5).any() and ((block > 0) & (block < 0.5)).any() and (block <= 0).any()
    return z


@pytest.mark.parametrize("fn", [specfun.gamma, specfun.log_gamma])
def test_long_array_equals_short_slices_bit_for_bit(fn):
    # the Lanczos sum runs in blocks: no point may see its neighbours or its block
    z = _long_mixed_branch_points()
    whole = fn(z)
    for width in (1, 7):
        sliced = np.concatenate([fn(z[i:i + width]) for i in range(0, len(z), width)])
        assert np.array_equal(whole, sliced)


def test_log_gamma_of_stacked_rows_equals_row_calls():
    z = _long_mixed_branch_points()[: 2 * specfun._BLOCK]
    rows = np.stack((0.7 + 1j * z, 1j * z, 1.3 + 1j * z))
    stacked = specfun.log_gamma(rows)
    assert stacked.shape == rows.shape
    for got, row in zip(stacked, rows):
        assert np.array_equal(got, specfun.log_gamma(row))


@pytest.mark.parametrize("pole", [0.0, -1.0, -7.0, -3.0 + 1e-13j])
def test_pole_anywhere_in_array_raises(pole):
    z = _mixed_branch_points()
    z = np.insert(z, len(z) // 2, pole)
    for fn in (specfun.gamma, specfun.log_gamma):
        with pytest.raises(PoleError, match=re.escape(f"pole at z = {complex(pole)}")):
            fn(z)
        with pytest.raises(PoleError):
            fn(pole)


def test_cdhahn_complex_array_matches_mpmath_elementwise():
    rng = np.random.default_rng(23)
    z = rng.uniform(0.0, 5.0, 40) + 1j * rng.uniform(-2.5, 2.5, 40)
    a, b, c = 0.7, 1.1, 0.4

    def oracle(n, w):
        with mp.workdps(30):
            w = mp.mpc(w.real, w.imag)
            s = sum(mp.rf(-n, k) * mp.rf(a + 1j * w, k) * mp.rf(a - 1j * w, k)
                    / (mp.rf(a + b, k) * mp.rf(a + c, k) * mp.factorial(k))
                    for k in range(n + 1))
            return complex(mp.rf(a + b, n) * mp.rf(a + c, n) * s)

    for n in (0, 1, 4, 8):
        val = specfun.cdhahn_complex(n, z, a, b, c)
        ref = np.array([oracle(n, w) for w in z])
        assert np.max(np.abs(val - ref) / (1.0 + np.abs(ref))) < 1e-12


def test_cdhahn_parameter_arrays_match_scalar_parameters():
    rng = np.random.default_rng(29)
    x = rng.uniform(0.0, 4.0, 25)
    a, b, c = (rng.uniform(0.2, 2.5, 25) for _ in range(3))
    val = specfun.cdhahn_complex(5, x, a, b, c).real
    ref = [specfun.cdhahn_complex(5, *args).real for args in zip(x, a, b, c)]
    assert np.max(np.abs(val - ref) / (1.0 + np.abs(ref))) < 1e-14


def test_generalized_degree_array_matches_scalar():
    rho = np.array([0.3, 1.7, 1.7, 4.0, 2.2])
    lam = np.array([2.6, 3.0, 0.0, -1.25, 1.0])
    val = specfun.generalized_degree(rho, lam)
    ref = [specfun.generalized_degree(r, l) for r, l in zip(rho, lam)]
    assert np.max(np.abs(val - ref) / np.abs(ref)) < 1e-14
    assert type(specfun.generalized_degree(1.7, 2.6)) is complex


def test_log_gamma_frozen_principal_value():
    ref = -2.393897330535136 + 1.0011752595176815j
    assert abs(specfun.log_gamma(0.25 - 2.0j) - ref) < 1e-13


def test_pochhammer_frozen():
    assert specfun.pochhammer(2.5, 3) == pytest.approx(39.375, abs=1e-13)
    assert specfun.pochhammer(1.3, 0) == 1.0


def _laguerre_horner(coeffs, y):
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * y + c
    return acc


def test_laguerre_frozen_and_direct_sum():
    # L_3^{0.7}(1.25) = -0.8481458333333334 (mpmath)
    assert _laguerre_horner(specfun.laguerre_coefficients(3, 0.7), 1.25) == pytest.approx(
        -0.8481458333333334, abs=1e-14)
    # direct binomial-sum oracle
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(0, 7))
        d = rng.uniform(0.1, 2.0)
        y = rng.uniform(0.0, 5.0)
        ref = sum((-1) ** k * math.gamma(n + d + 1)
                  / (math.gamma(d + k + 1) * math.factorial(n - k))
                  * y ** k / math.factorial(k) for k in range(n + 1))
        assert _laguerre_horner(specfun.laguerre_coefficients(n, d), y) == pytest.approx(
            ref, rel=1e-11, abs=1e-11)


def test_laguerre_coefficients_consistent_with_evaluation():
    for n, d, y in [(4, 0.7, 1.37), (6, 1.3, 0.4), (2, 0.5, 3.9)]:
        ref = float(mp.laguerre(n, d, y))
        assert _laguerre_horner(specfun.laguerre_coefficients(n, d), y) == pytest.approx(
            ref, rel=1e-12)


def test_cdhahn_hand_expanded_degree_one():
    # S_1(x^2; a,b,c) = (a+b)(a+c) - (a^2 + x^2)
    for (x, a, b, c) in [(1.3, 0.7, 1.1, 0.4), (0.2, 1.5, 0.9, 2.0)]:
        ref = (a + b) * (a + c) - (a * a + x * x)
        assert specfun.cdhahn_complex(1, x, a, b, c).real == pytest.approx(ref, rel=1e-13)


def test_cdhahn_frozen_values():
    # terminating series summed at 40 digits
    assert specfun.cdhahn_complex(2, 1.3, 0.7, 1.1, 0.4).real == pytest.approx(-4.01, abs=1e-11)
    assert specfun.cdhahn_complex(3, 1.3, 0.7, 1.1, 0.4).real == pytest.approx(-52.666, abs=1e-9)


def test_cdhahn_against_mpmath_sum():
    rng = np.random.default_rng(5)

    def oracle(n, x, a, b, c):
        s = mp.mpf(0)
        for k in range(n + 1):
            s += (mp.rf(-n, k) * mp.rf(mp.mpc(a, x), k) * mp.rf(mp.mpc(a, -x), k)
                  / (mp.rf(a + b, k) * mp.rf(a + c, k) * mp.factorial(k)))
        return complex(mp.rf(a + b, n) * mp.rf(a + c, n) * s).real

    for _ in range(40):
        n = int(rng.integers(0, 6))
        x = rng.uniform(0.0, 4.0)
        a, b, c = rng.uniform(0.2, 2.5, size=3)
        ref = oracle(n, x, a, b, c)
        assert specfun.cdhahn_complex(n, x, a, b, c).real == pytest.approx(
            ref, rel=1e-11, abs=1e-11)


def test_cdhahn_degree_zero_is_one():
    # S_0 is the k = 0 term alone: exactly 1 + 0j at every point
    assert specfun.cdhahn_complex(0, 2.2, 0.5, 1.0, 1.5).real == 1.0
    val = specfun.cdhahn_complex(0, 2.2 - 0.3j, 0.5, 1.0, 1.5)
    assert type(val) is complex
    assert (val.real, val.imag) == (1.0, 0.0)
    z = np.array([[0.3, 1.0 + 2.0j, -4.0j], [7.5, 0.0, 1e3 + 1j]])
    vals = specfun.cdhahn_complex(0, z, 0.5, 1.0, 1.5)
    assert vals.shape == z.shape and vals.dtype == complex
    assert np.array_equal(vals, np.ones(z.shape, dtype=complex))
    with pytest.raises(ValueError):
        specfun.cdhahn_complex(-1, z, 0.5, 1.0, 1.5)


def test_cdhahn_rejects_vanishing_denominator():
    with pytest.raises(ParameterError):
        specfun.cdhahn_complex(3, 1.0, 1.0, -1.0, 0.5)


def test_generalized_degree_integer_is_shift_product():
    rho = 1.7
    assert specfun.generalized_degree(rho, 0) == pytest.approx(1.0)
    assert abs(specfun.generalized_degree(rho, 3)
               - rho * (rho + 1j) * (rho + 2j)) < 1e-13


def test_generalized_degree_frozen_noninteger():
    ref = 3.0105584638825578 + 4.931334660336703j
    assert abs(specfun.generalized_degree(1.7, 2.6) - ref) < 1e-12


def test_generalized_degree_gamma_ratio_recurrence():
    rng = np.random.default_rng(3)
    for _ in range(100):
        rho = rng.uniform(0.1, 5.0)
        lam = rng.uniform(-1.5, 2.5)
        lhs = specfun.generalized_degree(rho, lam + 1)
        rhs = specfun.generalized_degree(rho, lam) * 1j * (lam - 1j * rho)
        assert abs(lhs - rhs) < 1e-12 * (1.0 + abs(rhs))
