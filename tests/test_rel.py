"""Relativistic singular oscillator: parameters, spectrum, ladder algebra."""

import math

import mpmath as mp
import numpy as np
import pytest

from fdosc import rel, specfun
from fdosc.errors import CouplingError
from fdosc.opcore import default_grid, grid_ratio

GRID = default_grid()
MODEL = rel.make_rel_model(0.5, 0.1)


def test_exponents_frozen():
    assert MODEL.alpha == pytest.approx(1.179077033921902, abs=1e-14)
    assert MODEL.nu == pytest.approx(2.5096901208892457, abs=1e-14)


def test_exponent_identities():
    # the pair of constraints that make the factorization close
    a, nu, w0, g0 = MODEL.alpha, MODEL.nu, MODEL.omega0, MODEL.g0
    assert a * (a - 1.0) + nu * (nu - 1.0) == pytest.approx(1.0 / w0**2, rel=1e-13)
    assert a * (a - 1.0) * nu * (nu - 1.0) == pytest.approx(
        2.0 * g0 / w0**2, rel=1e-13)


def test_ground_energy_frozen():
    assert rel.energy(MODEL, 0) == pytest.approx(1.8443835774055741, abs=1e-13)
    assert rel.energy(MODEL, 3) == pytest.approx(1.8443835774055741 + 3.0,
                                                 abs=1e-12)


def test_coupling_validation():
    with pytest.raises(CouplingError):
        rel.make_rel_model(0.0, 0.1)
    with pytest.raises(CouplingError):
        rel.make_rel_model(-0.5, 0.1)
    with pytest.raises(CouplingError):
        rel.make_rel_model(0.5, 0.0)
    with pytest.raises(CouplingError):
        rel.make_rel_model(0.5, -0.1)
    with pytest.raises(CouplingError):
        rel.make_rel_model(0.5, 0.6)  # 8 g0 omega0^2 > 1


@pytest.mark.parametrize("omega0, g0", [(math.nan, 0.1), (0.5, math.nan), (math.inf, 0.1),
                                        (0.5, math.inf), (-math.inf, 0.1)])
def test_non_finite_couplings_are_rejected(omega0, g0):
    # every comparison with NaN is false, so the range checks alone let it through
    with pytest.raises(CouplingError, match="finite"):
        rel.make_rel_model(omega0, g0)


def test_omega0_floor():
    # at the floor alpha and nu are finite; one ulp below, 4/omega0^2 overflows
    m = rel.make_rel_model(rel.OMEGA0_FLOOR, 0.1)
    assert math.isfinite(m.alpha) and math.isfinite(m.nu)
    for omega0 in (math.nextafter(rel.OMEGA0_FLOOR, 0.0), 1e-154, 1e-200):
        with pytest.raises(CouplingError, match="below the floor 1.492e-154"):
            rel.make_rel_model(omega0, 0.1)


def test_boundary_coupling_admitted():
    # 8 g0 omega0^2 = 1 exactly: exponents stay real and coincide in root
    m = rel.make_rel_model(0.5, 0.5)
    assert m.alpha == pytest.approx(m.nu, rel=1e-12)
    assert rel.energy(m, 0) > 1.0


@pytest.mark.parametrize("n", range(5))
def test_eigen_equation(n):
    H = rel.hamiltonian_rel(MODEL)
    st = rel.eigenfunction_rel(MODEL, n)
    out = H(st.wavefunction)
    worst = max(abs(out(p) - st.energy_mc2 * st.wavefunction(p))
                / (1.0 + abs(st.energy_mc2 * st.wavefunction(p))) for p in GRID)
    assert worst < 1e-10


def test_wavefunction_evaluable_at_operator_shift_points():
    wf = rel.eigenfunction_rel(MODEL, 2).wavefunction
    for p in (0.5, 2.0, 7.0):
        for shift in (0.0, 0.5j, -0.5j, 1j):
            val = wf(p + shift)
            assert np.isfinite(val.real) and np.isfinite(val.imag)


def test_half_shift_pair_annihilates_ground():
    b_minus, _ = rel.ladder_b(MODEL)
    wf0 = rel.eigenfunction_rel(MODEL, 0).wavefunction
    scale = max(abs(wf0(p)) for p in GRID)
    assert max(abs(b_minus(wf0)(p)) for p in GRID) / scale < 1e-12


def test_two_step_raising_maps_to_next_state():
    _, B_plus = rel.ladder_B(MODEL)
    for n in range(3):
        st = rel.eigenfunction_rel(MODEL, n)
        nxt = rel.eigenfunction_rel(MODEL, n + 1)
        ratio, spread = grid_ratio(B_plus(st.wavefunction), nxt.wavefunction, GRID)
        assert spread < 1e-10
        # in this normalization the raising map is exactly -1
        assert ratio == pytest.approx(-1.0, abs=1e-10)


def test_printed_two_step_variant_differs_by_known_scalar():
    Bm, _ = rel.ladder_B(MODEL)
    Bm_printed = Bm + rel.printed_tail(MODEL)
    wf = rel.eigenfunction_rel(MODEL, 1).wavefunction
    offset = 0.5 / MODEL.omega0
    worst = max(abs(Bm(wf)(p) - Bm_printed(wf)(p) - offset * wf(p)) for p in GRID)
    assert worst < 1e-10 * max(abs(wf(p)) for p in GRID)


def test_spectral_weight_positive_on_spectrum():
    for n in range(8):
        assert rel.spectral_f(MODEL, rel.energy(MODEL, n)) > 0.0
    # closed form: f(E_n) = 4 omega0^2 (n+alpha-1/2)(n+nu-1/2)
    a, nu, w0 = MODEL.alpha, MODEL.nu, MODEL.omega0
    for n in range(4):
        assert rel.spectral_f(MODEL, rel.energy(MODEL, n)) == pytest.approx(
            4.0 * w0**2 * (n + a - 0.5) * (n + nu - 0.5), rel=1e-12)


def test_ladder_state_proportional_to_closed_form():
    st = rel.ladder_state(MODEL, 2)
    ref = rel.eigenfunction_rel(MODEL, 2)
    _, spread = grid_ratio(st.wavefunction, ref.wavefunction, GRID)
    assert spread < 1e-10


@pytest.mark.parametrize("couplings", [(0.5, 0.1), (0.6, 0.2)])
def test_ladder_state_keeps_the_norm_of_phi0(couplings):
    # ||N_n (B+)^n phi_0||^2 / ||phi_0||^2 under d rho on (0, inf), by
    # 1600-node Gauss-Legendre on (0, 95), where phi_0 has fallen below
    # 1e-60: 1 to 4e-14 for n <= 4; with (alpha+nu+1)_n in N_n it read
    # (alpha+nu)/(n+alpha+nu), 0.787 to 0.480 at (0.5, 0.1)
    model = rel.make_rel_model(*couplings)
    nodes, weights = np.polynomial.legendre.leggauss(1600)
    rho, weights = 47.5 * (nodes + 1.0), 47.5 * weights

    def norm2(f):
        return float(np.sum(weights * np.abs(f(rho)) ** 2))

    ground = norm2(rel.eigenfunction_rel(model, 0).wavefunction)
    for n in range(1, 5):
        assert norm2(rel.ladder_state(model, n).wavefunction) / ground == pytest.approx(
            1.0, abs=1e-12), n


def test_ladder_state_builds_the_gauged_raising_operator_once_per_model(monkeypatch):
    calls = []
    ladder_B = rel.ladder_B

    def counting(model):
        calls.append(model)
        return ladder_B(model)

    first, second = rel.make_rel_model(0.5, 0.1), rel.make_rel_model(0.6, 0.2)
    rel._gauged_raising.cache_clear()
    fresh = [rel.ladder_state(second, n).wavefunction(GRID) for n in range(15)]
    rel._gauged_raising.cache_clear()
    monkeypatch.setattr(rel, "ladder_B", counting)
    for n in range(15):
        rel.ladder_state(first, n).wavefunction(GRID)
    assert calls == [first]
    # a second model gets its own operator, and the same floats as a fresh build
    for n in range(15):
        assert rel.ladder_state(second, n).wavefunction(GRID).tobytes() == fresh[n].tobytes()
    assert calls == [first, second]


def test_alpha_against_mpmath_at_small_omega0():
    # alpha = 1/2 + 1/2 sqrt(1 + 16 g0/(1 + sqrt(1 - 8 g0 omega0^2))); written
    # as 2(1 - sqrt(...))/omega0^2 it cancels, 0.19 relative off at 1e-8
    for omega0 in (1e-2, 1e-4, 1e-6, 1e-8):
        with mp.workdps(40):
            g0, w = mp.mpf(0.1), mp.mpf(omega0)
            ref = (1 + mp.sqrt(1 + 2 / w**2 * (1 - mp.sqrt(1 - 8 * g0 * w * w)))) / 2
        alpha = rel.make_rel_model(omega0, 0.1).alpha
        assert abs(alpha - ref) <= 1e-14 * ref, omega0


@pytest.mark.parametrize("couplings", [(0.5, 1e-12), (35.0, 1.02e-5)])
def test_exponent_offsets_against_mpmath(couplings):
    # alpha - 1 ~ 2 g0 at small g0, nu - 1 ~ 1/omega0^2 at large omega0: the
    # model holds both to a few ulps, where alpha - 1 formed from alpha is
    # 2.2e-5 relative off at (0.5, 1e-12)
    model = rel.make_rel_model(*couplings)
    with mp.workdps(60):
        w, g0 = map(mp.mpf, couplings)
        r = mp.sqrt(1 - 8 * g0 * w * w)
        refs = [(1 + mp.sqrt(1 + 2 / w**2 * (1 + sign * r))) / 2 - 1 for sign in (-1, 1)]
    for value, ref in zip((model.alpha_m1, model.nu_m1), refs):
        assert abs(value - ref) <= 2 * np.finfo(float).eps * ref, couplings
    if couplings[1] == 1e-12:
        assert abs(model.alpha - 1.0 - refs[0]) > 1e-6 * refs[0]


def test_nonrel_limit_deviation_shrinks():
    devs = rel.nonrel_limit(0.1, [1e-2, 5e-3, 2.5e-3])
    assert devs[0] > devs[1] > devs[2]
    assert devs[0] / devs[1] == pytest.approx(2.0, rel=0.05)


def test_nonrel_limit_against_mpmath():
    # the exact deviation |alpha + nu - 1/omega0 - (d + 1)| at 50 digits
    omegas = [1e-2, 1e-4, 1e-6, 1e-8]
    with mp.workdps(50):
        g0 = mp.mpf(0.1)
        d = mp.sqrt(1 + 8 * g0) / 2
        refs = []
        for w in map(mp.mpf, omegas):
            r = mp.sqrt(1 - 8 * g0 * w * w)
            alpha = (1 + mp.sqrt(1 + 2 / w**2 * (1 - r))) / 2
            nu = (1 + mp.sqrt(1 + 2 / w**2 * (1 + r))) / 2
            refs.append(float(abs(alpha + nu - 1 / w - (d + 1))))
    for dev, ref in zip(rel.nonrel_limit(0.1, omegas), refs):
        assert abs(dev - ref) <= 1e-12 * ref
    # the leading term omega0 (1 - 8 g0)/8
    assert refs[-1] / omegas[-1] == pytest.approx(0.025, rel=1e-6)


@pytest.mark.parametrize("omega0_sequence", [[], [1e-2]])
def test_nonrel_limit_rejects_g0_outside_domain(omega0_sequence):
    # a CouplingError, not the math domain error of sqrt(1 + 8 g0)
    with pytest.raises(CouplingError):
        rel.nonrel_limit(-0.2, omega0_sequence)


def test_eigenfunction_rejects_negative_index():
    with pytest.raises(ValueError):
        rel.eigenfunction_rel(MODEL, -1)


@pytest.mark.parametrize("n", [0, 5, 12])
def test_eigenfunction_array_equals_pointwise(n):
    # the grid and its shifts by +-i, +-2i, evaluated in one call
    pts = np.concatenate([GRID + s for s in (0.0, 1j, -1j, 2j, -2j)])
    wf = rel.eigenfunction_rel(MODEL, n).wavefunction
    values = wf(pts)
    pointwise = np.array([wf(p) for p in pts])
    assert np.max(np.abs(values - pointwise)) <= 1e-14 * np.max(np.abs(pointwise))


# ---- the batched eigenfunction leaf -------------------------------------


@pytest.mark.parametrize("shift", [0.0, 1j, -1j, 2j, -2j])
def test_eigenfunction_rows_equal_the_scalar_leaf_bit_for_bit(shift):
    pts = GRID + shift
    family = rel.eigenfunctions(MODEL, range(13))(pts)
    assert family.shape == (13, len(GRID))
    for n, row in enumerate(family):
        assert row.tobytes() == rel.eigenfunction_rel(MODEL, n).wavefunction(pts).tobytes()


def _closed_form(model, n, z):
    """phi_n at the points z, with the operations and the order of the
    leaf's definition: one log_gamma call on the stacked arguments, then the
    prefactor times row n of the dual Hahn recurrence."""
    a, nu = model.alpha, model.nu
    iz = 1j * z
    lg_a, lg_0, lg_nu = specfun.log_gamma(np.stack((a + iz, iz, nu + iz)))
    prefactor = np.exp(1j * math.pi * a / 2.0 + lg_a - lg_0 + iz * math.log(model.omega0)
                       + lg_nu)
    return prefactor * specfun.cdhahn_rows(n, z, a, nu, 0.5)[n]


def _mp_closed_form(model, n, z, dps=30):
    """phi_n at the points z from dps-digit gammas and the terminating series."""
    with mp.workdps(dps):
        a, nu, w0 = (mp.mpf(v) for v in (model.alpha, model.nu, model.omega0))
        out = []
        for p in z:
            ir = 1j * mp.mpc(p.real, p.imag)
            prefactor = (mp.expjpi(a / 2) * mp.gamma(a + ir) / mp.gamma(ir)
                         * mp.exp(ir * mp.log(w0)) * mp.gamma(nu + ir))
            s_n = mp.rf(a + nu, n) * mp.rf(a + 0.5, n) * mp.hyp3f2(-n, a + ir, a - ir, a + nu,
                                                                    a + 0.5, 1)
            out.append(complex(prefactor * s_n))
        return np.array(out)


@pytest.mark.parametrize("couplings", [(0.5, 0.1), (0.9, 0.05), (0.35, 0.6), (0.6, 0.2)])
def test_eigenfunctions_keep_the_closed_form_floats(couplings):
    # the rel tables are digested byte by byte: the rows and the one-row
    # leaf give the closed form's own floats, on the grid and at each point,
    # and those floats are phi_n to ~1e-13
    model = rel.make_rel_model(*couplings)
    pts = np.concatenate([GRID, GRID[::4] + 1j, GRID[::4] - 2j])
    family = rel.eigenfunctions(model, range(13))(pts)
    for n in range(13):
        want = _closed_form(model, n, pts)
        assert family[n].tobytes() == want.tobytes()
        wf = rel.eigenfunction_rel(model, n).wavefunction
        assert wf(pts).tobytes() == want.tobytes()
        for p in pts[::5]:
            assert wf(p) == complex(_closed_form(model, n, np.array([p]))[0])
    for n in (0, 1, 6, 12):
        ref = _mp_closed_form(model, n, pts[::3])
        assert np.max(np.abs(family[n, ::3] - ref)) <= 1e-12 * np.max(np.abs(ref)), n


def test_eigenfunction_family_makes_one_log_gamma_call(monkeypatch):
    calls = []
    log_gamma, cdhahn_rows = rel.log_gamma, rel.cdhahn_rows

    def counting_log_gamma(z):
        calls.append(np.shape(z))
        return log_gamma(z)

    def counting_rows(n_top, z, a, b, c):
        calls.append(n_top)
        return cdhahn_rows(n_top, z, a, b, c)

    monkeypatch.setattr(rel, "log_gamma", counting_log_gamma)
    monkeypatch.setattr(rel, "cdhahn_rows", counting_rows)
    monkeypatch.delattr(specfun, "cdhahn_complex")  # no per-row sum
    rel.eigenfunctions(MODEL, [3, 8, 0])(GRID)
    assert calls == [(3, len(GRID)), 8]


def test_eigenfunction_family_rejects_negative_degrees():
    with pytest.raises(ValueError):
        rel.eigenfunctions(MODEL, [0, -1])
    assert rel.eigenfunctions(MODEL, [])(GRID).shape == (0, len(GRID))


# ---- canonical coefficients ---------------------------------------------


def _operators(model):
    """Every rel operator by name, as the module builds it."""
    (B_minus, B_plus), B_compact = rel.ladder_B(model), rel.ladder_B_compact(model)
    tail = rel.printed_tail(model)
    return {"H": rel.hamiltonian_rel(model), "P": rel.momentum_P(model),
            **dict(zip(("b-", "b+"), rel.ladder_b(model))), "B-": B_minus, "B+": B_plus,
            "B-printed": B_minus + tail, "B+printed": B_plus + tail,
            "B-compact": B_compact[0], "B+compact": B_compact[1],
            "bb_rhs": rel.bb_commutator_rhs(model), "BB_rhs": rel.BB_commutator_rhs(model)}


class _ValueOp(dict):
    """A difference operator in value space, {shift: coefficient}, each
    coefficient a function of z and every sum and product of coefficients
    taken on their values: a reference that shares nothing with opcore's
    rational algebra."""

    def __add__(self, other):
        out = _ValueOp(self)
        for s, c in other.items():
            out[s] = (lambda z, a=out[s], b=c: a(z) + b(z)) if s in out else c
        return out

    def __rmul__(self, k):
        return _ValueOp({s: lambda z, c=c: k * c(z) for s, c in self.items()})

    def __neg__(self):
        return -1.0 * self

    def __sub__(self, other):
        return self + -other

    def __call__(self, f):
        """The operator applied to f, a function of z."""
        return lambda z: sum(c(z) * f(z + s) for s, c in self.items())


def _shift(a):
    return _ValueOp({complex(a): lambda z: 1.0})


def _times(f):
    """Multiplication by the function f of z."""
    return _ValueOp({0j: f})


def _compose(A, B):
    """A B (apply B first): a_s(z) b_t(z + s) at shift s + t, summed by shift
    in the order of the term pairs."""
    out = _ValueOp()
    for s, a in A.items():
        for t, b in B.items():
            out = out + {s + t: lambda z, a=a, b=b, s=s: a(z) * b(z + s)}
    return out


def _lambda_operators(model):
    """The same operators with each coefficient a lambda of its printed closed
    form, composed as products of values (_ValueOp): the reference the
    folded rational sums must reproduce."""
    a, nu, w0, g0 = model.alpha, model.nu, model.omega0, model.g0
    sqrt2 = math.sqrt(2.0)
    V = _times(lambda z: 0.5 * w0**2 * z * (z + 1j) + g0 / (z * (z + 1j)))
    H = 0.5 * _shift(1j) + 0.5 * _shift(-1j) + _compose(V, _shift(1j))
    P = -(0.5 * _shift(1j) - 0.5 * _shift(-1j) + _compose(V, _shift(1j)))
    u = _times(lambda z: (nu + 1j * z) * (1.0 + a / (1j * z)))
    v = _times(lambda z: (nu - 1j * z) * (1.0 - a / (1j * z)))
    b_minus = (1.0 / sqrt2) * (_shift(-0.5j) - w0 * _compose(_shift(0.5j), u))
    b_plus = (1.0 / sqrt2) * (_shift(-0.5j) - w0 * _compose(v, _shift(0.5j)))

    def pair(tail):
        scalar_tail = 0.5 * H - (0.5 / w0) * _compose(H, H) + tail * _shift(0)
        minus = sqrt2 * _compose(_shift(-0.5j), b_minus) - H + (w0 * (a + nu)) * _shift(0)
        plus = sqrt2 * _compose(b_plus, _shift(-0.5j)) - H + (w0 * (a + nu)) * _shift(0)
        return (_compose(_times(lambda z: 1j * z), minus) + scalar_tail,
                _compose(plus, _times(lambda z: -1j * z)) + scalar_tail)

    w0rho = _times(lambda z: w0 * z)
    sing = _times(lambda z: 2.0 * g0 / (z * z + 1.0))
    inner_minus, inner_plus = w0rho - 1j * P, w0rho + 1j * P
    local = _times(lambda z: 0.5 * w0 * (1.0 + a * nu / (z * z + 0.25)))
    delta = _times(lambda z: 0.5 * w0 * w0 * (a + nu - 0.25 + a * nu * (
        -(a - 1.0) * (nu - 1.0) / (z * (z + 1j)) + a * nu / ((z + 0.5j) * (z + 1.5j)))))
    H2 = _compose(H, H)
    (B_minus, B_plus), (Bp_minus, Bp_plus) = pair(w0 * a * nu + 0.5 / w0), pair(w0 * a * nu)
    return {"H": H, "P": P, "b-": b_minus, "b+": b_plus, "B-": B_minus, "B+": B_plus,
            "B-printed": Bp_minus, "B+printed": Bp_plus,
            "B-compact": (0.5 / w0) * (_compose(inner_minus, inner_minus) - sing),
            "B+compact": (0.5 / w0) * (_compose(inner_plus, inner_plus) - sing),
            "bb_rhs": local + _compose(delta, _shift(1j)),
            "BB_rhs": w0 * (H + (2.0 / w0**2) * (_compose(H2, H) - H))}


def test_no_rel_coefficient_is_a_lambda():
    # every coefficient of every operator is rational, in the canonical form;
    # a lambda serves the eigenfunction leaves only
    for name, op in _operators(MODEL).items():
        assert all(t.coeff.rational is not None for t in op.terms), name
    assert rel.eigenfunctions(MODEL, [0]).rational is None


def _size(r, z):
    """The scale a rational coefficient's value at z is exact to: its sizes
    summed at |z| over |prod (z - q)^k|."""
    poles = [np.abs(z - q) ** k for q, k in r.poles]
    return np.polynomial.polynomial.polyval(np.abs(z), r.rows[1].real) / np.prod(poles, axis=0)


# the canonical coefficients against the lambdas, pointwise relative, over
# the four digest couplings and (0.5914, 0.0648): worst 2.7e-13 (B-+ at
# shift 2i, and their printed and compact forms, at 0.25 - 2.5i beside the
# numerator's zeros near -2.09i and -2.36i: its float coefficients, evaluated
# exactly, read 2.4e-13 there), 5.5e-15 (b-+), 5.1e-15 (bb_rhs) and 1.5e-15
# (H, P), within the bound the frozenset fold was held to.  BB_rhs, whose
# coefficients no check evaluates, is held relative to its sizes (_size),
# 9.0e-16 worst: its e^{3i d} coefficient, a product of three shifted H
# coefficients expanded to 13 powers, reads up to 2.8e-10 pointwise beside
# its zeros near -2i
_FOLD_TOL = 3e-13
_SIZE_TOL = 3e-15


@pytest.mark.parametrize("couplings", [(0.5, 0.1), (0.9, 0.05), (0.35, 0.6), (0.6, 0.2),
                                       (0.5914, 0.0648)])
def test_folded_coefficients_match_their_closed_forms(couplings):
    # on the grid and at grid + k i/2, |k| <= 56: every point the coefficient
    # block of a 14-level B+ tower reads, and the half steps of b-+
    model = rel.make_rel_model(*couplings)
    pts = (GRID + 0.5j * np.arange(-56, 57)[:, None]).reshape(-1)
    folded, lambdas = _operators(model), _lambda_operators(model)
    for name, op in folded.items():
        ref = {s: c(pts) for s, c in lambdas[name].items()}
        got = {t.shift: t.coeff for t in op.terms}
        assert got.keys() == ref.keys(), name
        for key, want in ref.items():
            error = np.abs(got[key](pts) - want)
            if name == "BB_rhs":
                assert np.max(error / _size(got[key].rational, pts)) <= _SIZE_TOL, key
            else:
                assert np.max(error / np.abs(want)) <= _FOLD_TOL, (name, key)


# At the points a 14-level B+ tower reads, grid + k i with |k| <= 28, the
# leaf is off by up to 4.4e-14 relative (4.3e-14 at (0.6, 0.2), 3.6e-14 at
# (0.5, 0.1), both at |k| >= 24; median 5e-15), all of it its gamma
# prefactor P: at z in {0.25, 1.3, 8} + k i, |k| <= 30, P stepped from z by
# the exact ratio P(z+i)/P(z) = (iz-1)/((alpha+iz-1)(nu+iz-1) omega0) reads
# 3.3e-15 and 6.8e-15 there, the leaf 3.7e-14 and 3.6e-14.  The tolerance is
# 2.3x the worst over the four digest couplings.
@pytest.mark.parametrize("couplings,ns", [((0.6, 0.2), (0, 3)), ((0.5, 0.1), (0,))])
def test_eigenfunctions_match_mpmath_on_the_tower_lattice(couplings, ns):
    model = rel.make_rel_model(*couplings)
    pts = (GRID[::4] + 1j * np.arange(-28, 29)[:, None]).reshape(-1)
    rows = rel.eigenfunctions(model, ns)(pts)
    for n, row in zip(ns, rows):
        ref = _mp_closed_form(model, n, pts, dps=40)
        assert np.max(np.abs(row - ref) / np.abs(ref)) <= 1e-13, n


# N_n (B+)^n phi_0 = N_n (-2 omega0)^n phi_n.  Built in the P gauge, the state
# reads P at its own points only, and its worst normwise error at these
# levels and couplings is 6.6e-15; the un-gauged tower, which read P on the
# shift lattice grid + k i, |k| <= 2n, read 3.3e-14.
@pytest.mark.parametrize("couplings", [(0.5, 0.1), (0.9, 0.05), (0.35, 0.6), (0.6, 0.2)])
def test_ladder_state_matches_mpmath(couplings):
    model = rel.make_rel_model(*couplings)
    for n in (0, 1, 4, 7, 10, 14):
        got = rel.ladder_state(model, n).wavefunction(GRID)
        ref = rel.ladder_norm_constant(model, n) * (-2.0 * model.omega0) ** n \
            * _mp_closed_form(model, n, GRID, dps=40)
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref)), n


@pytest.mark.parametrize("couplings", [(0.5, 0.1), (0.9, 0.05), (0.35, 0.6), (0.6, 0.2)])
def test_gauged_terms_are_the_operator_in_the_p_gauge(couplings):
    # P^-1 op P term by term: each rational coefficient against c_s(z) times
    # P(z + s)/P(z), P from the leaf's own log prefactor, at points off the
    # grid and off the imaginary axis; the worst reads 3.0e-15
    model = rel.make_rel_model(*couplings)
    z = np.array([0.3, 1.1 + 0.2j, 2.5, 4.0 - 0.7j])
    B_minus, B_plus = rel.ladder_B(model)
    for op in (rel.hamiltonian_rel(model), B_minus, B_plus):
        gauged = rel.gauged(model, op)
        assert [t.shift for t in gauged.terms] == [t.shift for t in op.terms]
        for t, g in zip(op.terms, gauged.terms):
            assert np.all(g.coeff.rational.rows[1].real >= np.abs(g.coeff.rational.rows[0]))
            want = t.coeff(z) * np.exp(rel.log_prefactor(model, z + t.shift)
                                       - rel.log_prefactor(model, z))
            assert np.max(np.abs(g.coeff(z) / want - 1.0)) < 1e-14, t.shift


def test_gauge_step_is_the_prefactor_ratio():
    # r+(z) = P(z + i)/P(z), exactly the rational factor the gauge divides by
    z = np.array([0.25, 1.3, 8.0, 2.0 + 0.5j])
    step = np.exp(rel.log_prefactor(MODEL, z + 1j) - rel.log_prefactor(MODEL, z))
    assert np.max(np.abs(rel.step_ratio(MODEL, z) / step - 1.0)) < 1e-14


def test_gauged_refuses_half_shifts():
    b_minus, _ = rel.ladder_b(MODEL)
    with pytest.raises(ValueError, match="whole multiples of i"):
        rel.gauged(MODEL, b_minus)
