"""Verification suite and report assembly.

Every identity the toolkit claims is bound to a named, tolerance-tagged
check.  `CHECKS` is the one place where a check's tolerance, gating and
static note are declared.  Checks split into two classes:

* hard checks (gating=True) decide the overall pass/fail of a run; a
  tolerance override (`verify --tol`) applies to these only;
* report-only checks (gating=False) record how well possibly-misprinted
  closed forms hold, without gating -- their job is adjudication, and
  their notes start with "report-only".

Reports are deterministic: the random test functions come from a fixed
seed, so identical inputs give byte-identical serialized reports.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import nonrel, planewave, rel, specfun
from .errors import EvaluationError, PoleError
from .opcore import (
    AnalyticFunction,
    SampleGrid,
    commutator,
    compose,
    coordinate,
    default_grid,
    from_callable,
    function_residual,
    gaussian,
    grid_ratio,
    identity_op,
    mixed_residual,
    monomial,
    mul_op,
    polynomial,
    residual,
    shift_op,
)

_SQRT2 = math.sqrt(2.0)
_SEED = 20260824

# The eigen-equation checks cover levels n <= max(n_max, BASE_LEVEL); the
# Casimir checks cover n <= BASE_LEVEL whatever n_max is.
BASE_LEVEL = 8

# The ladder checks build levels n <= min(n_max, LADDER_CAP).  The cap is a
# precision limit, not a cost one: at g0 = 0.1 the nonrel ladder-reconstruction
# spread at n = 7 is 4.0e-8 (1.27e-8 with the earlier closure-tree evaluator)
# against its 1e-8 tolerance, while that level builds in about 4 ms (43 s
# with the closure trees) on a 2-core x86-64 VM.
LADDER_CAP = 6


class Check(NamedTuple):
    tolerance: float
    gating: bool = True
    note: str = ""  # used when the check yields no computed note


# Report-only checks record residuals of possibly-misprinted closed forms;
# `run_suite` prefixes their notes with "report-only; ".
CHECKS = {
    "planewave_eigen": Check(1e-13),
    "planewave_mass_shell": Check(1e-14),
    "specfun_gamma_recurrence": Check(1e-11),
    "specfun_gamma_reflection": Check(1e-11),
    "specfun_degree_recurrence": Check(1e-12),
    "specfun_cdhahn_symmetry": Check(1e-12),
    "nonrel_eigen_equation": Check(1e-10),
    "nonrel_factorization": Check(1e-10, note="20 random smooth test functions"),
    "nonrel_pair_commutator": Check(1e-10),
    "nonrel_weighted_commutator": Check(1e-9),
    "nonrel_lowering_forms_agree": Check(1e-10),
    "nonrel_lowering_commutator": Check(1e-9),
    "nonrel_ground_annihilation": Check(1e-12),
    "nonrel_su11_closure": Check(1e-9),
    "nonrel_casimir": Check(1e-9),
    "nonrel_ladder_coefficient": Check(1e-8),
    "nonrel_ladder_reconstruction": Check(1e-8),
    "nonrel_spectrum_oracle": Check(
        1e-3, note="independent tridiagonal diagonalization vs 2n+d+1"),
    "nonrel_spectrum_variant": Check(
        1e-3, gating=False, note="printed variant 2d+n+1 against the oracle"),
    "rel_eigen_equation": Check(1e-8),
    "rel_factorization_eigen": Check(1e-8),
    "rel_factorization_random": Check(1e-7, note="20 random analytic test functions"),
    "rel_ground_annihilation": Check(1e-10),
    "rel_lowering_commutator": Check(1e-8),
    "rel_raising_commutator": Check(1e-8),
    "rel_lowering_commutator_uncorrected": Check(
        1e-8, gating=False,
        note="two-step lowering form with the literal H^2 term misses by the "
             "constant 1: the H^2 must enter as H^2 - 1 (rest energy "
             "subtracted), i.e. an extra scalar 1/(2 omega0)"),
    "rel_momentum_commutator": Check(1e-10),
    "rel_momentum_sign_free_limit": Check(
        1e-13, note="free-limit momentum eigenvalue is +sinh(chi): sign agrees "
                    "with p = mc sinh(chi)"),
    "rel_mass_shell_free": Check(1e-12),
    "rel_pair_commutator_printed": Check(
        1e-10, gating=False,
        note="printed half-shift commutator right-hand side as stated, "
             "residual recorded"),
    "rel_two_step_commutator": Check(
        1e-10, note="omega0 H (1 + 2(H^2-1)/omega0^2), exact operator identity"),
    "rel_ladder_consistency": Check(
        1e-6, note="b_{n+1}^2 - b_n^2 against the two-step commutator scalar at E_n"),
    "rel_compact_form_comparison": Check(
        1e-10, gating=False,
        note="compact (omega0 rho -+ iP)^2 form vs primary closed form, "
             "discrepancy recorded"),
    "rel_su11_closure": Check(1e-6),
    "rel_casimir": Check(1e-8),
    "rel_ladder_coefficient": Check(
        1e-6, note="measured kappa_n matches sqrt(n(n+alpha+nu-1)), the form "
                   "forced by su(1,1) closure"),
    "rel_ladder_coefficient_printed": Check(
        1e-6, gating=False,
        note="measured b_n^2 against the printed "
             "2 omega0 sqrt(n(n+alpha+nu)(n+alpha-1/2)(n+nu-1/2)): the "
             "(n+alpha+nu) factor is measured as (n+alpha+nu-1)"),
    "rel_ladder_reconstruction": Check(1e-6),
    "rel_energies_above_rest": Check(0.0),
    "rel_nonrel_limit_linear": Check(0.2),
    "rel_nonrel_limit_quadratic": Check(0.2),
    "rel_nonrel_limit_exponent": Check(1e-3),
}


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    params: dict
    max_residual: float
    tolerance: float
    note: str = ""
    gating: bool = True

    def __post_init__(self):
        object.__setattr__(self, "max_residual", float(self.max_residual))
        object.__setattr__(self, "tolerance", float(self.tolerance))

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tolerance

    def to_dict(self) -> dict:
        return {
            "check_id": self.check_id,
            "params": self.params,
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "note": self.note,
        }


@dataclass
class VerificationReport:
    results: list = field(default_factory=list)
    discrepancy_notes: list = field(default_factory=list)

    def sort(self):
        self.results.sort(key=lambda r: r.check_id)

    @property
    def all_hard_passed(self) -> bool:
        return all(r.passed for r in self.results if r.gating)

    def to_json(self) -> str:
        payload = {
            "results": [r.to_dict() for r in self.results],
            "discrepancy_notes": list(self.discrepancy_notes),
            "all_hard_passed": self.all_hard_passed,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\r\n")
        writer.writerow(["check_id", "params", "max_residual", "tolerance",
                         "passed", "note"])
        for r in self.results:
            writer.writerow([
                r.check_id,
                json.dumps(r.params, sort_keys=True),
                repr(r.max_residual),
                repr(r.tolerance),
                str(r.passed).lower(),
                r.note,
            ])
        return buf.getvalue()

    def to_text(self) -> str:
        lines = []
        for r in self.results:
            status = "PASS" if r.passed else "FAIL"
            gate = "" if r.gating else " [report-only]"
            line = (f"{status}{gate}  {r.check_id:38s} residual {r.max_residual:.3e}"
                    f"  tol {r.tolerance:.1e}")
            if r.note:
                line += f"  ({r.note})"
            lines.append(line)
        lines.append("")
        if self.discrepancy_notes:
            lines.append("discrepancies adjudicated:")
            for note in self.discrepancy_notes:
                lines.append(f"  - {note}")
            lines.append("")
        verdict = "ALL HARD CHECKS PASSED" if self.all_hard_passed \
            else "HARD CHECK FAILURES PRESENT"
        lines.append(verdict)
        return "\n".join(lines) + "\n"


def _random_halfline_functions(rng, count: int):
    """Smooth decaying functions with exact closed-form derivatives."""
    out = []
    for _ in range(count):
        p = rng.uniform(0.6, 2.5)
        width = rng.uniform(0.6, 1.4)
        coeffs = rng.uniform(-1.0, 1.0, size=rng.integers(2, 5))
        out.append(monomial(p) * gaussian(width) * polynomial(coeffs))
    return out


def _random_entire_functions(rng, count: int):
    """Entire test functions safe to evaluate at complex-shifted points."""
    out = []
    for _ in range(count):
        width = rng.uniform(0.4, 1.0)
        coeffs = rng.uniform(-1.0, 1.0, size=rng.integers(2, 6))
        out.append(polynomial(coeffs) * gaussian(width))
    return out


def _max_abs(f: AnalyticFunction, grid: SampleGrid) -> float:
    return float(np.max(np.abs(f(grid.points))))


def _eigen_residual(op, f: AnalyticFunction, eigval: float, grid: SampleGrid) -> float:
    return mixed_residual(op(f)(grid.points), eigval * f(grid.points))


# ---- check groups ------------------------------------------------------
#
# Each group is a generator of (check_id, params, residual[, computed note]),
# in a fixed order: the groups share one random generator.


def _worst_relative(values, ref) -> float:
    return float(np.max(np.abs(values - ref) / np.abs(ref)))


def _gamma_sample(rng, count: int):
    """`count` draws from the square |re z|, |im z| < 20, less those within
    1e-2 of a pole."""
    z = rng.uniform(-20, 20, size=(count, 2)).view(complex)[:, 0]  # (re, im) pairs
    near_pole = (np.abs(z.imag) < 1e-2) & (np.abs(z.real - np.round(z.real)) < 1e-2)
    return z[~near_pole]


def _checks_specfun(rng):
    n_pts = 10_000
    worst_rec = worst_ref = 0.0
    # drawn and checked 1000 points at a time: the draws are the same, and no
    # (10 000, 14) Lanczos temporary is held, which would add ~2 MB to the
    # peak memory of a verify run
    for _ in range(n_pts // 1000):
        z = _gamma_sample(rng, 1000)
        g = specfun.gamma(z)
        worst_rec = max(worst_rec, _worst_relative(z * g, specfun.gamma(z + 1)))
        worst_ref = max(worst_ref, _worst_relative(g * specfun.gamma(1 - z),
                                                   math.pi / np.sin(math.pi * z)))
    yield "specfun_gamma_recurrence", {"points": n_pts}, worst_rec
    yield "specfun_gamma_reflection", {"points": n_pts}, worst_ref

    samples = [(rng.uniform(0.1, 6.0), rng.uniform(-2.0, 3.0)) for _ in range(500)]
    rho, lam = np.array(samples).T
    lhs = specfun.generalized_degree(rho, lam + 1)
    rhs = specfun.generalized_degree(rho, lam) * (lam - 1j * rho) * 1j
    yield ("specfun_degree_recurrence", {"points": 500},
           float(np.max(np.abs(lhs - rhs) / (1.0 + np.abs(rhs)))))

    samples = [(int(rng.integers(0, 7)), rng.uniform(0.0, 4.0), rng.uniform(0.2, 2.0),
                rng.uniform(0.2, 3.0), rng.uniform(0.2, 3.0)) for _ in range(300)]
    degree, x, a, b, c = np.array(samples).T
    worst = 0.0
    for n in np.unique(degree):
        at = degree == n
        s1 = specfun.cdhahn(int(n), x[at], a[at], b[at], c[at])
        s2 = specfun.cdhahn(int(n), x[at], a[at], c[at], b[at])
        worst = max(worst, float(np.max(np.abs(s1 - s2) / (1.0 + np.abs(s2)))))
    yield "specfun_cdhahn_symmetry", {"points": 300}, worst


def _checks_planewave(grid: SampleGrid):
    H0 = planewave.free_hamiltonian()
    worst = 0.0
    for chi in (0.0, 0.5, -0.5, 1.0):
        wave = planewave.plane_wave(chi)
        worst = max(worst, _eigen_residual(H0, wave, math.cosh(chi), grid))
        power = planewave.plane_wave_power_form(chi)
        worst = max(worst, function_residual(wave, power, grid))
    yield "planewave_eigen", {"chi": [0.0, 0.5, -0.5, 1.0]}, worst
    worst = max(abs(planewave.make_state(chi).p0 ** 2
                    - planewave.make_state(chi).p ** 2 - 1.0)
                for chi in np.linspace(-2.0, 2.0, 41))
    yield "planewave_mass_shell", {"chi_range": [-2.0, 2.0]}, worst


def _checks_nonrel(g0: float, n_hi: int, n_ladder: int, grid: SampleGrid, rng):
    model = nonrel.make_model(g0)
    params = {"g0": g0, "d": model.d}
    H = nonrel.hamiltonian(model)
    c_minus, c_plus = nonrel.ladder_c(model)
    A_minus, A_plus = nonrel.ladder_A(model)
    K0, Km, Kp = nonrel.su11_generators(model)
    states = [nonrel.eigenfunction(model, n) for n in range(n_hi + 2)]
    rand_fs = _random_halfline_functions(rng, 20)

    yield "nonrel_eigen_equation", params, max(
        _eigen_residual(H, st.wavefunction, st.energy, grid) for st in states[: n_hi + 1])

    fact = compose(c_plus, c_minus) + (model.d + 1.0) * identity_op()
    yield "nonrel_factorization", params, max(residual(fact, H, f, grid) for f in rand_fs)

    rhs14 = mul_op(from_callable(lambda z: 1.0 + (model.d + 0.5) / (z * z)))
    yield "nonrel_pair_commutator", params, max(
        residual(commutator(c_minus, c_plus), rhs14, f, grid) for f in rand_fs[:8])

    xicm = compose(mul_op(coordinate()), c_minus)
    rhs15 = -2.0 * (xicm - (1.0 / _SQRT2) * H
                    + ((model.d + 1.0) / _SQRT2) * identity_op())
    yield "nonrel_weighted_commutator", params, max(
        residual(commutator(H, xicm), rhs15, f, grid) for f in rand_fs[:8])

    form1, form2 = nonrel.lowering_forms(model)
    yield "nonrel_lowering_forms_agree", params, max(
        residual(form1, form2, f, grid) for f in rand_fs[:8])

    yield "nonrel_lowering_commutator", params, max(
        residual(commutator(H, A_minus), -2.0 * A_minus, f, grid) for f in rand_fs[:8])

    psi0 = states[0].wavefunction
    yield "nonrel_ground_annihilation", params, max(
        _max_abs(c_minus(psi0), grid), _max_abs(A_minus(psi0), grid),
        _max_abs(Km(psi0), grid))

    worst = 0.0
    for f in rand_fs[:8]:
        worst = max(worst, residual(commutator(K0, Kp), Kp, f, grid))
        worst = max(worst, residual(commutator(K0, Km), -1.0 * Km, f, grid))
        worst = max(worst, residual(commutator(Km, Kp), 2.0 * K0, f, grid))
    yield "nonrel_su11_closure", params, worst

    casimir = compose(K0, K0) - K0 - compose(Kp, Km)
    k = (model.d + 1.0) / 2.0
    value = k * (k - 1.0)
    worst = 0.0
    measured = []
    for st in states[: BASE_LEVEL + 1]:
        worst = max(worst, _eigen_residual(casimir, st.wavefunction, value, grid))
        measured.append(grid_ratio(casimir(st.wavefunction), st.wavefunction, grid)[0].real)
    spread = float(np.max(np.abs(np.array(measured) - value)))
    yield ("nonrel_casimir", params, worst,
           f"value k(k-1)={value:.12g}, max deviation across n<={BASE_LEVEL}: {spread:.3e}")

    # gauge-invariant ladder coefficients: K- K+ psi_n = kappa_{n+1}^2 psi_n
    worst = 0.0
    signed = []
    for n in range(n_ladder + 1):
        kap2, _ = grid_ratio(Km(Kp(states[n].wavefunction)),
                             states[n].wavefunction, grid)
        expect = (n + 1) * (n + 1 + model.d)
        worst = max(worst, abs(kap2.real - expect) / expect)
        ratio, _ = grid_ratio(Kp(states[n].wavefunction),
                              states[n + 1].wavefunction, grid)
        signed.append(round(ratio.real / math.sqrt(expect), 6))
    yield ("nonrel_ladder_coefficient", params, worst,
           "kappa_n = sqrt(n(n+d)); signed ratios over unit-normalized states "
           f"carry alternating phase: {signed}")

    worst = 0.0
    ratios = []
    state = psi0
    for n in range(1, n_ladder + 1):
        state = Kp(state)
        gamma_n = 1.0 / math.sqrt(
            math.factorial(n) * specfun.pochhammer(model.d + 1.0, n).real)
        ratio, spread = grid_ratio(gamma_n * state, states[n].wavefunction, grid)
        worst = max(worst, spread)
        ratios.append(round(ratio.real, 6))
    yield ("nonrel_ladder_reconstruction", params, worst,
           f"grid-constant ratios vs closed forms: {ratios}")

    eigs = nonrel.matrix_oracle(model, xi_max=20.0, n_points=4000, n_eigs=5)
    exact = np.array([nonrel.energy(model, n) for n in range(5)])
    yield "nonrel_spectrum_oracle", params, float(np.max(np.abs(eigs - exact) / exact))

    variant = np.array([2.0 * model.d + n + 1.0 for n in range(5)])
    yield "nonrel_spectrum_variant", params, float(np.max(np.abs(eigs - variant) / variant))


def _checks_rel(omega0: float, g0: float, n_hi: int, n_ladder: int, grid: SampleGrid,
                rng):
    model = rel.make_rel_model(omega0, g0)
    w0, a, nu = model.omega0, model.alpha, model.nu
    params = {"omega0": omega0, "g0": g0, "alpha": a, "nu": nu}
    H = rel.hamiltonian_rel(model)
    b_minus, b_plus = rel.ladder_b(model)
    B_minus, B_plus = rel.ladder_B(model)
    P = rel.momentum_P(model)
    states = [rel.eigenfunction_rel(model, n) for n in range(n_hi + 2)]
    rand_fs = _random_entire_functions(rng, 20)
    pts = grid.points

    yield "rel_eigen_equation", params, max(
        _eigen_residual(H, st.wavefunction, st.energy_mc2, grid)
        for st in states[: n_hi + 1]), f"n <= {n_hi}"

    fact = compose(b_plus, b_minus) + (w0 * (a + nu)) * identity_op()
    yield "rel_factorization_eigen", params, max(
        _eigen_residual(fact, st.wavefunction, st.energy_mc2, grid)
        for st in states[: n_hi + 1])
    yield "rel_factorization_random", params, max(residual(fact, H, f, grid)
                                                  for f in rand_fs)

    phi0 = states[0].wavefunction
    scale = _max_abs(phi0, grid)
    yield "rel_ground_annihilation", params, max(
        _max_abs(b_minus(phi0), grid), _max_abs(B_minus(phi0), grid)) / scale

    comm_m = commutator(H, B_minus)
    comm_p = commutator(H, B_plus)
    worst_m = worst_p = 0.0
    for st in states[1: n_ladder + 1]:
        f = st.wavefunction
        worst_m = max(worst_m, mixed_residual(comm_m(f)(pts), -2.0 * w0 * B_minus(f)(pts)))
    for st in states[: n_ladder + 1]:
        f = st.wavefunction
        worst_p = max(worst_p, mixed_residual(comm_p(f)(pts), 2.0 * w0 * B_plus(f)(pts)))
    yield "rel_lowering_commutator", params, worst_m
    yield "rel_raising_commutator", params, worst_p

    Bm_printed, _ = rel.ladder_B_printed(model)
    comm_printed = commutator(H, Bm_printed)
    yield "rel_lowering_commutator_uncorrected", params, max(
        residual(comm_printed, -2.0 * w0 * Bm_printed, f, grid) for f in rand_fs[:3])

    rho_op = mul_op(coordinate())
    yield "rel_momentum_commutator", params, max(
        residual(commutator(rho_op, H), 1j * P, f, grid) for f in rand_fs[:8])

    # free limit: momentum reduces to -sinh(i d/drho); measure its sign on
    # plane waves and the mass-shell operator identity
    P_free = -(0.5 * shift_op(1j) - 0.5 * shift_op(-1j))
    H_free = planewave.free_hamiltonian()
    worst = 0.0
    for chi in (0.5, -0.5, 1.0):
        wave = planewave.plane_wave(chi)
        worst = max(worst, _eigen_residual(P_free, wave, math.sinh(chi), grid))
    yield "rel_momentum_sign_free_limit", params, worst
    yield "rel_mass_shell_free", params, max(
        residual(compose(H_free, H_free) - compose(P_free, P_free), identity_op(), f, grid)
        for f in rand_fs[:3])

    yield "rel_pair_commutator_printed", params, max(
        residual(commutator(b_minus, b_plus), rel.bb_commutator_rhs(model), f, grid)
        for f in rand_fs[:3])

    yield "rel_two_step_commutator", params, max(
        residual(commutator(B_minus, B_plus), rel.BB_commutator_rhs(model), f, grid)
        for f in rand_fs[:3])

    Bm_compact, _ = rel.ladder_B_compact(model)
    yield "rel_compact_form_comparison", params, max(
        residual(Bm_compact, B_minus, f, grid) for f in rand_fs[:3])

    # gauge-invariant squared ladder coefficients mu_n = b_n^2
    mu = [0.0]
    for n in range(n_ladder + 1):
        val, _ = grid_ratio(B_minus(B_plus(states[n].wavefunction)),
                            states[n].wavefunction, grid)
        mu.append(val.real)

    worst = 0.0
    for n in range(n_ladder):
        E = rel.energy(model, n)
        scalar = w0 * E * (1.0 + 2.0 / w0**2 * (E * E - 1.0))
        worst = max(worst, abs(mu[n + 1] - mu[n] - scalar) / abs(scalar))
    yield "rel_ladder_consistency", params, worst

    worst_forced = 0.0
    worst_printed = 0.0
    for n in range(1, n_ladder + 1):
        kappa2 = mu[n] / rel.spectral_f(model, rel.energy(model, n))
        forced = n * (n + a + nu - 1.0)
        worst_forced = max(worst_forced, abs(kappa2 - forced) / forced)
        printed_b2 = (2.0 * w0) ** 2 * n * (n + a + nu) * (n + a - 0.5) * (n + nu - 0.5)
        worst_printed = max(worst_printed, abs(mu[n] - printed_b2) / printed_b2)
    yield "rel_ladder_coefficient", params, worst_forced
    yield "rel_ladder_coefficient_printed", params, worst_printed

    # su(1,1) closure on the eigenbasis via the spectral scalar weight
    basis = rel.su11_rel(model)
    worst = 0.0
    for n in range(n_ladder + 1):
        psi = states[n].wavefunction
        k0 = basis.k0_eigenvalue(n)
        fn = rel.spectral_f(model, rel.energy(model, n))
        fn1 = rel.spectral_f(model, rel.energy(model, n + 1))
        bpbm = B_plus(B_minus(psi))(pts) / fn if n > 0 else 0.0
        comm_vals = B_minus(B_plus(psi))(pts) / fn1 - bpbm
        worst = max(worst, mixed_residual(comm_vals, 2.0 * k0 * psi(pts)))
        # [K0, K+] = K+ and [K0, K-] = -K- on the same state
        kp = basis.apply_Kplus(n, psi)
        kp_vals = kp(pts)
        worst = max(worst, mixed_residual(basis.apply_K0(kp)(pts) - k0 * kp_vals, kp_vals))
        if n > 0:
            km = basis.apply_Kminus(n, psi)
            km_vals = km(pts)
            worst = max(worst, mixed_residual(basis.apply_K0(km)(pts) - k0 * km_vals,
                                              -km_vals))
    yield "rel_su11_closure", params, worst

    k = (a + nu) / 2.0
    value = k * (k - 1.0)
    measured = []
    for n in range(BASE_LEVEL + 1):
        psi = states[n].wavefunction
        k0 = basis.k0_eigenvalue(n)
        fn = rel.spectral_f(model, rel.energy(model, n))
        psi_vals = psi(pts)
        kpkm = B_plus(B_minus(psi))(pts) / fn if n > 0 else 0.0
        ratio = np.mean((k0 * (k0 - 1.0) * psi_vals - kpkm) / psi_vals)
        measured.append(ratio.real)
    yield ("rel_casimir", params, float(np.max(np.abs(np.array(measured) - value))),
           f"value k(k-1)={value:.12g}, k=(alpha+nu)/2")

    worst = 0.0
    ratios = []
    for n in range(1, n_ladder + 1):
        built = rel.ladder_state(model, n).wavefunction
        ratio, spread = grid_ratio(built, states[n].wavefunction, grid)
        worst = max(worst, spread)
        ratios.append(float(f"{abs(ratio):.4g}"))
    yield ("rel_ladder_reconstruction", params, worst,
           f"grid-constant ratio magnitudes vs closed forms: {ratios}")

    lowest = min(rel.energy(model, n) for n in range(n_hi + 1))
    yield ("rel_energies_above_rest", params, max(0.0, 1.0 - lowest),
           f"E_0 = {lowest:.12g} mc^2")

    devs = rel.nonrel_limit(0.1, [1e-2, 5e-3])
    yield ("rel_nonrel_limit_linear", {"g0": 0.1, "omega0": [1e-2, 5e-3]},
           abs(devs[0] / devs[1] / 2.0 - 1.0),
           f"deviation ratio {devs[0] / devs[1]:.4f}, expected 2 (linear rate)")
    devs = rel.nonrel_limit(0.125, [1e-2, 5e-3])
    yield ("rel_nonrel_limit_quadratic", {"g0": 0.125, "omega0": [1e-2, 5e-3]},
           abs(devs[0] / devs[1] / 4.0 - 1.0),
           f"deviation ratio {devs[0] / devs[1]:.4f}, expected 4 (linear term "
           "vanishes at g0 = 1/8)")
    m_small = rel.make_rel_model(1e-2, 0.1)
    d = 0.5 * math.sqrt(1.0 + 8.0 * 0.1)
    yield ("rel_nonrel_limit_exponent", {"g0": 0.1, "omega0": 1e-2},
           abs(m_small.alpha - (d + 0.5)), f"alpha -> d + 1/2 = {d + 0.5:.6f}")


DISCREPANCY_NOTES = [
    "non-relativistic spectrum: the printed closed form 2d+n+1 disagrees with "
    "both the ladder spacing (steps of 2 per level) and the independent "
    "tridiagonal diagonalization; the spectrum is E_n = 2n+d+1 (in units "
    "hbar omega)",
    "two-step lowering operator: the printed H^2/(2 omega0) scalar tail must "
    "be (H^2-1)/(2 omega0); without the rest-energy subtraction the defining "
    "commutator misses by the constant 1 (see "
    "rel_lowering_commutator_uncorrected)",
    "half-shift pair commutator: the printed right-hand side does not hold as "
    "an operator identity; the residual is recorded in "
    "rel_pair_commutator_printed and never patched",
    "compact (omega0 rho -+ iP)^2 ladder form: differs from the primary "
    "closed form (rel_compact_form_comparison); the 2 g0/(rho^2+1) "
    "denominator as printed does not reproduce the two-step ladder pair",
    "ladder coefficients: the measured b_n^2 carries (n+alpha+nu-1) where "
    "the printed formula has (n+alpha+nu); the measured kappa_n = "
    "sqrt(n(n+alpha+nu-1)) agrees with the form forced by su(1,1) closure",
    "generalized momentum: in the free limit the momentum operator has "
    "eigenvalue +mc sinh(chi) on plane waves; no sign discrepancy against "
    "p = mc sinh(chi)",
]


def run_suite(omega0: float, g0: float, n_max: int = 6, grid: SampleGrid = None,
              tol_overrides: float | None = None) -> VerificationReport:
    """Run every check at the given couplings and assemble the report.

    `tol_overrides` replaces the tolerance of every hard check.  Identical
    inputs give identical residuals (fixed seed for the random test
    functions).  Raises ValueError for n_max < 1 and CouplingError for
    out-of-range couplings before any check runs.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    rel.make_rel_model(omega0, g0)  # validate before running anything
    nonrel.make_model(g0)
    if grid is None:
        grid = default_grid()
    rng = np.random.default_rng(_SEED)
    n_hi, n_ladder = max(n_max, BASE_LEVEL), min(n_max, LADDER_CAP)
    report = VerificationReport(discrepancy_notes=list(DISCREPANCY_NOTES))
    measured = itertools.chain(
        _checks_specfun(rng), _checks_planewave(grid),
        _checks_nonrel(g0, n_hi, n_ladder, grid, rng),
        _checks_rel(omega0, g0, n_hi, n_ladder, grid, rng))
    for check_id, params, worst, *computed_note in measured:
        tolerance, gating, note = CHECKS[check_id]
        note = computed_note[0] if computed_note else note
        if not gating:
            note = "report-only; " + note
        elif tol_overrides is not None:
            tolerance = tol_overrides
        report.results.append(CheckResult(check_id, params, worst, tolerance, note, gating))
    report.sort()
    return report


# ---- tables ------------------------------------------------------------


def spectrum_table(model_kind: str, params: dict, n_max: int) -> list[dict]:
    """Rows (n, E_n); energies in hbar omega (nonrel) or both units (rel)."""
    rows = []
    if model_kind == "nonrel":
        model = nonrel.make_model(params["g0"])
        for n in range(n_max + 1):
            rows.append({"n": n, "energy_hw": nonrel.energy(model, n)})
    elif model_kind == "rel":
        model = rel.make_rel_model(params["omega0"], params["g0"])
        for n in range(n_max + 1):
            e = rel.energy(model, n)
            rows.append({"n": n, "energy_mc2": e, "energy_hw": e / model.omega0})
    else:
        raise ValueError(f"unknown model kind: {model_kind}")
    return rows


def wavefunction_table(model_kind: str, params: dict, n: int, grid) -> list[dict]:
    """Rows (coordinate, re psi, im psi, |psi|); pole rows are marked."""
    if model_kind == "nonrel":
        wf = nonrel.eigenfunction(nonrel.make_model(params["g0"]), n).wavefunction
        coord = "xi"
    elif model_kind == "rel":
        model = rel.make_rel_model(params["omega0"], params["g0"])
        wf = rel.eigenfunction_rel(model, n).wavefunction
        coord = "rho"
    else:
        raise ValueError(f"unknown model kind: {model_kind}")
    points = [float(p) for p in grid]
    errors = (EvaluationError, PoleError, ZeroDivisionError)
    try:
        values = list(wf(points))
    except errors:  # some point fails: evaluate row by row to mark it
        values = [None] * len(points)
    rows = []
    for p, v in zip(points, values):
        try:
            v = complex(wf(p) if v is None else v)
        except errors as exc:
            rows.append({coord: p, "re": None, "im": None, "abs": None,
                         "error": f"EvaluationError: {exc}"})
            continue
        rows.append({coord: p, "re": v.real, "im": v.imag, "abs": abs(v), "error": ""})
    return rows


def rows_to_csv(rows: list[dict]) -> str:
    if not rows:
        return ""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()),
                            quoting=csv.QUOTE_MINIMAL, lineterminator="\r\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def rows_to_json(rows: list[dict]) -> str:
    return json.dumps(rows, sort_keys=True, separators=(",", ":"))


def rows_to_text(rows: list[dict]) -> str:
    if not rows:
        return ""
    keys = list(rows[0].keys())
    lines = ["  ".join(f"{k:>14s}" for k in keys)]
    for row in rows:
        cells = []
        for k in keys:
            v = row[k]
            if v is None:
                cells.append(f"{'--':>14s}")
            elif isinstance(v, float):
                cells.append(f"{v:14.8g}")
            else:
                cells.append(f"{str(v):>14s}")
        lines.append("  ".join(cells))
    return "\n".join(lines) + "\n"
