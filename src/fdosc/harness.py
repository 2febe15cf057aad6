"""Verification suite and report assembly.

Every identity the toolkit claims is bound to a named, tolerance-tagged
check.  `CHECKS` is the one place where a check's tolerance, gating and
static note are declared.  Checks split into two classes:

* hard checks (gating=True) decide the overall pass/fail of a run; a
  tolerance override (`verify --tol`) applies to these only;
* report-only checks (gating=False) record how well possibly-misprinted
  closed forms hold, without gating -- their job is adjudication, and
  their notes start with "report-only".

An operator identity is checked on the operator: a DifferenceOperator
is a normal form, its terms merged by (shift, derivative order), so an
identity holds exactly when every merged coefficient vanishes, and
`_identity_residual` reads it term by term on the grid, scaled by the
size of the parts that cancel.  Every factorization, commutator and
Casimir that holds as operators is checked that way.  The checks that
read eigenstates on the grid are those that need the spectrum (the eigen
equations, ground-state annihilation, the ladder coefficients and
towers, and the rel [K-, K+] = 2 K0 and Casimir, whose generators
K-+ = B-+/sqrt(f(E)) exist on the eigenbasis only) and
rel_factorization_eigen, the eigenstate reading of rel_factorization_random.

Reports are deterministic: the specfun samples come from a fixed seed, so
identical inputs give byte-identical serialized reports.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import re
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import nonrel, planewave, rel, specfun
from .errors import EvaluationError, PoleError
from .opcore import (
    AnalyticFunction,
    compose,
    coordinate,
    default_grid,
    from_callable,
    identity_op,
    mixed_residual,
    mul_op,
    powers,
    ratio_spread,
    shift_op,
)

_SQRT2 = math.sqrt(2.0)
_SEED = 20260824

# The eigen-equation checks cover levels n <= max(n_max, BASE_LEVEL);
# rel_casimir covers n <= BASE_LEVEL whatever n_max is.
BASE_LEVEL = 8

# The ladder checks build levels n <= min(n_max, LADDER_CAP).  The cap is a
# precision limit, not a cost one: at g0 = 0.1 the nonrel ladder-reconstruction
# spread at n = 7 is 4.0e-8 against its 1e-8 tolerance, and at cap 30 it is the
# one check that fails.  At cap 30, run_suite(0.6, 0.2, n_max=30) takes a
# median 0.135-0.150 s, against 0.092-0.105 s at cap 6 (tools/suite_timing.py,
# 21 runs, two runs, on a shared 2-core VM).
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
    "nonrel_factorization": Check(
        1e-10, note="c+ c- + (d+1) = H as operators, term by term"),
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
        1e-11, note="independent sinc-collocation spectrum vs 2n+d+1"),
    "nonrel_spectrum_variant": Check(
        1e-3, gating=False, note="printed variant 2d+n+1 against the oracle"),
    "rel_eigen_equation": Check(1e-8),
    "rel_factorization_eigen": Check(1e-8),
    "rel_factorization_random": Check(
        1e-7, note="b+ b- + omega0(alpha+nu) = H as operators, term by term"),
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
    "rel_su11_closure": Check(
        1e-6, note="[K-, K+] = 2 K0 on psi_n; [K0, K+-] = +-K+- follows from "
                   "rel_raising_commutator and rel_lowering_commutator, its residual "
                   "on psi_n being c_n/(2 omega0) ([H, B+-] -+ 2 omega0 B+-) psi_n"),
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
            "gating": self.gating,
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
        return rows_to_csv({
            "check_id": [r.check_id for r in self.results],
            "params": [json.dumps(r.params, sort_keys=True) for r in self.results],
            "max_residual": [repr(r.max_residual) for r in self.results],
            "tolerance": [repr(r.tolerance) for r in self.results],
            "passed": [str(r.passed).lower() for r in self.results],
            "note": [r.note for r in self.results],
        })

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


def _max_abs(f: AnalyticFunction, pts) -> float:
    return float(np.max(np.abs(f(pts))))


def _bracket(X, Y):
    """The commutator [X, Y] as its two parts, XY and -YX."""
    return compose(X, Y), -compose(Y, X)


def _identity_residual(pts, *parts) -> float:
    """Residual of the operator identity sum(parts) = 0, term by term.

    Distinct shifts and powers of D are linearly independent, so the sum
    vanishes exactly when every merged (shift, order) coefficient does.  For
    each term: max over pts of |sum_i c_i| / (1 + sum_i |c_i|), c_i part i's
    coefficient there, each evaluated once.  The scale is the size of the
    parts that cancel, so products that cancel inside a commutator do not
    count as error.
    """
    sums, sizes = {}, {}
    for part in parts:
        for t in part.terms:
            c = t.coeff(pts)
            key = (t.shift, t.dorder)
            sums[key] = sums.get(key, 0.0) + c
            sizes[key] = sizes.get(key, 0.0) + np.abs(c)
    return max((float(np.max(np.abs(sums[k]) / (1.0 + sizes[k]))) for k in sums),
               default=0.0)


def _eigen_residual(op, Psi, energies, psi, pts) -> float:
    """Worst residual of op psi_n against E_n psi_n over the rows of the
    batched state Psi; psi[n] is psi_n on the grid."""
    return max(mixed_residual(op_psi, e * psi_n)
               for op_psi, e, psi_n in zip(op(Psi)(pts), energies, psi))


def _tower_ratios(op, base, norms, psi, pts):
    """Worst spread and grid-constant ratios of norms[n - 1] op^n base against
    psi[n], n = 1, 2, ..., every level read from one tower pass."""
    levels = powers(op, base, len(norms))(pts)
    worst = 0.0
    ratios = []
    for n, norm in enumerate(norms, start=1):
        ratio, spread = ratio_spread(norm * levels[n], psi[n])
        worst = max(worst, spread)
        ratios.append(ratio)
    return worst, ratios


# ---- check groups ------------------------------------------------------
#
# Each group is a generator of (check_id, params, residual[, computed note]).
# The seeded generator serves the specfun samples only.


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
    # drawn and checked 1000 points at a time: the draws are the same as one
    # 10 000-point draw, and the dozen complex temporaries of a gamma call
    # stay at 16 KB each instead of 160 KB
    for _ in range(n_pts // 1000):
        z = _gamma_sample(rng, 1000)
        g = specfun.gamma(z)
        worst_rec = max(worst_rec, _worst_relative(z * g, specfun.gamma(z + 1)))
        worst_ref = max(worst_ref, _worst_relative(g * specfun.gamma(1 - z),
                                                   math.pi / np.sin(math.pi * z)))
    yield "specfun_gamma_recurrence", {"points": n_pts}, worst_rec
    yield "specfun_gamma_reflection", {"points": n_pts}, worst_ref

    rho, lam = rng.uniform((0.1, -2.0), (6.0, 3.0), size=(500, 2)).T
    lhs = specfun.generalized_degree(rho, lam + 1)
    rhs = specfun.generalized_degree(rho, lam) * (lam - 1j * rho) * 1j
    yield "specfun_degree_recurrence", {"points": 500}, mixed_residual(lhs, rhs)

    samples = [(int(rng.integers(0, 7)), rng.uniform(0.0, 4.0), rng.uniform(0.2, 2.0),
                rng.uniform(0.2, 3.0), rng.uniform(0.2, 3.0)) for _ in range(300)]
    degree, x, a, b, c = np.array(samples).T
    degree = degree.astype(int)
    # the recurrence S_n(x; a, b, c) against the terminating sum with b and c
    # swapped: the b <-> c symmetry and the recurrence, each read against an
    # independent form
    rows = specfun.cdhahn_rows(6, x, a, b, c)[degree, np.arange(len(x))].real
    worst = 0.0
    for n in np.unique(degree):
        at = degree == n
        sums = specfun.cdhahn_complex(int(n), x[at], a[at], c[at], b[at]).real
        worst = max(worst, mixed_residual(rows[at], sums))
    yield "specfun_cdhahn_symmetry", {"points": 300}, worst


def _checks_planewave(pts):
    H0 = planewave.free_hamiltonian()
    worst = 0.0
    for chi in (0.0, 0.5, -0.5, 1.0):
        wave = planewave.plane_wave(chi)
        wave_vals = wave(pts)
        worst = max(worst, mixed_residual(H0(wave)(pts), math.cosh(chi) * wave_vals))
        power = planewave.plane_wave_power_form(chi)
        worst = max(worst, mixed_residual(wave_vals, power(pts)))
    yield "planewave_eigen", {"chi": [0.0, 0.5, -0.5, 1.0]}, worst
    worst = max(abs(planewave.make_state(chi).p0 ** 2
                    - planewave.make_state(chi).p ** 2 - 1.0)
                for chi in np.linspace(-2.0, 2.0, 41))
    yield "planewave_mass_shell", {"chi_range": [-2.0, 2.0]}, worst


def _checks_nonrel(g0: float, n_hi: int, n_ladder: int, pts):
    model = nonrel.make_model(g0)
    params = {"g0": g0, "d": model.d}
    H = nonrel.hamiltonian(model)
    c_minus, c_plus = nonrel.ladder_c(model)
    A_minus, A_plus = nonrel.ladder_A(model)
    K0, Km, Kp = nonrel.su11_generators(model)
    # one batched leaf for the eigen-equation levels n <= n_hi and the ladder
    # levels n <= n_ladder + 1, each state on the grid once; an operator
    # meets a slice of its rows as a batch
    levels = range(max(n_hi, n_ladder + 1) + 1)
    Psi = nonrel.eigenfunctions(model, levels)
    psi = Psi(pts)

    yield "nonrel_eigen_equation", params, _eigen_residual(
        H, Psi[: n_hi + 1], [nonrel.energy(model, n) for n in levels], psi, pts)

    yield "nonrel_factorization", params, _identity_residual(
        pts, compose(c_plus, c_minus), (model.d + 1.0) * identity_op(), -H)

    rhs14 = mul_op(from_callable(lambda z: 1.0 + (model.d + 0.5) / (z * z)))
    yield "nonrel_pair_commutator", params, _identity_residual(
        pts, *_bracket(c_minus, c_plus), -rhs14)

    xicm = compose(mul_op(coordinate()), c_minus)
    rhs15 = -2.0 * (xicm - (1.0 / _SQRT2) * H
                    + ((model.d + 1.0) / _SQRT2) * identity_op())
    yield "nonrel_weighted_commutator", params, _identity_residual(
        pts, *_bracket(H, xicm), -rhs15)

    form1, form2 = nonrel.lowering_forms(model)
    yield "nonrel_lowering_forms_agree", params, _identity_residual(pts, form1, -form2)

    yield "nonrel_lowering_commutator", params, _identity_residual(
        pts, *_bracket(H, A_minus), 2.0 * A_minus)

    # K- = A-/2 scales every coefficient by a power of two, so |K- psi_0| is
    # exactly half of |A- psi_0| and is not read
    psi0 = nonrel.eigenfunction(model, 0).wavefunction
    yield "nonrel_ground_annihilation", params, max(
        _max_abs(c_minus(psi0), pts), _max_abs(A_minus(psi0), pts))

    yield "nonrel_su11_closure", params, max(
        _identity_residual(pts, *_bracket(K0, Kp), -Kp),
        _identity_residual(pts, *_bracket(K0, Km), Km),
        _identity_residual(pts, *_bracket(Km, Kp), -2.0 * K0))

    k = (model.d + 1.0) / 2.0
    value = k * (k - 1.0)
    yield ("nonrel_casimir", params, _identity_residual(
        pts, compose(K0, K0), -K0, -compose(Kp, Km), -value * identity_op()),
        f"value k(k-1)={value:.12g}")

    # gauge-invariant ladder coefficients: K- K+ psi_n = kappa_{n+1}^2 psi_n
    worst = 0.0
    signed = []
    Kp_psi = Kp(Psi[: n_ladder + 1])
    kp_vals, km_kp_vals = Kp_psi(pts), Km(Kp_psi)(pts)
    for n in range(n_ladder + 1):
        kap2, _ = ratio_spread(km_kp_vals[n], psi[n])
        expect = (n + 1) * (n + 1 + model.d)
        worst = max(worst, abs(kap2.real - expect) / expect)
        ratio, _ = ratio_spread(kp_vals[n], psi[n + 1])
        signed.append(round(ratio.real / math.sqrt(expect), 6))
    yield ("nonrel_ladder_coefficient", params, worst,
           "kappa_n = sqrt(n(n+d)); signed ratios over unit-normalized states "
           f"carry alternating phase: {signed}")

    gammas = [1.0 / math.sqrt(math.factorial(n) * specfun.pochhammer(model.d + 1.0, n).real)
              for n in range(1, n_ladder + 1)]
    worst, ratios = _tower_ratios(Kp, psi0, gammas, psi, pts)
    ratios = [round(r.real, 6) for r in ratios]
    yield ("nonrel_ladder_reconstruction", params, worst,
           f"grid-constant ratios vs closed forms: {ratios}")

    eigs = nonrel.matrix_oracle(model)
    exact = np.array([nonrel.energy(model, n) for n in range(len(eigs))])
    yield "nonrel_spectrum_oracle", params, float(np.max(np.abs(eigs - exact) / exact))

    variant = np.array([2.0 * model.d + n + 1.0 for n in range(len(eigs))])
    yield "nonrel_spectrum_variant", params, float(np.max(np.abs(eigs - variant) / variant))


def _checks_rel(omega0: float, g0: float, n_hi: int, n_ladder: int, pts):
    model = rel.make_rel_model(omega0, g0)
    w0, a, nu = model.omega0, model.alpha, model.nu
    params = {"omega0": omega0, "g0": g0, "alpha": a, "nu": nu}
    H = rel.hamiltonian_rel(model)
    b_minus, b_plus = rel.ladder_b(model)
    B_minus, B_plus = rel.ladder_B(model)
    P = rel.momentum_P(model)
    # The per-level table: the eigenstate checks below read each state and
    # each B-+ product on the grid from here, so each is evaluated once.  It
    # covers the eigen-equation levels n <= n_hi, the rel_casimir levels
    # n <= BASE_LEVEL and the ladder levels n <= n_ladder, whose su(1,1)
    # closure reads E_(n+1).  An operator meets the states as one batch, a
    # tower pass over all rows.
    n_km = max(BASE_LEVEL, n_ladder)  # levels n that K+K- psi_n is needed at
    levels = range(max(n_hi, n_ladder + 1) + 1)
    E = [rel.energy(model, n) for n in levels]
    f_E = [rel.spectral_f(model, e) for e in E]
    k0 = [e / (2.0 * w0) for e in E]  # K0 = H/(2 omega0) eigenvalues
    psi = rel.eigenfunctions(model, levels)(pts)
    BmBp = B_minus(B_plus(rel.eigenfunctions(model, range(n_ladder + 1))))(pts)
    # K+K- psi_n = B+B- psi_n / f(E_n); K- annihilates the ground state
    BpBm = B_plus(B_minus(rel.eigenfunctions(model, range(1, n_km + 1))))(pts)
    KpKm = [0.0] + [row / f_E[n] for n, row in enumerate(BpBm, start=1)]

    Phi_hi = rel.eigenfunctions(model, range(n_hi + 1))
    yield "rel_eigen_equation", params, _eigen_residual(
        H, Phi_hi, E, psi, pts), f"n <= {n_hi}"

    bb, offset = compose(b_plus, b_minus), (w0 * (a + nu)) * identity_op()
    yield "rel_factorization_eigen", params, _eigen_residual(bb + offset, Phi_hi, E, psi, pts)
    yield "rel_factorization_random", params, _identity_residual(pts, bb, offset, -H)

    phi0 = rel.eigenfunction_rel(model, 0).wavefunction
    yield "rel_ground_annihilation", params, max(
        _max_abs(b_minus(phi0), pts), _max_abs(B_minus(phi0), pts)) \
        / float(np.max(np.abs(psi[0])))

    yield "rel_lowering_commutator", params, _identity_residual(
        pts, *_bracket(H, B_minus), 2.0 * w0 * B_minus)
    yield "rel_raising_commutator", params, _identity_residual(
        pts, *_bracket(H, B_plus), -2.0 * w0 * B_plus)

    Bm_printed, _ = rel.ladder_B_printed(model)
    yield "rel_lowering_commutator_uncorrected", params, _identity_residual(
        pts, *_bracket(H, Bm_printed), 2.0 * w0 * Bm_printed)

    yield "rel_momentum_commutator", params, _identity_residual(
        pts, *_bracket(mul_op(coordinate()), H), -1j * P)

    # free limit: momentum reduces to -sinh(i d/drho); measure its sign on
    # plane waves and the mass-shell operator identity
    P_free = -(0.5 * shift_op(1j) - 0.5 * shift_op(-1j))
    H_free = planewave.free_hamiltonian()
    worst = 0.0
    for chi in (0.5, -0.5, 1.0):
        wave = planewave.plane_wave(chi)
        worst = max(worst, mixed_residual(P_free(wave)(pts), math.sinh(chi) * wave(pts)))
    yield "rel_momentum_sign_free_limit", params, worst
    yield "rel_mass_shell_free", params, _identity_residual(
        pts, compose(H_free, H_free), -compose(P_free, P_free), -identity_op())

    yield "rel_pair_commutator_printed", params, _identity_residual(
        pts, *_bracket(b_minus, b_plus), -rel.bb_commutator_rhs(model))

    yield "rel_two_step_commutator", params, _identity_residual(
        pts, *_bracket(B_minus, B_plus), -rel.BB_commutator_rhs(model))

    Bm_compact, _ = rel.ladder_B_compact(model)
    yield "rel_compact_form_comparison", params, _identity_residual(
        pts, Bm_compact, -B_minus)

    # gauge-invariant squared ladder coefficients mu_n = b_n^2, n <= n_ladder:
    # B- B+ psi_(n-1) = mu_n psi_(n-1)
    mu = [0.0] + [np.mean(BmBp[n] / psi[n]).real for n in range(n_ladder)]

    worst = 0.0
    for n in range(n_ladder):
        scalar = w0 * E[n] * (1.0 + 2.0 / w0**2 * (E[n] * E[n] - 1.0))
        worst = max(worst, abs(mu[n + 1] - mu[n] - scalar) / abs(scalar))
    yield "rel_ladder_consistency", params, worst

    worst_forced = 0.0
    worst_printed = 0.0
    for n in range(1, n_ladder + 1):
        kappa2 = mu[n] / f_E[n]
        forced = n * (n + a + nu - 1.0)
        worst_forced = max(worst_forced, abs(kappa2 - forced) / forced)
        printed_b2 = (2.0 * w0) ** 2 * n * (n + a + nu) * (n + a - 0.5) * (n + nu - 0.5)
        worst_printed = max(worst_printed, abs(mu[n] - printed_b2) / printed_b2)
    yield "rel_ladder_coefficient", params, worst_forced
    yield "rel_ladder_coefficient_printed", params, worst_printed

    # [K-, K+] = 2 K0 on the eigenbasis: K- K+ psi_n = B- B+ psi_n / f(E_(n+1)),
    # the spectral weight taken at the eigenvalue the operator ordering dictates
    yield "rel_su11_closure", params, max(
        mixed_residual(BmBp[n] / f_E[n + 1] - KpKm[n], 2.0 * k0[n] * psi[n])
        for n in range(n_ladder + 1))

    k = (a + nu) / 2.0
    value = k * (k - 1.0)
    measured = [np.mean((k0[n] * (k0[n] - 1.0) * psi[n] - KpKm[n]) / psi[n]).real
                for n in range(BASE_LEVEL + 1)]
    yield ("rel_casimir", params, float(np.max(np.abs(np.array(measured) - value))),
           f"value k(k-1)={value:.12g}, k=(alpha+nu)/2")

    # N_n (B+)^n phi_0, one tower grown a level at a time
    norms = [rel.ladder_norm_constant(model, n) for n in range(1, n_ladder + 1)]
    worst, ratios = _tower_ratios(B_plus, phi0, norms, psi, pts)
    ratios = [float(f"{abs(r):.4g}") for r in ratios]
    yield ("rel_ladder_reconstruction", params, worst,
           f"grid-constant ratio magnitudes vs closed forms: {ratios}")

    lowest = min(E)
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
    d = nonrel.make_model(0.1).d
    yield ("rel_nonrel_limit_exponent", {"g0": 0.1, "omega0": 1e-2},
           abs(m_small.alpha - (d + 0.5)), f"alpha -> d + 1/2 = {d + 0.5:.6f}")


DISCREPANCY_NOTES = [
    "non-relativistic spectrum: the printed closed form 2d+n+1 disagrees with "
    "both the ladder spacing (steps of 2 per level) and the independent "
    "sinc-collocation spectrum; the spectrum is E_n = 2n+d+1 (in units "
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


def run_suite(omega0: float, g0: float, n_max: int = 6,
              tol_overrides: float | None = None) -> VerificationReport:
    """Run every check at the given couplings and assemble the report.

    `tol_overrides` replaces the tolerance of every hard check.  Identical
    inputs give identical residuals (fixed seed for the specfun samples).
    Raises ValueError for n_max < 1 or a tol_overrides that is
    not finite and > 0, and CouplingError for out-of-range couplings, before
    any check runs.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if tol_overrides is not None and not 0.0 < tol_overrides < math.inf:
        raise ValueError(f"tolerance must be finite and > 0, got {tol_overrides}")
    rel.make_rel_model(omega0, g0)  # validate before running anything
    nonrel.make_model(g0)
    pts = default_grid()
    n_hi, n_ladder = max(n_max, BASE_LEVEL), min(n_max, LADDER_CAP)
    report = VerificationReport(discrepancy_notes=list(DISCREPANCY_NOTES))
    measured = itertools.chain(
        _checks_specfun(np.random.default_rng(_SEED)), _checks_planewave(pts),
        _checks_nonrel(g0, n_hi, n_ladder, pts),
        _checks_rel(omega0, g0, n_hi, n_ladder, pts))
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
#
# A table is a dict of columns: column name -> list of cells, every list one
# row per entry, in row order.  Cells are floats, ints, strings or None (a
# missing value).  Each writer formats a whole column at once and joins rows
# from the formatted columns, so no per-row dict is ever built.


def spectrum_table(model_kind: str, params: dict, n_max: int) -> dict[str, list]:
    """Columns (n, E_n); energies in hbar omega (nonrel) or both units (rel)."""
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    levels = list(range(n_max + 1))
    if model_kind == "nonrel":
        model = nonrel.make_model(params["g0"])
        return {"n": levels, "energy_hw": [nonrel.energy(model, n) for n in levels]}
    if model_kind == "rel":
        model = rel.make_rel_model(params["omega0"], params["g0"])
        energies = [rel.energy(model, n) for n in levels]
        return {"n": levels, "energy_mc2": energies,
                "energy_hw": [e / model.omega0 for e in energies]}
    raise ValueError(f"unknown model kind: {model_kind}")


def wavefunction_table(model_kind: str, params: dict, n: int, grid) -> dict[str, list]:
    """Columns (coordinate, re psi, im psi, |psi|, error).  A point where psi
    cannot be evaluated gets None values and the error message."""
    if model_kind == "nonrel":
        wf = nonrel.eigenfunction(nonrel.make_model(params["g0"]), n).wavefunction
        coord = "xi"
    elif model_kind == "rel":
        model = rel.make_rel_model(params["omega0"], params["g0"])
        wf = rel.eigenfunction_rel(model, n).wavefunction
        coord = "rho"
    else:
        raise ValueError(f"unknown model kind: {model_kind}")
    points = np.asarray(grid, dtype=float)
    errors = (EvaluationError, PoleError)
    try:
        values = wf(points)
    except errors:  # some point fails: evaluate point by point to mark it
        return _wavefunction_pointwise(wf, coord, points.tolist(), errors)
    real, imag = values.real, values.imag
    # np.hypot, not np.abs: abs(complex) is hypot, and np.abs of a complex
    # array differs from it in the last bit at some points
    return {coord: points.tolist(), "re": real.tolist(), "im": imag.tolist(),
            "abs": np.hypot(real, imag).tolist(), "error": [""] * len(points)}


def _wavefunction_pointwise(wf, coord: str, points: list, errors) -> dict[str, list]:
    table = {coord: points, "re": [], "im": [], "abs": [], "error": []}
    for p in points:
        try:
            v = wf(p)
        except errors as exc:
            cells = (None, None, None, f"EvaluationError: {exc}")
        else:
            cells = (v.real, v.imag, abs(v), "")
        for key, cell in zip(("re", "im", "abs", "error"), cells):
            table[key].append(cell)
    return table


_CSV_QUOTED = re.compile(r'[,"\r\n]')  # a field holding one is quoted


def _csv_cells(column) -> list[str] | None:
    """Each cell as csv.writer writes it when no cell needs quoting: floats
    by repr, ints by str, strings free of , " CR and LF as they are.  None
    for any other column."""
    kinds = set(map(type, column))
    if kinds <= {float, int}:
        return list(map(str, column))  # str is repr for a float
    if kinds == {str} and not any(map(_CSV_QUOTED.search, set(column))):
        return column
    return None


def rows_to_csv(table: dict) -> str:
    """RFC-4180 CSV: a header of column names, then one line per row."""
    if not any(table.values()):  # no rows
        return ""
    buf = io.StringIO()
    writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\r\n")
    writer.writerow(table.keys())
    cells = list(map(_csv_cells, table.values()))
    # csv.writer quotes a row made of one empty field; two columns never make one
    if len(cells) < 2 or None in cells:
        writer.writerows(zip(*table.values()))
    else:
        buf.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")
    return buf.getvalue()


def _json_cells(column) -> list[str]:
    """Each cell as `json.dumps` writes it."""
    kinds = set(map(type, column))
    if kinds <= {float, int, type(None)}:
        # one C-encoder pass; no number, null, NaN or Infinity holds a comma
        return json.dumps(column, separators=(",", ":"))[1:-1].split(",")
    if kinds == {str}:
        # few distinct strings: escape each once
        escaped = {s: json.dumps(s) for s in set(column)}
        return [escaped[s] for s in column]
    return [json.dumps(v, sort_keys=True, separators=(",", ":")) for v in column]


def rows_to_json(table: dict) -> str:
    """A JSON array of row objects, keys sorted, no whitespace: the bytes of
    `json.dumps(rows, sort_keys=True, separators=(",", ":"))`."""
    if not any(table.values()):  # no rows
        return "[]"
    keys = sorted(table)
    template = "{" + ",".join(json.dumps(k).replace("%", "%%") + ":%s" for k in keys) + "}"
    cells = zip(*(_json_cells(table[k]) for k in keys))
    return "[" + ",".join(map(template.__mod__, cells)) + "]"


def _text_cell(v) -> str:
    if v is None:
        return f"{'--':>14s}"
    if isinstance(v, float):
        return f"{v:14.8g}"
    return f"{str(v):>14s}"


def _text_cells(column) -> list[str]:
    kinds = set(map(type, column))
    if kinds == {float}:
        return list(map("%14.8g".__mod__, column))
    if kinds == {str}:
        return list(map("%14s".__mod__, column))
    return [_text_cell(v) for v in column]


def rows_to_text(table: dict) -> str:
    """Aligned columns 14 wide: floats to 8 significant digits, None as --."""
    if not any(table.values()):  # no rows
        return ""
    lines = ["  ".join(f"{k:>14s}" for k in table)]
    lines += map("  ".join, zip(*map(_text_cells, table.values())))
    return "\n".join(lines) + "\n"
