"""Verification suite and report assembly.

Every identity the toolkit claims is bound to a named, tolerance-tagged
check, declared once as its `CHECKS` row: tolerance, gating, static note
and level rule.  `run_suite` resolves each level rule once per run, hands
the ranges to the check groups and records them in the result's params.
Hard checks (gating=True) decide the overall pass/fail of a run, and a
tolerance override (`verify --tol`) applies to these only.  Report-only
checks (gating=False) adjudicate possibly-misprinted closed forms: their
notes start with "report-only" and state the verdict, and the report's
discrepancy notes say whether each one's residual shows it.

An operator identity is read on the operator, with no grid: a rel
DifferenceOperator is merged by shift, each coefficient rational in one
canonical form (opcore), and a nonrel operator is a dict keyed by (order
of D, power of xi), so an identity holds exactly when every merged
coefficient vanishes.  `_operator_residual` reads every identity of both
models and the plane wave, each power of a merged coefficient over the
parts that cancel there.  The eigenstate checks read coefficients too,
held as arrays, one row per level and one column per power: of
L_n^d(xi^2) in the ground-state gauge psi = psi_0 g, each gauged term
c xi^q D^m adding its slice of the rows (`_applied`), and of S_n(rho^2) in
the P gauge phi = P S (see "the P gauge" below), b- phi_0 as
T(-i/2) b- S_0; `_step` reads these so that each reading scales with the
error.  Only the leaf phi_n itself, which rel_eigen_equation reads against
P S_n, is read on the grid.

Reports are deterministic: the specfun samples come from the stdlib
random.Random at the fixed seed _SEED, so identical inputs give
byte-identical serialized reports, and the four specfun checks name that
seed and generator in their params.  Their verdicts do not rest on
_SEED's samples: each passes at other seeds of its distribution too.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import random
import re
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import nonrel, planewave, rel, specfun
from .errors import EvaluationError
from .opcore import (
    Rational,
    compose,
    coordinate,
    default_grid,
    expanded,
    identity_op,
    lifted,
    mixed_residual,
    mul_op,
    products,
    shift_op,
)

_SQRT2 = math.sqrt(2.0)
_SEED = 20260824

# What a rel coefficient's rounding can leave of an exact identity, per unit
# of its sizes: 1.1 eps at most over 68 couplings (omega0 0.01 to 3, g0
# 1e-9 to 1000) in the five hard rel identities.  The nonrel identities are
# read by the same rule, where it never binds: a nonrel coefficient's size
# is its magnitude, so |sum c| / (1 + sum |c|) reads larger
_ROUNDING = 16.0 * np.finfo(float).eps

# The eigen-equation checks read levels n <= max(n_max, BASE_LEVEL);
# rel_casimir reads n <= BASE_LEVEL whatever n_max is.
BASE_LEVEL = 8

# The ladder checks of both models read levels n <= min(n_max, LADDER_CAP).
# At cap 30 every hard check passes at the four digest couplings and at g0
# down to 1e-12, nonrel_ladder_reconstruction at <= 2.9e-15 over g0 from
# 1e-12 to 6e4: the gauge takes p(p-1) as 2 g0 exactly (nonrel.gauged), so
# the K+ tower carries no rounding at xi^-2 to grow as g0 -> 0.
LADDER_CAP = 30


class Levels(NamedTuple):
    """A level rule: at n_max, the levels first <= n <= min(max(n_max, floor), cap)."""
    first: int = 0
    floor: int = 0
    cap: float = math.inf

    def at(self, n_max: int) -> range:
        return range(self.first, min(max(n_max, self.floor), self.cap) + 1)


_EIGEN = Levels(floor=BASE_LEVEL)
_LADDER = Levels(cap=LADDER_CAP)
_LADDER_STEPS = Levels(1, cap=LADDER_CAP)  # the coefficients and towers from n = 1
_GROUND = Levels(cap=0)
_ORACLE = Levels(floor=4, cap=4)  # the lowest five levels nonrel.matrix_oracle returns


class Check(NamedTuple):
    tolerance: float
    gating: bool = True
    note: str = ""  # used when the check yields no computed note
    levels: Levels | None = None  # None: the check reads no level n


# Report-only checks record residuals of possibly-misprinted closed forms, and
# their notes state the verdict; `run_suite` prefixes them with "report-only; ".
CHECKS = {
    "planewave_eigen": Check(1e-13),
    "planewave_mass_shell": Check(1e-14),
    # the two gamma checks read 1000 points: 5.1x and 4.9x their worst, 7.8e-14
    # and 7.2e-14, over 1000 seeds, and a relative 1e-12 error in Lanczos
    # coefficient 0, 1 or 3 reads 1.5e-12 to 8.6e-12 in both
    "specfun_gamma_recurrence": Check(4e-13),
    "specfun_gamma_reflection": Check(3.5e-13),
    # 5.4x its worst, 9.3e-15 (seed 27), over 1000 seeds
    "specfun_degree_recurrence": Check(5e-14),
    "specfun_cdhahn_symmetry": Check(1e-14),  # 5.3x its worst, 1.9e-15, over 1000 seeds
    # the nonrel eigenstate checks read Laurent coefficients; each tolerance is
    # a multiple of its worst over the four digest couplings and g0 in {-0.1,
    # 5, 1e3}, with the ladder cap at 30: 20x 5.0e-14 (at n <= 170), 80x
    # 1.25e-16, 28x 3.6e-15 and 41x 2.5e-15
    "nonrel_eigen_equation": Check(1e-12, levels=_EIGEN),
    "nonrel_factorization": Check(
        1e-10, note="c+ c- + (d+1) = H as operators, term by term"),
    "nonrel_pair_commutator": Check(1e-10),
    "nonrel_weighted_commutator": Check(1e-9),
    "nonrel_lowering_forms_agree": Check(1e-10),
    "nonrel_lowering_commutator": Check(1e-9),
    "nonrel_ground_annihilation": Check(1e-14, levels=_GROUND),
    "nonrel_su11_closure": Check(1e-9),
    "nonrel_casimir": Check(1e-9),
    "nonrel_ladder_coefficient": Check(1e-13, levels=_LADDER),
    "nonrel_ladder_reconstruction": Check(1e-13, levels=_LADDER_STEPS),
    "nonrel_spectrum_oracle": Check(
        1e-11, note="independent sinc-collocation spectrum vs 2n+d+1", levels=_ORACLE),
    "nonrel_spectrum_variant": Check(
        1e-3, gating=False, levels=_ORACLE,
        note="printed variant 2d+n+1 against the oracle: it disagrees with it and with "
             "the ladder spacing of 2; the spectrum is E_n = 2n+d+1 (hbar omega)"),
    "rel_eigen_equation": Check(1e-8, levels=_EIGEN),
    # b+ b- + omega0(alpha+nu), gauged (its half shifts sum to whole ones), on
    # S_n's coefficients: 2.5x its clean worst, 1.98e-11 at (50, 1.36e-5),
    # n_max 96, over omega0 2 to 50, g0 from the 8 g0 omega0^2 = 1 edge down to
    # 1e-6, and the digest couplings at n_max 6, 30 and 96.  The weakest
    # half-shift plant, 1e-10 T(i/2) in b+ at (0.35, 0.6), reads 1.13e-10
    "rel_factorization_eigen": Check(5e-11, levels=_EIGEN),
    "rel_factorization_random": Check(
        1e-7, note="b+ b- + omega0(alpha+nu) = H as operators, term by term"),
    "rel_ground_annihilation": Check(1e-10, levels=_GROUND),
    "rel_lowering_commutator": Check(1e-8),
    "rel_raising_commutator": Check(1e-8),
    "rel_lowering_commutator_uncorrected": Check(
        1e-8, gating=False,
        note="printed two-step lowering form: with its H^2/(2 omega0) tail the commutator "
             "misses by the constant 1; the tail must be (H^2-1)/(2 omega0)"),
    "rel_momentum_commutator": Check(1e-10),
    "rel_momentum_sign_free_limit": Check(
        1e-13, note="free-limit momentum eigenvalue is +sinh(chi): sign agrees "
                    "with p = mc sinh(chi)"),
    "rel_mass_shell_free": Check(1e-12),
    "rel_pair_commutator_printed": Check(
        1e-10, gating=False,
        note="printed half-shift pair commutator right-hand side, as stated and "
             "never patched: it does not hold as an operator identity"),
    "rel_two_step_commutator": Check(
        1e-10, note="omega0 H (1 + 2(H^2-1)/omega0^2), exact operator identity"),
    "rel_ladder_consistency": Check(1e-6, levels=_LADDER_STEPS, note=(
        "b_n^2 - b_(n-1)^2 against the two-step commutator scalar at E_(n-1)")),
    "rel_compact_form_comparison": Check(
        1e-10, gating=False,
        note="compact (omega0 rho -+ iP)^2 ladder form vs the primary closed "
             "form: it agrees at shift 0, where its 2 g0/(rho^2+1) term acts, and "
             "misses at shifts +-i, at -i by exactly -(i rho + 1/2): it does not "
             "reproduce the two-step ladder pair"),
    "rel_su11_closure": Check(
        1e-6, levels=_LADDER,
        note="[K-, K+] = 2 K0 on psi_n; [K0, K+-] = +-K+- follows from "
             "rel_raising_commutator and rel_lowering_commutator, its residual "
             "on psi_n being c_n/(2 omega0) ([H, B+-] -+ 2 omega0 B+-) psi_n"),
    "rel_casimir": Check(1e-8, levels=Levels(floor=BASE_LEVEL, cap=BASE_LEVEL)),
    "rel_ladder_coefficient": Check(1e-6, levels=_LADDER_STEPS, note=(
        "measured kappa_n matches sqrt(n(n+alpha+nu-1)), the form forced by su(1,1) "
        "closure")),
    "rel_ladder_coefficient_printed": Check(
        1e-6, gating=False, levels=_LADDER_STEPS,
        note="measured b_n^2 against the printed "
             "2 omega0 sqrt(n(n+alpha+nu)(n+alpha-1/2)(n+nu-1/2)): the "
             "(n+alpha+nu) factor is measured as (n+alpha+nu-1), and "
             "kappa_n = sqrt(n(n+alpha+nu-1)) is the form su(1,1) closure forces"),
    "rel_ladder_reconstruction": Check(1e-6, levels=_LADDER_STEPS),
    "rel_energies_above_rest": Check(0.0, levels=_EIGEN),
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
        return {**vars(self), "passed": self.passed}  # the fields, in order, then passed


@dataclass
class VerificationReport:
    results: list = field(default_factory=list)

    def sort(self):
        self.results.sort(key=lambda r: r.check_id)

    @property
    def all_hard_passed(self) -> bool:
        return all(r.passed for r in self.results if r.gating)

    @property
    def discrepancy_notes(self) -> list[str]:
        """Per report-only result, its residual against its tolerance and
        whether the discrepancy its note states shows."""
        return [f"{r.check_id}: residual {r.max_residual:.3e} {'<=' if r.passed else '>'} "
                f"tol {r.tolerance:.1e}, discrepancy {'not seen' if r.passed else 'shows'}"
                for r in self.results if not r.gating]

    def to_json(self) -> str:
        payload = {
            "results": [r.to_dict() for r in self.results],
            "discrepancy_notes": self.discrepancy_notes,
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
        notes = self.discrepancy_notes
        if notes:
            lines += ["discrepancies adjudicated:", *(f"  - {note}" for note in notes), ""]
        verdict = "ALL HARD CHECKS PASSED" if self.all_hard_passed \
            else "HARD CHECK FAILURES PRESENT"
        lines.append(verdict)
        return "\n".join(lines) + "\n"


def _bracket(X, Y):
    """The commutator [X, Y] of nonrel operators as its two parts, XY and -YX."""
    return nonrel.compose(X, Y), nonrel.scaled(-1.0, nonrel.compose(Y, X))


def _rel_bracket(X, Y) -> tuple:
    """[X, Y] of rel operators as the unmerged terms of XY and of (-Y)X."""
    return list(products(X, Y)), list(products(-Y, X))


def _operator_residual(*parts) -> float:
    """Residual of the identity sum(parts) = 0, summed part by part per key: a
    rel part's terms by shift, over their common denominator (opcore.lifted),
    a nonrel dict's c by (order, power), one power with sizes |c|.  Each
    power's sum over 1 + its sizes, or, less the rounding they allow
    (_ROUNDING), over the parts' magnitudes, whichever reads larger."""
    at: dict = {}
    for i, part in enumerate(parts):
        pairs = part.items() if isinstance(part, dict) else ((t.shift, t.coeff.rational) for t in part)
        for key, c in pairs:
            at.setdefault(key, []).append((i, c))
    lifts = [lifted([c for _, c in items])[0] if isinstance(items[0][1], Rational) else ()
             for items in at.values()]
    width = max((rows.shape[1] for lift in lifts for rows in lift), default=1)
    sums = np.zeros((len(parts), len(at), 2, width), dtype=complex)  # numerators, sizes
    for k, (items, lift) in enumerate(zip(at.values(), lifts)):
        for (i, _), rows in zip(items, lift):
            sums[i, k, :, :rows.shape[1]] += rows
    # a number c is one power with sizes |c|, at most one per part and key
    i, k, c = list(zip(*[(i, k, c) for k, (items, lift) in enumerate(zip(at.values(), lifts))
                         if not lift for i, c in items])) or [(), (), ()]
    sums[list(i), list(k), :, 0] = np.transpose([c, np.abs(c)])
    total, sizes = np.abs(sums[:, :, 0].sum(axis=0)), sums[:, :, 1].real.sum(axis=0)
    excess = np.maximum(total - _ROUNDING * sizes, 0.0) / (1.0 + np.abs(sums[:, :, 0]).sum(axis=0))
    return float(np.max(np.maximum(excess, total / (1.0 + sizes)), initial=0.0))


# ---- the P gauge ---------------------------------------------------------
#
# phi_n = P S_n(rho^2; alpha, nu, 1/2), so an operator X meets phi_n as the
# gauged X~ = P^-1 X P (rel.gauged) meets S_n, a polynomial: X~ S_n is
# sum_k c_k(rho) S_n(rho + k i), each c_k rational.  Multiplied through by D,
# the least common denominator of the c_k, it is a polynomial, compared
# power by power with the polynomial it should be: c D S_m, for the eigenvalue
# or ladder ratio c and the level m it maps to.


def _convolving(c, width: int) -> np.ndarray:
    """The matrix of v -> c * v (polynomial product) on vectors of `width`
    coefficients, [r, m] = c[r - m]: a strided view of c padded with zeros."""
    padded = np.zeros(len(c) + 2 * (width - 1), dtype=c.dtype)
    padded[width - 1:width - 1 + len(c)] = c
    step = padded.strides[0]
    return np.lib.stride_tricks.as_strided(padded[width - 1:], (len(c) + width - 1, width),
                                           (step, -step), writeable=False)


class _Image(NamedTuple):
    """A gauged operator's image of polynomial rows, multiplied through by
    the least common denominator D of its terms: the image rows and their
    sizes, and D's coefficients and sizes."""
    rows: np.ndarray
    sizes: np.ndarray
    denominator: np.ndarray
    denominator_sizes: np.ndarray

    def at(self, which) -> "_Image":
        """The image of the rows `which` indexes."""
        return self._replace(rows=self.rows[which], sizes=self.sizes[which])


def _images(ops) -> list:
    """For each (gauged operator (rel.gauged), rows of polynomial
    coefficients) of ops, the operator applied to every row, multiplied
    through by the common denominator D of its terms (opcore.lifted): term
    k i, n_k / D, meets the rows at rho + k i.  Column m of an operator's
    matrix is the image of rho^m, sum_k n_k(rho) (rho + k i)^m, every term
    of every operator built a power at a time in one pass; the sizes sum
    the same products over absolute values."""
    width = max(rows.shape[1] for _, rows in ops)
    numerators, shifts, denominators, first = [], [], [], [0]
    for op, _ in ops:
        lifts, poles = lifted([t.coeff.rational for t in op.terms])
        numerators += lifts
        shifts += [round(t.shift.imag) for t in op.terms]
        denominator = expanded(poles)
        denominators.append((denominator[0], denominator[1].real))
        first.append(len(numerators))
    # planes: values, sizes; then terms, powers
    power = np.zeros((2, len(numerators), max(n.shape[1] for n in numerators) + width - 1),
                     dtype=complex)
    for t, rows in enumerate(numerators):
        power[:, t, :rows.shape[1]] = rows
    k = np.array(shifts)
    step = np.stack((1j * k, np.abs(k)))[:, :, None]
    matrices = np.empty((width, 2, len(ops), power.shape[2]), dtype=complex)
    for m in range(width):
        matrices[m] = np.add.reduceat(power, first[:-1], axis=1)  # each operator's terms
        power[:, :, 1:] = power[:, :, :-1] + step * power[:, :, 1:]  # times (rho + k i)
        power[:, :, 0] *= step[:, :, 0]
    return [_Image(_product(rows, matrices[:rows.shape[1], 0, i]),
                   _product(np.abs(rows), matrices[:rows.shape[1], 1, i]).real, *denominator)
            for i, ((_, rows), denominator) in enumerate(zip(ops, denominators))]


def _product(a, b) -> np.ndarray:
    """The matrix product a b, complex, summed by np.einsum in complex
    arithmetic: these products are small, and a verify that never calls BLAS
    (as matmul does, and einsum on real operands) never allocates its
    buffers, about 0.6 MB of peak RSS."""
    return np.einsum("ij,jk->ik", a, b, dtype=complex)


def _ratio(rows, reference) -> np.ndarray:
    """Row by row, the least-squares ratio of rows to reference rows."""
    return np.sum(reference.conj() * rows, axis=1) / np.sum(np.abs(reference) ** 2, axis=1)


def _step(image: _Image, reference, ratio=None, unit=None):
    """Row by row, an image (_images) against c D S, S the reference rows: the
    least-squares ratio c (or the given one), and the max over powers p of
    |image - c D S|_p over a scale: the size of u D S there, sum_j |u s_j|
    size(D)_(p-j), u = c unless a unit u is given, plus the image's sizes
    there, scaled to the same largest value N; where u D S is 0, plus N
    times the share of the sizes there that does not cancel.  So each power
    is read relative to the side the identity maps to, and where that side
    is small beside what cancels, relative to the rounding of what cancels;
    but a power that only an error's own terms reach, where nothing
    cancels, is read against N and not against the error's own size."""
    rows, sizes, denominator, denominator_sizes = image
    width = reference.shape[1]
    lifted = np.zeros(rows.shape, dtype=complex)  # the image reaches powers c D S does not
    scale = np.zeros(rows.shape)
    reach = len(denominator) + width - 1
    lifted[:, :reach] = _product(reference, _convolving(denominator, width).T)
    scale[:, :reach] = _product(np.abs(reference), _convolving(denominator_sizes, width).T).real
    if ratio is None:
        ratio = _ratio(rows, lifted)
    ratio = np.reshape(ratio, (-1, 1))
    scale = np.abs(ratio if unit is None else unit) * scale
    top = np.max(scale, axis=1, keepdims=True)
    error = np.abs(rows - ratio * lifted)
    # where c D S is 0, error/sizes is the share of the sizes that does not
    # cancel: rounding where terms of the operator cancel, near 1 where an
    # error's own terms alone reach the power
    share = np.divide(error, sizes, out=np.zeros(rows.shape), where=(scale == 0.0) & (sizes > 0.0))
    scale = scale + sizes * (top / np.max(sizes, axis=1, keepdims=True)) + top * share
    return ratio[:, 0], np.max(error / np.where(scale > 0.0, scale, 1.0), axis=1)


def _leaf_residual(model, psi, s_rows, exponents, pts) -> float:
    """The leaf under test: the gauge identity P(z + i) = r+(z) P(z) in log
    space, modulo 2 pi i, at z on the grid moved by k i, k = -2..1, where
    P(rho + s)/P(rho) of the gauged operators reads P; and each row psi_n of
    the leaf against P S_n(rho^2) from the coefficients S_n = 2^exponents[n]
    s_rows[n] (in powers of rho^2), as |psi_n/(P 2^e) - S^_n| over
    sum_j |s_j| rho^(2j)."""
    moved = pts + 1j * np.arange(-2, 3)[:, None]
    log_p = rel.log_prefactor(model, moved.reshape(-1)).reshape(moved.shape)
    step = log_p[1:] - log_p[:-1] - np.log(rel.step_ratio(model, moved[:-1]))
    gauge = np.abs(step - 2j * math.pi * np.round(step.imag / (2.0 * math.pi)))
    y = np.asarray(pts, dtype=float) ** 2
    powers = y[:, None] ** np.arange(s_rows.shape[1])
    scaled = psi * np.ldexp(1.0, -exponents)[:, None] / np.exp(log_p[2])
    rows = np.abs(scaled - _product(s_rows, powers.T)) / _product(np.abs(s_rows), powers.T).real
    return float(max(np.max(gauge), np.max(rows)))


# ---- check groups ------------------------------------------------------
#
# Each group is a generator of (check_id, params, residual[, computed note]).
# A stdlib random.Random seeded with _SEED serves the specfun samples only.


def _worst_relative(values, ref) -> float:
    return float(np.max(np.abs(values - ref) / np.abs(ref)))


def _uniform(rng, low, high, size):
    """Doubles uniform on [low, high) from a random.Random, one randbytes call
    for all of them in the C order of `size`: each is low + (high - low) u,
    u the top 53 bits of a little-endian 64-bit word times 2**-53.  low and
    high broadcast against `size`."""
    words = np.frombuffer(rng.randbytes(8 * math.prod(size)), dtype="<u8")
    u = ((words >> 11) * 2.0**-53).reshape(size)
    low = np.asarray(low, dtype=float)
    return low + (np.asarray(high, dtype=float) - low) * u


def _gamma_sample(rng, count: int):
    """`count` draws from the square |re z|, |im z| < 20, less those within
    1e-2 of a pole."""
    z = _uniform(rng, -20.0, 20.0, (count, 2)).view(complex)[:, 0]  # (re, im) pairs
    near_pole = (np.abs(z.imag) < 1e-2) & (np.abs(z.real - np.round(z.real)) < 1e-2)
    return z[~near_pole]


def _checks_specfun(seed: int):
    rng = random.Random(seed)
    params = {"seed": seed, "generator": "random.Random"}
    z = _gamma_sample(rng, 1000)
    g = specfun.gamma(z)
    yield ("specfun_gamma_recurrence", {"points": len(z), **params},
           _worst_relative(z * g, specfun.gamma(z + 1)))
    yield ("specfun_gamma_reflection", {"points": len(z), **params},
           _worst_relative(g * specfun.gamma(1 - z), math.pi / np.sin(math.pi * z)))

    rho, lam = _uniform(rng, (0.1, -2.0), (6.0, 3.0), (500, 2)).T
    lhs = specfun.generalized_degree(rho, lam + 1)
    rhs = specfun.generalized_degree(rho, lam) * (lam - 1j * rho) * 1j
    yield ("specfun_degree_recurrence", {"points": 500, **params},
           mixed_residual(lhs, rhs))

    # one row (n, x, a, b, c) per sample, n an integer in 0..6
    degree, x, a, b, c = _uniform(rng, (0.0, 0.0, 0.2, 0.2, 0.2),
                                  (7.0, 4.0, 2.0, 3.0, 3.0), (300, 5)).T
    degree = degree.astype(int)
    # the recurrence S_n(x; a, b, c) against the terminating sum with b and c
    # swapped: the b <-> c symmetry and the recurrence, each read against an
    # independent form.  The difference is divided by |(a+c)_n (a+b)_n|
    # sum_k |t_k|, the size of what the sum cancels, so the residual is the
    # rounding of both forms whatever the cancellation at a sample
    rows = specfun.cdhahn_rows(6, x, a, b, c)[degree, np.arange(len(x))].real
    worst = 0.0
    for n in np.unique(degree):
        at = degree == n
        sample = (int(n), x[at], a[at], c[at], b[at])
        prefactor, terms = specfun._cdhahn_terms(*sample)
        size = np.abs(prefactor) * np.abs(terms).sum(axis=0)
        error = np.abs(rows[at] - specfun.cdhahn_complex(*sample).real)
        worst = max(worst, float(np.max(error / size)))
    yield "specfun_cdhahn_symmetry", {"points": 300, **params}, worst


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
    worst = max(abs(s.p0 ** 2 - s.p ** 2 - 1.0)
                for s in map(planewave.make_state, np.linspace(-2.0, 2.0, 41)))
    yield "planewave_mass_shell", {"chi_range": [-2.0, 2.0]}, worst

    # free limit of the rel momentum, -sinh(i d/drho): its sign on plane
    # waves, and the mass-shell operator identity
    P_free = -(0.5 * shift_op(1j) - 0.5 * shift_op(-1j))
    worst = 0.0
    for chi in (0.5, -0.5, 1.0):
        wave = planewave.plane_wave(chi)
        worst = max(worst, mixed_residual(P_free(wave)(pts), math.sinh(chi) * wave(pts)))
    yield "rel_momentum_sign_free_limit", {"chi": [0.5, -0.5, 1.0]}, worst
    yield "rel_mass_shell_free", {}, _operator_residual(
        products(H0, H0), products(-P_free, P_free), (-identity_op()).terms)


def _gauged_terms(model, op):
    """psi_0^-1 t psi_0 for each order m of op, t its terms c xi^p D^m, kept
    apart as the parts _applied sums one by one, so that the sizes it
    carries down the K+ tower count each order's terms before they cancel."""
    # gauged whole, K+'s merged coefficients are smaller than what they
    # cancel, and nonrel_ladder_reconstruction reads 3.6e-4 at (0.5, 0.1),
    # n_max 30
    return [nonrel.gauged(model, {(m, p): c for (m, p), c in op.items() if m == order})
            for order in sorted({m for m, _ in op})]


def _applied(parts, rows, sizes=None, *, low: int):
    """The nonrel parts applied to Laurent rows, column j the coefficient of
    xi^(low + j), every row 0 in its first and last two columns (a term
    moves a power by at most 2): the image, and its sizes, per power the sum
    of |c r(r-1)...(r-m+1)| sizes_r over the terms c xi^q D^m and powers r
    that reach it, sizes |rows| unless given, so a coefficient that cancels
    down a tower keeps the size of what it cancelled.  Each term adds its
    slice, power r to r - m + q; the image is summed term by term in order,
    then part by part."""
    sizes = np.abs(rows) if sizes is None else sizes
    width = rows.shape[1]
    r = low + np.arange(width)
    image, image_sizes = np.zeros_like(rows), np.zeros(rows.shape)
    for part in parts:
        total = np.zeros_like(rows)
        for (m, q), c in part.items():
            s = q - m
            to, at = slice(max(s, 0), width + min(s, 0)), slice(max(-s, 0), width - max(s, 0))
            falling = math.prod(r[at] - i for i in range(m))
            total[:, to] += (c * falling) * rows[:, at]
            image_sizes[:, to] += (abs(c) * np.abs(falling)) * sizes[:, at]
        image += total
    return image, image_sizes


# The eigenstate readers stay apart, each measured under the other's rule.
# _state_residual's normwise scale on the rel rows loses 63 of PLANT_TABLE's
# 221 rel cell readings at their decades, rel_ladder_coefficient B+@2i at
# 6.8e-7 against 1e-6 among them.  _step's scale on the nonrel rows reads
# nonrel_ladder_reconstruction at 6e3 to 9.6e8 at n_max 30 (g0 from -0.1 to
# 5; 8.8e15 at 1e3): the K+ tower's sizes keep what cancelled down it
def _state_residual(rows, sizes, reference) -> float:
    """max over rows and powers of |g_p - ref_p| / (N + sizes_p + |ref_p|),
    N the largest |ref_p| of the reference row (1 for a zero reference)."""
    size = np.abs(reference)
    scale = np.max(size, axis=1, keepdims=True)
    scale = np.where(scale > 0.0, scale, 1.0)
    return float(np.max(np.abs(rows - reference) / (scale + sizes + size)))


def _checks_nonrel(g0: float, levels: dict):
    model = nonrel.make_model(g0)
    params = {"g0": g0, "d": model.d}
    H = nonrel.hamiltonian(model)
    c_minus, c_plus = nonrel.ladder_c(model)
    A_minus, A_plus = nonrel.ladder_A(model)
    K0, Km, Kp = nonrel.su11_generators(model)
    eigen, ladder = levels["nonrel_eigen_equation"], levels["nonrel_ladder_coefficient"]
    tower = levels["nonrel_ladder_reconstruction"]
    # psi_n = (c_n / c_0) psi_0 L_n^d(xi^2): the eigenstate checks read the
    # gauged operators on L_n, for the eigen-equation and the ladder levels,
    # the ladder coefficients reading one level above theirs.  Row n holds
    # L_n's coefficients from xi^low, low as deep as the K+ tower and K- K+
    # reach, two powers a step, to xi^(2 top + 2), where H takes L_top
    top = max(eigen[-1], ladder[-1] + 1)
    low = -2 * max(tower[-1], 2)
    L = np.zeros((top + 1, 2 * top + 3 - low), dtype=complex)
    for n in range(top + 1):
        L[n, -low:2 * n + 1 - low:2] = specfun.laguerre_coefficients(n, model.d)  # of L_n^d(y)

    at = slice(eigen.start, eigen.stop)
    image, sizes = _applied(_gauged_terms(model, H), L[at], low=low)
    energies = np.array([nonrel.energy(model, n) for n in eigen])[:, None]
    yield "nonrel_eigen_equation", params, _state_residual(image, sizes, energies * L[at])

    yield "nonrel_factorization", params, _operator_residual(
        nonrel.compose(c_plus, c_minus), {(0, 0): model.d + 1.0}, nonrel.scaled(-1.0, H))

    rhs14 = {(0, 0): 1.0, (0, -2): model.d + 0.5}
    yield "nonrel_pair_commutator", params, _operator_residual(
        *_bracket(c_minus, c_plus), nonrel.scaled(-1.0, rhs14))

    xicm = nonrel.compose({(0, 1): 1.0}, c_minus)
    rhs15 = nonrel.scaled(-2.0, nonrel.added(
        xicm, nonrel.scaled(-1.0 / _SQRT2, H), {(0, 0): (model.d + 1.0) / _SQRT2}))
    yield "nonrel_weighted_commutator", params, _operator_residual(
        *_bracket(H, xicm), nonrel.scaled(-1.0, rhs15))

    form1, form2 = nonrel.lowering_forms(model)
    yield "nonrel_lowering_forms_agree", params, _operator_residual(
        form1, nonrel.scaled(-1.0, form2))

    yield "nonrel_lowering_commutator", params, _operator_residual(
        *_bracket(H, A_minus), nonrel.scaled(2.0, A_minus))

    # K- = A-/2 scales every coefficient by a power of two, so K- psi_0 reads
    # as A- psi_0 does and is not read.  The gauge takes p(p-1) as 2 g0, so
    # psi_0's exponent p = d + 1/2 is read on the indicial relation itself
    (ground,) = levels["nonrel_ground_annihilation"]
    p = model.d + 0.5
    yield "nonrel_ground_annihilation", params, max(
        abs(p * p - p - 2.0 * g0) / (p * p + p + 2.0 * abs(g0)),
        *(_state_residual(*_applied(_gauged_terms(model, op), L[ground:ground + 1], low=low),
                          np.zeros((1, L.shape[1])))
          for op in (c_minus, A_minus)))

    yield "nonrel_su11_closure", params, max(
        _operator_residual(*_bracket(K0, Kp), nonrel.scaled(-1.0, Kp)),
        _operator_residual(*_bracket(K0, Km), Km),
        _operator_residual(*_bracket(Km, Kp), nonrel.scaled(-2.0, K0)))

    k = (model.d + 1.0) / 2.0
    value = k * (k - 1.0)
    yield ("nonrel_casimir", params, _operator_residual(
        nonrel.compose(K0, K0), nonrel.scaled(-1.0, K0),
        nonrel.scaled(-1.0, nonrel.compose(Kp, Km)), {(0, 0): -value}),
        f"value k(k-1)={value:.12g}")

    # gauge-invariant ladder coefficients: K- K+ psi_n = kappa_{n+1}^2 psi_n
    Kp_parts, Km_parts = _gauged_terms(model, Kp), _gauged_terms(model, Km)
    n = np.arange(ladder.start, ladder.stop)
    raised = _applied(Kp_parts, L[n], low=low)
    expect = ((n + 1) * (n + 1 + model.d))[:, None]
    worst = _state_residual(*_applied(Km_parts, *raised, low=low), expect * L[n])
    # c_n / c_(n+1) = sqrt((n+1+d)/(n+1)) = kappa_(n+1) / (n+1)
    signed = [round(r, 6) for r in (_ratio(raised[0], L[n + 1]).real / (n + 1)).tolist()]
    yield ("nonrel_ladder_coefficient", params, worst,
           "K- K+ psi_n = kappa_(n+1)^2 psi_n, kappa_n = sqrt(n(n+d)); signed "
           f"ratios over unit-normalized states carry alternating phase: {signed}")

    # gamma_n (K+)^n psi_0 against psi_n, the tower grown a level at a time;
    # each level is read after its ratio to L_n is taken out.  With
    # gamma_n = 1/sqrt(n! (d+1)_n) and c_0/c_n = sqrt((d+1)_n/n!), the ratio
    # of gamma_n (K+)^n psi_0 to psi_n is that ratio over n!
    worst, ratios, state = 0.0, [], (L[:1], None)
    for n in tower:
        state = _applied(Kp_parts, *state, low=low)
        ratio = _ratio(state[0], L[n:n + 1])
        worst = max(worst, _state_residual(*state, ratio[:, None] * L[n:n + 1]))
        ratios.append(round(ratio[0].real.item() / math.factorial(n), 6))
    yield ("nonrel_ladder_reconstruction", params, worst,
           f"ratios of gamma_n (K+)^n psi_0 to psi_n on L_n^d coefficients: {ratios}")

    eigs = nonrel.matrix_oracle(model)
    exact = np.array([nonrel.energy(model, n) for n in levels["nonrel_spectrum_oracle"]])
    yield "nonrel_spectrum_oracle", params, _worst_relative(eigs, exact)

    variant = np.array([2.0 * model.d + n + 1.0 for n in levels["nonrel_spectrum_variant"]])
    yield "nonrel_spectrum_variant", params, _worst_relative(eigs, variant)


def _checks_rel(omega0: float, g0: float, levels: dict, pts):
    model = rel.make_rel_model(omega0, g0)
    w0, a, nu = model.omega0, model.alpha, model.nu
    params = {"omega0": omega0, "g0": g0, "alpha": a, "nu": nu}
    H = rel.hamiltonian_rel(model)
    b_minus, b_plus = rel.ladder_b(model)
    B_minus, B_plus = rel.ladder_B(model)
    P = rel.momentum_P(model)
    eigen, casimir = levels["rel_eigen_equation"], levels["rel_casimir"]
    closure, steps = levels["rel_su11_closure"], levels["rel_ladder_coefficient"]
    # phi_n = P S_n: every eigenstate check reads S_n's coefficients in the P
    # gauge, on rows covering the eigen-equation levels, and the rel_casimir
    # and ladder levels up to top, the su(1,1) closure reading E_(n+1).  A row
    # holds S_n / 2^exponents[n] in powers of rho.  Only the leaf, phi_n
    # itself, is read on the grid.
    top = max(casimir[-1], closure[-1] + 1)
    E = [rel.energy(model, n) for n in range(max(top, eigen[-1]) + 1)]
    f_E = [rel.spectral_f(model, e) for e in E]
    k0 = [e / (2.0 * w0) for e in E]  # K0 = H/(2 omega0) eigenvalues
    s_rows, exponents = specfun.cdhahn_coefficients(len(E) - 1, a, nu, 0.5)
    S = np.zeros((len(E), 2 * len(E) - 1), dtype=complex)
    S[:, ::2] = s_rows

    # the eigen-equation rows' images under H and under b+ b- + omega0(alpha+nu),
    # whose half shifts sum to whole ones, the ladder rows' under B-+, and
    # S_0's under T(-i/2) b-: T(-i/2) is invertible, so it annihilates b- phi_0
    # exactly when b- phi_0 = 0
    at, ladder = slice(eigen.start, eigen.stop), S[:top + 1, :2 * top + 1]
    bb, offset = compose(b_plus, b_minus), (w0 * (a + nu)) * identity_op()
    images = _images([(rel.gauged(model, op), rows) for op, rows in (
        (H, S[at]), (bb + offset, S[at]), (B_plus, ladder[:-1]), (B_minus, ladder),
        (compose(shift_op(-0.5j), b_minus), S[:1]))])
    psi = rel.eigenfunctions(model, eigen)(pts)  # the leaf, read against P S_n
    _, eigen_rows = _step(images[0], S[at], E[at], 1.0)
    yield "rel_eigen_equation", params, max(
        float(np.max(eigen_rows)), _leaf_residual(model, psi, s_rows[at], exponents[at], pts))

    _, factorized_rows = _step(images[1], S[at], E[at], 1.0)
    yield "rel_factorization_eigen", params, float(np.max(factorized_rows))
    yield "rel_factorization_random", params, _operator_residual(bb.terms, offset.terms, (-H).terms)

    # B+ S_n = c+_n S_(n+1) and B- S_n = c-_n S_(n-1), with B- S_0 = 0: each
    # ratio measured, and each image read against its ratio times S_(n+-1)
    up, down, half = images[2:]
    raised, raised_rows = _step(up, ladder[1:])
    lowered, lowered_rows = _step(down.at(slice(1, None)), ladder[:-1])
    _, ground_row = _step(down.at(slice(0, 1)), ladder[:1], 0.0, 1.0)
    # b_n^2 = mu_n: B- B+ phi_(n-1) = mu_n phi_(n-1), mu_0 = 0; the scales
    # 2^exponents cancel in the product.  shape[n]: the readings behind mu_n
    mu = np.concatenate(([0.0], raised * lowered))
    shape = np.concatenate((ground_row, np.maximum(raised_rows, lowered_rows)))

    _, annihilated = _step(half, S[:1], 0.0, 1.0)
    yield "rel_ground_annihilation", params, float(max(annihilated[0], ground_row[0]))

    yield "rel_lowering_commutator", params, _operator_residual(
        *_rel_bracket(H, B_minus), (2.0 * w0 * B_minus).terms)
    yield "rel_raising_commutator", params, _operator_residual(
        *_rel_bracket(H, B_plus), (-2.0 * w0 * B_plus).terms)

    Bm_printed = B_minus + rel.printed_tail(model)  # the printed pair's B-
    yield "rel_lowering_commutator_uncorrected", params, _operator_residual(
        *_rel_bracket(H, Bm_printed), (2.0 * w0 * Bm_printed).terms)

    yield "rel_momentum_commutator", params, _operator_residual(
        *_rel_bracket(mul_op(coordinate()), H), (-1j * P).terms)

    yield "rel_pair_commutator_printed", params, _operator_residual(
        *_rel_bracket(b_minus, b_plus), (-rel.bb_commutator_rhs(model)).terms)

    yield "rel_two_step_commutator", params, _operator_residual(
        *_rel_bracket(B_minus, B_plus), (-rel.BB_commutator_rhs(model)).terms)

    yield "rel_compact_form_comparison", params, _operator_residual(
        rel.ladder_B_compact(model)[0].terms, (-B_minus).terms)

    def against(measured, expected, levels, unit=None):
        """max over the levels of |measured - expected| / |unit| (the
        expected values by default) and of the readings behind each
        measured mu_n."""
        n = np.arange(levels.start, levels.stop)
        unit = expected if unit is None else unit
        return float(max(np.max(np.abs((np.asarray(measured) - expected) / unit)),
                         np.max(shape[n]), np.max(shape[np.maximum(n - 1, 0)])))

    n = np.arange(steps.start, steps.stop)
    e = np.array(E)[n - 1]
    yield "rel_ladder_consistency", params, against(
        mu[n] - mu[n - 1], w0 * e * (1.0 + 2.0 / w0**2 * (e * e - 1.0)), steps)

    f = np.array(f_E)
    yield "rel_ladder_coefficient", params, against(
        mu[n] / f[n], n * (n + a + nu - 1.0), steps)
    yield "rel_ladder_coefficient_printed", params, against(
        mu[n], (2.0 * w0) ** 2 * n * (n + a + nu) * (n + a - 0.5) * (n + nu - 0.5), steps)

    # [K-, K+] = 2 K0 on the eigenbasis: K- K+ psi_n = B- B+ psi_n / f(E_(n+1)),
    # the spectral weight taken at the eigenvalue the operator ordering dictates
    n = np.arange(closure.start, closure.stop)
    yield "rel_su11_closure", params, against(
        mu[n + 1] / f[n + 1] - mu[n] / f[n], 2.0 * np.array(k0)[n], range(n[0], n[-1] + 2), 1.0)

    k = (a + nu) / 2.0
    value = k * (k - 1.0)
    n = np.arange(casimir.start, casimir.stop)
    c = np.array(k0)[n]
    yield ("rel_casimir", params, against(c * (c - 1.0) - mu[n] / f[n], value, casimir, 1.0),
           f"value k(k-1)={value:.12g}, k=(alpha+nu)/2")

    # (B+)^n phi_0 = (-2 omega0)^n phi_n: each step B+ phi_(n-1) = -2 omega0 phi_n
    # read on the coefficients, and the tower's ratio, the product of the
    # steps' measured ratios, against (-2 omega0)^n
    n = np.arange(steps.start, steps.stop)
    expected = -np.ldexp(2.0 * w0, exponents[n] - exponents[n - 1])
    _, step_rows = _step(up.at(n - 1), ladder[n], expected)
    tower = np.cumprod(raised[n - 1] / expected)
    ratios = [float(f"{r:.6g}") for r in tower.real]
    yield ("rel_ladder_reconstruction", params,
           float(max(np.max(step_rows), np.max(np.abs(tower - 1.0)))),
           f"ratios of (B+)^n phi_0 to (-2 omega0)^n phi_n on S_n coefficients: {ratios}")

    lowest = min(E[n] for n in levels["rel_energies_above_rest"])
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


def run_suite(omega0: float, g0: float, n_max: int = 6,
              tol_overrides: float | None = None) -> VerificationReport:
    """Run every check at the given couplings and assemble the report.

    `tol_overrides` replaces the tolerance of every hard check.  Identical
    inputs give identical residuals (fixed seed for the specfun samples).
    Raises ValueError for n_max < 1 or a tol_overrides that is not finite
    and > 0, and CouplingError for out-of-range couplings, before any check
    runs.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if tol_overrides is not None and not 0.0 < tol_overrides < math.inf:
        raise ValueError(f"tolerance must be finite and > 0, got {tol_overrides}")
    rel.make_rel_model(omega0, g0)  # validate before running anything
    nonrel.make_model(g0)
    pts = default_grid()
    # every level rule resolved once: the groups read these ranges, and each
    # result records its own in its params
    levels = {cid: c.levels.at(n_max) for cid, c in CHECKS.items() if c.levels}
    report = VerificationReport()
    measured = itertools.chain(
        _checks_specfun(_SEED), _checks_planewave(pts),
        _checks_nonrel(g0, levels), _checks_rel(omega0, g0, levels, pts))
    for check_id, params, worst, *computed_note in measured:
        tolerance, gating, note, _ = CHECKS[check_id]
        note = computed_note[0] if computed_note else note
        if not gating:
            note = "report-only; " + note
        elif tol_overrides is not None:
            tolerance = tol_overrides
        if check_id in levels:
            params = {**params, "levels": [levels[check_id][0], levels[check_id][-1]]}
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
    cannot be evaluated gets None values and the message psi raises there."""
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
    values = np.zeros(len(points), dtype=complex)  # a failed slot stays 0 for np.hypot
    failed = {}  # row -> error message

    # The whole grid is one call.  A call that raises is split into at most
    # 64 parts, each called alike, down to the lone points that still fail.
    # One failing point costs about 2 * 64 calls, a grid where every point
    # fails about one call per point (halving would cost two).  A lone point
    # is called as a scalar: an error raised there names the point, where an
    # array call's error may name only the number of points.
    pending = [np.arange(len(points))]
    while pending:
        at = pending.pop()
        try:
            values[at] = wf(points[at] if at.size != 1 else points[at[0]])
        except EvaluationError as exc:
            if at.size != 1:
                pending += np.array_split(at, min(at.size, 64))
            else:
                failed[at[0]] = f"EvaluationError: {exc}"
    # np.hypot, not np.abs: abs(complex) is hypot, and np.abs of a complex
    # array differs from it in the last bit at some points
    table = {coord: points.tolist(), "re": values.real.tolist(), "im": values.imag.tolist(),
             "abs": np.hypot(values.real, values.imag).tolist(), "error": [""] * len(points)}
    for i, message in failed.items():
        table["re"][i] = table["im"][i] = table["abs"][i] = None
        table["error"][i] = message
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
