"""Acceptance gate: one test and one printed pass/fail line per criterion.

Criteria that need the full verification report read it from the
session-scoped `verify` runs (computed once); the rest are evaluated
directly here.  Lines are written to the real stdout so they survive
pytest's capture.
"""

import pytest

from fdosc import rel
from fdosc.opcore import default_grid, mixed_residual

GRID = default_grid()

_CAPSYS = None


@pytest.fixture(autouse=True)
def _capture_handle(capsys):
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def _record(num: int, desc: str, ok: bool, detail: str = ""):
    line = f"[acceptance {num:02d}] {'PASS' if ok else 'FAIL'} - {desc}"
    if detail:
        line += f" ({detail})"
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print(line)
    else:
        print(line)
    assert ok, f"acceptance criterion {num} failed: {desc} {detail}"


def _res(check_by_id, cid):
    return check_by_id[cid]["max_residual"], check_by_id[cid]["tolerance"]


def test_criterion_01_rel_eigen_equation_all_couplings():
    worst = 0.0
    for omega0 in (0.1, 0.5):
        for g0 in (0.05, 0.1):
            model = rel.make_rel_model(omega0, g0)
            H = rel.hamiltonian_rel(model)
            for n in range(9):
                st = rel.eigenfunction_rel(model, n)
                out = H(st.wavefunction)
                worst = max(worst, mixed_residual(
                    [out(p) for p in GRID],
                    [st.energy_mc2 * st.wavefunction(p) for p in GRID]))
    _record(1, "relativistic eigen-equation, 4 coupling pairs, n <= 8",
            worst <= 1e-8, f"worst residual {worst:.3e}")


def test_criterion_02_rel_factorization(check_by_id):
    r_eig, _ = _res(check_by_id, "rel_factorization_eigen")
    r_rand, _ = _res(check_by_id, "rel_factorization_random")
    r_ann, _ = _res(check_by_id, "rel_ground_annihilation")
    ok = r_eig <= 1e-8 and r_rand <= 1e-7 and r_ann <= 1e-10
    _record(2, "relativistic factorization and ground-state annihilation", ok,
            f"eigen {r_eig:.3e}, random {r_rand:.3e}, annihilation {r_ann:.3e}")


def test_criterion_03_lowering_commutator(check_by_id):
    r, _ = _res(check_by_id, "rel_lowering_commutator")
    _record(3, "lowering-operator commutator [H,B-] = -2 omega0 B- as operators, term by term",
            r <= 1e-8, f"residual {r:.3e}")


def test_criterion_04_momentum_relation(check_by_id):
    r, _ = _res(check_by_id, "rel_momentum_commutator")
    _record(4, "momentum relation [rho, H] = i P as operators, term by term",
            r <= 1e-10, f"residual {r:.3e}")


def test_criterion_05_ladder_reconstruction(check_by_id):
    r, _ = _res(check_by_id, "rel_ladder_reconstruction")
    _record(5, "ladder reconstruction N_n (B+)^n phi_0 proportional to phi_n",
            r <= 1e-6, f"ratio spread {r:.3e}")


def test_criterion_06_su11_closure_and_casimir(check_by_id):
    r_cl, _ = _res(check_by_id, "rel_su11_closure")
    r_cas, _ = _res(check_by_id, "rel_casimir")
    ok = r_cl <= 1e-6 and r_cas <= 1e-8
    _record(6, "su(1,1) closure on the basis and Casimir = k(k-1)", ok,
            f"closure {r_cl:.3e}, casimir {r_cas:.3e}")


def test_criterion_07_ladder_coefficient_adjudication(check_by_id):
    r, _ = _res(check_by_id, "rel_ladder_coefficient")
    printed = check_by_id.get("rel_ladder_coefficient_printed")
    documented = (printed is not None
                  and printed["note"].startswith("report-only")
                  and printed["max_residual"] > 0.0)
    ok = r <= 1e-6 and documented
    _record(7, "measured kappa_n = sqrt(n(n+alpha+nu-1)); printed-variant "
               "disagreement documented report-only", ok,
            f"forced-form residual {r:.3e}, printed-variant residual "
            f"{printed['max_residual']:.3e}" if printed else "missing")


def test_criterion_08_nonrel_suite(check_by_id):
    hard = ["nonrel_factorization", "nonrel_pair_commutator",
            "nonrel_weighted_commutator", "nonrel_lowering_commutator",
            "nonrel_su11_closure", "nonrel_casimir"]
    worst = max(_res(check_by_id, cid)[0] for cid in hard)
    r_oracle, tol_oracle = _res(check_by_id, "nonrel_spectrum_oracle")
    variant = check_by_id.get("nonrel_spectrum_variant")
    documented = variant is not None and variant["note"].startswith("report-only")
    ok = worst <= 1e-9 and r_oracle <= tol_oracle and documented
    _record(8, "non-relativistic algebra <= 1e-9 and matrix oracle "
               "confirms E_n = 2n+d+1", ok,
            f"algebra worst {worst:.3e}, oracle {r_oracle:.3e}")


def test_criterion_09_nonrel_limit():
    devs_linear = rel.nonrel_limit(0.1, [1e-2, 5e-3])
    ratio = devs_linear[0] / devs_linear[1]
    devs_quad = rel.nonrel_limit(0.125, [1e-2, 5e-3])
    quad_ratio = devs_quad[0] / devs_quad[1]
    # at g0 = 1/8 the linear term vanishes: deviation is O(omega0^2)
    ok = (abs(ratio - 2.0) <= 0.4
          and abs(quad_ratio - 4.0) <= 0.8
          and devs_quad[0] <= 1.0 * 1e-2 ** 2)
    _record(9, "non-relativistic limit: linear rate at g0=0.1, O(omega0^2) "
               "at g0=0.125", ok,
            f"linear ratio {ratio:.4f}, quadratic ratio {quad_ratio:.4f}, "
            f"dev/omega0^2 {devs_quad[0] / 1e-4:.4f}")


def test_criterion_10_plane_waves(check_by_id):
    r_eig, _ = _res(check_by_id, "planewave_eigen")
    r_shell, _ = _res(check_by_id, "planewave_mass_shell")
    ok = r_eig <= 1e-13 and r_shell <= 1e-14
    _record(10, "plane waves: cosh-eigenvalue and mass shell", ok,
            f"eigen {r_eig:.3e}, mass shell {r_shell:.3e}")


def test_criterion_11_special_functions(check_by_id):
    r_rec, _ = _res(check_by_id, "specfun_gamma_recurrence")
    r_ref, _ = _res(check_by_id, "specfun_gamma_reflection")
    r_sym, _ = _res(check_by_id, "specfun_cdhahn_symmetry")
    r_deg, _ = _res(check_by_id, "specfun_degree_recurrence")
    ok = (r_rec <= 1e-11 and r_ref <= 1e-11 and r_sym <= 1e-12
          and r_deg <= 1e-12)
    _record(11, "special functions: gamma recurrence/reflection, cdhahn "
                "symmetry, degree recurrence", ok,
            f"{r_rec:.1e}/{r_ref:.1e}/{r_sym:.1e}/{r_deg:.1e}")


def test_criterion_12_determinism(verify_json_runs):
    outs, codes = verify_json_runs
    ok = outs[0].encode() == outs[1].encode() and codes == [0, 0]
    _record(12, "verify twice with identical flags: byte-identical JSON, "
                "exit code 0", ok,
            f"bytes equal: {outs[0] == outs[1]}, exit codes {codes}")
