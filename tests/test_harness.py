"""Report plumbing, output formats, CLI behaviour, determinism."""

import csv
import hashlib
import importlib
import importlib.util
import io
import json
import math
import os
import re
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path
from unittest.mock import patch

import mpmath as mp
import numpy as np
import pytest

import fdosc
from fdosc import cli, harness, nonrel, opcore, rel
from fdosc.harness import CheckResult, VerificationReport
from fdosc.opcore import (
    DifferenceOperator,
    Term,
    coordinate,
    default_grid,
    from_callable,
    mul_op,
    ratio_spread,
    shift_op,
)


def _run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


# ---- report object -----------------------------------------------------


def test_check_result_pass_logic():
    assert CheckResult("x", {}, 1e-12, 1e-10).passed
    assert not CheckResult("x", {}, 1e-8, 1e-10).passed
    assert CheckResult("x", {}, 0.0, 0.0).passed


def test_report_gating_ignores_report_only_failures():
    rpt = VerificationReport(results=[
        CheckResult("a", {}, 1e-12, 1e-10),
        CheckResult("b", {}, 5.0, 1e-10, gating=False, note="report-only"),
    ])
    assert rpt.all_hard_passed
    rpt.results.append(CheckResult("c", {}, 5.0, 1e-10))
    assert not rpt.all_hard_passed


def test_report_sorting():
    rpt = VerificationReport(results=[
        CheckResult("zeta", {}, 0.0, 1.0),
        CheckResult("alpha", {}, 0.0, 1.0),
    ])
    rpt.sort()
    assert [r.check_id for r in rpt.results] == ["alpha", "zeta"]


def test_report_json_is_canonical():
    rpt = VerificationReport(results=[CheckResult("a", {"x": 1.0}, 0.0, 1.0)])
    s = rpt.to_json()
    assert s == rpt.to_json()
    data = json.loads(s)
    assert set(data["results"][0]) == {
        "check_id", "params", "max_residual", "tolerance", "passed", "gating", "note"}
    assert " " not in s.split('"note"')[0].split("{")[1][:20]


def test_report_csv_is_rfc4180():
    rpt = VerificationReport(results=[
        CheckResult("a", {}, 0.0, 1.0, note='needs "quoting", commas'),
    ])
    out = rpt.to_csv()
    assert out.startswith("check_id,")
    assert "\r\n" in out
    assert '"needs ""quoting"", commas"' in out


def test_report_text_verdict():
    good = VerificationReport(results=[CheckResult("a", {}, 0.0, 1.0)])
    assert "ALL HARD CHECKS PASSED" in good.to_text()
    bad = VerificationReport(results=[CheckResult("a", {}, 2.0, 1.0)])
    assert "FAIL" in bad.to_text()


# ---- tables ------------------------------------------------------------


def test_spectrum_table_values():
    table = harness.spectrum_table("nonrel", {"g0": 0.1}, 2)
    assert table["n"] == [0, 1, 2]
    assert table["energy_hw"][1] - table["energy_hw"][0] == pytest.approx(2.0)
    table = harness.spectrum_table("rel", {"omega0": 0.5, "g0": 0.1}, 1)
    assert list(table) == ["n", "energy_mc2", "energy_hw"]
    assert table["energy_mc2"][0] == pytest.approx(1.8443835774055741)
    assert table["energy_hw"][0] == pytest.approx(table["energy_mc2"][0] / 0.5)
    with pytest.raises(ValueError):
        harness.spectrum_table("bogus", {}, 2)


@pytest.mark.parametrize("model,params", [("nonrel", {"g0": 0.1}),
                                          ("rel", {"omega0": 0.5, "g0": 0.1})])
def test_spectrum_table_rejects_negative_nmax(model, params):
    with pytest.raises(ValueError, match="n_max must be >= 0"):
        harness.spectrum_table(model, params, -1)
    assert harness.spectrum_table(model, params, 0)["n"] == [0]


def test_wavefunction_table_marks_pole_rows():
    # the log_gamma(i rho) pole at rho -> 0 fails the array call, so every
    # point is evaluated alone and only the pole row is marked
    grid = [1e-300, 1.0, 2.0]
    table = harness.wavefunction_table("rel", {"omega0": 0.5, "g0": 0.1}, 0, grid)
    assert list(table) == ["rho", "re", "im", "abs", "error"]
    assert table["rho"] == grid
    assert [table[k][0] for k in ("re", "im", "abs")] == [None, None, None]
    assert table["error"][0].startswith("EvaluationError: log_gamma pole")
    for k in (1, 2):
        assert table["error"][k] == ""
        re, im = table["re"][k], table["im"][k]
        assert math.isfinite(re) and math.isfinite(im)
        assert table["abs"][k] == abs(complex(re, im))


def test_wavefunction_table_far_out_matches_mpmath():
    # phi_0 falls to 1e-164 at rho = 252 and 1e-265 at rho = 400, where
    # log_gamma(i rho) takes its reflection at |Im z| > 226
    model = harness.rel.make_rel_model(0.5, 0.1)
    table = harness.wavefunction_table("rel", {"omega0": 0.5, "g0": 0.1}, 0,
                                       default_grid(4, 100.0, 400.0))
    assert table["error"] == [""] * 4
    with mp.workdps(30):
        a, nu = mp.mpf(model.alpha), mp.mpf(model.nu)
        for rho, re, im, mag in zip(*(table[k] for k in ("rho", "re", "im", "abs"))):
            irho = mp.mpc(0, rho)
            ref = complex(mp.exp(0.5j * mp.pi * a) * mp.gamma(a + irho) / mp.gamma(irho)
                          * mp.exp(irho * mp.log(0.5)) * mp.gamma(nu + irho))
            assert abs(complex(re, im) - ref) <= 1e-12 * abs(ref)
            assert abs(mag - abs(ref)) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("model", ["nonrel", "rel"])
def test_wavefunction_table_columns_split_the_array_values(model):
    # re, im and |psi| of each value as Python's complex gives them: abs() is
    # hypot, which np.abs of a complex array misses in the last bit at some points
    grid = default_grid(257, 0.25, 8.0)
    table = harness.wavefunction_table(model, {"omega0": 0.5, "g0": 0.1}, 5, grid)
    state = (harness.nonrel.eigenfunction(harness.nonrel.make_model(0.1), 5) if model == "nonrel"
             else harness.rel.eigenfunction_rel(harness.rel.make_rel_model(0.5, 0.1), 5))
    values = state.wavefunction(grid).tolist()
    assert table["re"] == [v.real for v in values]
    assert table["im"] == [v.imag for v in values]
    assert table["abs"] == [abs(v) for v in values]
    assert table["error"] == [""] * len(grid)


def test_row_serializers_round_trip():
    table = {"n": [0, 1], "energy_hw": [1.5, 3.5]}
    assert json.loads(harness.rows_to_json(table)) == [
        {"n": 0, "energy_hw": 1.5}, {"n": 1, "energy_hw": 3.5}]
    csv_out = harness.rows_to_csv(table)
    assert csv_out.splitlines()[0] == "n,energy_hw"
    assert [dict(r) for r in csv.DictReader(io.StringIO(csv_out))] == [
        {"n": "0", "energy_hw": "1.5"}, {"n": "1", "energy_hw": "3.5"}]
    text = harness.rows_to_text(table)
    assert "energy_hw" in text and "3.5" in text
    assert harness.rows_to_csv({"n": []}) == ""
    assert harness.rows_to_text({"n": []}) == ""
    assert harness.rows_to_json({"n": []}) == "[]"


# Per-row references for the column writers: the serializers of a list of
# row dicts that the tables were written with before they became columns.


def _reference_csv(rows):
    if not rows:
        return ""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), quoting=csv.QUOTE_MINIMAL,
                            lineterminator="\r\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def _reference_text(rows):
    if not rows:
        return ""
    lines = ["  ".join(f"{k:>14s}" for k in rows[0])]
    for row in rows:
        cells = []
        for v in row.values():
            if v is None:
                cells.append(f"{'--':>14s}")
            elif isinstance(v, float):
                cells.append(f"{v:14.8g}")
            else:
                cells.append(f"{str(v):>14s}")
        lines.append("  ".join(cells))
    return "\n".join(lines) + "\n"


_AWKWARD_TABLE = {
    "x%s": [0.25, -0.0, 1e-300, float("inf"), float("nan"), 123456789.123],
    "y": [5e-324, -1e300, 0.1 + 0.2, 1e16, -float("inf"), 99999999.5],
    "n": [0, 1, 2, -3, 10**20, 5],
    "re": [1.5, None, -2.0, None, 3.0, np.float64(0.1)],
    "flag": [True, False, 1, 1.0, "1", None],
    "error": ["", 'say "hi", twice', "line\nbreak", "", "caf\u00e9 %d", "x\ry"],
}


@pytest.mark.parametrize("table", [
    {"n": [0, 1], "energy_hw": [1.5, 3.5]},
    {"x": [0.5, -1e-17], "n": [True, 7], "error": ["", "a; b: c'd (e)"]},
    *({"x": [0.5, 2.0], "error": ["", f"a{c}b"]} for c in ',"\r\n'),
    {"error": ["", "x"]},
    _AWKWARD_TABLE,
    {"a": [], "b": []},
    {},
], ids=["spectrum", "plain", "comma", "quote", "cr", "lf", "one-column", "awkward", "empty",
        "no-columns"])
def test_column_writers_match_per_row_serializers(table):
    rows = [dict(zip(table, cells)) for cells in zip(*table.values())]
    assert harness.rows_to_json(table) == json.dumps(rows, sort_keys=True,
                                                     separators=(",", ":"))
    assert harness.rows_to_csv(table) == _reference_csv(rows)
    assert harness.rows_to_text(table) == _reference_text(rows)


# ---- CLI ---------------------------------------------------------------


def test_cli_spectrum_json():
    code, out = _run_cli(["spectrum", "--model", "nonrel", "--g0", "0.1",
                          "--nmax", "2", "--format", "json"])
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 3


def test_cli_spectrum_rejects_bad_coupling():
    code, _ = _run_cli(["spectrum", "--model", "rel", "--omega0", "0.5",
                        "--g0", "-1.0", "--nmax", "2"])
    assert code == 2


@pytest.mark.parametrize("model", ["nonrel", "rel"])
def test_cli_spectrum_rejects_negative_nmax(model, capsys):
    code, out = _run_cli(["spectrum", "--model", model, "--nmax", "-1",
                          "--format", "json"])
    assert code == 2
    assert out == ""
    assert capsys.readouterr().err.startswith("error: n_max must be >= 0")
    code, out = _run_cli(["spectrum", "--model", model, "--nmax", "0",
                          "--format", "json"])
    assert code == 0
    assert [r["n"] for r in json.loads(out)] == [0]


@pytest.mark.parametrize("argv", [
    ["spectrum", "--model", "nonrel", "--g0", "nan"],
    ["spectrum", "--model", "rel", "--omega0", "nan"],
    ["spectrum", "--model", "rel", "--g0", "inf"],
    ["verify", "--g0", "nan"],
    ["verify", "--omega0", "nan"],
    ["limit", "--omega0-list", "1e-2,nan"],
    # below rel.OMEGA0_FLOOR the exponents alpha, nu are not finite
    ["verify", "--omega0", "1e-200"],
    ["spectrum", "--model", "rel", "--omega0", "1e-154"],
    ["wavefunction", "--model", "rel", "--omega0", "1e-200"],
    ["limit", "--omega0-list", "1e-2,1e-200"],
])
def test_cli_rejects_non_finite_couplings(argv, capsys):
    code, out = _run_cli(argv + ["--format", "json"])
    assert code == 2
    assert out == ""
    assert re.match(r"error: .*must be finite", capsys.readouterr().err)


def test_cli_wavefunction_csv():
    code, out = _run_cli(["wavefunction", "--model", "nonrel", "--g0", "0.1",
                          "--n", "1", "--grid-min", "0.5", "--grid-max", "4",
                          "--grid-points", "8", "--format", "csv"])
    assert code == 0
    lines = out.split("\r\n")
    assert lines[0] == "xi,re,im,abs,error"
    assert len([l for l in lines if l]) == 9


_ERROR_ROWS = [("0.25", "(0.25+0j)"), ("1.4142135623730947", "(1.4142135623730947+0j)"),
               ("8.0", "(8+0j)")]
_ERROR_TABLE_BYTES = {
    "csv": "rho,re,im,abs,error\r\n" + "".join(
        f"{rho},,,,EvaluationError: non-finite value at z = {z}\r\n"
        for rho, z in _ERROR_ROWS),
    "json": "[" + ",".join(
        '{"abs":null,"error":"EvaluationError: non-finite value at z = %s",'
        '"im":null,"re":null,"rho":%s}' % (z, rho) for rho, z in _ERROR_ROWS) + "]\n",
    "text": "           rho              re              im             abs           error\n"
            + "".join(f"{text_rho:>14s}              --              --              --  "
                      f"EvaluationError: non-finite value at z = {z}\n"
                      for text_rho, (_, z) in zip(("0.25", "1.4142136", "8"), _ERROR_ROWS)),
}


@pytest.mark.parametrize("fmt", ["csv", "json", "text"])
def test_cli_wavefunction_error_rows_golden_bytes(fmt):
    # at omega0 = 0.005 every rel value is non-finite: missing cells are
    # empty in CSV, null in JSON and -- in text, and each row names its point
    code, out = _run_cli(["wavefunction", "--model", "rel", "--omega0", "0.005",
                          "--grid-points", "3", "--format", fmt])
    assert code == 0
    assert out == _ERROR_TABLE_BYTES[fmt]


def test_cli_wavefunction_rejects_bad_grid(capsys):
    code, out = _run_cli(["wavefunction", "--model", "nonrel", "--g0", "0.1",
                          "--n", "0", "--grid-min", "2.0", "--grid-max", "1.0"])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == "error: grid must satisfy 0 < min < max, points >= 2\n"


@pytest.mark.parametrize("bounds", [("0.25", "inf"), ("0.25", "nan"), ("nan", "2.0"),
                                    ("-inf", "2.0"), ("inf", "inf")])
def test_cli_wavefunction_rejects_non_finite_grid_bounds(bounds, capsys):
    code, out = _run_cli(["wavefunction", "--model", "rel", f"--grid-min={bounds[0]}",
                          f"--grid-max={bounds[1]}", "--grid-points", "3"])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == "error: grid must satisfy 0 < min < max, points >= 2\n"


@pytest.mark.parametrize("model", ["nonrel", "rel"])
def test_cli_wavefunction_rejects_negative_index(model, capsys):
    code, out = _run_cli(["wavefunction", "--model", model, "--n", "-1",
                          "--grid-points", "2"])
    assert code == 2
    assert out == ""
    assert capsys.readouterr().err.startswith("error: n must be >= 0")


def test_cli_nonrel_table_past_the_power_basis_evaluates(capsys):
    # the power basis stopped at n = 170; the recurrence evaluates n = 171,
    # and test_nonrel checks those values against mpmath
    code, out = _run_cli(["wavefunction", "--model", "nonrel", "--n", "171",
                          "--format", "json"])
    assert (code, capsys.readouterr().err) == (0, "")
    rows = json.loads(out)
    want = nonrel.eigenfunction(nonrel.make_model(0.1), 171).wavefunction(default_grid())
    assert [r["xi"] for r in rows] == default_grid().tolist()
    assert [r["re"] for r in rows] == want.real.tolist()
    assert {r["error"] for r in rows} == {""}


def test_cli_verify_past_the_double_range_exits_2(capsys):
    # exit 2, not a traceback: the unnormalised rel closed form passes the
    # largest double from n = 97 on, and exit 1 would claim a hard check failed
    code, out = _run_cli(["verify", "--nmax", "171"])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err.startswith("error: non-finite value at z = ")


@pytest.mark.parametrize("couplings", [(0.5, 0.1), (0.9, 0.05), (0.35, 0.6), (0.6, 0.2)])
def test_cli_verify_nmax_30_passes(couplings):
    # the terminating sums failed from --nmax 12 on; the recurrences hold to 30
    code, out = _run_cli(["verify", "--omega0", str(couplings[0]), "--g0", str(couplings[1]),
                          "--nmax", "30", "--format", "json"])
    report = json.loads(out)
    failed = [r["check_id"] for r in report["results"] if r["gating"] and not r["passed"]]
    assert (code, failed, report["all_hard_passed"]) == (0, [], True)


def test_cli_limit_table():
    code, out = _run_cli(["limit", "--g0", "0.1",
                          "--omega0-list", "1e-2,5e-3", "--format", "json"])
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 2
    assert rows[0]["deviation"] > rows[1]["deviation"]
    # pinned bit for bit: the table is plain double arithmetic on (g0, omega0);
    # 50-digit mpmath gives 2.5296122335777549e-4 and 1.2574282394614512e-4
    assert [r["deviation"] for r in rows] == [0.0002529612233577755,
                                              0.00012574282394614512]


def test_cli_verify_reports_evaluation_error_with_exit_2(capsys):
    # omega0 = 0.005 is in the domain, but Gamma(nu + i rho) overflows there;
    # exit 1 would claim a hard check failed
    code, out = _run_cli(["verify", "--omega0", "0.005", "--format", "json"])
    assert code == 2
    assert out == ""
    assert capsys.readouterr().err.startswith("error: non-finite value at z = ")


@pytest.mark.parametrize("exc", [fdosc.PoleError])
def test_cli_maps_evaluation_errors_to_exit_2(exc, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise exc("cannot evaluate here")

    monkeypatch.setattr(harness, "run_suite", fail)
    code, out = _run_cli(["verify"])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == "error: cannot evaluate here\n"


@pytest.mark.parametrize("g0", ["-0.2", "-0.05"])
def test_cli_limit_rejects_g0_outside_domain(g0, capsys):
    code, out = _run_cli(["limit", "--g0", g0])
    assert code == 2
    assert out == ""
    assert capsys.readouterr().err.startswith("error: g0 must")


def test_cli_limit_rejects_bad_list(capsys):
    code, out = _run_cli(["limit", "--g0", "0.1", "--omega0-list", "abc"])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == "error: --omega0-list must be comma-separated numbers\n"
    code, out = _run_cli(["limit", "--g0", "0.1", "--omega0-list", ","])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == "error: --omega0-list is empty\n"


# ---- full verify runs (session-scoped fixtures, computed once) ----------


def test_verify_exit_code_zero(verify_json_runs):
    _, codes = verify_json_runs
    assert codes == [0, 0]


def test_verify_json_deterministic(verify_json_runs):
    outs, _ = verify_json_runs
    assert outs[0].encode() == outs[1].encode()


def test_verify_report_structure(report_data):
    assert report_data["all_hard_passed"] is True
    ids = [r["check_id"] for r in report_data["results"]]
    assert ids == sorted(ids)
    assert len(ids) == len(set(ids))
    # every declared check is run and reported exactly once
    assert ids == sorted(harness.CHECKS)
    assert report_data["discrepancy_notes"]
    for r in report_data["results"]:
        assert set(r) == {"check_id", "params", "max_residual", "tolerance",
                          "passed", "gating", "note"}


def test_report_only_checks_never_gate(check_by_id):
    # making a hard check report-only loosens a gate, so the set is pinned
    assert {cid for cid, c in harness.CHECKS.items() if not c.gating} == {
        "nonrel_spectrum_variant", "rel_pair_commutator_printed",
        "rel_lowering_commutator_uncorrected", "rel_compact_form_comparison",
        "rel_ladder_coefficient_printed"}
    # the JSON rows carry the gating flag, and the "report-only" note prefix
    # marks exactly the non-gating rows for readers of the text and CSV forms
    for cid, check in harness.CHECKS.items():
        assert check_by_id[cid]["gating"] is check.gating, cid
        assert check_by_id[cid]["note"].startswith("report-only") == (not check.gating), cid


def test_run_suite_rejects_nmax_below_one():
    for n_max in (0, -2):
        with pytest.raises(ValueError, match="n_max"):
            harness.run_suite(0.5, 0.1, n_max=n_max)


@pytest.fixture(scope="module")
def readings_by_nmax(check_by_id):
    """(max_residual, note) per check at n_max 1, 6 (the session report) and
    9: below the ladder cap, at it, and above both it and BASE_LEVEL."""
    readings = {6: {cid: (r["max_residual"], r["note"]) for cid, r in check_by_id.items()}}
    for n_max in (1, 9):
        report = harness.run_suite(0.5, 0.1, n_max=n_max)
        readings[n_max] = {r.check_id: (r.max_residual, r.note) for r in report.results}
    return readings


def test_casimir_checks_cover_base_levels_at_every_nmax(readings_by_nmax):
    # the identities read on the operator involve no level at all, and
    # rel_casimir reads the levels n <= BASE_LEVEL whatever n_max is
    assert harness.LADDER_CAP < harness.BASE_LEVEL < 9
    for cid in (*IDENTITY_CHECKS, "rel_casimir"):
        assert readings_by_nmax[1][cid] == readings_by_nmax[6][cid] \
            == readings_by_nmax[9][cid], cid


def test_ladder_checks_stop_at_the_cap(readings_by_nmax):
    for cid in ("rel_ladder_consistency", "rel_ladder_coefficient",
                "rel_ladder_coefficient_printed", "rel_su11_closure",
                "rel_ladder_reconstruction", "nonrel_ladder_coefficient",
                "nonrel_ladder_reconstruction"):
        assert readings_by_nmax[9][cid] == readings_by_nmax[6][cid], cid


def _tower_ratios_level_by_level(op, base, norms, psi, pts):
    """harness._tower_ratios with the tower grown and evaluated one level at
    a time."""
    worst, ratios, state = 0.0, [], base
    for n, norm in enumerate(norms, start=1):
        state = op(state)
        ratio, spread = ratio_spread((norm * state)(pts), psi[n])
        worst = max(worst, spread)
        ratios.append(ratio)
    return worst, ratios


@pytest.mark.parametrize("cap", [9, 15])
def test_raised_ladder_cap_runs_every_check(cap, monkeypatch):
    # the per-level tables follow the cap: n_max = cap reads psi_(cap+1) and
    # K+K- psi_cap, above BASE_LEVEL; no verdict is asserted at these levels
    monkeypatch.setattr(harness, "LADDER_CAP", cap)
    report = harness.run_suite(0.5, 0.1, n_max=cap)
    assert [r.check_id for r in report.results] == sorted(harness.CHECKS)
    # the levels of one tower pass read as those of towers grown level by level
    monkeypatch.setattr(harness, "_tower_ratios", _tower_ratios_level_by_level)
    reference = {r.check_id: r for r in harness.run_suite(0.5, 0.1, n_max=cap).results}
    for r in report.results:
        if r.check_id.endswith("_ladder_reconstruction"):
            want = reference[r.check_id]
            assert (r.max_residual, r.note) == (want.max_residual, want.note), r.check_id
            assert r.note.count(",") == cap - 1  # one ratio per level


def test_tower_ratios_evaluate_each_coefficient_block_once(monkeypatch):
    blocks = []
    coefficients = opcore._Tower.coefficients

    def counting(tower, z, rows):
        blocks.append(tower.op)
        return coefficients(tower, z, rows)

    monkeypatch.setattr(opcore._Tower, "coefficients", counting)
    pts = default_grid()
    model = rel.make_rel_model(0.5, 0.1)
    _, B_plus = rel.ladder_B(model)
    psi = rel.eigenfunctions(model, range(7))(pts)
    norms = [rel.ladder_norm_constant(model, n) for n in range(1, 7)]
    harness._tower_ratios(B_plus, rel.eigenfunction_rel(model, 0).wavefunction,
                          norms, psi, pts)
    model = nonrel.make_model(0.1)
    _, _, K_plus = nonrel.su11_generators(model)
    psi = nonrel.eigenfunctions(model, range(7))(pts)
    harness._tower_ratios(K_plus, nonrel.eigenfunction(model, 0).wavefunction,
                          [1.0] * 6, psi, pts)
    assert blocks == [B_plus, K_plus]  # one block per check, not one per level


def test_cli_verify_rejects_nmax_below_one(capsys):
    for nmax in ("0", "-2"):
        code, out = _run_cli(["verify", "--nmax", nmax])
        assert code == 2
        assert out == ""
        assert capsys.readouterr().err.startswith("error: n_max must be >= 1")


def test_cli_verify_nmax_one_runs():
    code, out = _run_cli(["verify", "--nmax", "1", "--format", "json"])
    assert code == 0
    assert json.loads(out)["all_hard_passed"] is True


def test_cli_verify_tol_overrides_hard_checks_only():
    code, out = _run_cli(["verify", "--tol", "1e-300", "--format", "json"])
    assert code == 1
    results = json.loads(out)["results"]
    assert sorted(r["check_id"] for r in results) == sorted(harness.CHECKS)
    for r in results:
        check = harness.CHECKS[r["check_id"]]
        expected = 1e-300 if check.gating else check.tolerance
        assert r["tolerance"] == expected, r["check_id"]


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_verify_rejects_a_tolerance_that_is_not_finite_and_positive(tol, capsys):
    with pytest.raises(ValueError, match="tolerance must be finite and > 0"):
        harness.run_suite(0.5, 0.1, tol_overrides=float(tol))
    # exit 2, not the exit 1 of a failed physics check, and no report
    code, out = _run_cli(["verify", "--tol", tol, "--format", "json"])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err.startswith("error: tolerance must be finite and > 0")


def test_cli_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()
    # parsing leaves no state behind in the shared parser
    first = cli.build_parser().parse_args(["spectrum", "--model", "rel", "--nmax", "3"])
    again = cli.build_parser().parse_args(["spectrum", "--model", "nonrel"])
    assert (first.model, first.nmax) == ("rel", 3)
    assert (again.model, again.nmax, again.format) == ("nonrel", 8, "text")


def test_import_and_every_cli_command_load_no_scipy():
    # tier-1 has scipy loaded in this process, so this runs in a fresh one
    script = """
import contextlib, io, json, sys
import fdosc
loaded = [m for m in sys.modules if m.partition(".")[0] == "scipy"]
from fdosc import cli
argvs = [["spectrum", "--model", "nonrel"], ["spectrum", "--model", "rel"],
         ["wavefunction", "--model", "nonrel", "--n", "2"],
         ["wavefunction", "--model", "rel", "--n", "2"], ["limit"],
         ["verify", "--nmax", "1", "--format", "json"]]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in argvs]
loaded += [m for m in sys.modules if m.partition(".")[0] == "scipy"]
print(json.dumps({"codes": codes, "scipy": sorted(set(loaded))}))
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    assert json.loads(proc.stdout) == {"codes": [0] * 6, "scipy": []}


def test_spectrum_oracle_check_sees_a_relative_1e_9_error(monkeypatch):
    # a spectrum off by 1e-9 is 100x the tolerance and ~1e5x the oracle's
    # own error at this coupling (3e-15)
    exact = nonrel.energy
    monkeypatch.setattr(nonrel, "energy", lambda model, n: exact(model, n) * (1.0 + 1e-9))
    results = {r.check_id: r for r in harness.run_suite(0.5, 0.1, n_max=1).results}
    oracle = results["nonrel_spectrum_oracle"]
    assert not oracle.passed
    assert oracle.max_residual == pytest.approx(1e-9, rel=1e-3)


def test_report_digest_tool_prints_md5_and_label():
    root = Path(__file__).resolve().parents[1]
    labels = ["spectrum/rel/json", "limit/text"]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, str(root / "tools" / "report_digest.py"), *labels],
                          env=env, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    assert [re.fullmatch(r"([0-9a-f]{32})  (\S+)", line).group(2) for line in lines] == labels
    _, out = _run_cli(["spectrum", "--model", "rel", "--format", "json"])
    assert lines[0].split()[0] == hashlib.md5(out.encode()).hexdigest()
    proc = subprocess.run([sys.executable, str(root / "tools" / "report_digest.py"), "nope"],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 2 and proc.stdout == ""


def test_suite_timing_tool_times_and_restores_the_cap(monkeypatch, capsys):
    path = Path(__file__).resolve().parents[1] / "tools" / "suite_timing.py"
    spec = importlib.util.spec_from_file_location("suite_timing", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.main(["0"]) == 2
    assert capsys.readouterr().err == "error: REPEATS must be >= 1\n"
    default = harness.LADDER_CAP
    times = tool.timings(1, default, 1)
    assert len(times) == 1 and times[0] > 0.0
    times = tool.process_timings(1)
    assert len(times) == 1 and times[0] > 0.0

    def fail(*args, **kwargs):
        assert harness.LADDER_CAP == default + 3
        raise RuntimeError("run_suite failed")

    monkeypatch.setattr(harness, "run_suite", fail)
    with pytest.raises(RuntimeError, match="run_suite failed"):
        tool.timings(1, default + 3, 1)
    assert harness.LADDER_CAP == default


def test_version_matches_pyproject():
    # a regex, not tomllib: Python 3.10 has no tomllib
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    match = re.search(r'^version\s*=\s*"([^"]+)"', text, re.MULTILINE)
    assert match is not None
    assert fdosc.__version__ == match.group(1)


# ---- sampling ----------------------------------------------------------


def _gamma_sample_loop(rng, count):
    """Reference for harness._gamma_sample: one scalar draw per coordinate."""
    zs = []
    for _ in range(count):
        z = complex(rng.uniform(-20, 20), rng.uniform(-20, 20))
        if abs(z.imag) < 1e-2 and abs(z.real - round(z.real)) < 1e-2:
            continue
        zs.append(z)
    return np.array(zs, dtype=complex)


@pytest.mark.parametrize("seed", [harness._SEED, 12345])
def test_gamma_sample_matches_scalar_draws(seed):
    rng, rng_loop = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(3):
        z = harness._gamma_sample(rng, 1000)
        assert z.tobytes() == _gamma_sample_loop(rng_loop, 1000).tobytes()
    assert rng.bit_generator.state == rng_loop.bit_generator.state


class _Replay:
    """Stands in for a generator: uniform() hands out fixed numbers in order."""

    def __init__(self, values):
        self.values = list(values)

    def uniform(self, low, high, size=None):
        if size is None:
            return self.values.pop(0)
        n = math.prod(size)
        out, self.values = self.values[:n], self.values[n:]
        return np.array(out).reshape(size)


def test_gamma_sample_drops_points_near_poles():
    # (re, im) pairs: near 3, kept, near -2, kept (im too large), at -7
    values = [3.004, 0.001, 0.5, 0.001, -2.0, -0.009, 2.995, 0.02, -7.0, 0.0]
    z = harness._gamma_sample(_Replay(values), 5)
    assert z.tolist() == [0.5 + 0.001j, 2.995 + 0.02j]
    assert z.tobytes() == _gamma_sample_loop(_Replay(values), 5).tobytes()


# ---- operator identities on their coefficients -------------------------


@pytest.mark.parametrize("count", [1, 3, 8])
def test_identity_residual_evaluates_each_coefficient_once(count):
    calls = {}

    def counting(key):
        def leaf(z):
            calls[key] = calls.get(key, 0) + 1
            return np.cos(z)
        return from_callable(leaf, note=key)

    parts = [DifferenceOperator([Term(counting(f"A{i}"), 0.5j, 0), Term(1.0, 0.0, 1),
                                 Term(counting(f"B{i}"), -0.5j, 2)])
             for i in range(count)]
    harness._identity_residual(default_grid(), *parts)
    assert calls == {f"{k}{i}": 1 for i in range(count) for k in "AB"}


def test_identity_residual_scales_by_the_parts_that_cancel():
    pts = np.array([1.0, 2.0])
    big = 1e8 * mul_op(coordinate())
    assert harness._identity_residual(pts, big, -big) == 0.0
    # a term one part alone carries reads |c| / (1 + |c|)
    assert harness._identity_residual(pts, big, -big, 3.0 * shift_op(1j)) == 0.75
    assert harness._identity_residual(pts) == 0.0


def _term_residuals(pts, *parts):
    """harness._identity_residual of each (shift, derivative order) alone."""
    keys = {(t.shift, t.dorder) for part in parts for t in part.terms}
    return {key: harness._identity_residual(
        pts, *(DifferenceOperator([t for t in part.terms if (t.shift, t.dorder) == key])
               for part in parts)) for key in keys}


DIGEST_COUPLINGS = [(0.5, 0.1), (0.9, 0.05), (0.35, 0.6), (0.6, 0.2)]
# the corners of perfbench's box: omega0 in [0.3, 1.2], 8 g0 omega0^2 in [0.05, 0.92]
BOX_CORNERS = [(w0, k / (8.0 * w0 * w0)) for w0 in (0.3, 1.2) for k in (0.05, 0.92)]


@pytest.mark.parametrize("couplings", DIGEST_COUPLINGS)
def test_each_adjudication_misses_only_at_its_named_terms(couplings):
    model = rel.make_rel_model(*couplings)
    H = rel.hamiltonian_rel(model)
    B_printed, _ = rel.ladder_B_printed(model)
    b_minus, b_plus = rel.ladder_b(model)
    B_compact, _ = rel.ladder_B_compact(model)
    B_minus, _ = rel.ladder_B(model)
    pts = default_grid()
    adjudications = [
        # the literal H^2 tail misses by a constant: the (shift 0, order 0) term
        ((*harness._bracket(H, B_printed), 2.0 * model.omega0 * B_printed), {0j}),
        # the printed [b-, b+] right-hand side: its e^{i d} coefficient
        ((*harness._bracket(b_minus, b_plus), -rel.bb_commutator_rhs(model)), {1j}),
        # the compact form: its e^{-+i d} coefficients
        ((B_compact, -B_minus), {1j, -1j}),
    ]
    for parts, missed in adjudications:
        residuals = _term_residuals(pts, *parts)
        assert {key for key, r in residuals.items() if r > 1e-14} == {(s, 0) for s in missed}
        assert min(residuals[(s, 0)] for s in missed) > 0.3


IDENTITY_CHECKS = [
    "nonrel_factorization", "nonrel_pair_commutator", "nonrel_weighted_commutator",
    "nonrel_lowering_forms_agree", "nonrel_lowering_commutator", "nonrel_su11_closure",
    "rel_factorization_random", "rel_momentum_commutator", "rel_mass_shell_free",
    "rel_two_step_commutator", "rel_lowering_commutator_uncorrected",
    "rel_pair_commutator_printed", "rel_compact_form_comparison",
    "rel_lowering_commutator", "rel_raising_commutator", "nonrel_casimir",
]


@pytest.mark.parametrize("couplings", DIGEST_COUPLINGS + BOX_CORNERS)
def test_hard_identities_hold_to_rounding(couplings):
    results = {r.check_id: r for r in harness.run_suite(*couplings, n_max=1).results}
    hard = [cid for cid in IDENTITY_CHECKS if harness.CHECKS[cid].gating]
    assert len(hard) == 13
    assert {cid: results[cid].max_residual for cid in hard if results[cid].max_residual > 1e-13} \
        == {}


def _planted(monkeypatch, module, name, plant):
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: plant(original(*args)))


@pytest.mark.parametrize("check_id", [
    "rel_two_step_commutator", "nonrel_su11_closure", "nonrel_casimir",
    "rel_lowering_commutator", "rel_raising_commutator"])
def test_a_planted_one_term_error_fails_its_check(check_id, monkeypatch):
    error = 1e-6 * shift_op(2j)
    if check_id == "rel_two_step_commutator":
        _planted(monkeypatch, rel, "BB_commutator_rhs", lambda rhs: rhs + error)
    elif check_id.startswith("nonrel"):  # K0 off by one term
        _planted(monkeypatch, nonrel, "su11_generators",
                 lambda generators: (generators[0] + error, *generators[1:]))
    elif check_id == "rel_lowering_commutator":  # B- off by one term
        _planted(monkeypatch, rel, "ladder_B", lambda pair: (pair[0] + error, pair[1]))
    else:  # B+ off by one term
        _planted(monkeypatch, rel, "ladder_B", lambda pair: (pair[0], pair[1] + error))
    results = {r.check_id: r for r in harness.run_suite(0.5, 0.1, n_max=1).results}
    assert results[check_id].max_residual > harness.CHECKS[check_id].tolerance
    assert not results[check_id].passed


def test_every_traced_hook_resolves_in_fdosc():
    # perfbench/tracing.py hooks program names from outside; a hooked name
    # that is gone drops its metric from a traced run
    bench = Path(__file__).resolve().parent.parent / "perfbench"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", bench / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    with patch.object(sys, "path", [str(bench), *sys.path]), \
            patch.dict(sys.modules):  # perfbench's stats module leaves with it
        spec.loader.exec_module(tracing)
    missing = []
    for metric, modname, attr, _ in tracing.HOOKS:
        owner = importlib.import_module(modname)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append(metric)
    assert tracing.HOOKS and missing == []
