"""Report plumbing, output formats, CLI behaviour, determinism."""

import csv
import functools
import hashlib
import importlib
import importlib.util
import inspect
import io
import json
import math
import operator
import os
import random
import re
import subprocess
import sys
import types
from contextlib import redirect_stdout
from pathlib import Path
from unittest.mock import patch

import mpmath as mp
import numpy as np
import pytest

import fdosc
from fdosc import cli, harness, nonrel, opcore, planewave, rel, specfun
from fdosc.harness import CheckResult, VerificationReport
from fdosc.opcore import (
    DifferenceOperator,
    const,
    coordinate,
    default_grid,
    from_callable,
    monomial,
    mul_op,
    polynomial,
    shift_op,
)
from test_nonrel import _act, _powers


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
    # the log_gamma(i rho) pole at rho -> 0 fails the array call, so the grid
    # is split until the pole row stands alone, and only that row is marked
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


@pytest.mark.parametrize("grid_min,omega0,most_calls,failed", [
    (1e-12, 0.5, 200, 1),  # one pole row: split into parts, not swept point by point
    (0.25, 0.5, 1, 0),  # a clean grid is one call
    (0.25, 0.005, 1.05 * 4097, 4096),  # every row fails: about one call per row
])
def test_wavefunction_table_leaf_calls(grid_min, omega0, most_calls, failed, monkeypatch):
    calls = []

    def counted(z):
        calls.append(z)
        return specfun.log_gamma(z)

    monkeypatch.setattr(rel, "log_gamma", counted)
    table = harness.wavefunction_table("rel", {"omega0": omega0, "g0": 0.1}, 3,
                                       default_grid(4096, grid_min, 8.0))
    assert len(calls) <= most_calls
    assert sum(map(bool, table["error"])) == failed


def test_wavefunction_table_error_rows_at_random_positions():
    # pole points scattered over a clean grid: the good rows hold the floats of
    # one array call at those points, each error row the message of its point
    # called alone
    rng = np.random.default_rng(23)
    grid = default_grid(700, 0.25, 8.0)
    bad = np.sort(rng.choice(len(grid), size=40, replace=False))
    grid[bad] = rng.choice([1e-300, 1e-13, 1e-12], size=len(bad))
    good = np.setdiff1d(np.arange(len(grid)), bad)
    table = harness.wavefunction_table("rel", {"omega0": 0.5, "g0": 0.1}, 3, grid)
    wf = rel.eigenfunction_rel(rel.make_rel_model(0.5, 0.1), 3).wavefunction
    values = wf(grid[good]).tolist()
    assert [table["re"][i] for i in good] == [v.real for v in values]
    assert [table["im"][i] for i in good] == [v.imag for v in values]
    assert [table["abs"][i] for i in good] == [abs(v) for v in values]
    assert [i for i, e in enumerate(table["error"]) if e] == bad.tolist()
    for i in bad:
        with pytest.raises(fdosc.EvaluationError) as exc:
            wf(grid[i])
        assert table["error"][i] == f"EvaluationError: {exc.value}"
        assert [table[k][i] for k in ("re", "im", "abs")] == [None, None, None]
    assert table["rho"] == grid.tolist()


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
    # 8 g0 overflows: d = sqrt(1 + 8 g0)/2 would be inf
    ["spectrum", "--model", "nonrel", "--g0", "1e308"],
    ["wavefunction", "--model", "nonrel", "--g0", "1e308", "--grid-points", "2"],
])
def test_cli_rejects_non_finite_couplings(argv, capsys):
    code, out = _run_cli(argv + ["--format", "json"])
    assert code == 2
    assert out == ""
    assert re.match(r"error: .*must be finite", capsys.readouterr().err)


@pytest.mark.parametrize("argv", [
    ["spectrum", "--model", "rel", "--omega0", "1e200", "--g0", "0.1"],
    ["limit", "--omega0-list", "1e200"],
    ["verify", "--omega0", "1e200"],
])
def test_cli_rejects_an_overflowing_rel_coupling(argv, capsys):
    # 8 g0 omega0^2 overflows to inf: a CouplingError, not an OverflowError
    # raised while its message is formatted
    code, out = _run_cli(argv + ["--format", "json"])
    assert code == 2
    assert out == ""
    assert capsys.readouterr().err == (
        "error: 8 g0 omega0^2 = inf > 1: exponents become complex\n")


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
    # exit 2, not a traceback, and exit 1 would claim a hard check failed: the
    # nonrel checks, which run first, read L_n^d on power-basis coefficients,
    # which divide by n! and stop at n = 170; the unnormalised rel closed
    # form passes the largest double from n = 97 on
    code, out = _run_cli(["verify", "--nmax", "171"])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err.startswith(
        "error: L_n^d power-basis coefficients divide by k! for k <= n")
    code, out = _run_cli(["verify", "--nmax", "170"])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err.startswith("error: non-finite value at z = ")


@pytest.mark.parametrize("couplings", [(0.5, 0.1), (0.9, 0.05), (0.35, 0.6), (0.6, 0.2)])
def test_cli_verify_nmax_96_passes(couplings):
    # the largest n_max at which the rel closed form stays in double range;
    # nonrel_eigen_equation reads L_96^d on its coefficients
    code, out = _run_cli(["verify", "--omega0", str(couplings[0]), "--g0", str(couplings[1]),
                          "--nmax", "96", "--format", "json"])
    report = json.loads(out)
    assert (code, report["all_hard_passed"]) == (0, True)
    results = {r["check_id"]: r for r in report["results"]}
    assert results["nonrel_eigen_equation"]["params"]["levels"] == [0, 96]


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


@pytest.mark.parametrize("exc", [fdosc.PoleError, fdosc.EvaluationError])
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
    # one discrepancy line per report-only row, read from its residual: every
    # printed form the report-only checks adjudicate misses at this coupling
    report_only = sorted(cid for cid, c in harness.CHECKS.items() if not c.gating)
    notes = report_data["discrepancy_notes"]
    assert [line.partition(":")[0] for line in notes] == report_only
    assert all(line.endswith(", discrepancy shows") for line in notes)
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


def test_a_discrepancy_that_stops_showing_says_so(monkeypatch):
    # with the corrected two-step pair in place of the printed one (no
    # printed tail), the uncorrected commutator holds to rounding, and the
    # report's line for it is read from that residual, not from a fixed string
    monkeypatch.setattr(rel, "printed_tail", lambda model: DifferenceOperator([]))
    report = harness.run_suite(0.5, 0.1, n_max=1)
    row = {r.check_id: r for r in report.results}["rel_lowering_commutator_uncorrected"]
    assert row.max_residual < 1e-15  # reads 1.7e-17
    lines = {line.partition(":")[0]: line for line in report.discrepancy_notes}
    assert lines["rel_lowering_commutator_uncorrected"] == (
        f"rel_lowering_commutator_uncorrected: residual {row.max_residual:.3e} <= tol "
        "1.0e-08, discrepancy not seen")
    assert f"  - {lines['rel_lowering_commutator_uncorrected']}\n" in report.to_text()
    assert json.loads(report.to_json())["discrepancy_notes"] == report.discrepancy_notes
    del lines["rel_lowering_commutator_uncorrected"]
    assert all(line.endswith(", discrepancy shows") for line in lines.values())


def test_run_suite_rejects_nmax_below_one():
    for n_max in (0, -2):
        with pytest.raises(ValueError, match="n_max"):
            harness.run_suite(0.5, 0.1, n_max=n_max)


@pytest.fixture(scope="module")
def readings_by_nmax(check_by_id):
    """(max_residual, note, levels) per check at n_max 1, 6 (the session
    report) and 9, above BASE_LEVEL.  levels is the [first, last] of the
    result's params, or None."""
    readings = {6: {cid: (r["max_residual"], r["note"], r["params"].get("levels"))
                    for cid, r in check_by_id.items()}}
    for n_max in (1, 9):
        report = harness.run_suite(0.5, 0.1, n_max=n_max)
        readings[n_max] = {r.check_id: (r.max_residual, r.note, r.params.get("levels"))
                           for r in report.results}
    return readings


# [first, last] levels at n_max 1, 6 and 9, by check; a check not named
# here reads no level and its params carry none
LEVELS_BY_NMAX = {
    **dict.fromkeys(("nonrel_eigen_equation", "rel_eigen_equation",
                     "rel_factorization_eigen", "rel_energies_above_rest"),
                    ([0, 8], [0, 8], [0, 9])),
    **dict.fromkeys(("nonrel_ladder_coefficient", "rel_su11_closure"),
                    ([0, 1], [0, 6], [0, 9])),
    **dict.fromkeys(("nonrel_ladder_reconstruction", "rel_ladder_reconstruction",
                     "rel_ladder_consistency", "rel_ladder_coefficient",
                     "rel_ladder_coefficient_printed"),
                    ([1, 1], [1, 6], [1, 9])),
    "rel_casimir": ([0, 8], [0, 8], [0, 8]),
    **dict.fromkeys(("nonrel_ground_annihilation", "rel_ground_annihilation"),
                    ([0, 0], [0, 0], [0, 0])),
    **dict.fromkeys(("nonrel_spectrum_oracle", "nonrel_spectrum_variant"),
                    ([0, 4], [0, 4], [0, 4])),
}


def test_each_result_names_the_levels_it_read(readings_by_nmax):
    for cid in harness.CHECKS:
        levels = tuple(readings_by_nmax[n_max][cid][2] for n_max in (1, 6, 9))
        assert levels == LEVELS_BY_NMAX.get(cid, (None, None, None)), cid


def test_casimir_checks_cover_base_levels_at_every_nmax(readings_by_nmax):
    # the identities read on the operator involve no level at all, and
    # rel_casimir reads the levels n <= BASE_LEVEL whatever n_max is
    assert harness.BASE_LEVEL < 9
    for cid in (*IDENTITY_CHECKS, "rel_casimir"):
        assert readings_by_nmax[1][cid] == readings_by_nmax[6][cid] \
            == readings_by_nmax[9][cid], cid


LADDER_CHECKS = ("rel_ladder_consistency", "rel_ladder_coefficient",
                 "rel_ladder_coefficient_printed", "rel_su11_closure",
                 "rel_ladder_reconstruction", "nonrel_ladder_coefficient",
                 "nonrel_ladder_reconstruction")


def test_ladder_checks_stop_at_the_cap():
    at_cap, above = (
        {r.check_id: (r.max_residual, r.note, r.params["levels"])
         for r in harness.run_suite(0.5, 0.1, n_max=n_max).results if r.check_id in LADDER_CHECKS}
        for n_max in (harness.LADDER_CAP, harness.LADDER_CAP + 2))
    assert above == at_cap
    assert all(levels[1] == harness.LADDER_CAP for _, _, levels in above.values())


@pytest.mark.parametrize("cap", [9, 15])
def test_raised_ladder_cap_runs_every_check(cap):
    # the coefficient rows follow the levels read: n_max = cap reads S_(cap+1)
    # and b_(cap+1)^2, above BASE_LEVEL; no verdict is asserted at these levels
    report = harness.run_suite(0.5, 0.1, n_max=cap)
    assert [r.check_id for r in report.results] == sorted(harness.CHECKS)
    results = {r.check_id: r for r in report.results}
    for cid in LADDER_CHECKS:
        assert results[cid].params["levels"] == [LEVELS_BY_NMAX[cid][2][0], cap], cid
    for cid in ("nonrel_ladder_reconstruction", "rel_ladder_reconstruction"):
        assert results[cid].note.count(",") == cap - 1, cid  # one ratio per level


# alpha -> 1 at small g0 and nu -> 1 at large omega0: with alpha - 1 and
# nu - 1 formed as differences, the gauged rel operators lost their digits
# and the rel eigenstate checks failed at every one of these
@pytest.mark.parametrize("argv", [
    ["--omega0", "0.5", "--g0", "1e-12"], ["--omega0", "0.5", "--g0", "1e-9"],
    ["--omega0", "3.0", "--g0", "1e-6"], ["--omega0", "5.0", "--g0", "1e-5"],
    ["--omega0", "35", "--g0", "1.02e-5", "--nmax", "96"],
    # where rel_factorization_eigen reads its worst over omega0 2 to 50
    ["--omega0", "50", "--g0", "1.36e-5", "--nmax", "96"]])
def test_cli_verify_passes_as_alpha_or_nu_nears_one(argv):
    code, out = _run_cli(["verify", *argv, "--format", "json"])
    report = json.loads(out)
    failed = [r["check_id"] for r in report["results"] if r["gating"] and not r["passed"]]
    assert (code, failed) == (0, [])


@pytest.mark.parametrize("g0", [1e-6, 1e-8, 1e-12])
def test_every_hard_check_passes_at_nmax_30_at_small_g0(g0):
    # both ladder towers 30 levels deep as alpha -> 1 and d -> 1/2: the
    # nonrel one read 2.3e-8 at g0 = 1e-12 while the gauge formed p(p-1) as
    # p*p - p, whose rounding the K+ tower grew
    report = harness.run_suite(0.5, g0, n_max=30)
    assert [r.check_id for r in report.results if r.gating and not r.passed] == []
    levels = {r.check_id: r.params.get("levels") for r in report.results}
    assert levels["nonrel_ladder_reconstruction"] == levels["rel_ladder_reconstruction"] \
        == [1, 30]


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
    # tier-1 has scipy, mpmath, sympy, numpy.random and numpy.polynomial loaded
    # in this process, so this runs in a fresh one; `import numpy` loads
    # neither numpy submodule, and numpy.polynomial alone costs milliseconds
    script = """
import contextlib, io, json, sys
def unwanted():
    return [m for m in sys.modules
            if m.partition(".")[0] in ("scipy", "mpmath", "sympy")
            or m.startswith(("numpy.random", "numpy.polynomial"))]
import fdosc
loaded = unwanted()
from fdosc import cli
argvs = [["spectrum", "--model", "nonrel"], ["spectrum", "--model", "rel"],
         ["wavefunction", "--model", "nonrel", "--n", "2"],
         ["wavefunction", "--model", "rel", "--n", "2"], ["limit"],
         ["verify", "--nmax", "1", "--format", "json"]]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in argvs]
loaded += unwanted()
print(json.dumps({"codes": codes, "loaded": sorted(set(loaded))}))
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    assert json.loads(proc.stdout) == {"codes": [0] * 6, "loaded": []}


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


def test_report_digest_tool_reads_its_deep_runs_at_cap_30(capsys):
    path = Path(__file__).resolve().parents[1] / "tools" / "report_digest.py"
    spec = importlib.util.spec_from_file_location("report_digest", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    _, deep = _run_cli(["verify", "--omega0", "0.6", "--g0", "0.2", "--nmax", "30",
                        "--format", "json"])
    levels = {r["check_id"]: r["params"].get("levels") for r in json.loads(deep)["results"]}
    assert levels["nonrel_ladder_reconstruction"] == levels["rel_ladder_reconstruction"] == [1, 30]
    assert tool.main(["verify/0.6,0.2/nmax30/json"]) == 0
    assert [label for label in dict(tool.runs()) if "nmax96" in label] == [
        f"verify/{w0},{g0}/nmax96/json" for w0, g0 in tool.COUPLINGS]
    assert capsys.readouterr().out.split()[0] == hashlib.md5(deep.encode()).hexdigest()


def test_suite_timing_tool_times_and_restores_the_groups(monkeypatch, capsys):
    path = Path(__file__).resolve().parents[1] / "tools" / "suite_timing.py"
    spec = importlib.util.spec_from_file_location("suite_timing", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.main(["0"]) == 2
    assert capsys.readouterr().err == "error: REPEATS must be >= 1\n"
    times = tool.timings(1, 1)
    assert len(times) == 1 and times[0] > 0.0
    times, peaks = tool.process_timings(1)
    assert len(times) == 1 and times[0] > 0.0
    assert len(peaks) == 1 and 1.0 < peaks[0] < 1000.0  # MB
    groups = {group: getattr(harness, f"_checks_{group}") for group in tool.GROUPS}
    checks = tool.check_timings(1)
    # every check id once, under the group that yields it, one time per run
    assert list(checks) == list(tool.GROUPS)
    assert sorted(cid for by_id in checks.values() for cid in by_id) == sorted(harness.CHECKS)
    assert list(checks["nonrel"])[0] == "nonrel_eigen_equation"
    assert "rel_momentum_sign_free_limit" in checks["planewave"]
    assert all(len(seconds) == 1 and seconds[0] > 0.0
               for by_id in checks.values() for seconds in by_id.values())
    assert all(getattr(harness, f"_checks_{group}") is groups[group] for group in tool.GROUPS)
    # the split at n_max 30 too, where the nonrel K+ tower is 30 levels deep
    assert tool.N_MAXES == (6, harness.LADDER_CAP)
    deep = tool.check_timings(1, 30)
    assert sorted(cid for by_id in deep.values() for cid in by_id) == sorted(harness.CHECKS)
    layers = tool.ladder_layers(1)
    assert list(layers) == list(tool.LADDER_LEVELS)
    for level in layers.values():
        assert list(level) == ["call", "P", "coefficients", "steps"]
        assert min(level["call"] + level["P"] + level["coefficients"]) > 0.0
    states = tool.ladder_states(1)
    assert list(states) == list(tool.LADDER_LEVELS)
    for parts in states.values():
        assert list(parts) == ["build", "first call"]
        assert all(len(seconds) == 1 and seconds[0] > 0.0 for seconds in parts.values())
    leaf = tool.leaf_call(1)
    assert len(leaf) == 1 and leaf[0] > 0.0
    # the build line times every rel operator builder, a function of the
    # model alone, that the rel checks call
    def builders(run):
        called = set()
        with monkeypatch.context() as patch:
            for name in dir(rel):
                fn = getattr(rel, name)
                if inspect.isfunction(fn) and fn.__module__ == rel.__name__ \
                        and list(inspect.signature(fn).parameters) == ["model"]:
                    patch.setattr(rel, name, _recording(fn, name, called))
            run()
        return called

    levels = {cid: c.levels.at(1) for cid, c in harness.CHECKS.items() if c.levels}
    suite = builders(lambda: list(harness._checks_rel(*tool.COUPLING, levels, default_grid())))
    timed = builders(lambda: tool.rel_operators(rel.make_rel_model(*tool.COUPLING)))
    assert timed == suite and len(timed) == 8

    def fail(*args, **kwargs):
        raise RuntimeError("run_suite failed")

    monkeypatch.setattr(harness, "run_suite", fail)
    with pytest.raises(RuntimeError, match="run_suite failed"):
        tool.check_timings(1, 1)
    assert all(getattr(harness, f"_checks_{group}") is groups[group] for group in tool.GROUPS)


def _recording(fn, name, called):
    """fn, adding name to `called` at each call that builds an operator or
    a pair of them."""
    def recorded(*args, **kwargs):
        out = fn(*args, **kwargs)
        if all(isinstance(op, DifferenceOperator) for op in (out if isinstance(out, tuple)
                                                             else (out,))):
            called.add(name)
        return out
    return recorded


def test_src_size_tool_prints_each_module_and_their_total(capsys):
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("src_size", root / "tools" / "src_size.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.counted_lines('"""Doc\n\n  line."""\n# note\n   # indented note\nx = 1  # kept\n\n') == 3
    assert tool.main() == 0
    *modules, total = [re.fullmatch(r"(\w+) (\d+)", line).groups()
                       for line in capsys.readouterr().out.splitlines()]
    assert total[0] == "total"
    assert {name for name, _ in modules} == {p.stem for p in (root / "src" / "fdosc").glob("*.py")}
    counts = [int(n) for _, n in modules]
    assert counts == sorted(counts, reverse=True)
    assert int(total[1]) == sum(counts)


def test_version_matches_pyproject():
    # a regex, not tomllib: Python 3.10 has no tomllib
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    match = re.search(r'^version\s*=\s*"([^"]+)"', text, re.MULTILINE)
    assert match is not None
    assert fdosc.__version__ == match.group(1)


# ---- sampling ----------------------------------------------------------


def _gamma_sample_loop(rng, count):
    """Reference for harness._gamma_sample: one scalar draw per coordinate,
    the top 53 bits of an 8-byte little-endian word."""
    def draw():
        return -20.0 + 40.0 * ((int.from_bytes(rng.randbytes(8), "little") >> 11) * 2.0**-53)

    zs = []
    for _ in range(count):
        z = complex(draw(), draw())
        if abs(z.imag) < 1e-2 and abs(z.real - round(z.real)) < 1e-2:
            continue
        zs.append(z)
    return np.array(zs, dtype=complex)


@pytest.mark.parametrize("seed", [harness._SEED, 12345])
def test_gamma_sample_matches_scalar_draws(seed):
    rng, rng_loop = random.Random(seed), random.Random(seed)
    for _ in range(3):
        z = harness._gamma_sample(rng, 1000)
        assert z.tobytes() == _gamma_sample_loop(rng_loop, 1000).tobytes()
    assert rng.getstate() == rng_loop.getstate()
    # one seed, one sample: a fresh generator gives the same bytes again
    again = random.Random(seed)
    for _ in range(2):
        harness._gamma_sample(again, 1000)
    assert harness._gamma_sample(again, 1000).tobytes() == z.tobytes()


class _Replay:
    """Stands in for random.Random: randbytes() hands out, in order, the
    53-bit words that harness._uniform maps to fixed numbers on [-20, 20)."""

    def __init__(self, values):
        words = [round((v + 20.0) / 40.0 * 2**53) << 11 for v in values]
        self.data = b"".join(w.to_bytes(8, "little") for w in words)

    def randbytes(self, n):
        out, self.data = self.data[:n], self.data[n:]
        return out


def test_gamma_sample_drops_points_near_poles():
    # (re, im) pairs: near 3, kept, near -2, kept (im too large), at -7
    values = [3.004, 0.001, 0.5, 0.001, -2.0, -0.009, 2.995, 0.02, -7.0, 0.0]
    z = harness._gamma_sample(_Replay(values), 5)
    assert z == pytest.approx([0.5 + 0.001j, 2.995 + 0.02j], rel=0, abs=1e-14)
    assert z.tobytes() == _gamma_sample_loop(_Replay(values), 5).tobytes()


def _specfun_residuals(seed):
    return {check_id: worst for check_id, _, worst in harness._checks_specfun(seed)}


def test_specfun_checks_pass_at_30_seeds_of_their_sample_distribution():
    # the verdict rests on the identities, not on the one sample set that
    # _SEED draws: read as |recurrence - sum| / (1 + |sum|) against 1e-12,
    # cdhahn symmetry fails at about a third of such seeds
    for seed in range(30):
        for check_id, worst in _specfun_residuals(seed).items():
            assert worst <= harness.CHECKS[check_id].tolerance, (seed, check_id, worst)


@pytest.mark.parametrize("k", [0, 1, 3])
def test_gamma_checks_see_a_relative_1e12_error_in_a_lanczos_coefficient(monkeypatch, k):
    # at 1e-11 both gamma checks let each of these plants pass: on _SEED's
    # 1000 points they read 1.5e-12 (k = 0), 8.4e-12 (k = 1) and 2.0e-12
    # (k = 3); at 1e-12 the degree recurrence let k = 0 pass, at 1.6e-13
    gamma_checks = ("specfun_gamma_recurrence", "specfun_gamma_reflection",
                    "specfun_degree_recurrence")
    exact = _specfun_residuals(harness._SEED)
    coefficients = list(specfun._LANCZOS_C)
    coefficients[k] *= 1.0 + 1e-12
    monkeypatch.setattr(specfun, "_LANCZOS_C", tuple(coefficients))
    monkeypatch.setattr(specfun, "_LANCZOS_TAIL", np.array(coefficients[1:]))
    planted = _specfun_residuals(harness._SEED)
    for check_id in gamma_checks:
        tolerance = harness.CHECKS[check_id].tolerance
        assert exact[check_id] <= tolerance < planted[check_id], (check_id, planted)


def test_gamma_checks_report_the_points_they_read():
    # seed 10 draws one of its 1000 points within 1e-2 of a pole
    assert len(harness._gamma_sample(random.Random(10), 1000)) == 999
    params = {check_id: p for check_id, p, _ in harness._checks_specfun(10)}
    assert params["specfun_gamma_recurrence"]["points"] == 999
    assert params["specfun_gamma_reflection"]["points"] == 999


@pytest.mark.parametrize("relative", [5e-14, 2e-13])
@pytest.mark.parametrize("row", range(1, 7))
def test_cdhahn_symmetry_sees_a_small_relative_error_in_one_row(monkeypatch, row, relative):
    # read as |recurrence - sum| / (1 + |sum|) against 1e-12, the check let a
    # 2e-13 relative error in every row pass, on a sample set of this
    # distribution where it read 6.8e-14 unplanted
    exact = specfun.cdhahn_rows

    def planted(*args):
        rows = exact(*args)
        rows[row] *= 1.0 + relative
        return rows

    tolerance = harness.CHECKS["specfun_cdhahn_symmetry"].tolerance
    assert _specfun_residuals(harness._SEED)["specfun_cdhahn_symmetry"] <= tolerance
    monkeypatch.setattr(specfun, "cdhahn_rows", planted)
    assert _specfun_residuals(harness._SEED)["specfun_cdhahn_symmetry"] > tolerance


# ---- operator identities on their coefficients -------------------------


def test_identity_residual_scales_by_the_parts_that_cancel():
    big = 1e8 * mul_op(coordinate())
    assert harness._operator_residual(big.terms, (-big).terms) == 0.0
    # a term one part alone carries reads |c| / (1 + |c|)
    assert harness._operator_residual(big.terms, (-big).terms, (3.0 * shift_op(1j)).terms) == 0.75
    assert harness._operator_residual() == 0.0
    # parts over different poles are lifted to their common denominator:
    # 1/rho - 1/(rho + i) = i/(rho (rho + i)), and an error d in the right
    # side reads |d| / (1 + 1 + |1 + d|) at power 0, where the lifted
    # numerators rho + i, -rho and -(1 + d) i have sizes and magnitudes 1, 0
    # and |1 + d|
    def parts(d):
        return (mul_op(monomial(-1)).terms, (-mul_op(monomial(-1, at=-1j))).terms,
                mul_op(-(1.0 + d) * 1j * monomial(-1) * monomial(-1, at=-1j)).terms)
    assert harness._operator_residual(*parts(0.0)) == 0.0
    assert harness._operator_residual(*parts(1e-3)) == pytest.approx(1e-3 / 3.001, rel=1e-12)


def test_operator_identities_read_no_grid(monkeypatch):
    # the rel and plane-wave identities read coefficients alone: no rational
    # function is evaluated at any point on the way
    def refuse(rationals):
        raise AssertionError("an identity evaluated a coefficient")

    monkeypatch.setattr(opcore, "_evaluator", refuse)
    model = rel.make_rel_model(0.6, 0.2)
    H, (B_minus, B_plus) = rel.hamiltonian_rel(model), rel.ladder_B(model)
    assert harness._operator_residual(
        *harness._rel_bracket(H, B_minus), (2.0 * model.omega0 * B_minus).terms) < 1e-15
    assert harness._operator_residual(
        *harness._rel_bracket(B_minus, B_plus), (-rel.BB_commutator_rhs(model)).terms) < 1e-15


def test_laurent_residual_reads_every_key_in_one_array_pass():
    # nonrel dict parts, keyed by (order, power): each c one power with sizes
    # |c|, so the reading is the same floats as a max over keys of
    # |sum c| / (1 + sum |c|), key by key, with every reading its own part
    rng = random.Random(3)
    readings = [(rng.randrange(7), rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1))
                for _ in range(40)]
    sums, sizes = {}, {}
    for key, c in readings:
        sums[key] = sums.get(key, 0.0) + c
        sizes[key] = sizes.get(key, 0.0) + abs(c)
    by_key = max(float(np.abs(sums[k]) / (1.0 + sizes[k])) for k in sums)
    assert harness._operator_residual(*({(0, key): c} for key, c in readings)) == by_key
    assert harness._operator_residual() == 0.0


def test_state_residual_reads_each_power_against_the_reference_norm():
    # |g_p - ref_p| / (N + sizes_p + |ref_p|), N the row's largest |ref_p|,
    # 1 for a zero reference row
    rows = np.array([[1.0, 2.0, 0.0], [0.0, 1e-3, 0.0]], dtype=complex)
    sizes = np.array([[1.0, 4.0, 0.5], [0.0, 1.0, 0.0]])
    reference = np.array([[1.0, 1.5, 0.0], [0.0, 0.0, 0.0]], dtype=complex)
    assert harness._state_residual(rows[:1], sizes[:1], reference[:1]) == 0.5 / 7.0
    assert harness._state_residual(rows[1:], sizes[1:], reference[1:]) == 1e-3 / 2.0
    assert harness._state_residual(rows, sizes, reference) == 0.5 / 7.0


def _term_residuals(*parts):
    """harness._operator_residual of each shift alone."""
    shifts = {t.shift for part in parts for t in part}
    return {shift: harness._operator_residual(*([t for t in part if t.shift == shift]
                                                for part in parts)) for shift in shifts}


DIGEST_COUPLINGS = [(0.5, 0.1), (0.9, 0.05), (0.35, 0.6), (0.6, 0.2)]
# the corners of perfbench's box: omega0 in [0.3, 1.2], 8 g0 omega0^2 in [0.05, 0.92]
BOX_CORNERS = [(w0, k / (8.0 * w0 * w0)) for w0 in (0.3, 1.2) for k in (0.05, 0.92)]


@pytest.mark.parametrize("couplings", DIGEST_COUPLINGS)
def test_each_adjudication_misses_only_at_its_named_terms(couplings):
    model = rel.make_rel_model(*couplings)
    H = rel.hamiltonian_rel(model)
    b_minus, b_plus = rel.ladder_b(model)
    B_compact, _ = rel.ladder_B_compact(model)
    B_minus, _ = rel.ladder_B(model)
    B_printed = B_minus + rel.printed_tail(model)
    adjudications = [
        # the literal H^2 tail misses by a constant: the shift-0 term
        ((*harness._rel_bracket(H, B_printed), (2.0 * model.omega0 * B_printed).terms), {0j}),
        # the printed [b-, b+] right-hand side: its e^{i d} coefficient
        ((*harness._rel_bracket(b_minus, b_plus), (-rel.bb_commutator_rhs(model)).terms),
         {1j}),
        # the compact form: its e^{-+i d} coefficients
        ((B_compact.terms, (-B_minus).terms), {1j, -1j}),
    ]
    # read on coefficients, the missed terms read 0.42 to 0.67 (the
    # uncorrected tail 1/2, the printed [b-, b+] 0.42 to 0.58, the compact
    # form 1/2 at -i and 0.57 to 0.67 at i), the others at most 7.5e-17
    for parts, missed in adjudications:
        residuals = _term_residuals(*parts)
        assert {shift for shift, r in residuals.items() if r > 1e-14} == missed
        assert min(residuals[s] for s in missed) > 0.3


IDENTITY_CHECKS = [
    "nonrel_factorization", "nonrel_pair_commutator", "nonrel_weighted_commutator",
    "nonrel_lowering_forms_agree", "nonrel_lowering_commutator", "nonrel_su11_closure",
    "rel_factorization_random", "rel_momentum_commutator", "rel_mass_shell_free",
    "rel_two_step_commutator", "rel_lowering_commutator_uncorrected",
    "rel_pair_commutator_printed", "rel_compact_form_comparison",
    "rel_lowering_commutator", "rel_raising_commutator", "nonrel_casimir",
]


# (0.01, 1000): alpha = 53 and nu = 86, where the products in [H, B-+] and
# [B-, B+] carry sizes of 1e9 beside coefficients that cancel to 7e-9
@pytest.mark.parametrize("couplings", DIGEST_COUPLINGS + BOX_CORNERS + [(0.01, 1000.0)])
def test_hard_identities_hold_to_rounding(couplings):
    results = {r.check_id: r for r in harness.run_suite(*couplings, n_max=1).results}
    hard = [cid for cid in IDENTITY_CHECKS if harness.CHECKS[cid].gating]
    assert len(hard) == 13
    assert {cid: results[cid].max_residual for cid in hard if results[cid].max_residual > 1e-13} \
        == {}


def _planted(monkeypatch, module, name, plant):
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: plant(original(*args)))


@pytest.mark.parametrize("g0", [0.1, 1e-6])
def test_a_planted_error_in_the_exponent_fails_ground_annihilation(g0, monkeypatch):
    # the gauge takes p(p-1), p = d + 1/2, as 2 g0, so the gauged operators no
    # longer see an error in d; nonrel_ground_annihilation reads the indicial
    # relation p(p-1) = 2 g0 itself, which catches d + 1e-13
    _planted(monkeypatch, nonrel, "make_model",
             lambda model: nonrel.NonRelModel(model.g0, model.d + 1e-13))
    results = {r.check_id: r for r in harness.run_suite(0.5, g0, n_max=6).results}
    assert not results["nonrel_ground_annihilation"].passed


# One plant table.  A row plants c times an error term in one operator, its
# site, and reads one check at each of its couplings at n_max: (check id,
# site, couplings, n_max, {term: the c that must fail the check, or why the
# check is blind to the term}).  A term is T(s) in a rel or plane-wave site,
# xi^p D^m in a nonrel one; a blind term is planted at 1e-6 and must pass.
# Each c is the smallest decade, from 1e-3 down to the scan floor 1e-16, at
# which every one of the row's couplings reads over 1.001 times the
# tolerance.  Most readings are linear in c, so a check whose reading lost a
# decade of sensitivity fails some row.
_ONE, _DIGEST = [(0.5, 0.1)], DIGEST_COUPLINGS
PLANT_TABLE = [
    # operator identities, at n_max 1
    ("rel_two_step_commutator", "BB_rhs", _DIGEST, 1,
     {"0": 1e-10, "i": 1e-9, "-i": 1e-9, "2i": 1e-10}),
    ("rel_two_step_commutator", "B-", _DIGEST, 1,
     {"0": "c I commutes with B+", "i": 1e-10, "-i": 1e-10, "2i": 1e-11}),
    ("rel_lowering_commutator", "B-", _DIGEST, 1, {"0": 1e-7, "i": 1e-7, "-i": 1e-7, "2i": 1e-9}),
    ("rel_raising_commutator", "B+", _DIGEST, 1, {"0": 1e-7, "i": 1e-7, "-i": 1e-7, "2i": 1e-9}),
    ("rel_factorization_random", "H", _DIGEST, 1, {"0": 1e-6, "i": 1e-6, "-i": 1e-6, "2i": 1e-6}),
    ("rel_momentum_commutator", "H", _DIGEST, 1,
     {"0": "c I commutes with rho", "i": 1e-9, "-i": 1e-9, "2i": 1e-10}),
    ("rel_momentum_commutator", "P", _DIGEST, 1, {"0": 1e-9, "i": 1e-9, "-i": 1e-9, "2i": 1e-9}),
    # the plane-wave group reads no coupling
    ("rel_mass_shell_free", "H0", _ONE, 1, {"0": 1e-11, "i": 1e-11, "-i": 1e-11, "2i": 1e-11}),
    ("planewave_eigen", "H0", _ONE, 1, {"0": 1e-12, "i": 1e-12, "-i": 1e-13, "2i": 1e-13}),
    ("nonrel_factorization", "nonrel H", _ONE, 1,
     {"1": 1e-9, "xi2": 1e-9, "xi-2": 1e-9, "D": 1e-9}),
    ("nonrel_pair_commutator", "c-", _ONE, 1,
     {"1": "a constant commutes with c+", "xi2": 1e-10, "xi-2": 1e-10, "D": 1e-9}),
    ("nonrel_pair_commutator", "c+", _ONE, 1,
     {"1": "a constant commutes with c-", "xi2": 1e-10, "xi-2": 1e-10, "D": 1e-9}),
    ("nonrel_weighted_commutator", "c-", _ONE, 1,
     {"1": 1e-9, "xi2": 1e-9, "xi-2": 1e-9, "D": 1e-8}),
    ("nonrel_lowering_forms_agree", "A-", _ONE, 1,
     {"1": 1e-9, "xi2": 1e-9, "xi-2": 1e-9, "D": 1e-9}),
    ("nonrel_lowering_commutator", "A-", _ONE, 1,
     {"1": 1e-8, "xi2": 1e-8, "xi-2": 1e-9, "D": 1e-9}),
    # xi^2 in K0 reads 1.0000001 times the tolerance at 1e-9: rounding, not a catch
    ("nonrel_su11_closure", "K0", _ONE, 1, {"1": 1e-9, "xi2": 1e-8, "xi-2": 1e-9, "D": 1e-9}),
    ("nonrel_casimir", "K0", _ONE, 1, {"1": 1e-8, "xi2": 1e-8, "xi-2": 1e-9, "D": 1e-8}),
    # nonrel eigenstate checks, on L_n's coefficients
    ("nonrel_eigen_equation", "nonrel H", _ONE, 6,
     {"1": 1e-11, "xi2": 1e-11, "xi-2": 1e-11, "D": 1e-11}),
    ("nonrel_ground_annihilation", "c-", _ONE, 6,
     {"1": 1e-13, "xi2": 1e-13, "xi-2": 1e-13, "D": 1e-13}),
    ("nonrel_ladder_coefficient", "K+", _ONE, 6,
     {"1": 1e-11, "xi2": 1e-12, "xi-2": 1e-12, "D": 1e-12}),
    ("nonrel_ladder_reconstruction", "K+", _ONE, 6,
     {"1": 1e-12, "xi2": 1e-12, "xi-2": 1e-12, "D": 1e-13}),
    # rel eigenstate checks, on S_n's coefficients.  B-+ are built from H, so
    # an error in H reaches every check.  In the P gauge c T(-2i) in H reaches
    # powers of rho that c D S and every other term of H miss; _step reads
    # those against the row's largest |u D S|, so the readings scale with c
    ("rel_eigen_equation", "H", _ONE, 6,
     {"0": 1e-7, "i": 1e-8, "-i": 1e-9, "2i": 1e-10, "-2i": 1e-10}),
    ("rel_ground_annihilation", "H", _ONE, 6,
     {"0": 1e-10, "i": 1e-11, "-i": 1e-11, "2i": 1e-12, "-2i": 1e-11}),
    ("rel_ground_annihilation", "B-", _ONE, 6,
     {"0": 1e-9, "i": 1e-10, "-i": 1e-10, "2i": 1e-11, "-2i": 1e-11}),
    ("rel_ladder_coefficient", "H", _ONE, 6,
     {"0": 1e-6, "i": 1e-7, "-i": 1e-7, "2i": 1e-8, "-2i": 1e-8}),
    ("rel_ladder_coefficient", "B-", _ONE, 6,
     {"0": 1e-5, "i": 1e-6, "-i": 1e-6, "2i": 1e-7, "-2i": 1e-7}),
    ("rel_ladder_coefficient", "B+", _ONE, 6,
     {"0": 1e-5, "i": 1e-5, "-i": 1e-5, "2i": 1e-6, "-2i": 1e-6}),
    ("rel_ladder_consistency", "H", _ONE, 6,
     {"0": 1e-6, "i": 1e-7, "-i": 1e-7, "2i": 1e-8, "-2i": 1e-8}),
    ("rel_ladder_consistency", "B-", _ONE, 6,
     {"0": 1e-5, "i": 1e-6, "-i": 1e-6, "2i": 1e-7, "-2i": 1e-7}),
    ("rel_ladder_consistency", "B+", _ONE, 6,
     {"0": 1e-5, "i": 1e-5, "-i": 1e-5, "2i": 1e-6, "-2i": 1e-6}),
    # on measured b_n^2, c I in B+ changes [K-, K+] by only
    # c B- (1/f(E_(n+1)) - 1/f(E_n)), so rel_su11_closure catches c T(0) in
    # B-+ from 1e-5 only, and rel_casimir from 1e-7 in B- and 1e-8 in B+
    ("rel_su11_closure", "H", _ONE, 6,
     {"0": 1e-6, "i": 1e-7, "-i": 1e-8, "2i": 1e-9, "-2i": 1e-9}),
    ("rel_su11_closure", "B-", _ONE, 6,
     {"0": 1e-5, "i": 1e-6, "-i": 1e-6, "2i": 1e-7, "-2i": 1e-7}),
    ("rel_su11_closure", "B+", _ONE, 6,
     {"0": 1e-5, "i": 1e-6, "-i": 1e-6, "2i": 1e-6, "-2i": 1e-7}),
    ("rel_casimir", "H", _ONE, 6, {"0": 1e-9, "i": 1e-9, "-i": 1e-10, "2i": 1e-11, "-2i": 1e-12}),
    ("rel_casimir", "B-", _ONE, 6, {"0": 1e-7, "i": 1e-8, "-i": 1e-9, "2i": 1e-9, "-2i": 1e-10}),
    ("rel_casimir", "B+", _ONE, 6, {"0": 1e-8, "i": 1e-8, "-i": 1e-9, "2i": 1e-9, "-2i": 1e-10}),
    ("rel_ladder_reconstruction", "H", _ONE, 6,
     {"0": 1e-6, "i": 1e-6, "-i": 1e-7, "2i": 1e-7, "-2i": 1e-7}),
    ("rel_ladder_reconstruction", "B+", _ONE, 6,
     {"0": 1e-5, "i": 1e-5, "-i": 1e-6, "2i": 1e-6, "-2i": 1e-7}),
    # half shifts in b-+, which B-+ carry too; "b- alone" holds B-+ exact, so
    # rel_ground_annihilation sees the error through T(-i/2) b- S_0 alone
    ("rel_factorization_eigen", "b+", _DIGEST, 6, {"i/2": 1e-10, "-i/2": 1e-11}),
    ("rel_factorization_eigen", "b-", _DIGEST, 6, {"i/2": 1e-11, "-i/2": 1e-11}),
    ("rel_ground_annihilation", "b-", _DIGEST, 6, {"i/2": 1e-10, "-i/2": 1e-11}),
    ("rel_ground_annihilation", "b- alone", _DIGEST, 6, {"i/2": 1e-9, "-i/2": 1e-10}),
]
_ERRORS = {  # term -> s of T(s), or (m, p) of xi^p D^m
    "0": 0j, "i": 1j, "-i": -1j, "2i": 2j, "-2i": -2j, "i/2": 0.5j, "-i/2": -0.5j,
    "1": (0, 0), "xi2": (0, 2), "xi-2": (0, -2), "D": (1, 0)}
_SITES = {  # site -> (module, builder, where in the builder's output the site is)
    "H": (rel, "hamiltonian_rel", None), "P": (rel, "momentum_P", None),
    "BB_rhs": (rel, "BB_commutator_rhs", None), "B-": (rel, "ladder_B", 0),
    "B+": (rel, "ladder_B", 1), "b-": (rel, "ladder_b", 0), "b+": (rel, "ladder_b", 1),
    "b- alone": (rel, "ladder_b", 0), "H0": (planewave, "free_hamiltonian", None),
    "nonrel H": (nonrel, "hamiltonian", None), "c-": (nonrel, "ladder_c", 0),
    "c+": (nonrel, "ladder_c", 1), "A-": (nonrel, "ladder_A", 0),
    "K0": (nonrel, "su11_generators", 0), "K+": (nonrel, "su11_generators", 2)}
_GROUPS = {  # the check group each site's module feeds, at couplings and levels
    rel: lambda at, levels: harness._checks_rel(*at, levels, default_grid()),
    nonrel: lambda at, levels: harness._checks_nonrel(at[1], levels),
    planewave: lambda at, levels: harness._checks_planewave(default_grid())}


def _plant(patch, site, error):
    """Add error to the operator at site, as its builder returns it."""
    module, builder, at = _SITES[site]
    add = nonrel.added if module is nonrel else operator.add
    if site == "b- alone":  # ladder_B reads a copy of rel's names made before the plant
        patch.setattr(rel, "ladder_B", types.FunctionType(rel.ladder_B.__code__, dict(vars(rel))))
    _planted(patch, module, builder, lambda out: add(out, error) if at is None
             else (*out[:at], add(out[at], error), *out[at + 1:]))


def _readings(module=rel, at=(0.5, 0.1), n_max=6, wanted=None):
    """Each residual of the check group that module feeds, under the plants
    in place: the whole group, or up to the last check in wanted."""
    levels = {cid: c.levels.at(n_max) for cid, c in harness.CHECKS.items() if c.levels}
    readings = {}
    for cid, _, worst, *_ in _GROUPS[module](at, levels):
        readings[cid] = worst
        if wanted is not None and wanted <= readings.keys():
            break
    return readings


_TABLE_CHECKS = {  # module -> the checks PLANT_TABLE reads from its group
    module: {check for check, site, *_ in PLANT_TABLE if _SITES[site][0] is module}
    for module in _GROUPS}


@functools.cache
def _clean_readings(module, at, n_max):
    """_readings of PLANT_TABLE's checks with no plant in place."""
    return _readings(module, at, n_max, _TABLE_CHECKS[module])


def _readings_with(site, term, c, at=(0.5, 0.1), n_max=6, wanted=None):
    """_readings with c times term planted at site."""
    module, key = _SITES[site][0], _ERRORS[term]
    with pytest.MonkeyPatch.context() as patch:
        _plant(patch, site, {key: c} if module is nonrel else c * shift_op(key))
        return _readings(module, at, n_max, wanted)


@functools.cache
def _planted_readings(site, term, c, at, n_max):
    """_readings of PLANT_TABLE's checks with c times term planted at site,
    run once per plant, whichever rows it serves."""
    return _readings_with(site, term, c, at, n_max, _TABLE_CHECKS[_SITES[site][0]])


def _cell_name(check, site, term, at):
    """(test, id) that a cell, one row's term at one of its couplings, runs
    under: the names the four tables this one replaced gave it."""
    if site == "b- alone":
        return site, f"couplings{DIGEST_COUPLINGS.index(at)}"
    if site in ("b-", "b+"):
        return "half shift", f"{site}@{term}-couplings{DIGEST_COUPLINGS.index(at)}"
    if harness.CHECKS[check].levels is None:
        return "identity", check
    if check.startswith("nonrel"):
        return "nonrel", f"{term}-{check}"
    return "rel", f"{site}@{term}"


def _plant_test(test):
    """The plant test over the cells _cell_name gives test: each cell's check
    passes clean, fails with its term planted at its c, and passes with a
    blind term planted at 1e-6."""
    cells = {}
    for check, site, couplings, n_max, sizes in PLANT_TABLE:
        for term, c in sizes.items():
            for at in couplings:
                name, cell_id = _cell_name(check, site, term, at)
                if name == test:
                    cells.setdefault(cell_id, []).append((check, site, term, at, n_max, c))

    @pytest.mark.parametrize("cell_id", sorted(cells))
    def plant_test(cell_id):
        for check, site, term, at, n_max, c in cells[cell_id]:
            tolerance = harness.CHECKS[check].tolerance
            assert _clean_readings(_SITES[site][0], at, n_max)[check] <= tolerance, check
            blind = isinstance(c, str)
            reading = _planted_readings(site, term, 1e-6 if blind else c, at, n_max)[check]
            assert (reading <= tolerance) == blind, (check, site, term, at, reading)
    return plant_test


# the one plant test under the five names the four tables' tests had, so
# that every cell keeps its test id
test_a_planted_one_term_error_fails_its_check = _plant_test("identity")
test_a_planted_error_fails_each_nonrel_eigenstate_check = _plant_test("nonrel")
test_a_planted_error_fails_each_rel_eigenstate_check = _plant_test("rel")
test_a_planted_half_shift_error_fails_each_half_shift_reading = _plant_test("half shift")
test_b_minus_phi0_alone_sees_a_half_shift_error_in_b_minus = _plant_test("b- alone")


def test_checks_rel_applies_no_operator_to_a_function(monkeypatch):
    # every rel eigenstate check reads S_n's coefficients, b- phi_0 as
    # T(-i/2) b- S_0; only the leaf itself is evaluated on the grid
    applied, call = [], opcore.DifferenceOperator.__call__

    def recording(op, f):
        applied.append([t.shift for t in op.terms])
        return call(op, f)

    monkeypatch.setattr(opcore.DifferenceOperator, "__call__", recording)
    _readings()  # the whole group
    assert applied == []


@pytest.mark.parametrize("planted", ["one row", "every row"])
def test_a_relative_error_in_the_leaf_rows_fails_the_eigen_equation(planted, monkeypatch):
    # the leaf is read against P S_n: 1e-7 relative, ten times the tolerance,
    # in row 3 alone and constant (which no eigen equation sees), or in every
    # row and varying with the point
    leaf = rel.eigenfunctions

    def wrong(model, ns):
        values = leaf(model, ns).values
        if planted == "one row":
            scale = np.array([1.0 + 1e-7 if n == 3 else 1.0 for n in ns])[:, None]
            return from_callable(lambda z: values(z) * scale)
        return from_callable(lambda z: values(z) * (1.0 + 1e-7 * z / 8.0))

    monkeypatch.setattr(rel, "eigenfunctions", wrong)
    assert _readings()["rel_eigen_equation"] > harness.CHECKS["rel_eigen_equation"].tolerance


# Gating checks planted other than by a row of PLANT_TABLE: the test that
# plants each, or why no error can be planted in it
_PLANTED_ELSEWHERE = {
    **dict.fromkeys(
        ("specfun_gamma_recurrence", "specfun_gamma_reflection", "specfun_degree_recurrence"),
        test_gamma_checks_see_a_relative_1e12_error_in_a_lanczos_coefficient),
    "specfun_cdhahn_symmetry": test_cdhahn_symmetry_sees_a_small_relative_error_in_one_row,
    "nonrel_spectrum_oracle": test_spectrum_oracle_check_sees_a_relative_1e_9_error,
    "nonrel_ground_annihilation": test_a_planted_error_in_the_exponent_fails_ground_annihilation,
    "rel_eigen_equation": test_a_relative_error_in_the_leaf_rows_fails_the_eigen_equation,
    "planewave_mass_shell": "cosh(chi)^2 - sinh(chi)^2 - 1 on floats: no operator",
    "rel_momentum_sign_free_limit": "P_free is built inline in harness._checks_planewave",
    "rel_energies_above_rest": "E_0 >= 1 read from rel.energy: no operator",
    **dict.fromkeys(
        ("rel_nonrel_limit_linear", "rel_nonrel_limit_quadratic", "rel_nonrel_limit_exponent"),
        "rel energies and alpha at small omega0 against nonrel: no operator"),
}


def test_every_gating_check_has_a_plant():
    planted = {check for check, *_ in PLANT_TABLE} | set(_PLANTED_ELSEWHERE)
    assert {cid for cid, check in harness.CHECKS.items() if check.gating} - planted == set()


# Every site of PLANT_TABLE with each term of its kind: whole shifts in the rel
# and plane-wave operators, half shifts in b-+, xi^p D^m in the nonrel ones
_SWEEP = [(site, term) for site, (module, *_) in _SITES.items()
          for term in (("i/2", "-i/2") if site in ("b-", "b+", "b- alone")
                       else ("1", "xi2", "xi-2", "D") if module is nonrel
                       else ("0", "i", "-i", "2i", "-2i"))]


@pytest.mark.parametrize("couplings", DIGEST_COUPLINGS)
def test_an_error_far_below_rounding_fails_no_check(couplings):
    # each reading scales with the error, so 1e-300 of any term at any site
    # reads far below every tolerance: no power is read against the error's
    # own size alone
    failed = [(site, term, cid, reading) for site, term in _SWEEP
              for cid, reading in _readings_with(site, term, 1e-300, couplings).items()
              if harness.CHECKS[cid].gating and not reading <= harness.CHECKS[cid].tolerance]
    assert failed == []


def test_every_planted_reading_scales_with_the_error():
    # a gating reading the plant moves above rounding reads 10x at 1e-9 what
    # it reads at 1e-10, within 20%
    clean = {module: _readings(module) for module in _GROUPS}
    scaled = {}
    for site, term in _SWEEP:
        big, small = (_readings_with(site, term, c) for c in (1e-9, 1e-10))
        scaled.update({(site, term, cid): big[cid] / small[cid] for cid, reading in big.items()
                       if harness.CHECKS[cid].gating and reading > 1e-13
                       and reading != clean[_SITES[site][0]][cid]})
    assert len(scaled) > 200
    assert {key: ratio for key, ratio in scaled.items() if not 8.0 <= ratio <= 12.0} == {}


@pytest.mark.parametrize("couplings", DIGEST_COUPLINGS)
def test_the_compact_form_misses_at_shifts_plus_and_minus_i_alone(couplings):
    # B_compact - B-, shift by shift: rounding at shift 0, where the printed
    # 2 g0/(rho^2 + 1) term acts, 0 at +-2i, and a miss of order 1 at +-i
    # (0.57 to 0.67 at i); at -i the difference is -(i rho + 1/2), with no
    # coupling in it, which reads 1/2
    model = rel.make_rel_model(*couplings)
    B_compact, _ = rel.ladder_B_compact(model)
    B_minus, _ = rel.ladder_B(model)
    pts = default_grid()
    residuals = _term_residuals(B_compact.terms, (-B_minus).terms)
    assert residuals[0j] < 1e-15 and residuals[2j] == residuals[-2j] == 0.0
    assert min(residuals[1j], residuals[-1j]) > 0.45
    (missed,) = [t.coeff for t in (B_compact - B_minus).terms if t.shift == -1j]
    assert np.max(np.abs(missed(pts) + (1j * pts + 0.5))) <= 1e-15 * np.max(np.abs(pts))


def _laurent_row(g: dict, low: int, width: int) -> np.ndarray:
    """The Laurent sum {power: coefficient} as one row from xi^low."""
    row = np.zeros((1, width), dtype=complex)
    for p, c in g.items():
        row[0, p - low] = c
    return row


# the g0 of the four digest couplings, and three far from them
@pytest.mark.parametrize("g0", [0.1, 0.05, 0.6, 0.2, -0.1, 5.0, 1e3])
def test_apply_walk_equals_the_algebra(g0):
    # _applied adds each gauged term's slice of the coefficient rows; the
    # algebra applies each part through derivative() and products of Laurent
    # sums, term by term and part by part.  The two round apart: at each
    # power they differ by at most 4 eps of the sizes there (measured: 1.7
    # eps over these images, 3.4 eps along the tower), so not at all where
    # nothing reaches and the sizes are 0
    model = nonrel.make_model(g0)
    _, Km, Kp = nonrel.su11_generators(model)
    ops = (nonrel.hamiltonian(model), nonrel.ladder_c(model)[0],
           nonrel.ladder_A(model)[0], Km, Kp)
    by_op = [harness._gauged_terms(model, op) for op in ops]

    def algebra(parts, g):
        return sum((_act(part, g) for part in parts), const(0.0))

    def assert_near(image, sizes, g, low, n):
        gap = np.abs(image - _laurent_row(_powers(g), low, image.shape[1]))
        assert np.all(gap <= 4.0 * np.finfo(float).eps * sizes), n

    for n in range(0, 31, 3):
        coeffs = specfun.laguerre_coefficients(n, model.d)
        L = polynomial([coeffs[j // 2] if j % 2 == 0 else 0.0 for j in range(2 * n + 1)])
        for parts in by_op:  # one step down to xi^-2, up to xi^(2n+2)
            image, sizes = harness._applied(parts, _laurent_row(_powers(L), -2, 2 * n + 5), low=-2)
            assert_near(image, sizes, algebra(parts, L), -2, n)
    # along the K+ tower, each image fed back with its sizes: xi^-60 to xi^60
    state, g = (_laurent_row({0: 1.0}, -62, 125), None), const(1.0)
    for n in range(1, 31):
        state, g = harness._applied(by_op[-1], *state, low=-62), algebra(by_op[-1], g)
        assert_near(*state, g, -62, n)


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
