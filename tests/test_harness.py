"""Report plumbing, output formats, CLI behaviour, determinism."""

import io
import json
import math
import re
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import fdosc
from fdosc import cli, harness
from fdosc.harness import CheckResult, VerificationReport


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
        "check_id", "params", "max_residual", "tolerance", "passed", "note"}
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
    rows = harness.spectrum_table("nonrel", {"g0": 0.1}, 2)
    assert [r["n"] for r in rows] == [0, 1, 2]
    assert rows[1]["energy_hw"] - rows[0]["energy_hw"] == pytest.approx(2.0)
    rows = harness.spectrum_table("rel", {"omega0": 0.5, "g0": 0.1}, 1)
    assert rows[0]["energy_mc2"] == pytest.approx(1.8443835774055741)
    assert rows[0]["energy_hw"] == pytest.approx(rows[0]["energy_mc2"] / 0.5)
    with pytest.raises(ValueError):
        harness.spectrum_table("bogus", {}, 2)


def test_wavefunction_table_marks_pole_rows():
    # log_gamma(i rho) pole at rho -> 0 shows up as an error-marked row
    grid = [1e-300, 1.0, 2.0]
    rows = harness.wavefunction_table("rel", {"omega0": 0.5, "g0": 0.1}, 0, grid)
    assert rows[0]["error"] != "" or rows[0]["abs"] is not None
    assert rows[1]["error"] == ""
    assert rows[1]["abs"] == pytest.approx(
        abs(complex(rows[1]["re"], rows[1]["im"])))


def test_row_serializers_round_trip():
    rows = [{"n": 0, "energy_hw": 1.5}, {"n": 1, "energy_hw": 3.5}]
    assert json.loads(harness.rows_to_json(rows)) == rows
    csv_out = harness.rows_to_csv(rows)
    assert csv_out.splitlines()[0] == "n,energy_hw"
    text = harness.rows_to_text(rows)
    assert "energy_hw" in text and "3.5" in text
    assert harness.rows_to_csv([]) == ""
    assert harness.rows_to_text([]) == ""


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


def test_cli_wavefunction_csv():
    code, out = _run_cli(["wavefunction", "--model", "nonrel", "--g0", "0.1",
                          "--n", "1", "--grid-min", "0.5", "--grid-max", "4",
                          "--grid-points", "8", "--format", "csv"])
    assert code == 0
    lines = out.split("\r\n")
    assert lines[0] == "xi,re,im,abs,error"
    assert len([l for l in lines if l]) == 9


def test_cli_wavefunction_rejects_bad_grid():
    code, _ = _run_cli(["wavefunction", "--model", "nonrel", "--g0", "0.1",
                        "--n", "0", "--grid-min", "2.0", "--grid-max", "1.0"])
    assert code == 2


def test_cli_limit_table():
    code, out = _run_cli(["limit", "--g0", "0.1",
                          "--omega0-list", "1e-2,5e-3", "--format", "json"])
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 2
    assert rows[0]["deviation"] > rows[1]["deviation"]


def test_cli_limit_rejects_bad_list():
    code, _ = _run_cli(["limit", "--g0", "0.1", "--omega0-list", "abc"])
    assert code == 2
    code, _ = _run_cli(["limit", "--g0", "0.1", "--omega0-list", ","])
    assert code == 2


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
                          "passed", "note"}


def test_report_only_checks_never_gate(check_by_id):
    # making a hard check report-only loosens a gate, so the set is pinned
    assert {cid for cid, c in harness.CHECKS.items() if not c.gating} == {
        "nonrel_spectrum_variant", "rel_pair_commutator_printed",
        "rel_lowering_commutator_uncorrected", "rel_compact_form_comparison",
        "rel_ladder_coefficient_printed"}
    # the JSON report has no gating field: its readers tell a non-gating row
    # by the "report-only" note prefix, so the prefix marks exactly those rows
    for cid, check in harness.CHECKS.items():
        assert check_by_id[cid]["note"].startswith("report-only") == (not check.gating), cid


def test_run_suite_rejects_nmax_below_one():
    for n_max in (0, -2):
        with pytest.raises(ValueError, match="n_max"):
            harness.run_suite(0.5, 0.1, n_max=n_max)


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
