"""One workload in one fresh interpreter (started by run.py).

    python3 perfbench/workload.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/workload.py --setup-only

Prints one JSON object on its last stdout line.  The program's own output
is captured in memory; nothing else is written to stdout.
"""

from __future__ import annotations

import speed

# Set-up is timed from here, before any program import, when this file runs
# as a script; the clock's SIGALRM sampling is not started on import.
CLOCK = speed.SpeedClock()
if __name__ == "__main__":
    CLOCK.start()
_T0 = CLOCK.read()

import argparse
import contextlib
import csv
import gc
import io
import json
import os
import random
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

import fdosc.cli  # noqa: E402  (set-up: numpy and scipy come with it)

fdosc.cli.build_parser()
SETUP_WALL_S, SETUP_S = (b - a for a, b in zip(_T0, CLOCK.read()))

import numpy as np  # noqa: E402
from fdosc import opcore, rel  # noqa: E402

import oracle  # noqa: E402
import stats  # noqa: E402

# ---- inputs ----------------------------------------------------------------

OMEGA0_BOX = (0.3, 1.2)
COUPLING_BOX = (0.05, 0.92)   # 8 g0 omega0^2
VERIFY_NMAX = 6
TOWER_LEVELS = 15             # n = 0 .. 14
TOWER_STRATA = 4
TABLE_N = (0, 12)
TABLE_POINTS = (512, 4096)
TABLE_LO = (0.25, 2.0)
TABLE_HI = (4.0, 8.0)
TABLE_MODELS = ("rel", "nonrel")
TABLE_FORMATS = ("text", "csv", "json")
TABLE_ORACLE_ROWS = 8

# the 42 check ids `verify` reports at the commit that defined this benchmark
VERIFY_CHECK_IDS = frozenset("""
nonrel_casimir nonrel_eigen_equation nonrel_factorization nonrel_ground_annihilation
nonrel_ladder_coefficient nonrel_ladder_reconstruction nonrel_lowering_commutator
nonrel_lowering_forms_agree nonrel_pair_commutator nonrel_spectrum_oracle
nonrel_spectrum_variant nonrel_su11_closure nonrel_weighted_commutator planewave_eigen
planewave_mass_shell rel_casimir rel_compact_form_comparison rel_eigen_equation
rel_energies_above_rest rel_factorization_eigen rel_factorization_random
rel_ground_annihilation rel_ladder_coefficient rel_ladder_coefficient_printed
rel_ladder_consistency rel_ladder_reconstruction rel_lowering_commutator
rel_lowering_commutator_uncorrected rel_mass_shell_free rel_momentum_commutator
rel_momentum_sign_free_limit rel_nonrel_limit_exponent rel_nonrel_limit_linear
rel_nonrel_limit_quadratic rel_pair_commutator_printed rel_raising_commutator
rel_su11_closure rel_two_step_commutator specfun_cdhahn_symmetry
specfun_degree_recurrence specfun_gamma_recurrence specfun_gamma_reflection
""".split())

# the repo's own rel_ladder_reconstruction and rel_eigen_equation tolerances
TOWER_RATIO_TOL = 1e-6
TOWER_RESIDUAL_TOL = 1e-8
# normwise relative error of sampled table rows against the 30-digit oracle
TABLE_ORACLE_TOL = 1e-6


def stratified(rng: random.Random, box, i: int, strata: int) -> float:
    """A seeded value in stratum i mod `strata` of `box`, so that every run
    covers the box evenly whatever its seed (unit cost depends on omega0)."""
    lo, hi = box
    return lo + (i % strata + rng.random()) / strata * (hi - lo)


def coupling(rng: random.Random, i: int = 0, strata: int = 1):
    w0 = stratified(rng, OMEGA0_BOX, i, strata)
    g0 = rng.uniform(*COUPLING_BOX) / (8.0 * w0 * w0)
    return w0, g0


def elapsed(t0):
    """(wall, normalised) seconds since CLOCK.read() gave `t0`."""
    return tuple(b - a for a, b in zip(t0, CLOCK.read()))


def run_cli(argv):
    """Call the CLI as a user would, stdout captured; returns
    ((wall s, normalised s), rc, text).  An exception escaping the CLI fails
    the unit, not the run: rc is then the exception's description."""
    buf = io.StringIO()
    t0 = CLOCK.read()
    try:
        with contextlib.redirect_stdout(buf):
            rc = fdosc.cli.main(argv)
    except Exception as exc:  # noqa: BLE001 -- unit boundary; reported as a failure
        rc = f"{type(exc).__name__}: {exc}"
    return elapsed(t0), rc, buf.getvalue()


class Result:
    """Unit times, gate tallies and the worst residual/tolerance margin."""

    def __init__(self):
        self.unit_s: list[float] = []        # normalised seconds (speed.py)
        self.unit_wall_s: list[float] = []
        self.points = 0
        self.tally = stats.FailureTally()
        self.worst_margin = 0.0
        self.worst_where = ""

    def add_unit(self, times):
        wall, norm = times
        self.unit_wall_s.append(wall)
        self.unit_s.append(norm)

    def margin(self, residual: float, tol: float, where: str):
        if tol > 0:
            m = residual / tol
        else:
            m = 0.0 if residual <= 0 else float("inf")
        if m > self.worst_margin or not self.worst_where:
            self.worst_margin, self.worst_where = m, where


# ---- verify ----------------------------------------------------------------


class Verify:
    """`fdosc verify --nmax 6 --format json` at one seeded coupling per run."""

    min_units = 2          # the byte-determinism gate needs a pair

    def __init__(self, seed: int):
        self.w0, self.g0 = coupling(random.Random(seed))
        self.first_bytes = None

    def run(self, i: int, res: Result, tracer=None):
        argv = ["verify", "--omega0", repr(self.w0), "--g0", repr(self.g0),
                "--nmax", str(VERIFY_NMAX), "--format", "json"]
        times, rc, out = run_cli(argv)
        res.add_unit(times)
        reasons = []
        if rc != 0:
            reasons.append(f"exit status {rc}")
        try:
            report = json.loads(out)
            results = report["results"]
        except (ValueError, KeyError, TypeError):
            reasons.append("unparseable report")
            results = []
        ids = {r.get("check_id") for r in results}
        if ids != VERIFY_CHECK_IDS:
            reasons.append(f"check ids differ: missing {sorted(VERIFY_CHECK_IDS - ids)}, "
                           f"extra {sorted(ids - VERIFY_CHECK_IDS)}")
        if self.first_bytes is None:
            self.first_bytes = out
        elif out != self.first_bytes:
            reasons.append("report bytes differ between units of one coupling")
        for r in results:
            gating = r.get("gating", not str(r.get("note", "")).startswith("report-only"))
            if gating:
                res.margin(float(r["max_residual"]), float(r["tolerance"]), r["check_id"])
        res.tally.record(not reasons, "; ".join(reasons))


# ---- rel-tower -------------------------------------------------------------


class RelTower:
    """Ladder states n = 0..14 against closed forms, one seeded coupling per
    unit: grid ratio spread and H eigen-residual on default_grid()."""

    min_units = 3

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.couplings = []

    def coupling(self, i: int):
        while len(self.couplings) <= i:
            self.couplings.append(coupling(self.rng, len(self.couplings), TOWER_STRATA))
        return self.couplings[i]

    def run(self, i: int, res: Result, tracer=None):
        w0, g0 = self.coupling(i)
        levels = []
        t0 = CLOCK.read()
        model = rel.make_rel_model(w0, g0)
        grid = opcore.default_grid()
        H = rel.hamiltonian_rel(model)
        for n in range(TOWER_LEVELS):
            with (tracer.span(f"rel.level.n{n}") if tracer else contextlib.nullcontext()):
                try:
                    built = rel.ladder_state(model, n)
                    closed = rel.eigenfunction_rel(model, n)
                    _, spread = opcore.grid_ratio(built.wavefunction, closed.wavefunction, grid)
                    lhs = H(built.wavefunction)
                    resid = opcore.mixed_residual(
                        [lhs(p) for p in grid],
                        [built.energy_mc2 * built.wavefunction(p) for p in grid])
                    levels.append((n, spread, resid, ""))
                except (ArithmeticError, ValueError) as exc:
                    levels.append((n, None, None, f"{type(exc).__name__}: {exc}"))
        res.add_unit(elapsed(t0))
        res.points += TOWER_LEVELS * len(grid)
        for n, spread, resid, err in levels:
            if err:
                res.tally.record(False, err)
                continue
            res.margin(spread, TOWER_RATIO_TOL, f"ratio spread n={n}")
            res.margin(resid, TOWER_RESIDUAL_TOL, f"eigen residual n={n}")
            ok = spread <= TOWER_RATIO_TOL and resid <= TOWER_RESIDUAL_TOL
            res.tally.record(ok, f"level n={n} spread {spread:.3g} residual {resid:.3g}")


# ---- tables ----------------------------------------------------------------


def parse_rows(text: str, fmt: str):
    """Rows of a wavefunction table as (coord, re, im, error) tuples."""
    if fmt == "json":
        out = []
        for row in json.loads(text):
            coord = row.get("rho", row.get("xi"))
            out.append((coord, row["re"], row["im"], row["error"]))
        return out
    if fmt == "csv":
        out = []
        for row in csv.DictReader(io.StringIO(text)):
            coord = float(row.get("rho") or row.get("xi"))
            if row["error"]:
                out.append((coord, None, None, row["error"]))
            else:
                out.append((coord, float(row["re"]), float(row["im"]), ""))
        return out
    lines = text.splitlines()[1:]
    out = []
    for line in lines:
        fields = line.split()
        if len(fields) == 4 and "--" not in fields:
            out.append((float(fields[0]), float(fields[1]), float(fields[2]), ""))
        else:
            out.append((float(fields[0]) if fields else None, None, None, line.strip()))
    return out


class Tables:
    """`fdosc wavefunction` with seeded model, level, grid and format."""

    min_units = 10

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.units = []

    def inputs(self, i: int):
        """Blocks of six units, one per (model, format) pair in seeded order,
        with table sizes stratified over the block, so that every run has the
        same mix whatever its seed."""
        r = self.rng
        while len(self.units) <= i:
            block = [(m, f) for m in TABLE_MODELS for f in TABLE_FORMATS]
            sizes = list(range(len(block)))
            r.shuffle(block)
            r.shuffle(sizes)
            for k, (model, fmt) in enumerate(block):
                w0, g0 = coupling(r, k, len(block))
                points = round(stratified(r, TABLE_POINTS, sizes[k], len(block)))
                self.units.append({
                    "model": model, "omega0": w0, "g0": g0, "n": r.randint(*TABLE_N),
                    "lo": r.uniform(*TABLE_LO), "hi": r.uniform(*TABLE_HI),
                    "points": points, "format": fmt, "sample_seed": r.getrandbits(32),
                })
        return self.units[i]

    def run(self, i: int, res: Result, tracer=None):
        u = self.inputs(i)
        argv = ["wavefunction", "--model", u["model"], "--omega0", repr(u["omega0"]),
                "--g0", repr(u["g0"]), "--n", str(u["n"]), "--grid-min", repr(u["lo"]),
                "--grid-max", repr(u["hi"]), "--grid-points", str(u["points"]),
                "--format", u["format"]]
        times, rc, out = run_cli(argv)
        res.add_unit(times)
        res.points += u["points"]
        # everything below is outside the timed region
        expected = u["points"]
        try:
            rows = parse_rows(out, u["format"]) if rc == 0 else []
        except (ValueError, KeyError, TypeError, IndexError):
            rows = []
        if len(rows) != expected:
            res.tally.record(False, f"rc {rc}, {len(rows)} rows for {expected} points",
                             weight=expected)
            return
        grid = np.geomspace(u["lo"], u["hi"], expected)
        bad = {k for k, row in enumerate(rows) if row[3]}
        for k in bad:
            res.tally.record(False, f"error row: {rows[k][3]}")
        # oracle: seeded rows plus the row where |psi| peaks
        good = [k for k in range(expected) if k not in bad]
        picker = random.Random(u["sample_seed"])
        sample = set(picker.sample(good, min(TABLE_ORACLE_ROWS - 1, len(good))))
        if good:
            sample.add(max(good, key=lambda k: abs(complex(rows[k][1], rows[k][2]))))
        checked = []
        for k in sorted(sample):
            coord, re, im = rows[k][:3]
            ref = self._oracle(u, float(grid[k]))
            coord_ok = abs(coord - grid[k]) <= 1e-7 * grid[k]
            checked.append((k, abs(complex(re, im) - ref), abs(ref), coord_ok))
        scale = max((c[2] for c in checked), default=0.0) or 1.0
        for k, err, _, coord_ok in checked:
            res.margin(err / scale, TABLE_ORACLE_TOL,
                       f"{u['model']} n={u['n']} at {grid[k]:.6g} ({u['format']})")
            ok = coord_ok and err <= TABLE_ORACLE_TOL * scale
            res.tally.record(ok, f"oracle mismatch at row {k}: {err / scale:.3g}")
        res.tally.record(True, weight=expected - len(bad) - len(checked))

    @staticmethod
    def _oracle(u, x: float) -> complex:
        if u["model"] == "rel":
            return oracle.rel_eigenfunction(u["n"], u["omega0"], u["g0"], x)
        return oracle.nonrel_eigenfunction(u["n"], u["g0"], x)


WORKLOADS = {"verify": Verify, "rel-tower": RelTower, "tables": Tables}

# units per phase of a traced run (untraced then traced, same inputs)
TRACE_UNITS = {"verify": 1, "rel-tower": 2, "tables": 40}


# ---- measurement -----------------------------------------------------------


def measure(wl, seconds: float, res: Result, first: int = 0, count: int | None = None,
            tracer=None):
    """Run exactly `count` units when given; otherwise at least `min_units`,
    then more while the next one is expected to end within `seconds`.
    Objects are collected between units."""
    start = time.perf_counter()
    i = first
    while True:
        gc.collect()
        wl.run(i, res, tracer)
        i += 1
        if count is not None:
            if i - first >= count:
                return i
        elif i - first >= wl.min_units and \
                time.perf_counter() - start + stats.median(res.unit_wall_s) > seconds:
            return i


def summary(res: Result) -> dict:
    xs = res.unit_s
    tail = stats.tail_percentile(xs)
    total = sum(xs)
    return {
        "unit_s": stats.median(xs),
        "unit_wall_s": stats.median(res.unit_wall_s),
        "units": len(xs),
        "unit_s_tail": None if tail is None else {"percentile": tail[0], "value": tail[1]},
        "points_per_s": res.points / total if total > 0 else None,
        "points": res.points,
        "attempted": res.tally.attempted,
        "failed": res.tally.failed,
        "fail_reasons": dict(sorted(res.tally.reasons.items())[:10]),
        "worst_margin": res.worst_margin,
        "worst_margin_at": res.worst_where,
    }


def per_layer(tracer, units: int, traced_unit_s: float, untraced_unit_s: float) -> dict:
    """Per-layer metrics, per traced unit.  A metric whose hook is gone from
    the program is left out (run.py lists it as absent)."""
    import tracing

    calls, secs = tracer.calls, tracer.seconds     # keyed by present hooks only
    incl, excl = tracer.span_totals()
    spans = {h: incl.get(h, 0.0) for h in calls if h in tracing.SPANS}
    pw = [secs[h] for h in tracing.PLANEWAVE if h in secs]
    fn_calls, fn_outer = calls.get("opcore.fn"), tracer.outer_calls.get("opcore.fn")

    totals = []   # (name, unit, total over traced units, or None if absent)
    for h in ("specfun.log_gamma", "specfun.cdhahn_complex", "specfun.gamma",
              "specfun.laguerre_coefficients", "opcore.compose", "opcore.op_apply",
              "nonrel.eigenfunction"):
        totals += [(f"{h}.calls", "count", calls.get(h)), (f"{h}.s", "s", secs.get(h))]
    totals += [
        ("opcore.fn.calls", "count", fn_calls),
        ("opcore.fn.s", "s", secs.get("opcore.fn")),
        ("opcore.fn.self_s", "s",
         None if fn_calls is None else secs["opcore.fn"] - tracer.specfun_in_fn),
        ("opcore.derivative.calls", "count", calls.get("opcore.derivative")),
        ("opcore.shifted.calls", "count", calls.get("opcore.shifted")),
        ("rel.eigenfunction_rel.calls", "count", calls.get("rel.eigenfunction_rel")),
        ("nonrel.matrix_oracle.s", "s", secs.get("nonrel.matrix_oracle")),
        ("rel.ladder_state.s", "s", secs.get("rel.ladder_state")),
        ("planewave.s", "s", sum(pw) if pw else None),
    ]
    totals += [(f"rel.level_s.n{n}", "s", incl.get(f"rel.level.n{n}", 0.0))
               for n in range(TOWER_LEVELS)]
    totals += [(f"{h}.s", "s", spans.get(h)) for h in (
        "harness.run_suite", "harness.to_json", "harness.wavefunction_table",
        "harness.rows_to_text", "harness.rows_to_csv", "harness.rows_to_json", "cli.main")]
    totals.append(("cli.self_s", "s", excl.get("cli.main", 0.0) if "cli.main" in spans else None))

    m = {name: {"value": total / units, "unit": unit}
         for name, unit, total in totals if total is not None}
    if fn_calls is not None:
        # evaluations per point the workload asked for (outermost calls)
        m["opcore.calls_per_point"] = {"value": fn_calls / fn_outer if fn_outer else 0.0,
                                       "unit": "calls/point"}
    m["trace_overhead"] = {"value": traced_unit_s / untraced_unit_s, "unit": "ratio"}
    return m


def versions() -> dict:
    import mpmath
    import numpy
    import scipy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "mpmath": mpmath.__version__,
            "nproc": os.cpu_count()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args(argv)

    src = os.path.join(ROOT, "src") + os.sep
    if not os.path.abspath(fdosc.cli.__file__).startswith(src):
        print(f"error: fdosc imported from {fdosc.cli.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    if args.setup_only:
        CLOCK.stop()
        print(json.dumps({"setup_s": SETUP_S, "setup_wall_s": SETUP_WALL_S}))
        return 0
    if args.workload is None:
        ap.error("--workload is required")

    wl = WORKLOADS[args.workload](args.seed)
    out = {"workload": args.workload, "seed": args.seed, "setup_s": SETUP_S,
           "setup_wall_s": SETUP_WALL_S, "versions": versions()}
    if args.trace == 0:
        res = Result()
        measure(wl, args.seconds, res)
        out.update(summary(res))
    else:
        import tracing

        n = TRACE_UNITS[args.workload]
        plain = Result()
        measure(wl, 0, plain, first=0, count=n)
        tracer = tracing.Tracer()
        tracer.install()
        traced = Result()
        # same inputs again; for verify this also checks that the traced
        # report is byte-identical to the untraced one
        traced.tally = plain.tally
        measure(wl, 0, traced, first=0, count=n, tracer=tracer)
        tracer.uninstall()
        out.update(summary(traced))
        out["untraced_unit_s"] = stats.median(plain.unit_s)
        out["absent"] = list(tracer.absent)
        out["per_layer"] = per_layer(tracer, n, stats.median(traced.unit_s),
                                     stats.median(plain.unit_s))
        if args.trace_out:
            tracer.dump(args.trace_out, {"workload": args.workload, "seed": args.seed})
    CLOCK.stop()
    out["kernel_s"] = CLOCK.kernel_median()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
