"""Wall time of `harness.run_suite` in process and of a whole `verify`
process, median and quartiles.

    PYTHONPATH=src python3 tools/suite_timing.py [REPEATS]

Times run_suite(0.6, 0.2) at n_max 6 and 30, where the ladder checks read
6 and 30 levels (harness.LADDER_CAP is 30).  Then splits run_suite(0.6,
0.2) by check group (specfun, planewave, nonrel, rel) and, within each
group, by check id, at the same two n_max, the nonrel K+ tower 30 levels
deep at n_max 30: each group function is wrapped, in this process only, to
time every step of its generator.  A check's time runs from the previous
yield of its group's generator to its own, so the group's set-up counts in
its first check, and a group's time is the sum of its checks'.  Then times
one scalar `rel.ladder_state(model, n)` call at rho = 1.3 at n = 1, 7 and
14, P (B~+)^n 1 stepped on the lattice rho + k i, split into P (one
log_prefactor call), the coefficient block (one call of the gauged B~+'s
coefficient batch) and the steps (the rest of the call), each the mean
over 20 calls, and one build of every rel operator the suite reads
(`rel_operators`).  Then times `rel.ladder_state(model, n)` at the same n:
the build alone and the build with the state's first call at rho = 1.3,
and one lone-point call of the rel leaf, phi_0 at rho = 1.3, each the
mean over 20 calls.  The warm-up call fills ladder_state's cache of the
gauged B~+, so a build is the check of its shifts and the norm constant,
not the construction of B+.  Then times a fresh `python -m
fdosc.cli verify --format json` process, imports included, on the fdosc
this script imported, and reads each process's peak RSS from os.wait4.  Each setting runs once as a
warm-up, then REPEATS times (default 11).  Run it on two source trees to
compare them.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from fdosc import harness, rel

COUPLING = (0.6, 0.2)
LADDER_LEVELS = (1, 7, 14)
LADDER_POINT = 1.3
CALLS = 20  # calls per timed repeat of one ladder layer
N_MAXES = (6, 30)  # each timed whole, then split by group and check
GROUPS = ("specfun", "planewave", "nonrel", "rel")  # harness._checks_<group>


def timings(n_max: int, repeats: int) -> list[float]:
    """Seconds of `repeats` run_suite calls at n_max, after one warm-up
    call."""
    harness.run_suite(*COUPLING, n_max=n_max)
    out = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        harness.run_suite(*COUPLING, n_max=n_max)
        out.append(time.perf_counter() - t0)
    return out


def check_timings(repeats: int, n_max: int = 6) -> dict[str, dict[str, list[float]]]:
    """Seconds each check takes in `repeats` run_suite calls at n_max, by
    group and check id, after one warm-up call: from the previous yield of its group's generator to its
    own, the group's set-up counting in its first check.  The group
    functions are restored afterwards."""
    spent = {group: {} for group in GROUPS}

    def timed(group, check_group):
        def split(*args):
            rows = check_group(*args)
            while True:
                t0 = time.perf_counter()
                row = next(rows, None)
                if row is None:
                    return
                spent[group].setdefault(row[0], []).append(time.perf_counter() - t0)
                yield row
        return split

    default = {group: getattr(harness, f"_checks_{group}") for group in GROUPS}
    for group, check_group in default.items():
        setattr(harness, f"_checks_{group}", timed(group, check_group))
    try:
        for _ in range(repeats + 1):
            harness.run_suite(*COUPLING, n_max=n_max)
    finally:
        for group, check_group in default.items():
            setattr(harness, f"_checks_{group}", check_group)
    return {group: {check_id: seconds[1:] for check_id, seconds in checks.items()}
            for group, checks in spent.items()}


def rel_operators(model) -> tuple:
    """Every rel operator the suite reads, built as it builds them: H, P,
    b-+, B-+, the printed and compact forms, and the right-hand sides of
    the two printed commutators."""
    return (rel.hamiltonian_rel(model), rel.momentum_P(model), rel.ladder_b(model),
            rel.ladder_B(model), rel.printed_tail(model), rel.ladder_B_compact(model),
            rel.bb_commutator_rhs(model), rel.BB_commutator_rhs(model))


def _per_call(fn, repeats: int) -> list[float]:
    """Seconds per call of fn, the mean over CALLS calls, `repeats` times
    after one warm-up call."""
    fn()
    out = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(CALLS):
            fn()
        out.append((time.perf_counter() - t0) / CALLS)
    return out


def ladder_layers(repeats: int) -> dict[int, dict[str, list[float]]]:
    """Seconds of one scalar rel.ladder_state(model, n) call at LADDER_POINT
    at each n of LADDER_LEVELS, by layer: the whole call, P (one
    log_prefactor call and its exp), the coefficient block (one call of the
    gauged B~+'s coefficient batch on the lattice of n - 1 levels) and the
    steps, the call less the other two repeat by repeat."""
    model = rel.make_rel_model(*COUPLING)
    raising = rel._gauged_raising(model)
    z = np.array([complex(LADDER_POINT)])
    layers = {}
    for n in LADDER_LEVELS:
        wf = rel.ladder_state(model, n).wavefunction
        lattice = (z + 1j * np.arange(2 - 2 * n, 2 * n - 1)[:, None]).reshape(-1)  # k = -2(n-1) ... 2(n-1)
        call = _per_call(lambda: wf.values(z), repeats)
        prefactor = _per_call(lambda: np.exp(rel.log_prefactor(model, z)), repeats)
        block = _per_call(lambda: raising.coefficient_batch(lattice), repeats)
        steps = [c - a - b for c, a, b in zip(call, prefactor, block)]
        layers[n] = {"call": call, "P": prefactor, "coefficients": block, "steps": steps}
    return layers


def ladder_states(repeats: int) -> dict[int, dict[str, list[float]]]:
    """Seconds of rel.ladder_state(model, n), P (B~+)^n 1, at each of
    LADDER_LEVELS: the build alone (the check of the gauged B~+'s shifts
    and the norm constant; the warm-up call has cached B~+ for the model),
    and the build with the state's first call at LADDER_POINT."""
    model = rel.make_rel_model(*COUPLING)
    return {n: {"build": _per_call(lambda: rel.ladder_state(model, n), repeats),
                "first call": _per_call(
                    lambda: rel.ladder_state(model, n).wavefunction(LADDER_POINT), repeats)}
            for n in LADDER_LEVELS}


def leaf_call(repeats: int) -> list[float]:
    """Seconds of one lone-point call of the rel leaf: phi_0 at LADDER_POINT."""
    wf = rel.eigenfunction_rel(rel.make_rel_model(*COUPLING), 0).wavefunction
    return _per_call(lambda: wf(LADDER_POINT), repeats)


def process_timings(repeats: int) -> tuple[list[float], list[float]]:
    """Seconds and peak RSS in MB (ru_maxrss from os.wait4) of `repeats`
    fresh `verify --format json` processes, after one warm-up process; a
    nonzero exit raises CalledProcessError."""
    src = str(Path(harness.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    argv = [sys.executable, "-m", "fdosc.cli", "verify", "--format", "json"]
    secs, peaks = [], []
    for _ in range(repeats + 1):
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        secs.append(time.perf_counter() - t0)
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by proc
        if proc.returncode:
            raise subprocess.CalledProcessError(proc.returncode, argv)
        peaks.append(usage.ru_maxrss / 1024.0)  # KB on Linux
    return secs[1:], peaks[1:]


def _summary(label: str, values: list[float], unit: str = "ms", scale: float = 1e3) -> str:
    q1, median, q3 = scale * np.percentile(values, [25, 50, 75])
    return (f"{label}  median {median:7.1f} {unit}  quartiles {q1:7.1f} .. {q3:7.1f} {unit}  "
            f"({len(values)} runs)")


def main(argv) -> int:
    repeats = int(argv[0]) if argv else 11
    if repeats < 1:
        print("error: REPEATS must be >= 1", file=sys.stderr)
        return 2
    for n_max in N_MAXES:
        print(_summary(f"n_max {n_max:2d}", timings(n_max, repeats)), flush=True)
    print("a check's time runs from the previous yield of its group's generator to its "
          "own: the group's set-up counts in its first check", flush=True)
    for n_max in N_MAXES:
        setting = f"n_max {n_max:2d}"
        for group, checks in check_timings(repeats, n_max).items():
            print(_summary(f"{setting}  group {group:9s}", np.sum(list(checks.values()), axis=0)),
                  flush=True)
            for check_id, seconds in checks.items():
                print(_summary(f"{setting}  check {check_id:36s}", seconds), flush=True)
    for n, layers in ladder_layers(repeats).items():
        for layer, seconds in layers.items():
            print(_summary(f"ladder_state call n {n:2d}  {layer:12s}", seconds, "us", 1e6),
                  flush=True)
    model = rel.make_rel_model(*COUPLING)
    print(_summary("rel operators build              ",
                   _per_call(lambda: rel_operators(model), repeats), "us", 1e6), flush=True)
    for n, parts in ladder_states(repeats).items():
        for part, seconds in parts.items():
            print(_summary(f"ladder_state n {n:2d}  {part:12s}  ", seconds, "us", 1e6),
                  flush=True)
    print(_summary("rel leaf phi_0 at one point       ", leaf_call(repeats), "us", 1e6),
          flush=True)
    secs, peaks = process_timings(repeats)
    print(_summary("verify process, fresh interpreter", secs), flush=True)
    print(_summary("verify process, peak RSS         ", peaks, "MB", 1.0), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
