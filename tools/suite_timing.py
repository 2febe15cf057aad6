"""Wall time of `harness.run_suite` in process and of a whole `verify`
process, median and quartiles.

    PYTHONPATH=src python3 tools/suite_timing.py [REPEATS]

Times run_suite(0.6, 0.2) at three settings: n_max 6, n_max 30, and n_max
30 with `harness.LADDER_CAP` raised to 30 in this process only, which is
the cost the ladder checks would add at a lifted cap (nonrel_ladder_reconstruction
fails there; only the time is read).  Then times a fresh
`python -m fdosc.cli verify --format json` process, imports included, on the
fdosc this script imported.  Each setting runs once as a warm-up, then
REPEATS times (default 11).  Run it on two source trees to compare them.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from fdosc import harness

COUPLING = (0.6, 0.2)
SETTINGS = ((6, harness.LADDER_CAP), (30, harness.LADDER_CAP), (30, 30))


def timings(n_max: int, cap: int, repeats: int) -> list[float]:
    """Seconds of `repeats` run_suite calls at n_max with LADDER_CAP = cap,
    after one warm-up call; LADDER_CAP is restored afterwards."""
    default = harness.LADDER_CAP
    harness.LADDER_CAP = cap
    try:
        harness.run_suite(*COUPLING, n_max=n_max)
        out = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            harness.run_suite(*COUPLING, n_max=n_max)
            out.append(time.perf_counter() - t0)
        return out
    finally:
        harness.LADDER_CAP = default


def process_timings(repeats: int) -> list[float]:
    """Seconds of `repeats` fresh `verify --format json` processes, after one
    warm-up process; a nonzero exit raises CalledProcessError."""
    src = str(Path(harness.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    argv = [sys.executable, "-m", "fdosc.cli", "verify", "--format", "json"]
    out = []
    for _ in range(repeats + 1):
        t0 = time.perf_counter()
        subprocess.run(argv, env=env, stdout=subprocess.DEVNULL, check=True)
        out.append(time.perf_counter() - t0)
    return out[1:]


def _summary(label: str, secs: list[float]) -> str:
    q1, median, q3 = 1e3 * np.percentile(secs, [25, 50, 75])
    return (f"{label}  median {median:7.1f} ms  quartiles {q1:7.1f} .. {q3:7.1f} ms  "
            f"({len(secs)} runs)")


def main(argv) -> int:
    repeats = int(argv[0]) if argv else 11
    if repeats < 1:
        print("error: REPEATS must be >= 1", file=sys.stderr)
        return 2
    for n_max, cap in SETTINGS:
        print(_summary(f"n_max {n_max:2d}  LADDER_CAP {cap:2d}",
                       timings(n_max, cap, repeats)), flush=True)
    print(_summary("verify process, fresh interpreter", process_timings(repeats)),
          flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
