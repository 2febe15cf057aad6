"""MD5 digests of the reports and tables the `fdosc` CLI prints.

    PYTHONPATH=src python3 tools/report_digest.py [LABEL ...]

Prints one line `<md5>  <label>` per CLI run, the digest of everything the
run wrote to stdout.  With labels given, runs only those.  Run it on two
source trees and `diff` the outputs: an empty diff means a change left
every report and table byte-identical.  It needs nothing beyond the
standard library and fdosc itself.

The `nmax96` runs read the deepest level whose S_n stays in double range
(it passes the largest double from n = 97), so each change is compared
bytewise there too.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys

from fdosc import cli

COUPLINGS = ((0.5, 0.1), (0.9, 0.05), (0.35, 0.6), (0.6, 0.2))
VERIFY_NMAX = (1, 6, 12)
# the per-level tables at their largest: eigen-equation levels, and the K+
# and B+ towers, up to 30 (harness.LADDER_CAP)
BIG_VERIFY_NMAX = 30
# the eigen-equation levels as deep as S_n stays in double range
DEEPEST_VERIFY_NMAX = 96
TABLE_LEVELS = (0, 3, 11)
TABLE_POINTS = 700
FORMATS = ("json", "csv", "text")
# the largest table of the perfbench `tables` workload: its top level and size
BIG_LEVEL = 12
BIG_POINTS = 4096
# tables with error rows: at omega0 = 0.005 every rel value is non-finite;
# on a grid from 1e-300 the first two rows sit at the log_gamma pole
ERROR_TABLES = (("errors", ["--omega0", "0.005"]),
                ("poles", ["--grid-min", "1e-300", "--grid-max", "2"]))
# a rel table far out, where phi_0 falls to 1e-164 at rho = 252 and 1e-265 at
# rho = 400: log_gamma's reflection is taken at |Im z| up to 400 there
FAR_TABLE = ["--grid-min", "100", "--grid-max", "400", "--grid-points", "4"]
# a 4096-point rel table whose first row sits at the log_gamma pole: the one
# failing row is found by splitting the grid, the other rows evaluate in parts
POLE_TABLE = ["--n", "3", "--grid-min", "1e-12", "--grid-max", "8",
              "--grid-points", str(BIG_POINTS)]


def runs():
    """(label, argv) for every digested CLI run, in print order."""
    for w0, g0 in COUPLINGS:
        for nmax in VERIFY_NMAX:
            for fmt in FORMATS:
                yield (f"verify/{w0},{g0}/nmax{nmax}/{fmt}",
                       ["verify", "--omega0", str(w0), "--g0", str(g0),
                        "--nmax", str(nmax), "--format", fmt])
    for model in ("rel", "nonrel"):
        for n in TABLE_LEVELS:
            for fmt in FORMATS:
                yield (f"wavefunction/{model}/n{n}/{fmt}",
                       ["wavefunction", "--model", model, "--n", str(n),
                        "--grid-points", str(TABLE_POINTS), "--format", fmt])
    for model in ("rel", "nonrel"):
        for fmt in FORMATS:
            yield f"spectrum/{model}/{fmt}", ["spectrum", "--model", model, "--format", fmt]
    for fmt in FORMATS:
        yield f"limit/{fmt}", ["limit", "--format", fmt]
    for model in ("rel", "nonrel"):
        for fmt in FORMATS:
            yield (f"wavefunction/{model}/n{BIG_LEVEL}/p{BIG_POINTS}/{fmt}",
                   ["wavefunction", "--model", model, "--n", str(BIG_LEVEL),
                    "--grid-points", str(BIG_POINTS), "--format", fmt])
    for name, flags in ERROR_TABLES:
        for fmt in FORMATS:
            yield (f"wavefunction/rel/{name}/{fmt}",
                   ["wavefunction", "--model", "rel", *flags, "--grid-points", "3",
                    "--format", fmt])
    for w0, g0 in COUPLINGS:
        yield (f"verify/{w0},{g0}/nmax{BIG_VERIFY_NMAX}/json",
               ["verify", "--omega0", str(w0), "--g0", str(g0),
                "--nmax", str(BIG_VERIFY_NMAX), "--format", "json"])
    for fmt in FORMATS:
        yield (f"wavefunction/rel/far/{fmt}",
               ["wavefunction", "--model", "rel", *FAR_TABLE, "--format", fmt])
    for fmt in FORMATS:
        yield (f"wavefunction/rel/pole{BIG_POINTS}/{fmt}",
               ["wavefunction", "--model", "rel", *POLE_TABLE, "--format", fmt])
    for w0, g0 in COUPLINGS:
        yield (f"verify/{w0},{g0}/nmax{DEEPEST_VERIFY_NMAX}/json",
               ["verify", "--omega0", str(w0), "--g0", str(g0),
                "--nmax", str(DEEPEST_VERIFY_NMAX), "--format", "json"])


def digest(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli.main(argv)
    return hashlib.md5(buf.getvalue().encode()).hexdigest()


def main(labels) -> int:
    table = dict(runs())
    unknown = [label for label in labels if label not in table]
    if unknown:
        print(f"error: unknown label(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    for label in labels or table:
        print(f"{digest(table[label])}  {label}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
