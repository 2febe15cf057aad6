"""Command-line interface: spectra, wavefunction tables, verification, limits.

Subcommands:
    spectrum      energy levels of either model
    wavefunction  tabulated eigenfunction values on a grid
    verify        full check suite; exit code 0 iff all hard checks pass, 1 if
                  one fails, 2 if the input is rejected or cannot be evaluated
    limit         non-relativistic limit table

Formats: text (aligned columns), csv (RFC-4180), json (canonical key
order, no whitespace).  All output goes to stdout.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from . import harness, rel
from .errors import EvaluationError
from .opcore import default_grid


def _add_format(parser):
    parser.add_argument("--format", choices=("text", "csv", "json"),
                        default="text")


def _add_model(parser):
    parser.add_argument("--model", choices=("nonrel", "rel"), required=True)
    parser.add_argument("--omega0", type=float, default=0.5)
    parser.add_argument("--g0", type=float, default=0.1)


def _model_params(args) -> dict:
    if args.model == "nonrel":
        return {"g0": args.g0}
    return {"omega0": args.omega0, "g0": args.g0}


def _emit_table(table: dict, fmt: str):
    if fmt == "csv":
        sys.stdout.write(harness.rows_to_csv(table))
    elif fmt == "json":
        sys.stdout.write(harness.rows_to_json(table) + "\n")
    else:
        sys.stdout.write(harness.rows_to_text(table))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `fdosc` parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="fdosc",
        description="Finite-difference relativistic linear singular "
                    "oscillator toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="tabulate energy levels")
    _add_model(p)
    p.add_argument("--nmax", type=int, default=8)
    _add_format(p)

    p = sub.add_parser("wavefunction", help="tabulate an eigenfunction")
    _add_model(p)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--grid-min", type=float, default=0.25)
    p.add_argument("--grid-max", type=float, default=8.0)
    p.add_argument("--grid-points", type=int, default=32)
    _add_format(p)

    p = sub.add_parser("verify", help="run the full verification suite")
    p.add_argument("--omega0", type=float, default=0.5)
    p.add_argument("--g0", type=float, default=0.1)
    p.add_argument("--nmax", type=int, default=6,
                   help="highest level n to check, >= 1 (ladder checks stop "
                        f"at {harness.LADDER_CAP}, eigen-equation checks reach "
                        f"at least {harness.BASE_LEVEL}; each result's params "
                        "give its levels as [first, last])")
    p.add_argument("--tol", type=float, default=None,
                   help="override every hard tolerance with one finite value "
                        "> 0; report-only checks keep theirs")
    _add_format(p)

    p = sub.add_parser("limit", help="non-relativistic limit table")
    p.add_argument("--g0", type=float, default=0.1)
    p.add_argument("--omega0-list", type=str, default="1e-2,5e-3",
                   help="comma-separated omega0 sequence")
    _add_format(p)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    # a bad coupling, level or index (CouplingError too), or a function that
    # cannot be evaluated at these couplings (PoleError too)
    except (ValueError, EvaluationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.command == "spectrum":
        table = harness.spectrum_table(args.model, _model_params(args), args.nmax)
        _emit_table(table, args.format)
        return 0

    if args.command == "wavefunction":
        # written so that a nan or infinite bound fails it too
        if not (args.grid_points >= 2 and 0 < args.grid_min < args.grid_max < math.inf):
            raise ValueError("grid must satisfy 0 < min < max, points >= 2")
        grid = default_grid(args.grid_points, args.grid_min, args.grid_max)
        table = harness.wavefunction_table(args.model, _model_params(args),
                                           args.n, grid)
        _emit_table(table, args.format)
        return 0

    if args.command == "verify":
        report = harness.run_suite(args.omega0, args.g0, n_max=args.nmax,
                                   tol_overrides=args.tol)
        if args.format == "json":
            sys.stdout.write(report.to_json() + "\n")
        elif args.format == "csv":
            sys.stdout.write(report.to_csv())
        else:
            sys.stdout.write(report.to_text())
        return 0 if report.all_hard_passed else 1

    if args.command == "limit":
        try:
            seq = [float(s) for s in args.omega0_list.split(",") if s.strip()]
        except ValueError:
            raise ValueError("--omega0-list must be comma-separated numbers") from None
        if not seq:
            raise ValueError("--omega0-list is empty")
        devs = rel.nonrel_limit(args.g0, seq)
        table = {"omega0": seq, "deviation": devs,
                 "deviation_over_omega0": [dev / w0 for w0, dev in zip(seq, devs)]}
        _emit_table(table, args.format)
        return 0

    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    raise SystemExit(main())
