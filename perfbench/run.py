"""Layered benchmark for fdosc.

    python3 perfbench/run.py --workload verify|rel-tower|tables|all \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the program is imported from
./src; nothing is installed).  Each workload runs in its own fresh
interpreter with BLAS/OpenMP pinned to one thread; set-up time is the
median over several more fresh interpreters that only import the program
and build its CLI parser.  The loop is closed: one client, one unit at a
time, no threads.

unit_s and setup_s are in normalised seconds: wall time corrected for the
speed of the shared CPU, sampled while the program runs (see speed.py).
The raw wall medians are printed beside them as unit_wall_s and setup_wall_s.

With --trace 0 the last stdout line is the end-to-end result
(unit_s, setup_s, peak_rss_mb); with --trace 1 it holds the per-layer
metrics of a traced run, whose spans are written to .bench_out/.  The
lines before it print every end-to-end figure by name with its unit.
Statistics self-test: python3 -m unittest discover -s perfbench
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("verify", "rel-tower", "tables")
SETUP_PROBES = 7
CHILD_TIMEOUT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args, deadline: float) -> dict:
    """Run workload.py in a fresh interpreter; its last stdout line is JSON."""
    cmd = [sys.executable, os.path.join(HERE, "workload.py"), *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                              timeout=max(1.0, deadline - time.monotonic()), text=True)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{' '.join(args)}: timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{' '.join(args)}: exit code {proc.returncode}")
    return json.loads(lines[-1])


def fmt_tail(r: dict) -> str:
    tail = r["unit_s_tail"]
    if tail is None:
        return f"n/a ({r['units']} units; no percentile has >= 10 beyond it)"
    return f"{tail['value']:.6g} s at p{tail['percentile']} (n={r['units']})"


def report_lines(r: dict) -> list[str]:
    share = r["failed"] / r["attempted"] if r["attempted"] else float("nan")
    pps = r["points_per_s"]
    lines = [
        f"workload {r['workload']} seed {r['seed']} trace {int('per_layer' in r)} "
        f"versions {json.dumps(r['versions'], sort_keys=True)}",
        f"  unit_s        {r['unit_s']:.6g} s (median, n={r['units']})",
        f"  unit_s_tail   {fmt_tail(r)}",
        f"  points_per_s  " + (f"{pps:.6g} 1/s ({r['points']} points)" if pps else "n/a"),
        f"  setup_s       {r['setup_s']:.6g} s (median, n={r['setup_n']})",
        f"  unit_wall_s   {r['unit_wall_s']:.6g} s (median, n={r['units']})",
        f"  setup_wall_s  {r['setup_wall_s']:.6g} s (median, n={r['setup_n']})",
        f"  kernel_s      {r['kernel_s']:.6g} s (median reference-kernel time; "
        f"nominal {speed.NOMINAL_S:.6g} s)",
        f"  peak_rss_mb   {r['peak_rss_mb']:.6g} MB",
        f"  fail_share    {share:.6g} ({r['failed']} failed / {r['attempted']} attempted)",
        f"  worst_margin  {r['worst_margin']:.6g} residual/tolerance ({r['worst_margin_at']})",
    ]
    if r["fail_reasons"]:
        lines.append(f"  failures      {json.dumps(r['fail_reasons'])}")
    if "per_layer" in r:
        lines.append(f"  trace         untraced unit_s {r['untraced_unit_s']:.6g} s, "
                     f"overhead x{r['per_layer']['trace_overhead']['value']:.4g}")
        lines.append(f"  absent        {json.dumps(r['absent'])}")
    return lines


def run_workload(name: str, seed: int, seconds: int, trace: int, deadline: float) -> dict:
    setups = [run_child(["--setup-only"], deadline) for _ in range(SETUP_PROBES)]
    args = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    if trace:
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        args += ["--trace-out", os.path.join(out_dir, f"trace-{name}-{seed}.json")]
    r = run_child(args, deadline)
    setups.append(r)
    for key in ("setup_s", "setup_wall_s"):
        r[key] = statistics.median(p[key] for p in setups)
    r["setup_n"] = len(setups)
    return r


def result_json(r: dict, trace: int) -> dict:
    if trace:
        metrics = r["per_layer"]
    else:
        metrics = {
            "unit_s": {"value": r["unit_s"], "unit": "s"},
            "setup_s": {"value": r["setup_s"], "unit": "s"},
            "peak_rss_mb": {"value": r["peak_rss_mb"], "unit": "MB"},
        }
    return {"correct": r["failed"] == 0, "attempted": r["attempted"],
            "failed": r["failed"], "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "fdosc", "__init__.py")):
        print(f"error: no fdosc sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            deadline = time.monotonic() + CHILD_TIMEOUT_S
            r = run_workload(name, args.seed, args.seconds, args.trace, deadline)
            print("\n".join(report_lines(r)), flush=True)
            results[name] = result_json(r, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
