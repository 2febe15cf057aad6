"""Per-layer tracing from outside the program.

Wraps public functions of the fdosc modules at run time; no code in src/
changes.  A wrapper is installed in every fdosc module namespace (and
class dict) that binds the original object, so names imported with
`from .x import y` are traced as well.  A hooked name that no longer
exists is reported as absent.

Three kinds of hooks:

* counters, for hot functions (AnalyticFunction.__call__, specfun):
  a call count plus the inclusive time of outermost calls only, so that
  millions of calls cost a few integers of memory;
* counts, a call count alone (AnalyticFunction.derivative and .shifted);
* spans, at coarse boundaries (cli.main, harness.run_suite, report and
  table serialization, one rel-tower level): name, start, end and parent,
  kept in memory and written out at exit.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys
import time

from stats import span_self_times

_clock = time.perf_counter

# (metric prefix, module, attribute path, kind)
#   kind "counter": calls + outermost inclusive seconds
#   kind "count":   calls only
#   kind "span":    span per call (coarse boundaries only)
HOOKS = [
    ("specfun.log_gamma", "fdosc.specfun", "log_gamma", "counter"),
    ("specfun.cdhahn_complex", "fdosc.specfun", "cdhahn_complex", "counter"),
    ("specfun.gamma", "fdosc.specfun", "gamma", "counter"),
    ("specfun.laguerre_coefficients", "fdosc.specfun", "laguerre_coefficients", "counter"),
    ("opcore.fn", "fdosc.opcore", "AnalyticFunction.__call__", "counter"),
    ("opcore.derivative", "fdosc.opcore", "AnalyticFunction.derivative", "count"),
    ("opcore.shifted", "fdosc.opcore", "AnalyticFunction.shifted", "count"),
    ("opcore.compose", "fdosc.opcore", "compose", "counter"),
    ("opcore.op_apply", "fdosc.opcore", "DifferenceOperator.__call__", "counter"),
    ("nonrel.eigenfunction", "fdosc.nonrel", "eigenfunction", "counter"),
    ("nonrel.matrix_oracle", "fdosc.nonrel", "matrix_oracle", "counter"),
    ("rel.eigenfunction_rel", "fdosc.rel", "eigenfunction_rel", "counter"),
    ("rel.ladder_state", "fdosc.rel", "ladder_state", "counter"),
    ("planewave.make_state", "fdosc.planewave", "make_state", "counter"),
    ("planewave.plane_wave", "fdosc.planewave", "plane_wave", "counter"),
    ("planewave.plane_wave_power_form", "fdosc.planewave", "plane_wave_power_form", "counter"),
    ("planewave.free_hamiltonian", "fdosc.planewave", "free_hamiltonian", "counter"),
    ("cli.main", "fdosc.cli", "main", "span"),
    ("harness.run_suite", "fdosc.harness", "run_suite", "span"),
    ("harness.to_json", "fdosc.harness", "VerificationReport.to_json", "span"),
    ("harness.wavefunction_table", "fdosc.harness", "wavefunction_table", "span"),
    ("harness.rows_to_text", "fdosc.harness", "rows_to_text", "span"),
    ("harness.rows_to_csv", "fdosc.harness", "rows_to_csv", "span"),
    ("harness.rows_to_json", "fdosc.harness", "rows_to_json", "span"),
]

SPECFUN = tuple(h[0] for h in HOOKS if h[0].startswith("specfun."))
PLANEWAVE = tuple(h[0] for h in HOOKS if h[0].startswith("planewave."))
SPANS = tuple(h[0] for h in HOOKS if h[3] == "span")


class Tracer:
    """Counters and spans for one process.  `install()` patches the program,
    `uninstall()` restores every binding it replaced."""

    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        self.calls: dict[str, int] = {}
        self.outer_calls: dict[str, int] = {}
        self.seconds: dict[str, float] = {}
        self.depth: dict[str, int] = {}
        self.absent: list[str] = []
        self.spans: list[tuple] = []   # (name, start, end, parent index)
        self._open: list[int] = []     # stack of open span indices
        self._restore: list[tuple] = []
        # specfun time spent inside an outermost AnalyticFunction call
        self.specfun_in_fn = 0.0

    # ---- spans -----------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        idx = len(self.spans)
        start = _clock()
        self.spans.append((name, start, None, parent))
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx] = (name, start, _clock(), parent)

    # ---- wrappers --------------------------------------------------------

    def _wrap(self, metric: str, kind: str, orig):
        for d in (self.calls, self.outer_calls, self.depth):
            d[metric] = 0
        self.seconds[metric] = 0.0
        calls, outer, seconds, depth = self.calls, self.outer_calls, self.seconds, self.depth
        tracer = self
        is_specfun = metric in SPECFUN

        if kind == "count":
            def wrapper(*args, **kwargs):
                calls[metric] += 1
                return orig(*args, **kwargs)
        elif kind == "span":
            def wrapper(*args, **kwargs):
                calls[metric] += 1
                with tracer.span(metric):
                    return orig(*args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                calls[metric] += 1
                if depth[metric]:
                    depth[metric] += 1
                    try:
                        return orig(*args, **kwargs)
                    finally:
                        depth[metric] -= 1
                outer[metric] += 1
                depth[metric] = 1
                t0 = _clock()
                try:
                    return orig(*args, **kwargs)
                finally:
                    dt = _clock() - t0
                    seconds[metric] += dt
                    depth[metric] = 0
                    if is_specfun and depth["opcore.fn"] and not _specfun_nested(depth):
                        tracer.specfun_in_fn += dt

        wrapper.__wrapped__ = orig
        return wrapper

    def install(self):
        fdosc_modules = [m for name, m in sorted(sys.modules.items())
                         if m is not None and (name == "fdosc" or name.startswith("fdosc."))]
        self.depth.setdefault("opcore.fn", 0)
        for metric, modname, attr, kind in self.hooks:
            try:
                owner = importlib.import_module(modname)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                orig = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.absent.append(metric)
                continue
            wrapper = self._wrap(metric, kind, orig)
            self._rebind(fdosc_modules, orig, wrapper)

    def _rebind(self, modules, orig, wrapper):
        """Replace every binding of `orig` in the fdosc module namespaces and in
        the dicts of the classes they define."""
        for mod in modules:
            ns = vars(mod)
            for name, value in list(ns.items()):
                if value is orig:
                    self._restore.append((mod, name, orig))
                    setattr(mod, name, wrapper)
                elif isinstance(value, type) and value.__module__.startswith("fdosc"):
                    for cname, cvalue in list(vars(value).items()):
                        if cvalue is orig:
                            self._restore.append((value, cname, orig))
                            setattr(value, cname, wrapper)

    def uninstall(self):
        for owner, name, orig in reversed(self._restore):
            setattr(owner, name, orig)
        self._restore.clear()

    # ---- results ---------------------------------------------------------

    def span_totals(self):
        """Total inclusive and self seconds per span name."""
        selfs = span_self_times(self.spans)
        incl: dict[str, float] = {}
        excl: dict[str, float] = {}
        for (name, start, end, _), s in zip(self.spans, selfs):
            incl[name] = incl.get(name, 0.0) + (end - start)
            excl[name] = excl.get(name, 0.0) + s
        return incl, excl

    def dump(self, path: str, extra: dict):
        payload = dict(extra)
        payload["spans"] = [
            {"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans
        ]
        payload["absent"] = list(self.absent)
        with open(path, "w") as fh:
            json.dump(payload, fh)


def _specfun_nested(depth) -> bool:
    """True if another specfun counter is already open (its time is already
    being attributed)."""
    return sum(depth[m] for m in SPECFUN if m in depth) > 0
