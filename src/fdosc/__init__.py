"""Finite-difference relativistic linear singular oscillator toolkit.

Closed-form spectra and eigenfunctions for the relativistic linear
singular oscillator (a finite-difference model whose shift operators act
exactly on analytic functions) and its non-relativistic counterpart,
together with a verification harness that checks every factorization,
commutator, ladder and su(1,1) identity numerically.
"""

from .errors import (
    ConvergenceError,
    CouplingError,
    EvaluationError,
    ParameterError,
    PoleError,
)
from .harness import run_suite, spectrum_table, wavefunction_table
from .nonrel import NonRelModel, make_model
from .opcore import AnalyticFunction, DifferenceOperator, default_grid
from .planewave import PlaneWaveState, make_state
from .rel import RelModel, make_rel_model

__version__ = "0.1.0"

__all__ = [
    "AnalyticFunction",
    "ConvergenceError",
    "CouplingError",
    "DifferenceOperator",
    "EvaluationError",
    "NonRelModel",
    "ParameterError",
    "PlaneWaveState",
    "PoleError",
    "RelModel",
    "default_grid",
    "make_model",
    "make_rel_model",
    "make_state",
    "run_suite",
    "spectrum_table",
    "wavefunction_table",
]
