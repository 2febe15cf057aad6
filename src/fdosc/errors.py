"""Exception types shared across the toolkit."""


class ParameterError(ValueError):
    """Polynomial or series parameters make a denominator vanish or leave
    double range."""


class CouplingError(ValueError):
    """Coupling constants outside the range where exponents stay real."""


class EvaluationError(ArithmeticError):
    """A function or operator could not be evaluated at the requested point."""


class PoleError(EvaluationError):
    """Gamma-type function evaluated at a pole (non-positive integer)."""


class ConvergenceError(RuntimeError):
    """An iterative eigensolver failed to converge."""
