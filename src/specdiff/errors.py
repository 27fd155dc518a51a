"""Exception types shared across the package."""

import math


class DomainError(ValueError):
    """An argument lies outside the domain a routine is specified for or
    breaks its documented precondition (e.g. a matrix promised unitary)."""


class LevelCollisionError(DomainError):
    """A Fermi level sits on (within the relative gap of) a box eigenvalue,
    so spectral counting there is ambiguous; callers may nudge the level."""


class ConvergenceError(RuntimeError):
    """An iteration failed to converge within its cap.

    A series (hyp2f1) passes the magnitude of its last term as
    ``last_term``, which the message then states, so callers can judge how
    far from convergence it stopped; other raisers leave it NaN and name
    their own measure of the shortfall in the message, if they have one.
    """

    def __init__(self, message: str, last_term: float = math.nan):
        if not math.isnan(last_term):
            message = f"{message} (last term magnitude {last_term:.3e})"
        super().__init__(message)
        self.last_term = last_term


class StepSizeError(RuntimeError):
    """An ODE step size was too coarse to meet the accuracy contract."""


class SingularOperatorError(RuntimeError):
    """A linear system that the theory guarantees invertible came out
    numerically singular (condition number beyond the guard threshold)."""

    def __init__(self, message: str, cond: float):
        super().__init__(f"{message} (condition number {cond:.3e})")
        self.cond = cond


class ConfigError(ValueError):
    """A run configuration is malformed (unknown keys, bad types, bad values)."""
