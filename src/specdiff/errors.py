"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the domain a routine is specified for or
    breaks its documented precondition (e.g. a matrix promised unitary)."""


class LevelCollisionError(DomainError):
    """A Fermi level sits on (within the relative gap of) a box eigenvalue,
    so spectral counting there is ambiguous; callers may nudge the level."""


class ConvergenceError(RuntimeError):
    """An iteration failed to converge within its cap.

    Carries the magnitude of the last increment so callers can judge how
    far from convergence the iteration stopped.
    """

    def __init__(self, message: str, last_term: float):
        super().__init__(f"{message} (last term magnitude {last_term:.3e})")
        self.last_term = last_term


class StepSizeError(RuntimeError):
    """An ODE step size was too coarse to meet the accuracy contract."""

    def __init__(self, message: str, suggested_step: float):
        super().__init__(f"{message}; retry with step <= {suggested_step:.3e}")
        self.suggested_step = suggested_step


class SingularOperatorError(RuntimeError):
    """A linear system that the theory guarantees invertible came out
    numerically singular (condition number beyond the guard threshold)."""

    def __init__(self, message: str, cond: float):
        super().__init__(f"{message} (condition number {cond:.3e})")
        self.cond = cond


class ConfigError(ValueError):
    """A run configuration is malformed (unknown keys, bad types, bad values)."""
