"""Exception types shared across the package."""


class ParameterError(ValueError):
    """A function argument violates its documented precondition."""


class UsageError(RuntimeError):
    """Operation invoked for a boundary class or regime it does not support."""


class ConfigurationError(ValueError):
    """A config object is inconsistent (a grid the solver cannot run, output
    times beyond t_end, a pulse too near a wall, a config file off the schema)."""


class AccuracyError(RuntimeError):
    """A quadrature failed to meet its accuracy target.

    Carries the achieved error estimate so callers can decide whether to
    refine or report an inconclusive result.
    """

    def __init__(self, message: str, achieved: float, target: float):
        super().__init__(f"{message} (achieved {achieved:.3e}, target {target:.3e})")
        self.achieved = achieved
        self.target = target


class DivergenceError(RuntimeError):
    """A time integration produced NaN / lost positivity; ``partial`` is the
    trajectory up to the last good snapshot, if any."""

    def __init__(self, message: str, t: float, partial=None):
        super().__init__(f"{message} at t={t:.6g}")
        self.t = t
        self.partial = partial


class PoleError(ValueError):
    """Reflection coefficient evaluated at (or too close to) its pole."""

    def __init__(self, s: complex):
        super().__init__(f"reflection coefficient pole hit at s={s}")
        self.s = s


class BranchCutError(ValueError):
    """Laplace-variable argument lies on the branch cut of sqrt(nu*s + c^2)."""
