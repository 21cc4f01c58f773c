"""Exception hierarchy of the package: every error it raises is a SalpeterError."""


class SalpeterError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(SalpeterError):
    """Malformed configuration or parameter document."""


class PoleAtXError(SalpeterError):
    """The potential denominator vanishes at the sampled point."""


class PoleOnGridError(SalpeterError):
    """At least one grid point sits on a potential singularity."""


class DegenerateShiftError(SalpeterError):
    """Short-range expansion undefined at q = 1 (shift term diverges)."""


class NoBoundStateError(SalpeterError):
    """Existence condition for a bound level fails."""


class ComplexSpectrumError(SalpeterError):
    """Reality condition on the energy radicand fails."""


class ParameterPoleError(SalpeterError):
    """A Gamma-function argument hit a nonpositive integer."""


class NonConvergentError(SalpeterError):
    """A series (hypergeometric, Frobenius or Jost) outside its convergence domain."""


class ConvergenceViolationError(SalpeterError):
    """Normalization integral violates its convergence conditions."""


class NormSquaredNegativeError(SalpeterError):
    """Norm functional came out nonpositive for a Hermitian regime."""


class RegimeMismatchError(SalpeterError):
    """Bound state and potential parameters come from different regimes."""


class NotConvergedError(SalpeterError):
    """Grid refinement did not reach the requested accuracy."""


class ShootingOverflowError(SalpeterError):
    """Shooting integration produced non-finite values."""


class StepTooCoarseError(SalpeterError):
    """Integration step too large for the requested screening length."""
