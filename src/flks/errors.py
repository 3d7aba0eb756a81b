"""Exception hierarchy shared by all flks modules."""


class FlksError(Exception):
    """Base class for every error raised by this package."""


class DomainError(FlksError):
    """An argument lies outside the mathematical domain of an operation."""


class ValidationError(FlksError):
    """A parameter record violates its invariants."""


class ParseError(FlksError):
    """Config text could not be parsed; carries line/column."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        loc = "" if line is None else f" (line {line}" + ("" if column is None else f", col {column}") + ")"
        super().__init__(message + loc)


class MaxDepthExceeded(FlksError):
    """Adaptive quadrature exceeded its refinement depth limit."""


class OverflowGuard(FlksError):
    """An exponent would overflow double precision; refusing to continue."""


class NoConvergence(FlksError):
    """An iteration failed to reach its tolerance.

    Attributes carry the full diagnostic record so callers can report
    instead of guessing: ``iterations``, ``residual``, ``history`` and,
    when available, the last iterate as ``profile``.
    """

    def __init__(self, iterations, residual, history=None, profile=None):
        self.iterations = iterations
        self.residual = residual
        self.history = list(history) if history is not None else []
        self.profile = profile
        super().__init__(
            f"no convergence after {iterations} iterations (last residual {residual:.3e})"
        )


class DivergenceDetected(FlksError):
    """A fixed-point iteration ran away; ``cause`` says how."""

    def __init__(self, cause, history, profile=None):
        self.history = list(history)
        self.profile = profile
        super().__init__(f"divergence: {cause} (last residual {history[-1]:.3e})")


class StepSizeError(FlksError):
    """A time/space step was non-positive or otherwise unusable."""


class BlowupDetected(FlksError):
    """A solution component exceeded the blow-up threshold."""


class InvalidState(FlksError):
    """A discrete field contains NaN or infinity."""


class CFLViolation(FlksError):
    """A requested time step exceeds the stability bound."""


class GridMismatch(FlksError):
    """Two sampled fields do not share a grid."""


class ComplexRoots(FlksError):
    """A characteristic polynomial has complex roots; the requested real
    solution family does not exist for these parameters."""


class DegenerateFit(FlksError):
    """Convergence-order fit attempted on errors at the round-off floor."""


class UnsupportedGenerator(FlksError):
    """The requested symmetry generator has no finite-transform support here."""


class EvaluationError(FlksError):
    """A user-supplied callable failed or returned non-finite values."""


class IoError(FlksError):
    """File input/output failed; carries the offending path in the message."""
