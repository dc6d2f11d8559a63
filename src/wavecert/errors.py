"""Exception hierarchy shared across the toolkit."""


class WavecertError(Exception):
    """Base class for all toolkit errors."""


class ParseError(WavecertError):
    """Raised on malformed expression text; carries the byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class EvaluationError(WavecertError):
    """Raised when an expression cannot be evaluated at a point; ``reason``
    is the message without the point."""

    def __init__(self, message: str, point=None):
        self.reason = message
        self.point = None if point is None else tuple(float(v) for v in point)
        super().__init__(message if point is None else f"{message} at point {self.point}")


class DomainError(EvaluationError):
    """log/sqrt of a non-positive value, division by zero, or a non-finite result."""


class UnboundConstantError(EvaluationError):
    """A named constant appears in the expression but not in the constant table."""


class ExpOverflowError(EvaluationError):
    """An exponential evaluated above the 1e300 monitoring threshold."""


class RegionError(WavecertError):
    """Invalid region geometry or an unusably coarse sample request."""


class LambdaSearchError(WavecertError):
    """Base class for failures of the exponential-weight rate search."""

    def __init__(self, message: str, best_report=None, best_lambda=None):
        super().__init__(message)
        self.best_report = best_report
        self.best_lambda = best_lambda


class LambdaMaxExceededError(LambdaSearchError):
    """The rate search ran out of budget without certifying."""


class WeightOverflowError(LambdaSearchError):
    """The weight's exponentials left double range before certification.

    The construction is translation covariant; translating the domain toward
    the origin shrinks the exponent range and usually resolves this.
    """


class StepCollapseError(WavecertError):
    """Ray integration could not reach the drift tolerance by step halving."""


class ConfigError(WavecertError):
    """Malformed or incomplete run configuration."""
