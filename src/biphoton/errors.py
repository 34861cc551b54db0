"""Exception types shared across the package."""


class BiphotonError(Exception):
    """Base class for all package errors."""


class ParameterError(BiphotonError):
    """A physical parameter or configuration value is invalid."""


class ConvergenceError(BiphotonError):
    """Adaptive quadrature exhausted its panel budget.

    Carries the tolerance that was actually achieved so callers can decide
    whether the partial result would have been usable.
    """

    def __init__(self, message, achieved_tolerance=None):
        super().__init__(message)
        self.achieved_tolerance = achieved_tolerance


class GridOverflowError(BiphotonError):
    """The spectral grid could not satisfy the edge-decay requirement."""


class ExtractionError(BiphotonError):
    """A scalar observable could not be extracted from a curve."""


class InconsistentRatesError(BiphotonError):
    """Pair rate exceeds the heralding singles rate."""


class ParseError(BiphotonError):
    """A data or config file failed to parse.

    ``context`` holds the offending file/line/key description.
    """

    def __init__(self, message, context=None):
        super().__init__(message if context is None else f"{message} ({context})")
        self.context = context
