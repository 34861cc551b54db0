"""Exception types shared across the package.

Every class carries the ``code`` and exit ``status`` the command line
reports for it in one ``error: CODE detail`` line.  A raise site may pass
a more specific ``code``; the status always comes from the class.  An
error about one input field is built with ``on_field``, so that the
config layer can name its own key in place of the field.
"""


class BiphotonError(Exception):
    """Base class for all package errors: a computation that failed."""

    code = "NUMERICAL"
    status = 4
    # set by on_field: "Record.attribute" and what is wrong with its value
    field = None
    reason = None

    def __init__(self, message="", code=None):
        super().__init__(message)
        if code is not None:
            self.code = code

    @classmethod
    def on_field(cls, field, value, reason):
        """The error "``field`` = ``value``: ``reason``" about one field."""
        exc = cls(f"{field} = {value}: {reason}")
        exc.field, exc.reason = field, reason
        return exc


class ParameterError(BiphotonError):
    """A physical parameter or configuration value is invalid."""

    code = "CONFIG_BAD_VALUE"
    status = 2


class DataValueError(ParameterError):
    """A value the package derived from the input data is unusable.

    The same check refuses a value the user set as a ParameterError; when
    the package chose the value itself, the fault lies in the data.
    """

    code = "DATA_BAD_VALUE"
    status = 3


class ConvergenceError(BiphotonError):
    """Adaptive quadrature exhausted its panel budget.

    Carries the tolerance that was actually achieved so callers can decide
    whether the partial result would have been usable.
    """

    def __init__(self, message, achieved_tolerance=None):
        super().__init__(message)
        self.achieved_tolerance = achieved_tolerance


class GridOverflowError(BiphotonError):
    """A spectral grid passes MAX_GRID_POINTS or its edges do not decay."""


class ExtractionError(BiphotonError):
    """A scalar observable could not be extracted from a curve."""


class InconsistentRatesError(BiphotonError):
    """Pair rate exceeds the heralding singles rate."""

    code = "INCONSISTENT_RATES"
    status = 3


class ParseError(BiphotonError):
    """A data file is missing, unreadable or malformed.

    ``context``, appended in parentheses, names the offending file/line/key.
    """

    code = "DATA_PARSE"
    status = 3

    def __init__(self, message, context=None, code=None):
        super().__init__(
            message if context is None else f"{message} ({context})", code)
