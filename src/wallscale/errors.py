"""Exception hierarchy shared across the package."""


class WallscaleError(Exception):
    """Base class for all errors raised by wallscale.  ``line`` is the
    number of the text's line at fault, written as ``line N: ...`` (the
    caller names the file), or None; ``row`` is the index, from 0, of the
    first row of a column that broke a value or order rule, where a check
    found one (``profiles.check_values``, ``VelocityProfile``), and None
    otherwise; ``field`` is the name of the ``ProfileMetadata`` field
    whose value broke its rule, and None otherwise."""

    row = None
    field = None

    def __init__(self, message, line=None):
        self.line = line
        super().__init__(message if line is None
                         else f"line {line}: {message}")


class DomainError(WallscaleError, ValueError):
    """An argument is outside the mathematical domain of an operation."""


class ParseError(WallscaleError):
    """A text could not be parsed; it names the offending line."""


class InputOutputError(WallscaleError, OSError):
    """An input or output file or directory could not be read or written
    (it is missing, is not a file or directory as expected, or is not
    readable or writable).  It is an OSError too, so code that catches
    the OSError of a file operation still catches it."""


class ValidationError(WallscaleError):
    """Data violates a structural invariant (named in the message)."""


class FitError(WallscaleError):
    """A regression could not be performed (too few or degenerate points)."""


class PipelineError(WallscaleError):
    """An analysis stage failed; names the stage and wraps the cause."""

    def __init__(self, stage, cause):
        self.stage = stage
        self.cause = cause
        super().__init__(f"{stage}: {cause}")
