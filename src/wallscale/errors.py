"""Exception hierarchy shared across the package."""


class WallscaleError(Exception):
    """Base class for all errors raised by wallscale."""


class DomainError(WallscaleError, ValueError):
    """An argument is outside the mathematical domain of an operation."""


class ParseError(WallscaleError):
    """A data file could not be parsed; carries the offending line number."""

    def __init__(self, message, path=None, line=None):
        self.path = path
        self.line = line
        where = ""
        if path is not None:
            where = f"{path}:"
        if line is not None:
            where += f"{line}: "
        elif path is not None:
            where += " "
        super().__init__(where + message)


class InputOutputError(WallscaleError):
    """An input file or directory could not be read (it is missing, is
    not a file or directory as expected, or is not readable)."""


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
