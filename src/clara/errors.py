"""Shared exception base classes.

Every validation or pipeline error raised by this package derives from
:class:`ClaraError`, so callers (and the CLI) can distinguish bad input
from genuine bugs.
"""


class ClaraError(Exception):
    """Base class for all errors raised by the clara package."""


class EmptySession(ClaraError):
    """An operation needs a session with at least one turn."""


class EmptyText(ClaraError):
    """An operation needs a non-empty text (embedding, label compression)."""


class ParseError(ClaraError):
    """A record in an input file could not be parsed.

    Carries the 1-based line number of the offending record when known.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
