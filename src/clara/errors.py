"""Shared exception base classes.

Every validation or pipeline error raised by this package derives from
:class:`ClaraError`, so callers (and the CLI) can distinguish bad input
from genuine bugs.
"""

import os


class ClaraError(Exception):
    """Base class for all errors raised by the clara package."""


class EmptySession(ClaraError):
    """An operation needs a session with at least one turn."""


class EmptyText(ClaraError):
    """An operation needs a non-empty text (embedding, label compression)."""


class ParseError(ClaraError):
    """A record in an input file could not be parsed.

    Carries the 1-based line number of the offending record and the file's
    path when known; the message reads ``"{path}: line {line}: {message}"``.
    """

    def __init__(
        self, message: str, line: int | None = None, path: str | os.PathLike | None = None
    ):
        self.line = line
        self.path = path
        if line is not None:
            message = f"line {line}: {message}"
        if path is not None:
            message = f"{path}: {message}"
        super().__init__(message)
