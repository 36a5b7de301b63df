"""Exception types shared across the library.

Parse errors carry a position so the CLI can point at the offending
character; precondition errors mark violated operation contracts
(zero polynomial, non-homogeneous input, size limits, ...) and map to
a distinct process exit code.
"""


class ChowstabError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(ChowstabError):
    """Malformed input text (polynomial grammar, headers, vectors)."""

    def __init__(self, message, position=None, line=None):
        self.message = message  # without the position suffix
        self.position = position
        self.line = line
        where = ""
        if line is not None:
            where = f" (line {line}, col {position})"
        elif position is not None:
            where = f" (col {position})"
        super().__init__(message + where)


class PreconditionError(ChowstabError):
    """An operation was called outside its stated contract."""
