"""Exception hierarchy shared across the toolkit.

Three error classes matter for callers (and map to distinct CLI exit
codes): ParseError for malformed input text or binary artifacts,
ConsistencyError for inputs that parse but violate a contract, and
StateError for operations invoked in the wrong order.
"""


class CchError(Exception):
    """Base class for all toolkit errors."""


class ParseError(CchError):
    """Input text or binary data could not be parsed."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class FormatError(ParseError):
    """Binary artifact has a bad magic value or version, a flag or deletion
    mark other than 0 or 1, is truncated or fails its checksum."""


class ConsistencyError(CchError):
    """Well-formed input violates a structural contract (range, count, bijection)."""


class StateError(CchError):
    """Operation requires state that has not been established."""
