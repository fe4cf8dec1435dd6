"""Exception hierarchy shared across the package, and the integer check
of element JSON that raises its parse error."""


class StiefelError(Exception):
    """Base class for every error this package raises deliberately."""


class InvalidPresentation(StiefelError, ValueError):
    """Out-of-range presentation parameters, e.g. m > n or n < 1."""


class InvalidGenerator(StiefelError, ValueError):
    """A generator index outside the range of its presentation."""


class ContextMismatch(StiefelError, ValueError):
    """Two values from different coefficient contexts were combined."""


class InadmissibleOperation(StiefelError, ValueError):
    """An operation applied over the wrong coefficient ring, or over a
    ground field whose recorded characteristic forbids it."""


class SpanError(StiefelError, ValueError):
    """A generator-level ring map was used outside its validity span."""


class ElementParseError(StiefelError, ValueError):
    """Input text could not be parsed as an element."""


def json_int(value, what: str) -> int:
    """value if it is a JSON integer (booleans excluded), else ElementParseError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ElementParseError(f"{what} must be an integer, got {value!r}")
    return value
