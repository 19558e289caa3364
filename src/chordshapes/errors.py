"""Exception types shared across the package, and the one check of
size-valued arguments that raises them."""


class ChordShapesError(Exception):
    """Base class for all library-specific errors."""


class DiagramError(ChordShapesError, ValueError):
    """Structurally invalid diagram, or an operation applied outside its domain."""


class ParseError(DiagramError):
    """Malformed diagram text.  Carries the bare message and the 1-based
    line and column of the offence."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.message = message
        self.line = line
        self.column = column


class BijectionDomainError(DiagramError):
    """Input lies outside the domain of the requested surgery."""


class InfeasibleError(ChordShapesError):
    """The requested computation exceeds the configured search bounds."""


class ConsistencyError(ChordShapesError):
    """An internal exactness cross-check failed (library bug or corrupted data)."""


def _check_size(value, name: str, minimum: int | None = 0) -> None:
    """Refuse a size-valued argument (a genus, a count, an arc number)
    with ``DiagramError``: one that is not an ``int`` (a ``bool`` or a
    float is refused, not truncated), then one below ``minimum`` unless
    that is None."""
    if type(value) is not int:
        raise DiagramError(f"{name} must be an integer")
    if minimum is not None and value < minimum:
        raise DiagramError(f"{name} must be >= {minimum}")
