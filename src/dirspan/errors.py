"""Exception types shared across the package."""


class DirspanError(Exception):
    """Base class for every error raised by this package."""


class GraphError(DirspanError):
    """Invalid graph construction input."""


class IndexOutOfRange(GraphError):
    pass


class NegativeLength(GraphError):
    """An edge length that is negative, NaN or infinite."""


class SelfLoop(GraphError):
    pass


class DuplicateEdge(GraphError):
    pass


class GraphSyntaxError(DirspanError):
    """Malformed graph text; carries the 1-based line number."""

    def __init__(self, message, line):
        super().__init__(f"line {line}: {message}")
        self.line = line


class PathExplosion(DirspanError):
    """Path enumeration exceeded its cap."""


class NumericalFailure(DirspanError):
    """The LP solver hit its iteration cap or lost numerical footing."""


class TooLarge(DirspanError):
    """Exact search would exceed its configured size cap."""


class ExplosionCap(DirspanError):
    """Rooted out-tree enumeration exceeded its cap."""


class BadSpec(DirspanError):
    """Malformed generator spec string or run configuration."""
