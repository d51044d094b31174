"""Exception types shared across the library."""


class ConvdomError(Exception):
    """Base class for all library-specific errors."""


class InvalidVertexError(ConvdomError, ValueError):
    """A vertex id or vertex-set member is outside 0..n-1."""


class PreconditionError(ConvdomError, ValueError):
    """An operation was called with inputs violating its contract."""


class NoPathError(ConvdomError, ValueError):
    """Two vertices that must share a component do not."""


class ParseError(ConvdomError, ValueError):
    """Malformed edge-list input, with 1-based line/column diagnostics."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class SizeGuardError(ConvdomError, RuntimeError):
    """An exponential routine refused an input above its fixed vertex bound."""


class WrongClassError(ConvdomError, RuntimeError):
    """The input graph is outside the class a solver is promised to handle.

    Carries the refutation: ``witness`` (a forbidden induced subgraph) or
    ``hole`` (an induced cycle of length at least 4), whichever applies.
    """

    def __init__(self, message: str, witness=None, hole=None) -> None:
        super().__init__(message)
        self.witness = witness
        self.hole = hole
