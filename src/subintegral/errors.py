"""Exception types shared across the library.

Every error carries a stable machine-readable ``code`` so the CLI can
surface failures uniformly.
"""


class ClosureError(Exception):
    code = "error"


class DimensionMismatch(ClosureError):
    """Operands live in rings with different numbers of variables."""

    code = "dimension-mismatch"


class UnsupportedIdeal(ClosureError):
    """The input lacks a property the operation needs (nonzero, finite
    colength, or small enough dimension)."""

    code = "unsupported-input"


class PreconditionError(ClosureError):
    """A stated precondition failed (containment, reduction property, ...)."""

    code = "precondition"


class BudgetExceeded(ClosureError):
    """A bounded search ran out of its iteration budget."""

    code = "budget"


class ParseError(ClosureError):
    code = "parse"

    def __init__(self, message, line, column):
        super().__init__(f"{line}:{column}: {message}")
        self.message = message
        self.line = line
        self.column = column
