"""Exception hierarchy shared across the package."""


class FpsatError(Exception):
    """Base class for all errors raised by this package."""


class SourcePosition:
    """Line/column location inside an input script (1-based)."""

    __slots__ = ("line", "col")

    def __init__(self, line: int, col: int):
        self.line = line
        self.col = col

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"

    def __repr__(self) -> str:
        return f"SourcePosition({self.line}, {self.col})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SourcePosition)
            and (self.line, self.col) == (other.line, other.col)
        )


class InputError(FpsatError):
    """An error attributable to a position in the input text."""

    def __init__(self, message: str, pos: SourcePosition | None = None):
        self.pos = pos
        if pos is not None:
            message = f"{pos}: {message}"
        super().__init__(message)


class SmtSyntaxError(InputError):
    """Malformed s-expression syntax or command structure."""


class UnsupportedLogicError(InputError):
    """set-logic names a logic outside the supported floating-point fragment."""


class UnsupportedSortError(InputError):
    """A sort other than Bool, binary32, or binary64 floating point."""


class UnsupportedOperationError(InputError):
    """An operator outside the supported grammar (fp.sqrt, fp.fma, ...)."""


class UnsupportedRoundingModeError(InputError):
    """Any rounding mode other than round-nearest-ties-to-even."""


class SortError(InputError):
    """An ill-typed term (mixed widths, Bool where FP expected, ...)."""


class WidthMismatchError(InputError):
    """A literal whose bit width disagrees with its target sort."""


class RecursiveDefinitionError(InputError):
    """A define-fun whose body refers to the symbol being defined."""


class UnknownSymbolError(InputError):
    """A free symbol that is neither declared nor defined."""


class CnfBlowupError(FpsatError):
    """Distributive CNF conversion exceeded the configured clause cap."""


class UnboundVariableError(FpsatError):
    """Evaluation encountered a variable with no bound value."""


class DimensionMismatchError(FpsatError):
    """An input vector whose length differs from the program dimension."""


class InstanceCrashError(FpsatError):
    """An optimizer instance of the portfolio raised. `traceback` holds the
    instance's traceback text."""

    def __init__(self, message: str, traceback: str = ""):
        super().__init__(message)
        self.traceback = traceback


class VerificationFailureError(FpsatError):
    """A zero-valued point failed semantic verification (encoding bug)."""
