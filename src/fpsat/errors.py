"""Exception hierarchy shared across the package."""

from typing import NamedTuple


class FpsatError(Exception):
    """Base class for all errors raised by this package."""


class SourcePosition(NamedTuple):
    """Line/column location inside an input script (1-based)."""

    line: int
    col: int

    @classmethod
    def at(cls, text: str, offset: int) -> "SourcePosition":
        """The position of `text[offset]`: its line is 1 + the newlines
        before it, and its column is its distance from the last newline
        before it, so a tab or a carriage return is one column."""
        return cls(text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset))

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


class InputError(FpsatError):
    """An error attributable to a position in the input text. The parser
    raises it with `pos` an offset into the text, and `parse_script` turns
    that into a `SourcePosition` before the error leaves it."""

    def __init__(self, message: str, pos: SourcePosition | int | None = None):
        super().__init__(message)
        self.pos = pos

    def __str__(self) -> str:
        return super().__str__() if self.pos is None else f"{self.pos}: {super().__str__()}"


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
