"""Exception hierarchy shared by all modules."""

from __future__ import annotations


class WeylTypeError(Exception):
    """Base class for every error raised by this package."""


class UsageError(WeylTypeError):
    """A caller violated a documented precondition (mixed contexts, bad seed, ...)."""


class ValidationError(UsageError):
    """Scenario or context validation failed; collects every violation found."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class ParseError(WeylTypeError):
    """Lexing or parsing failed at a known source position."""

    def __init__(self, message: str, pos: int):
        self.pos = pos
        super().__init__(f"{message} (at offset {pos})")


class EvalError(WeylTypeError):
    """An expression parsed but cannot be evaluated in the given context."""

    def __init__(self, message: str, pos: int | None = None):
        self.pos = pos
        if pos is not None:
            message = f"{message} (at offset {pos})"
        super().__init__(message)


class ExponentCapError(EvalError):
    """A power x^n has |n| above operators.MAX_EXPONENT; it would cost |n| products."""


class TermCapError(EvalError):
    """A power, or a product in an expression, has more than
    operators.MAX_TERMS terms (the next product would cost more still), or
    its factors' term counts multiply past operators.MAX_TERM_PAIRS."""


class BasisCapError(WeylTypeError):
    """A truncation window enumerates more basis elements than the configured cap."""


class VariableCapError(WeylTypeError):
    """Lazy variable creation would exceed the configured hard cap."""
