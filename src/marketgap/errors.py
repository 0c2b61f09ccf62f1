"""Exception types shared across the package, with process exit codes for the CLI,
and the checks that a setting is a value of its kind."""
import math
import numbers

EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


class MarketGapError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class UsageError(MarketGapError):
    """Invalid flag value or unsupported parameter combination."""

    exit_code = EXIT_USAGE


def check_int(label: str, value, minimum: int, unit: str = "") -> None:
    """A UsageError naming `label` unless `value` is an integer >= minimum.

    A bool, a string, None and a float (60.0 too) are no integer, so a manifest
    must hold an integer setting as a JSON integer, as a flag's `int` gives it.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise UsageError(f"{label} must be an integer, got {value!r}")
    if value < minimum:
        raise UsageError(f"{label} must be >= {minimum}{unit}, got {value}")


def check_real(label: str, value, positive: bool = False) -> None:
    """A UsageError naming `label` unless `value` is a finite real number (> 0 if positive).

    An integer counts as a real; a bool, a string and None do not.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise UsageError(f"{label} must be a number, got {value!r}")
    if not math.isfinite(value) or (positive and value <= 0):
        raise UsageError(
            f"{label} must be finite{' and positive' if positive else ''}, got {value}")


def check_choice(label: str, value, choices: tuple) -> None:
    """A UsageError naming `label` unless `value` is one of `choices`."""
    if value not in choices:
        raise UsageError(f"{label} must be one of {choices}, got {value!r}")


class DataError(MarketGapError):
    """Input data violates a documented contract."""

    exit_code = EXIT_DATA


class ParseError(DataError):
    """Malformed input file; carries the offending line number."""

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        loc = ""
        if path is not None:
            loc += str(path)
        if line is not None:
            loc += f":{line}"
        super().__init__(f"{loc}: {message}" if loc else message)
        self.path = path
        self.line = line


class NumericError(MarketGapError):
    """Numerical computation failed or is undefined for the given inputs."""

    exit_code = EXIT_NUMERIC


class DegenerateWindowError(NumericError):
    """A window (or cross-section date) retained too few usable assets."""


class UndefinedCorrelationError(NumericError):
    """Rank correlation undefined because one input has zero rank variance."""
