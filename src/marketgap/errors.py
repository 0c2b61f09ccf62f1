"""Exception types shared across the package, with process exit codes for the CLI."""

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


class MarketGapError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class UsageError(MarketGapError):
    """Invalid flag value or unsupported parameter combination."""

    exit_code = EXIT_USAGE


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
