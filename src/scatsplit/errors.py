"""Exception hierarchy.

Every error raised on purpose by this package derives from ScatsplitError so
callers (and the CLI) can distinguish "bad input", "numerics out of tolerance"
and "internal bug" without string matching.
"""


class ScatsplitError(Exception):
    """Base class for all package errors."""


class ConfigError(ScatsplitError):
    """Invalid user input: malformed barrier/packet/run description."""


class DomainError(ScatsplitError):
    """Mathematically invalid argument (k <= 0, grid not sorted, ...)."""


class ToleranceError(ScatsplitError):
    """A numerical result failed a required tolerance check."""


class UndefinedTimeError(DomainError):
    """A characteristic time is undefined (e.g. reflection time at R = 0)."""


class GridRefinementError(ToleranceError):
    """A grid was detected to be too coarse for the requested quantity."""


class WindowError(ToleranceError):
    """An integration window or spatial grid does not cover the support."""

