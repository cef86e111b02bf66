"""Exception types shared across the package, and how their messages show
an offending value."""

import math


def shown(value) -> str:
    """repr(value), except that an integer beyond 64 bits is named by its
    size ("an integer of 401 digits"), so a one-line error stays short."""
    if not isinstance(value, int) or not abs(value) >> 64:
        return repr(value)
    v = abs(value)
    # v has k or k + 1 digits; str(v) would fail past 4300 digits
    k = int((v.bit_length() - 1) * math.log10(2)) + 1
    return f"an integer of {k + (v >= 10**k)} digits"


class GhzstabError(Exception):
    """Base class for all package errors."""


class ShapeError(GhzstabError, ValueError):
    """Operands have incompatible shapes or dimensions."""


class SizeError(GhzstabError, ValueError):
    """A requested object exceeds the configured size limits."""


class DomainError(GhzstabError, ValueError):
    """An argument is outside the valid domain of the operation."""


class PreconditionError(GhzstabError, ValueError):
    """A documented precondition of the operation does not hold."""


class InternalConsistencyError(GhzstabError, RuntimeError):
    """Two routes to the same quantity disagree; signals a bug, not bad input."""
