"""Exception types shared across the package, and how their messages show
an offending value."""

import math


LONGEST = 64  # characters of a value that an error message quotes


def shown(value) -> str:
    """repr(value), except that a long value is named by its size, so a
    one-line error stays short: an integer beyond 64 bits ("an integer of
    401 digits"), or a string, list or dict whose repr would pass LONGEST
    characters ("a string of 3000 characters", "a list of 2000 items")."""
    if isinstance(value, int) and abs(value) >> 64:
        v = abs(value)
        # v has k or k + 1 digits; str(v) would fail past 4300 digits
        k = int((v.bit_length() - 1) * math.log10(2)) + 1
        return f"an integer of {k + (v >= 10**k)} digits"
    if not isinstance(value, (str, list, dict)):
        return repr(value)
    text = _repr_within(value, LONGEST)
    if text is not None:
        return text
    if isinstance(value, str):
        return f"a string of {len(value)} characters"
    return f"a {type(value).__name__} of {len(value)} item{'s' * (len(value) != 1)}"


def _repr_within(value, room: int) -> str | None:
    """repr(value) if it has at most room characters, else None. A string,
    list or dict, and what it holds, is read only as far as room reaches,
    so no longer repr is ever built. No repr is empty, so none fits in
    room < 1; each level of nesting takes at least 2 characters of room,
    which bounds the recursion."""
    if room < 1:
        return None
    if isinstance(value, (list, dict)):
        is_dict = isinstance(value, dict)
        parts, used = [], 0  # used: the parts so far, each with ", " or brackets
        for item in value.items() if is_dict else zip(value):
            reprs = [_repr_within(x, room - used - 2) for x in item]
            if None in reprs:
                return None
            parts.append(": ".join(reprs))
            used += len(parts[-1]) + 2
            if used > room:
                return None
        text = ("{%s}" if is_dict else "[%s]") % ", ".join(parts)
    elif isinstance(value, str):
        text = repr(value) if len(value) <= room else None
    elif isinstance(value, int) and abs(value) >> 64:
        text = None
    else:
        text = repr(value)
    return text if text is not None and len(text) <= room else None


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
