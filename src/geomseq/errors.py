"""Exception types shared across the package, and :func:`check_int`, the one
rule for integer arguments (an order, a window, a count) of library and CLI.

Every domain error derives from :class:`GeometricError` and, where it makes
sense, from the matching builtin so generic handlers keep working.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "GeometricError",
    "NonPositiveValue",
    "GeometricZeroDivisor",
    "DomainError",
    "ParseError",
    "IndexOutOfRange",
    "NoSubsequenceFound",
    "UnsupportedOrder",
]


def check_int(value, name: str, low: int | None = None) -> int:
    """``value`` as an ``int`` if it is an ``int`` or a numpy integer, not a
    ``bool``, at or above ``low``; else a ``ValueError`` naming the argument."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool) and (low is None or value >= low):
        return int(value)
    raise ValueError(f"{name} must be an integer{'' if low is None else f' >= {low}'}, got {value!r}")


class GeometricError(Exception):
    """Base class for all errors raised by this package."""


class NonPositiveValue(GeometricError, ValueError):
    """A real that must be strictly positive (and finite) was not."""


class GeometricZeroDivisor(GeometricError, ZeroDivisionError):
    """Division or inversion by the geometric zero (the number 1)."""


class DomainError(GeometricError, ValueError):
    """An evaluation left the representable domain (log of a non-positive
    quantity, overflowing inner exponential, division by zero, ...)."""


class ParseError(GeometricError, ValueError):
    """Rejected source text, with a byte offset and the token kinds that
    would have been accepted there."""

    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        self.offset = int(offset)
        self.expected = tuple(expected)
        detail = f"{message} (offset {self.offset}"
        if self.expected:
            detail += f", expected one of: {', '.join(self.expected)}"
        detail += ")"
        super().__init__(detail)


class IndexOutOfRange(GeometricError, IndexError):
    """A 1-based sequence index outside the defined range."""


class NoSubsequenceFound(GeometricError, LookupError):
    """The scan for a qualifying subsequence exhausted its window."""


class UnsupportedOrder(GeometricError, ValueError):
    """The requested difference order is outside what the operation defines."""
