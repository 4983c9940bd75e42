"""Scalar arithmetic of the geometric number field.

The strictly positive reals form a field when ordinary multiplication plays
the role of addition and exponent multiplication the role of multiplication:

    x (+) y = x * y              x (-) y = x / y
    x (*) y = x ** ln(y)         x (/) y = x ** (1 / ln(y))

The number 1 is the zero of this field and e is its unit.  Since every one
of these operations is plain arithmetic on natural logarithms, a geometric
number is stored only as its log.  That keeps quantities like e^(k^4) exact
where their real value would overflow a double thousands of indices earlier.

The geometric absolute value is ``exp(|ln x|)`` and is therefore always at
least 1; the order on geometric numbers is the order of their logs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, GeometricZeroDivisor, NonPositiveValue, check_int

__all__ = [
    "GNum",
    "GZERO",
    "GUNIT",
    "gadd",
    "gsub",
    "gmul",
    "gdiv",
    "gabs",
    "gpow",
    "ginv",
    "natural",
    "is_gzero",
]

#: Log magnitudes at or below this count as the geometric zero for division.
ZERO_LOG_TOL = 1e-12


@dataclass(frozen=True, slots=True, order=True)
class GNum:
    """A positive real represented by its natural logarithm; geometric
    numbers are ordered by their logs.

    Construct with :meth:`from_value` for ordinary positive reals or
    :meth:`from_log` when the log is already known (the usual case for
    sequences defined through an exponent).
    """

    log_value: float

    @staticmethod
    def from_value(v: float) -> "GNum":
        if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
            raise NonPositiveValue(
                f"geometric numbers are strictly positive finite reals, got {v!r}"
            )
        return GNum(math.log(v))

    @staticmethod
    def from_log(u: float) -> "GNum":
        u = float(u)
        if not math.isfinite(u):
            raise DomainError(f"log of a geometric number must be finite, got {u!r}")
        return GNum(u)

    @property
    def value(self) -> float:
        """The represented real.  Overflows to ``inf`` for logs above ~709."""
        try:
            return math.exp(self.log_value)
        except OverflowError:
            return math.inf

    RENDER = "e^{:.12g}"  # the format of render(), shared by the CLI's row writer

    def render(self) -> str:
        """Human-oriented form that never materializes the value."""
        return self.RENDER.format(self.log_value)

    def __repr__(self) -> str:
        return f"GNum({self.render()})"


#: The geometric zero (the real number 1).
GZERO = GNum(0.0)

#: The geometric unit (the real number e).
GUNIT = GNum(1.0)


def is_gzero(x: GNum, tol: float = ZERO_LOG_TOL) -> bool:
    """True when x is the geometric zero up to the log tolerance."""
    return abs(x.log_value) <= tol


def gadd(x: GNum, y: GNum) -> GNum:
    """Geometric addition: value product, log sum."""
    return GNum(x.log_value + y.log_value)


def gsub(x: GNum, y: GNum) -> GNum:
    """Geometric subtraction: value quotient, log difference."""
    return GNum(x.log_value - y.log_value)


def gmul(x: GNum, y: GNum) -> GNum:
    """Geometric multiplication: x ** ln(y), i.e. log product."""
    return GNum(x.log_value * y.log_value)


def gdiv(x: GNum, y: GNum) -> GNum:
    """Geometric division: x ** (1/ln(y)).  y must not be the geometric zero."""
    if abs(y.log_value) <= ZERO_LOG_TOL:
        raise GeometricZeroDivisor(
            f"geometric division by {y!r}, which is the geometric zero"
        )
    return GNum(x.log_value / y.log_value)


def gabs(x: GNum) -> GNum:
    """Geometric absolute value exp(|ln x|); always at least 1."""
    return GNum(abs(x.log_value))


def gpow(x: GNum, p: int) -> GNum:
    """p-fold geometric power, log_value ** p.

    ``p = 0`` yields the geometric unit e for every x, matching the
    convention used by the binomial expansion of the difference operator.
    """
    return GNum(x.log_value ** check_int(p, "p", 0))


def ginv(x: GNum) -> GNum:
    """Geometric multiplicative inverse e^(1/ln x); undefined at the zero."""
    if abs(x.log_value) <= ZERO_LOG_TOL:
        raise GeometricZeroDivisor(
            f"geometric inverse of {x!r}, which is the geometric zero"
        )
    return GNum(1.0 / x.log_value)


def natural(n: int) -> GNum:
    """The geometric image e^n of the integer n (geometric counting)."""
    return GNum(float(check_int(n, "n")))
