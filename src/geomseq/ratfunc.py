"""Exact rational functions of k: an integer polynomial over a product of
integer polynomial factors, never reduced, so poles stay where per-term
Fraction arithmetic (the test oracle in ``tests/exact_oracle.py``) puts
them.  Sums take the lcm of the factor lists.  Values are one correctly
rounded division of Python ints, equal to ``float(Fraction(n, d))``.

:meth:`RatFunc.values` is the one array read.  It takes the indices a
sequence read takes: a window, a ``range`` of step 1, or an int64 index
array.  It uses float64 Horner when sum |a_i| k_max^i <= 2^53 for the
numerator and the denominator product: every partial is then an integer of
at most 2^53, so it is exact, and the one IEEE division rounds n/d correctly
((-n)/(-d) = n/d; an exact zero is made +0.0).  A window's float index is
built directly, exact below 2^53; each polynomial's Horner steps run in one
buffer and the quotient in the denominator's; a constant form reads no
index.  Past the bound the same steps run on Python ints.  A sequence holds
its form as :attr:`geomseq.gseq.GSeq.exact_form`.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import reduce
from typing import Iterable, Union

import numpy as np

from .errors import DomainError

__all__ = ["RatFunc", "NotExact", "MAX_DEGREE", "MAX_BITS"]

#: Caps on an exact form's degree and on the coefficient bits a power may
#: build; past them the float path takes over.  Powers are checked before
#: they expand, so ``(k+1)^1000000`` costs nothing.
MAX_DEGREE, MAX_BITS = 256, 1 << 16

Poly = tuple  # integer coefficients, constant term first, no trailing zeros
Exact = Union[int, Fraction]


class NotExact(Exception):
    """No exact rational form within the size caps."""


def _trim(coeffs: Iterable[int]) -> Poly:
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _padd(a: Poly, b: Poly) -> Poly:
    if len(a) < len(b):
        a, b = b, a
    return _trim(x + (b[i] if i < len(b) else 0) for i, x in enumerate(a))


def _pmul(a: Poly, b: Poly) -> Poly:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def _pprod(polys: Iterable[Poly]) -> Poly:
    return reduce(_pmul, polys, (1,))


def _horner(p: Poly, x):
    """p(x) for a Python int or an index array (float64 or Python-int
    objects), the array steps in one buffer; a zero coefficient adds nothing."""
    if len(p) <= 1:
        return p[0] if p else 0
    acc = x * p[-1]
    for c in p[-2:0:-1]:
        if c:
            acc += c
        acc *= x
    if p[0]:
        acc += p[0]
    return acc


class RatFunc:
    """``num(k) / prod(den)``, exact and never reduced."""

    __slots__ = ("num", "den", "den_poly")

    def __init__(self, num: Iterable[int], den: Iterable[Poly] = ()):
        self.num = _trim(num)
        self.den = tuple(d for d in den if d != (1,))
        self.den_poly = _pprod(self.den)
        if self.degree > MAX_DEGREE:
            raise NotExact(f"degree {self.degree} exceeds {MAX_DEGREE}")

    @classmethod
    def const(cls, q: Exact) -> "RatFunc":
        q = Fraction(q)
        return cls((q.numerator,), [(q.denominator,)])

    @property
    def degree(self) -> int:
        return max(len(self.num), len(self.den_poly)) - 1

    def constant(self) -> Fraction | None:
        """The value when it does not depend on k (and is defined), else None."""
        if self.degree > 0 or not self.den_poly:
            return None
        return Fraction(self.num[0] if self.num else 0, self.den_poly[0])

    def _over(self, common: Counter) -> Poly:  # num over the factors ``common``
        return _pmul(self.num, _pprod((common - Counter(self.den)).elements()))

    def __add__(self, other: "RatFunc") -> "RatFunc":
        common = Counter(self.den) | Counter(other.den)
        return RatFunc(_padd(self._over(common), other._over(common)), common.elements())

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return self + other * RatFunc((-1,))

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        return RatFunc(_pmul(self.num, other.num), self.den + other.den)

    def __truediv__(self, other: "RatFunc") -> "RatFunc":
        return self * other**-1

    def reciprocal(self) -> "RatFunc":
        """``1 / self``, keeping the poles of self: d^2 / (n d)."""
        return RatFunc(_pmul(self.den_poly, self.den_poly), self.den + (self.num,))

    def __pow__(self, p: int) -> "RatFunc":
        if p < 0:
            return self.reciprocal() ** -p
        bits = max(abs(c).bit_length() for c in self.num + self.den_poly + (1,))
        if p * self.degree > MAX_DEGREE or p * bits > MAX_BITS:
            raise NotExact(f"power {p} too large for an exact form")
        if p == 0:  # one, with the poles of self
            return RatFunc(self.den_poly, self.den)
        return RatFunc(reduce(_pmul, [self.num] * p), self.den * p)

    def shift(self, v: int) -> "RatFunc":
        """The function k -> self(k + v)."""

        def moved(p: Poly) -> Poly:
            return reduce(lambda acc, c: _padd(_pmul(acc, (v, 1)), (c,)), reversed(p), ())

        return RatFunc(moved(self.num), [moved(d) for d in self.den])

    def _pair(self, k: int) -> tuple[int, int]:
        n, d = _horner(self.num, k), _horner(self.den_poly, k)
        if d == 0:
            raise DomainError(f"division by zero at k={k}")
        return (-n, -d) if d < 0 else (n, d)

    def exact(self, k: int) -> Exact:
        q = Fraction(*self._pair(k))
        return q.numerator if q.denominator == 1 else q

    def at(self, k: int) -> float:
        """The value at k, correctly rounded; an exact zero is +0.0."""
        n, d = self._pair(k)
        try:
            return n / d
        except OverflowError:
            raise DomainError(f"exact log beyond float64 at k={k}")

    def values(self, ks: range | np.ndarray) -> np.ndarray:
        """:meth:`at` over the indices a sequence read takes: a window, a
        ``range`` of step 1, read into a 1-d array, or an int64 index array
        of any shape, read in its shape.  The first failing term in ``ks``'s
        order raises as :meth:`at` does there."""
        window = isinstance(ks, range)
        flat = ks if window else ks.reshape(-1)
        shape = (len(ks),) if window else ks.shape
        if not len(flat):
            return np.empty(shape)
        if self.degree == 0:  # a constant form reads no index
            return np.full(shape, self.at(int(flat[0])))
        k_max = flat[-1] if window else int(flat.max())  # indices start at 1
        small = all(
            sum(abs(c) * k_max**i for i, c in enumerate(p)) <= 1 << 53
            for p in (self.num, self.den_poly)
        )
        dtype = np.float64 if small else object  # the float index is exact below 2^53
        x = np.arange(ks.start, ks.stop, dtype=dtype) if window else flat.astype(dtype)
        n, d = (_horner(p, x) for p in (self.num, self.den_poly))
        if not np.all(d):
            first = np.argmin(np.broadcast_to(d, x.shape) != 0)
            raise DomainError(f"division by zero at k={int(flat[first])}")
        try:
            if self.den_poly != (1,):  # the quotient in d's buffer (or n's, d being a scalar)
                zero = n == 0  # (-n)/(-d) rounds as n/d, but 0/(-d) is -0.0
                n = np.divide(n, d, out=d if np.ndim(d) else n)
                n[zero] = 0.0
            q = n.astype(np.float64, copy=False)
        except OverflowError:
            for k in flat:
                self.at(int(k))  # raises at the first quotient past float64
            raise
        return q.reshape(shape)
