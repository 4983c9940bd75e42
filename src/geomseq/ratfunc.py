"""Exact rational functions of k: an integer polynomial over a product of
integer polynomial factors, never reduced, so poles stay where per-term
Fraction arithmetic (the test oracle in ``tests/exact_oracle.py``) puts
them.  Sums take the lcm of the factor lists; a difference
(:meth:`RatFunc.shifts`) takes it once.  Values are one correctly rounded
division of Python ints, equal to ``float(Fraction(n, d))``.

:meth:`RatFunc.values`, the one array read, uses float64 Horner when
sum |a_i| k_max^i <= 2^53 for the numerator and the denominator product:
every partial is then an exact integer, and the one IEEE division rounds
n/d correctly ((-n)/(-d) = n/d; an exact zero is made +0.0).  Past the
bound the same steps run on Python ints.  A sequence holds its form as
:attr:`geomseq.gseq.GSeq.exact_form`.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from fractions import Fraction
from functools import reduce
from typing import Iterable, Union

import numpy as np

from .errors import DomainError

__all__ = ["RatFunc", "NotExact", "MAX_DEGREE", "MAX_BITS", "INDEX_SPAN", "float_index"]

#: Caps on an exact form's degree and on the coefficient bits a power may
#: build; past them the float path takes over.  Powers are checked before
#: they expand, so ``(k+1)^1000000`` costs nothing.
MAX_DEGREE, MAX_BITS = 256, 1 << 16

Poly = tuple  # integer coefficients, constant term first, no trailing zeros
Exact = Union[int, Fraction]


#: Every integer up to here is a float64, so float indices below it and
#: products of them below it are exact.
_EXACT_INTS = 2**53

#: Terms of one window-scan piece (``gseq.SUM_CHUNK``).  A float index of up
#: to 64 terms more is one add to a shared array: that covers the m <= 60
#: extra terms a difference view reads past a piece.
INDEX_SPAN = 1 << 14
_OFFSETS = np.arange(INDEX_SPAN + 64, dtype=np.float64)


def float_index(lo: int, n: int) -> np.ndarray:
    """The float64 indices lo .. lo+n-1 as a new array, bit for bit as
    ``np.arange(lo, lo + n, dtype=float64)`` gives them.  Up to 2^53 they
    are exact, and so is adding lo to the shared offsets 0 .. n-1."""
    if n <= len(_OFFSETS) and lo + n <= _EXACT_INTS:
        return _OFFSETS[:n] + float(lo)
    return np.arange(lo, lo + n, dtype=np.float64)


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


def _taylor(p: Poly, moments: Iterable[list[int]]) -> list[Poly]:
    """sum_v w_v * p(k + v) for the weights w whose moments are each
    mu_t = sum_v w_v v^t, by the binomial expansion (von zur Gathen and
    Gerhard, *Fast algorithms for Taylor shifts*, ISSAC 1997): coefficient j
    is sum_{i >= j} C(i, j) p_i mu_{i-j}.  The moments v^t make the shift by
    v; a whole weighted sum costs one set of moments.  Not trimmed."""
    rows = [[math.comb(i, j) * p[i] for i in range(j, len(p))] for j in range(len(p))]
    return [tuple(sum(map(operator.mul, row, mu)) for row in rows) for mu in moments]


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

    def shifts(self, coeffs: list[int]) -> "RatFunc":
        """sum_v coeffs[v] * self(k + v), a difference's form, in one pass:
        each distinct polynomial Taylor-shifted once (:func:`_taylor`), one
        union of the shifted factor lists, one numerator sum over it (a
        polynomial form is one weighted sum).  It equals a chain of ``+``
        over the terms.  The chain's partial sums have degree at most
        deg num - deg den + deg common; past :data:`MAX_DEGREE` the terms are
        summed by that chain, which raises :class:`NotExact` where it does."""
        vs = range(len(coeffs))
        powers = [[v**t for t in range(max(map(len, (self.num, *self.den))))] for v in vs]
        weighted = [[c * x for x in pw] for c, pw in zip(coeffs, powers)]
        if not self.den:
            return RatFunc(_taylor(self.num, [list(map(sum, zip(*weighted)))])[0])
        nums = _taylor(self.num, weighted)
        moved = {d: _taylor(d, powers) for d in set(self.den)}
        dens = [tuple(moved[d][v] for d in self.den) for v in vs]
        common = Counter()
        for den in dens:
            common |= Counter(den)
        if len(self.num) - 1 + sum(len(f) - 1 for f in (common - Counter(self.den)).elements()) > MAX_DEGREE:
            return reduce(operator.add, map(RatFunc, nums, dens))
        over = (_pmul(num, _pprod((common - Counter(den)).elements())) for num, den in zip(nums, dens))
        return RatFunc(reduce(_padd, over), common.elements())

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
        """:meth:`at` over the indices a sequence read takes, as a 1-d array:
        a window, a ``range`` of step 1, or an int64 index array.  The first
        failing term in ``ks``'s order raises as :meth:`at` does there."""
        if not len(ks):
            return np.empty(0)
        if self.degree == 0:  # a constant form reads no index
            return np.full(len(ks), self.at(int(ks[0])))
        window = isinstance(ks, range)
        k_max = ks[-1] if window else int(ks.max())  # indices start at 1
        small = all(
            sum(abs(c) * k_max**i for i, c in enumerate(p)) <= _EXACT_INTS
            for p in (self.num, self.den_poly)
        )
        if small:  # the float index is exact below 2^53
            x = float_index(ks.start, len(ks)) if window else ks.astype(np.float64)
        else:  # exact Python ints
            x = np.arange(ks.start, ks.stop, dtype=object) if window else ks.astype(object)
        n, d = (_horner(p, x) for p in (self.num, self.den_poly))
        if not np.all(d):
            first = np.argmin(np.broadcast_to(d, x.shape) != 0)
            raise DomainError(f"division by zero at k={int(ks[first])}")
        try:
            if self.den_poly != (1,):  # the quotient in d's buffer (or n's, d being a scalar)
                zero = n == 0  # (-n)/(-d) rounds as n/d, but 0/(-d) is -0.0
                n = np.divide(n, d, out=d if np.ndim(d) else n)
                n[zero] = 0.0
            return n.astype(np.float64, copy=False)
        except OverflowError:
            for k in ks:
                self.at(int(k))  # raises at the first quotient past float64
            raise
