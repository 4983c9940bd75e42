"""The generalized geometric difference operator and its norm.

The m-th order operator applies x_k (-) x_{k+1} recursively; expanded, the
log of the m-th difference at k is the alternating binomial combination

    sum_{v=0}^{m} (-1)^v C(m, v) * ln x_{k+v}

which is the classical m-fold forward difference of the logs up to the sign
(-1)^m.  The binomial view is the one implementation; it reads its child
once per read, over the count + m terms a window needs or the m + 1 terms
of each point, :data:`~geomseq.gseq.SUM_CHUNK` points at a time.  The
recursive chain is m order-1 binomial views: at m = 1 it is the same
operator, and for m >= 2 its nested first differences round differently
from the one-shot expansion, so it checks that expansion.  The test suite
holds both against the classical m-fold forward difference of the logs.

Polynomial exponents are the canonical stress case: the m-th difference of
e^(k^m) is the constant e^((-1)^m * m!) and the (m+1)-st collapses to the
geometric zero.  Given an exact form (:class:`~geomseq.gseq.ExactForm`),
both operators difference it symbolically once, in one pass
(:meth:`~geomseq.ratfunc.RatFunc.shifts`), when the view is built, and read
every window and point from it (exact float64 Horner while every value
stays within 2^53, Python ints beyond); float64 renderings of k^4 near
k = 1e4 would leave noise of order 2^m.  A window reaches the form as its
``range``, so no int64 index array is built for it.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .errors import UnsupportedOrder, check_int
from .garith import GNum
from .gseq import SUM_CHUNK, ExactSum, GSeq, _check_index, sup_gabs

__all__ = [
    "MAX_ORDER",
    "binomial_row",
    "delta_recursive",
    "delta_binomial",
    "d_operator",
    "delta_norm",
]

#: Largest supported difference order for the binomial table.
MAX_ORDER = 60


def check_order(m: int, name: str = "m") -> int:
    """The order as an ``int`` >= 0 (:func:`~geomseq.errors.check_int`), at most MAX_ORDER."""
    m = check_int(m, name, 0)
    if m > MAX_ORDER:
        raise UnsupportedOrder(f"difference order {m} exceeds the supported maximum {MAX_ORDER}")
    return m


def binomial_row(m: int) -> list[int]:
    """Row m of Pascal's triangle as exact integers."""
    m = check_order(m)
    return [math.comb(m, v) for v in range(m + 1)]


class _DeltaBinomialView(GSeq):
    """m-th geometric difference through the alternating binomial form."""

    def __init__(self, child: GSeq, m: int):
        self.child = child
        self.m = check_order(m)
        row = binomial_row(self.m)
        self.coeffs = [c if v % 2 == 0 else -c for v, c in enumerate(row)]
        if child.exact_form is not None:
            self.exact_form = child.exact_form.shifts(self.coeffs)

    @property
    def length(self) -> Optional[int]:
        n = self.child.length
        return None if n is None else max(0, n - self.m)

    def _read(self, ks: range | np.ndarray) -> np.ndarray:
        if self.exact_form is not None:
            return self.exact_form.values(ks)
        n, m = len(ks), self.m  # terms[v][i] is term ks[i] + v, checked before k + m wraps
        if isinstance(ks, range):  # the window's count + m terms in one read
            _check_index(ks.stop - 1 + m)
            block = self.child._read(range(ks.start, ks.stop + m))
            terms = [block[v : v + n] for v in range(m + 1)]
        else:  # each point's m + 1 terms, point by point: a failing read names the same term
            _check_index(int(ks.max(initial=1)) + m)
            if n > SUM_CHUNK:  # SUM_CHUNK points at a time, in order, so the grid stays bounded
                return np.concatenate([self._read(ks[i : i + SUM_CHUNK]) for i in range(0, n, SUM_CHUNK)])
            terms = self.child._read((ks[:, None] + np.arange(m + 1)).ravel()).reshape(n, m + 1).T
        out = np.zeros(n)
        with np.errstate(invalid="ignore"):  # inf - inf is redone below
            for c, t in zip(self.coeffs, terms):
                out += c * t
        bad = ~np.isfinite(out)  # a partial sum left float64: redo it at 2^-61
        if bad.any():
            redo = sum(c * np.ldexp(t[bad], -61) for c, t in zip(self.coeffs, terms))
            out[bad] = np.ldexp(redo, 61)
        return out


class _DOperatorView(GSeq):
    """The head-flattening map: first m terms pinned to the geometric zero."""

    def __init__(self, child: GSeq, m: int):
        self.child = child
        self.m = check_order(m)
        if child.exact_form is not None:
            self.exact_form = child.exact_form.pinned(self.m)

    @property
    def length(self) -> Optional[int]:
        return self.child.length

    def _read(self, ks: range | np.ndarray) -> np.ndarray:
        # a pinned term is 0; the child is not read there
        kept = slice(max(0, self.m + 1 - ks.start), None) if isinstance(ks, range) else ks > self.m
        out = np.zeros(len(ks))
        out[kept] = self.child._read(ks[kept])
        return out


def delta_recursive(x: GSeq, m: int) -> GSeq:
    """m chained first-order differences, each an order-1 binomial view:
    for m >= 2 a check of the one-shot expansion."""
    for _ in range(check_order(m)):
        x = delta_binomial(x, 1)
    return x


def delta_binomial(x: GSeq, m: int) -> GSeq:
    """Default implementation via the alternating binomial expansion."""
    m = check_order(m)
    if m == 0:
        return x
    return _DeltaBinomialView(x, m)


def d_operator(x: GSeq, m: int) -> GSeq:
    """Pin the first m terms to the geometric zero, keep the rest.

    On the image of this map the difference norm below loses its head sum
    and collapses to the plain sup norm of the m-th difference.
    """
    m = check_order(m)
    return _DOperatorView(x, m)


def delta_norm(x: GSeq, m: int, N: int) -> GNum:
    """The difference-space norm at window N.

    Geometric sum of the geometric absolute values of the first m terms,
    geometrically added to the sup of the m-th difference's absolute values
    over k <= N.  In logs: sum of |ln x_i| plus max |ln (delta^m x)_k|.
    """
    m = check_order(m)
    N = check_int(N, "N", 1)
    head = ExactSum()
    head.add(1, np.abs(x.log_points(range(1, m + 1))))
    return GNum(head.read() + sup_gabs(delta_binomial(x, m), N).log_value)
