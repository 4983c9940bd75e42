"""The generalized geometric difference operator and its norm.

The m-th order operator applies x_k (-) x_{k+1} recursively; expanded, the
log of the m-th difference at k is the alternating binomial combination

    sum_{v=0}^{m} (-1)^v C(m, v) * ln x_{k+v}

which is the classical m-fold forward difference of the logs up to the sign
(-1)^m.  Two independent implementations are kept deliberately: the
recursive chain is the reference oracle, the binomial form is the fast
default, and the test suite holds them against each other.  Each reads its
child once per window, over the count + m terms the window needs.

Polynomial exponents are the canonical stress case: the m-th difference of
e^(k^m) is the constant e^((-1)^m * m!) and the (m+1)-st collapses to the
geometric zero.  Given an exact form (:class:`~geomseq.gseq.ExactForm`),
both operators difference it symbolically once, when the view is built, and
read every window and point from it (int64 below 2^53, Python ints beyond);
float64 renderings of k^4 near k = 1e4 would leave noise of order 2^m.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .garith import GNum
from .gseq import GSeq, exact_prefix_sums

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


def check_order(m: int) -> int:
    if not isinstance(m, int) or isinstance(m, bool) or m < 0:
        raise ValueError(f"difference order must be a nonnegative integer, got {m!r}")
    if m > MAX_ORDER:
        raise OverflowError(
            f"difference order {m} exceeds the supported maximum {MAX_ORDER}"
        )
    return m


def binomial_row(m: int) -> list[int]:
    """Row m of Pascal's triangle as exact integers."""
    m = check_order(m)
    row = [1]
    for _ in range(m):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row


class _DeltaStepView(GSeq):
    """One first-order geometric difference of the parent sequence."""

    def __init__(self, child: GSeq):
        self.child = child
        if child.exact_form is not None:
            self.exact_form = child.exact_form.shifts([1, -1])

    @property
    def length(self) -> Optional[int]:
        n = self.child.length
        return None if n is None else max(0, n - 1)

    def _windows(self, starts: np.ndarray, count: int) -> np.ndarray:
        if self.exact_form is not None:
            return self.exact_form.values(starts[:, None] + np.arange(count))
        block = self.child._windows(starts, count + 1)
        return block[:, :-1] - block[:, 1:]


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

    def _windows(self, starts: np.ndarray, count: int) -> np.ndarray:
        if self.exact_form is not None:
            return self.exact_form.values(starts[:, None] + np.arange(count))
        block = self.child._windows(starts, count + self.m)
        out = np.zeros((len(starts), count))
        with np.errstate(invalid="ignore"):  # inf - inf is redone below
            for v, c in enumerate(self.coeffs):
                out += c * block[:, v : v + count]
        bad = ~np.isfinite(out)  # a partial sum left float64: redo it at 2^-61
        if bad.any():
            redo = sum(c * np.ldexp(block[:, v : v + count][bad], -61) for v, c in enumerate(self.coeffs))
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

    def _windows(self, starts: np.ndarray, count: int) -> np.ndarray:
        head = starts <= self.m  # a pinned term is 0; the child is not read there
        if not head.any():
            return self.child._windows(starts, count)
        out = np.zeros((len(starts), count))
        out[~head] = self.child._windows(starts[~head], count)
        for i, h in zip(np.flatnonzero(head), self.m + 1 - starts[head]):
            if h < count:
                out[i, h:] = self.child._windows(np.array([self.m + 1]), count - h)[0]
        return out


def delta_recursive(x: GSeq, m: int) -> GSeq:
    """Reference implementation: m chained first-order differences."""
    m = check_order(m)
    out = x
    for _ in range(m):
        out = _DeltaStepView(out)
    return out


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
    if not isinstance(N, int) or N < 1:
        raise ValueError(f"norm window must be a positive integer, got {N!r}")
    head = exact_prefix_sums(np.abs(x.log_points(np.arange(1, m + 1))), [m])[0]
    tail_view = delta_binomial(x, m)
    sup = float(np.max(np.abs(tail_view.log_values(1, N))))
    return GNum(head + sup)
