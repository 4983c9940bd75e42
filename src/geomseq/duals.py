"""Dual-space membership tests for the geometric difference spaces.

For the order-m difference spaces, a candidate multiplier sequence a sits in

* the alpha dual iff the geometric series of e^(k^m) (.) |a_k| converges,
  i.e. sum k^m |ln a_k| is finite;
* the alpha-alpha (second alpha) dual iff sup e^(k^-m) (.) |a_k| is
  geometrically bounded, i.e. sup k^-m |ln a_k| < inf;
* the beta dual (first order only) iff sum k ln a_k converges as a signed
  series and sum_k |R_k| < inf, R_k = sum_{j>k} ln a_j, read from two
  dyadic blocks of |R_k|, each with R_k cut at the block's own end;
* the gamma dual (first order only) iff the partial sums of k ln a_k stay
  bounded and the same tail condition holds.

The second dual being strictly larger than the original space (bounded
differences do not force summable weighted logs) is what makes these spaces
non-perfect; the test suite pins that down via e^(k^m).

Beta and gamma tests beyond m = 1 are not defined here and raise
:class:`UnsupportedOrder`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .codec import Report, json_key
from .errors import NoSubsequenceFound, UnsupportedOrder
from .exprdsl import float_index
from .garith import GNum
from .gdiff import check_order
from .gseq import (
    DEFAULT_TOL,
    DEFAULT_WINDOW,
    ExactSum,
    GSeq,
    RunningMax,
    SparseLogSeq,
    Verdict,
    VerdictKind,
    check_window,
    conjunction,
    monotone_verdict,
    series_verdict,
    window_ends,
    window_scan,
)
from .spaces import weighted_sup

__all__ = [
    "DUAL_KINDS",
    "DualReport",
    "alpha_dual_test",
    "alpha_alpha_dual_test",
    "beta_dual_test",
    "gamma_dual_test",
    "dual_test",
    "counterexample_sequence",
]

DUAL_KINDS = ("alpha", "alpha_alpha", "beta", "gamma")


@dataclass(frozen=True)
class DualReport(Report):
    """Outcome of one dual-membership test."""

    kind: str
    m: int
    verdict: Verdict
    partial_value: GNum = field(metadata=json_key("partial_log"))
    remainder_ok: Optional[Verdict] = None

    @property
    def member(self) -> bool:
        return self.verdict.kind is VerdictKind.FINITE


def alpha_dual_test(
    a: GSeq, m: int, N: int = DEFAULT_WINDOW, tol: float = DEFAULT_TOL
) -> DualReport:
    """Summability of k^m |ln a_k| by the three-window protocol."""
    m = check_order(m)
    check_window(N, tol)
    t_half, t_n, t_2n = window_scan(a, 1, window_ends(N), ExactSum(), weight=float(m))
    verdict = monotone_verdict(t_half, t_n, t_2n, N, tol)
    return DualReport("alpha", m, verdict, GNum(t_n))


def alpha_alpha_dual_test(
    a: GSeq, m: int, N: int = DEFAULT_WINDOW, tol: float = DEFAULT_TOL
) -> DualReport:
    """Boundedness of k^-m |ln a_k| by the three-window protocol."""
    m = check_order(m)
    partial, verdict = weighted_sup(a, 0, -float(m), N, tol)
    return DualReport("alpha_alpha", m, verdict, partial)


class _PartialSums:
    """The partial sums S_k of k ln a_k, folded piece by piece: :meth:`read`
    gives S and sup |S| through the last term added, and ``spans`` holds
    the range of S over [N/2, N] and over [N, 2N].  Each piece's cumsum
    starts from the carried S, so S is summed term after term as one cumsum
    over [1, 2N] sums it.  Once S leaves float64 it holds that +-inf (or
    nan) rather than forming inf - inf."""

    def __init__(self, N: int):
        self.carry = -0.0  # -0.0 + x is x: the first partial is the first term
        self.top = RunningMax()
        self.spans = {(N // 2, N): [math.inf, -math.inf], (N, 2 * N): [math.inf, -math.inf]}

    def add(self, k: int, logs: np.ndarray) -> None:
        if math.isfinite(self.carry):
            s = float_index(k, len(logs))
            with np.errstate(over="ignore", invalid="ignore"):
                s *= logs
                s[0] = self.carry + s[0]
                np.cumsum(s, out=s)
            if not math.isfinite(s[-1]):  # the series passed float64, never to return
                i = int(np.argmax(~np.isfinite(s)))
                s[i:] = s[i]
        else:
            s = np.full(len(logs), self.carry)
        self.carry = float(s[-1])
        self.top.add(k, np.abs(s))
        for (lo, hi), span in self.spans.items():
            part = s[max(lo - k, 0) : max(hi - k + 1, 0)]
            if len(part):
                span[0] = np.minimum(span[0], part.min())
                span[1] = np.maximum(span[1], part.max())

    def read(self) -> tuple[float, float]:
        return self.carry, self.top.read()


def _tail_blocks(a: GSeq, N: int) -> tuple[float, float]:
    """A(N) and A(2N) in one backward scan of terms N/2+1 .. 2N: A(e) sums
    |R_k| over e/2 <= k < e, R_k being the sum of the logs of terms k+1 .. e.
    For R_k ~ c k^-alpha, A(2N) / A(N) = 2^(1-alpha), as for the uncut R_k.

    R_k is summed from term e down, as the reversed cumsum of the block's
    logs sums it, by one running float; each block has its own exact sum.
    """
    blocks = {N: ExactSum(), 2 * N: ExactSum()}
    for k, logs in a.log_chunks(N // 2 + 1, 2 * N, (N,), reverse=True):
        if k + len(logs) - 1 in blocks:
            carry = -0.0  # -0.0 + x is x: R_{e-1} is term e
        r = logs[::-1].copy()
        with np.errstate(over="ignore"):
            r[0] = carry + r[0]
            np.cumsum(r, out=r)
        carry = float(r[-1])
        blocks[N if k <= N else 2 * N].add(k, np.abs(r, out=r))
    return blocks[N].read(), blocks[2 * N].read()


def _first_order_test(kind: str, a: GSeq, N: int, tol: float) -> DualReport:
    """A condition on the partial sums S of k ln a_k, joined with the tail
    condition read as 0, A(N), A(N) + A(2N) (:func:`_tail_blocks`; m = 1):
    for beta S converges (is Cauchy-flat), for gamma sup |S| stabilizes."""
    check_window(N, tol)
    ends, partials = window_ends(N), _PartialSums(N)
    (_, top_half), (s_n, top_n), (s_2n, top_2n) = window_scan(a, 1, ends, partials)
    if kind == "beta":
        label = "series"
        cond = series_verdict(s_n, s_2n, top_2n, *partials.spans.values(), N, tol)
    else:
        label, cond = "partial sups", monotone_verdict(top_half, top_n, top_2n, N, tol)
    a_n, a_2n = _tail_blocks(a, N)
    cond_tails = monotone_verdict(0.0, a_n, a_n + a_2n, N, tol)
    joint = conjunction(cond, cond_tails)
    overall = Verdict(
        joint,
        cond.estimate if joint is VerdictKind.FINITE else None,
        N,
        cond.probe_n,
        cond.probe_2n,
        f"{label} {cond.kind.value}; tails {cond_tails.kind.value}",
    )
    return DualReport(kind, 1, overall, GNum(s_n), remainder_ok=cond_tails)


def beta_dual_test(
    a: GSeq, N: int = DEFAULT_WINDOW, tol: float = DEFAULT_TOL
) -> DualReport:
    """Signed convergence of sum k ln a_k plus the tail condition (m = 1)."""
    return _first_order_test("beta", a, N, tol)


def gamma_dual_test(
    a: GSeq, N: int = DEFAULT_WINDOW, tol: float = DEFAULT_TOL
) -> DualReport:
    """Bounded partial sums of k ln a_k plus the tail condition (m = 1)."""
    return _first_order_test("gamma", a, N, tol)


def dual_test(
    a: GSeq,
    kind: str,
    m: int = 1,
    N: int = DEFAULT_WINDOW,
    tol: float = DEFAULT_TOL,
) -> DualReport:
    """Dispatch a dual test by kind name.

    ``beta`` and ``gamma`` are first-order notions; any other m is refused.
    """
    name = kind.replace("-", "_")
    if name not in DUAL_KINDS:
        raise ValueError(f"dual kind must be one of {DUAL_KINDS}, got {kind!r}")
    if name == "alpha":
        return alpha_dual_test(a, m, N, tol)
    if name == "alpha_alpha":
        return alpha_alpha_dual_test(a, m, N, tol)
    if m != 1:
        raise UnsupportedOrder(
            f"the {name} dual test is defined for m = 1 only, got m = {m}"
        )
    if name == "beta":
        return beta_dual_test(a, N, tol)
    return gamma_dual_test(a, N, tol)


def counterexample_sequence(
    a: GSeq, m: int, count: int, search_window: int = DEFAULT_WINDOW
) -> SparseLogSeq:
    """Build the sparse sequence witnessing that a falls outside the
    second dual's pre-image.

    Scans for indices k(1) < k(2) < ... with k(i)^-m |ln a_{k(i)}| > i^m,
    then places the geometric inverse of |a_{k(i)}| at k(i) and the
    geometric zero elsewhere.  The result has sum k^m |ln x_k| dominated by
    sum i^-m over the selected indices.  The terms come in engine pieces
    (:meth:`~geomseq.gseq.GSeq.log_chunks`) up to the count-th hit; a piece
    that fails to read ends the search with its own error.
    """
    m = check_order(m)
    if not isinstance(count, int) or count < 1:
        raise ValueError(f"count must be a positive integer, got {count!r}")
    if not isinstance(search_window, int) or search_window < 1:
        raise ValueError(f"search_window must be a positive integer, got {search_window!r}")
    limit = search_window if a.length is None else min(search_window, a.length)
    entries: dict[int, float] = {}
    for k, logs in a.log_chunks(1, limit) if limit else ():
        for idx, log in enumerate(logs.tolist(), k):
            if abs(log) * float(idx) ** (-m) > float(len(entries) + 1) ** m:
                entries[idx] = 1.0 / abs(log)
                if len(entries) == count:
                    return SparseLogSeq(entries)
    raise NoSubsequenceFound(
        f"no subsequence with k^-{m}|ln a_k| exceeding i^{m} found in "
        f"the first {limit} terms (got {len(entries)} of {count})"
    )
