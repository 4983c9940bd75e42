"""Dual-space membership tests for the geometric difference spaces.

For the order-m difference spaces, a candidate multiplier sequence a sits in

* the alpha dual iff the geometric series of e^(k^m) (.) |a_k| converges,
  i.e. sum k^m |ln a_k| is finite;
* the alpha-alpha (second alpha) dual iff sup e^(k^-m) (.) |a_k| is
  geometrically bounded, i.e. sup k^-m |ln a_k| < inf;
* the beta dual (first order only) iff sum k ln a_k converges as a signed
  series and sum_k |R_k| < inf, R_k = sum_{j>k} ln a_j, read from two
  dyadic blocks of |R_k|, each with R_k cut at the block's own end and
  summed in the partial sums' cumsum as its imaginary lane (:class:`_FirstOrderSums`);
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
from .errors import GeometricError, NoSubsequenceFound, UnsupportedOrder, check_int
from .garith import GNum
from .gdiff import check_order
from .gseq import (
    DEFAULT_TOL,
    DEFAULT_WINDOW,
    ExactSum,
    GSeq,
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
from .ratfunc import float_index
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
    N = check_window(N, tol)
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


class _FirstOrderSums:
    """The partial sums S_k of k ln a_k and the tails R_k in one cumsum per
    piece over [1, 2N]: its real lane holds k ln a_k, its imaginary lane the
    logs of terms 2N, 2N - 1, ..., N/2 + 1, read by ``a._piece`` as windows
    (ascending ``range``s of terms) and reversed; numpy adds the lanes as
    two float64 chains.  So S and R_k (the sum of the logs of
    terms k+1 .. e, from each block's end e = 2N, then N, down) come out bit
    for bit as a cumsum over [1, 2N] and a reversed cumsum of each block.
    A tail piece that fails to read ends the tails; :meth:`tails` raises its
    error if the forward scan, whose first failing piece comes first, ends
    clean.  :meth:`read` gives S, sup |S| and the range of S since the last
    end, that end's S included.  Once S leaves float64 it holds that +-inf
    (or nan) rather than forming inf - inf."""

    def __init__(self, a: GSeq, N: int):
        self.a, self.N = a, N
        self.s = self.r = -0.0  # -0.0 + x is x: a chain's first sum is its first term
        self.top, self.span = -math.inf, (math.inf, -math.inf)
        self.blocks = {N: ExactSum(), 2 * N: ExactSum()}
        self.error: Optional[GeometricError] = None

    def add(self, k: int, logs: np.ndarray) -> None:
        N, n = self.N, len(logs)
        if k - 1 in (N // 2, N):
            self.span = (self.s, self.s)
        paired = 0 if self.error else min(n, max(2 * N - N // 2 - k + 1, 0))  # to term N/2 + 1
        if paired:
            try:
                tail = self.a._piece(2 * N + 2 - k - paired, paired)
            except GeometricError as err:
                self.error, paired = err, 0
        z = np.zeros(n, dtype=complex) if paired else np.empty(n)
        s = z.real
        with np.errstate(over="ignore", invalid="ignore"):
            np.multiply(float_index(k, n), logs, out=s)
            s[0] = self.s + s[0] if math.isfinite(self.s) else self.s
            if paired:
                z.imag[:paired] = tail[::-1]
                z.imag[0] = (-0.0 if k == N + 1 else self.r) + z.imag[0]
            np.cumsum(z, out=z)
        if not math.isfinite(s[-1]):  # the series passed float64, never to return
            i = int(np.argmax(~np.isfinite(s)))
            s[i:] = s[i]
        self.s = float(s[-1])
        lo, hi = s.min(), s.max()
        self.top = float(np.maximum(self.top, np.maximum(hi, -lo) + 0.0))  # -0.0 sups read 0.0
        self.span = (np.minimum(self.span[0], lo), np.maximum(self.span[1], hi))
        if paired:
            self.r = float(z.imag[paired - 1])
            self.blocks[2 * N if k <= N else N].add(k, np.abs(z.imag[:paired]))

    def read(self) -> tuple:
        return self.s, self.top, self.span

    def tails(self) -> tuple[float, float]:
        """A(N) and A(2N): A(e) sums |R_k| over e/2 <= k < e.  For
        R_k ~ c k^-alpha, A(2N) / A(N) = 2^(1-alpha), as for the uncut R_k."""
        if self.error:
            raise self.error
        return self.blocks[self.N].read(), self.blocks[2 * self.N].read()


def _first_order_test(kind: str, a: GSeq, N: int, tol: float) -> DualReport:
    """A condition on the partial sums S of k ln a_k, joined with the tail
    condition read as 0, A(N), A(N) + A(2N) (:meth:`_FirstOrderSums.tails`;
    m = 1): for beta S converges (is Cauchy-flat), for gamma sup |S| stabilizes."""
    N = check_window(N, tol)
    sums = _FirstOrderSums(a, N)
    (_, top_half, _), (s_n, top_n, r1), (s_2n, top_2n, r2) = window_scan(a, 1, window_ends(N), sums)
    if kind == "beta":
        label, cond = "series", series_verdict(s_n, s_2n, top_2n, r1, r2, N, tol)
    else:
        label, cond = "partial sups", monotone_verdict(top_half, top_n, top_2n, N, tol)
    a_n, a_2n = sums.tails()
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
    if check_order(m) != 1:
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
    (:meth:`~geomseq.gseq.GSeq.log_chunks`) up to the count-th hit, the
    first four of 1024, 1024, 2048 and 4096 terms so that an early hit reads
    few; a piece that fails to read ends the search with its own error.
    """
    m = check_order(m)
    count = check_int(count, "count", 1)
    search_window = check_int(search_window, "search_window", 1)
    limit = search_window if a.length is None else min(search_window, a.length)
    entries: dict[int, float] = {}
    for k, logs in a.log_chunks(1, limit, (1024, 2048, 4096, 8192)) if limit else ():
        for idx, log in enumerate(logs.tolist(), k):
            if abs(log) * float(idx) ** (-m) > float(len(entries) + 1) ** m:
                entries[idx] = 1.0 / abs(log)
                if len(entries) == count:
                    return SparseLogSeq(entries)
    raise NoSubsequenceFound(
        f"no subsequence with k^-{m}|ln a_k| exceeding i^{m} found in "
        f"the first {limit} terms (got {len(entries)} of {count})"
    )
