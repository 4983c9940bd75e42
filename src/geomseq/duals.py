"""Dual-space membership tests for the geometric difference spaces.

For the order-m difference spaces, a candidate multiplier sequence a sits in

* the alpha dual iff the geometric series of e^(k^m) (.) |a_k| converges,
  i.e. sum k^m |ln a_k| is finite;
* the alpha-alpha (second alpha) dual iff sup e^(k^-m) (.) |a_k| is
  geometrically bounded, i.e. sup k^-m |ln a_k| < inf;
* the beta dual (first order only) iff sum k ln a_k converges as a signed
  series and the absolute tails sum: sum_k |ln R_k| < inf with
  R_k = sum_{j>k} ln a_j (truncated at the probe window);
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
from typing import Callable, Optional

import numpy as np

from .codec import Report, json_key
from .errors import NoSubsequenceFound, UnsupportedOrder
from .garith import GNum
from .gdiff import check_order
from .gseq import (
    DEFAULT_TOL,
    DEFAULT_WINDOW,
    GSeq,
    SparseLogSeq,
    Verdict,
    VerdictKind,
    check_window,
    conjunction,
    exact_prefix_sums,
    monotone_verdict,
    signed_series_verdict,
    window_statistic,
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
    logs = a.log_values(1, 2 * N)
    ks = np.arange(1, 2 * N + 1, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):  # past float64 the sum is inf
        vals = np.power(ks, float(m)) * np.abs(logs)
    vals[logs == 0.0] = 0.0  # an inf weight on a zero log adds nothing
    t_half, t_n, t_2n = window_statistic(math.fsum, vals, N)
    verdict = monotone_verdict(t_half, t_n, t_2n, N, tol)
    return DualReport("alpha", m, verdict, GNum(t_n))


def alpha_alpha_dual_test(
    a: GSeq, m: int, N: int = DEFAULT_WINDOW, tol: float = DEFAULT_TOL
) -> DualReport:
    """Boundedness of k^-m |ln a_k| by the three-window protocol."""
    m = check_order(m)
    partial, verdict = weighted_sup(a, 0, -float(m), N, tol)
    return DualReport("alpha_alpha", m, verdict, partial)


def _tail_total(logs: np.ndarray) -> float:
    """Sum of |R_k| over the block, R_k being the sum of the logs after k."""
    with np.errstate(over="ignore"):
        tails = np.cumsum(logs[::-1])[::-1][1:]
    np.abs(tails, out=tails)  # a view of a fresh cumsum: no second copy
    return exact_prefix_sums(tails, (len(tails),))[0]


def _first_order_test(
    kind: str,
    label: str,
    condition: Callable[[np.ndarray, int, float], Verdict],
    a: GSeq,
    N: int,
    tol: float,
) -> DualReport:
    """A condition on the partial sums of k ln a_k, joined with the
    summability of |ln R_k| truncated at the same window (m = 1)."""
    check_window(N, tol)
    logs = a.log_values(1, 2 * N)
    ks = np.arange(1, 2 * N + 1, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        partials = np.cumsum(ks * logs)
    if not np.isfinite(partials[-1]):  # the series passed float64: diverged
        i = np.flatnonzero(~np.isfinite(partials))[0]
        partials[i:] = partials[i]  # hold that +-inf rather than form inf - inf
    cond = condition(partials, N, tol)
    cond_tails = monotone_verdict(*window_statistic(_tail_total, logs, N), N, tol)
    joint = conjunction(cond, cond_tails)
    overall = Verdict(
        joint,
        cond.estimate if joint is VerdictKind.FINITE else None,
        N,
        cond.probe_n,
        cond.probe_2n,
        f"{label} {cond.kind.value}; tails {cond_tails.kind.value}",
    )
    return DualReport(
        kind, 1, overall, GNum(float(partials[N - 1])), remainder_ok=cond_tails
    )


def _bounded_partials(partials: np.ndarray, N: int, tol: float) -> Verdict:
    return monotone_verdict(*window_statistic(np.max, np.abs(partials), N), N, tol)


def beta_dual_test(
    a: GSeq, N: int = DEFAULT_WINDOW, tol: float = DEFAULT_TOL
) -> DualReport:
    """Signed convergence of sum k ln a_k plus the tail condition (m = 1)."""
    return _first_order_test("beta", "series", signed_series_verdict, a, N, tol)


def gamma_dual_test(
    a: GSeq, N: int = DEFAULT_WINDOW, tol: float = DEFAULT_TOL
) -> DualReport:
    """Bounded partial sums of k ln a_k plus the tail condition (m = 1)."""
    return _first_order_test("gamma", "partial sups", _bounded_partials, a, N, tol)


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
    sum i^-m over the selected indices.
    """
    m = check_order(m)
    if not isinstance(count, int) or count < 1:
        raise ValueError(f"count must be a positive integer, got {count!r}")
    limit = search_window
    if a.length is not None:
        limit = min(limit, a.length)
    entries: dict[int, float] = {}
    i = 1
    k = 1
    block = 1024
    while k <= limit and i <= count:
        n = min(block, limit - k + 1)
        logs = a.log_values(k, n)
        for j in range(n):
            idx = k + j
            lv = abs(float(logs[j]))
            if lv * float(idx) ** (-m) > float(i) ** m:
                entries[idx] = 1.0 / lv
                i += 1
                if i > count:
                    break
        k += n
    if i <= count:
        raise NoSubsequenceFound(
            f"no subsequence with k^-{m}|ln a_k| exceeding i^{m} found in "
            f"the first {limit} terms (got {i - 1} of {count})"
        )
    return SparseLogSeq(entries)
