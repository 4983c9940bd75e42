"""Membership classifiers for the geometric difference sequence spaces.

Three spaces are implemented, each relative to the m-th difference:

* ``linf``: the m-th difference is geometrically bounded;
* ``c``: the m-th difference converges geometrically;
* ``c0``: it converges to the geometric zero (the number 1).

Membership over an infinite index set is decided only up to the finite
probing protocol of :mod:`geomseq.gseq`; every report carries the verdict
with its diagnostics, and a divergence always names a witness index.

The module also carries the bounded-equivalence check relating a sequence's
first difference to its k-th-root weighted terms (the two-sided condition
split into parts (a), (b)(i), (b)(ii)), the strict inclusion demonstration
between consecutive difference orders, and the counterexample showing the
spaces are not sequence algebras under the geometric product.  The one-off
head-flattening map sometimes written as a separate "s" transform is just
:func:`geomseq.gdiff.d_operator` at order 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .codec import Report, json_key
from .garith import GNum
from .gdiff import check_order, delta_binomial
from .gseq import (
    DEFAULT_TOL,
    DEFAULT_WINDOW,
    GSeq,
    RunningMax,
    Verdict,
    VerdictKind,
    _limit_probe_detail,
    check_window,
    conjunction,
    monotone_verdict,
    seq_from_expr,
    seq_odot,
    window_ends,
    window_scan,
)

__all__ = [
    "SPACES",
    "MembershipReport",
    "LemmaEquivalenceReport",
    "InclusionDemoReport",
    "AlgebraCounterexampleReport",
    "classify",
    "weighted_sup",
    "lemma_equivalence_check",
    "inclusion_demo",
    "algebra_counterexample",
]

SPACES = ("linf", "c", "c0")


@dataclass(frozen=True)
class MembershipReport(Report):
    """Classification of one sequence against one space at one order."""

    space: str
    m: int
    verdict: Verdict
    witness_index: Optional[int]
    window: int

    def __post_init__(self):
        if self.verdict.kind is VerdictKind.DIVERGED and self.witness_index is None:
            raise ValueError("a divergence report must name a witness index")

    @property
    def member(self) -> bool:
        return self.verdict.kind is VerdictKind.FINITE


def classify(
    x: GSeq,
    space: str,
    m: int,
    N: int = DEFAULT_WINDOW,
    tol: float = DEFAULT_TOL,
) -> MembershipReport:
    """Classify x against one of linf/c/c0 at difference order m."""
    if space not in SPACES:
        raise ValueError(f"space must be one of {SPACES}, got {space!r}")
    m = check_order(m)
    check_window(N, tol)
    diff = delta_binomial(x, m)

    if space == "linf":
        top = RunningMax()
        sups = window_scan(diff, 1, window_ends(N), top, weight=0.0)
        verdict, witness = monotone_verdict(*sups, N, tol), top.index
    else:
        verdict, witness = _limit_probe_detail(diff, N, tol)
        # c0: a geometric limit must additionally be the geometric zero.
        if (
            space == "c0"
            and verdict.kind is VerdictKind.FINITE
            and abs(verdict.estimate.log_value) > tol
        ):
            verdict = replace(
                verdict,
                kind=VerdictKind.DIVERGED,
                note="converges away from the geometric zero",
            )
    return MembershipReport(
        space, m, verdict,
        witness if verdict.kind is VerdictKind.DIVERGED else None, N,
    )


def weighted_sup(
    x: GSeq,
    diff_order: int,
    weight_exp: float,
    N: int = DEFAULT_WINDOW,
    tol: float = DEFAULT_TOL,
) -> tuple[GNum, Verdict]:
    """Sup over k <= N of e^(k^weight_exp * |ln (delta^d x)_k|), with verdict.

    The returned number is the sup at window N; the verdict judges its
    stability through 2N by the shared protocol.  The weight may be +-inf
    but not NaN.
    """
    diff_order = check_order(diff_order)
    check_window(N, tol)
    weight_exp = float(weight_exp)
    if math.isnan(weight_exp):
        raise ValueError("weight_exp must be a number or +-inf, got nan")
    diff = delta_binomial(x, diff_order)
    s_half, s_n, s_2n = window_scan(diff, 1, window_ends(N), RunningMax(), weight=weight_exp)
    return GNum(s_n), monotone_verdict(s_half, s_n, s_2n, N, tol)


@dataclass(frozen=True)
class LemmaEquivalenceReport(Report):
    """Bounded first difference vs the weighted two-part condition."""

    derived = ("b_kind", "agreement")

    cond_a: Verdict = field(metadata=json_key("parts", "a"))
    cond_b_i: Verdict = field(metadata=json_key("parts", "b_i"))
    cond_b_ii: Verdict = field(metadata=json_key("parts", "b_ii"))
    window: int

    @property
    def b_kind(self) -> VerdictKind:
        return conjunction(self.cond_b_i, self.cond_b_ii)

    @property
    def agreement(self) -> bool:
        return self.cond_a.kind is self.b_kind

    @property
    def has_inconclusive(self) -> bool:
        return (
            self.cond_a.kind is VerdictKind.INCONCLUSIVE
            or self.b_kind is VerdictKind.INCONCLUSIVE
        )


def lemma_equivalence_check(
    x: GSeq, N: int = DEFAULT_WINDOW, tol: float = DEFAULT_TOL
) -> LemmaEquivalenceReport:
    """Check that a bounded first difference is equivalent to the pair
    (k-th-root boundedness, bounded k/(k+1)-weighted difference).

    Part (a) is sup |ln x_k - ln x_{k+1}|; part (b)(i) is
    sup (1/k)|ln x_k|; part (b)(ii) is sup |ln x_k - (k/(k+1)) ln x_{k+1}|.
    The report exposes whether (a) agrees with the conjunction of (b).
    """
    check_window(N, tol)
    # Term k pairs with term k+1, so a scan read through term e + 1 has
    # every pair of the window ending at e.
    sups = window_scan(x, 1, tuple(e + 1 for e in window_ends(N)), _PairSups())
    verdicts = [monotone_verdict(*part, N, tol) for part in zip(*sups)]
    return LemmaEquivalenceReport(*verdicts, window=N)


class _PairSups:
    """The sups of the lemma's three parts, term k paired with term k+1:
    :meth:`read` gives them over every pair whose second term was added."""

    def __init__(self):
        self.tops = [RunningMax() for _ in range(3)]
        self.before = np.empty(0)  # the last term of the previous piece

    def add(self, k: int, logs: np.ndarray) -> None:
        pair = np.concatenate([self.before, logs])
        head, tail = pair[:-1], pair[1:]
        k0 = k - len(self.before)
        ks = np.arange(k0, k0 + len(head), dtype=np.float64)
        with np.errstate(over="ignore"):  # a difference past float64 is unbounded
            self.tops[0].add(k0, np.abs(head - tail))
            self.tops[1].add(k0, np.abs(head) / ks)
            self.tops[2].add(k0, np.abs(head - (ks / (ks + 1.0)) * tail))
        self.before = logs[-1:]

    def read(self) -> list[float]:
        return [top.read() for top in self.tops]


@dataclass(frozen=True)
class InclusionDemoReport(Report):
    """Strictness of the inclusion between consecutive difference orders,
    demonstrated on the witness sequence e^(k^m)."""

    derived = ("holds",)

    m: int
    witness_source: str
    at_order_m: MembershipReport
    at_order_m_plus_1: MembershipReport
    chain_c: MembershipReport
    chain_linf: MembershipReport

    @property
    def holds(self) -> bool:
        return (
            not self.at_order_m.member
            and self.at_order_m.verdict.kind is VerdictKind.DIVERGED
            and self.at_order_m_plus_1.member
            and self.chain_c.member
            and self.chain_linf.member
        )


def inclusion_demo(
    m: int, N: int = DEFAULT_WINDOW, tol: float = DEFAULT_TOL
) -> InclusionDemoReport:
    """Show c0 at order m is strictly inside c0 at order m+1.

    The witness e^(k^m) differences to the nonunit constant e^((-1)^m m!)
    at order m (so it converges but not to the geometric zero, and stays
    bounded: the c and linf legs of the chain both hold) and to the
    geometric zero at order m+1.
    """
    m = check_order(m)
    if m < 1:
        raise ValueError("the inclusion demonstration needs m >= 1")
    src = f"exp(k^{m})" if m > 1 else "exp(k)"
    x = seq_from_expr(src)
    return InclusionDemoReport(
        m=m,
        witness_source=src,
        at_order_m=classify(x, "c0", m, N, tol),
        at_order_m_plus_1=classify(x, "c0", m + 1, N, tol),
        chain_c=classify(x, "c", m, N, tol),
        chain_linf=classify(x, "linf", m, N, tol),
    )


@dataclass(frozen=True)
class AlgebraCounterexampleReport(Report):
    """Termwise geometric products escape the space: x and y in c0 at
    order m while x (.) y is not."""

    derived = ("holds",)

    m: int
    x_source: str
    y_source: str
    x_report: MembershipReport
    y_report: MembershipReport
    product_report: MembershipReport

    @property
    def holds(self) -> bool:
        return (
            self.x_report.member
            and self.y_report.member
            and not self.product_report.member
            and self.product_report.verdict.kind is VerdictKind.DIVERGED
        )


def algebra_counterexample(
    m: int, N: int = DEFAULT_WINDOW, tol: float = DEFAULT_TOL
) -> AlgebraCounterexampleReport:
    """For m >= 2: e^k and e^(k^(m-1)) both sit in c0 at order m, but their
    termwise geometric product e^(k^m) does not."""
    m = check_order(m)
    if m < 2:
        raise ValueError("the algebra counterexample needs m >= 2")
    x_src = "exp(k)"
    y_src = f"exp(k^{m - 1})" if m > 2 else "exp(k)"
    x = seq_from_expr(x_src)
    y = seq_from_expr(y_src)
    prod = seq_odot(x, y)
    return AlgebraCounterexampleReport(
        m=m,
        x_source=x_src,
        y_source=y_src,
        x_report=classify(x, "c0", m, N, tol),
        y_report=classify(y, "c0", m, N, tol),
        product_report=classify(prod, "c0", m, N, tol),
    )
