"""Answer key for the benchmark, kept apart from the program.

Every expected verdict below carries the analytic or p-series reason it
rests on.  The membership facts were transcribed from the reasoning behind
the package's catalog, but nothing here reads the catalog's annotations:
the catalog only supplies the sequences, and a query whose entry is
missing from the catalog fails.

The oracles at the bottom use Python integers (forward differences of
integer exponents) and the p-series test (sum of k^-q converges iff q > 1),
never the package's own evaluators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

TOL = 1e-6  # the package default; every library query runs with it

# ---------------------------------------------------------------------------
# catalog-spaces: classify(entry, space, m, N=100_000)


@dataclass(frozen=True)
class SpaceFact:
    entry: str
    space: str
    m: int
    member: bool
    estimate: Optional[float]  # closed-form sup (linf) or limit (c), when claimed
    reason: str


LN2 = math.log(2.0)

SPACE_FACTS: tuple[SpaceFact, ...] = (
    SpaceFact("exp(k)", "linf", 0, False, None, "logs are k, unbounded"),
    SpaceFact("exp(k)", "linf", 1, True, 1.0, "first-difference logs are constantly -1"),
    SpaceFact("exp(k)", "c", 1, True, -1.0, "first-difference logs are constantly -1"),
    SpaceFact("exp(k)", "c0", 1, False, None, "the limit e^-1 is not the geometric zero"),
    SpaceFact("exp(k)", "c0", 2, True, None, "second differences of k vanish"),
    SpaceFact("exp(k^2)", "linf", 1, False, None, "first-difference logs -(2k+1) are unbounded"),
    SpaceFact("exp(k^2)", "linf", 2, True, 2.0, "second-difference logs are constantly 2"),
    SpaceFact("exp(k^2)", "c", 2, True, 2.0, "second-difference logs are constantly 2"),
    SpaceFact("exp(k^2)", "c0", 2, False, None, "the limit e^2 is not the geometric zero"),
    SpaceFact("exp(k^2)", "c0", 3, True, None, "third differences of k^2 vanish"),
    SpaceFact("exp(k^3)", "linf", 3, True, 6.0, "third-difference logs are constantly -6"),
    SpaceFact("exp(k^3)", "c", 3, True, -6.0, "third-difference logs are constantly -6"),
    SpaceFact("exp(k^3)", "c0", 3, False, None, "the limit e^-6 is not the geometric zero"),
    SpaceFact("exp(k^3)", "c0", 4, True, None, "fourth differences of k^3 vanish"),
    SpaceFact("exp(k^4)", "linf", 4, True, 24.0, "fourth-difference logs are constantly 24"),
    SpaceFact("exp(k^4)", "c", 4, True, 24.0, "fourth-difference logs are constantly 24"),
    SpaceFact("exp(k^4)", "c0", 4, False, None, "the limit e^24 is not the geometric zero"),
    SpaceFact("exp(k^4)", "c0", 5, True, None, "fifth differences of k^4 vanish"),
    SpaceFact("1", "linf", 0, True, 0.0, "every term is the geometric zero"),
    SpaceFact("1", "linf", 2, True, 0.0, "differences of the geometric zero stay there"),
    SpaceFact("1", "c", 0, True, 0.0, "every term is the geometric zero"),
    SpaceFact("1", "c0", 0, True, None, "every term is the geometric zero"),
    SpaceFact("1", "c0", 1, True, None, "differences of the geometric zero stay there"),
    SpaceFact("e", "linf", 0, True, 1.0, "constant logs 1"),
    SpaceFact("e", "c", 0, True, 1.0, "a constant converges to itself"),
    SpaceFact("e", "c0", 0, False, None, "the constant e is not the geometric zero"),
    SpaceFact("e", "c0", 1, True, None, "differences of a constant vanish"),
    SpaceFact("exp(1/k)", "linf", 0, True, 1.0, "logs 1/k peak at k = 1"),
    SpaceFact("exp(1/k)", "linf", 1, True, 0.5, "first-difference logs 1/(k(k+1)) peak at k = 1"),
    SpaceFact("exp(1/k)", "c0", 1, True, None, "first-difference logs 1/(k(k+1)) shrink to 0"),
    SpaceFact("exp(1/k^2)", "linf", 0, True, 1.0, "logs 1/k^2 peak at k = 1"),
    SpaceFact("exp(1/k^2)", "c0", 1, True, None, "first-difference logs shrink like 2/k^3"),
    SpaceFact("exp(1/k^4)", "linf", 0, True, 1.0, "logs 1/k^4 peak at k = 1"),
    SpaceFact("exp(1/k^4)", "c0", 1, True, None, "first-difference logs shrink like 4/k^5"),
    SpaceFact("exp(1/k^5)", "linf", 0, True, 1.0, "logs 1/k^5 peak at k = 1"),
    SpaceFact("exp(2^(0-k))", "linf", 0, True, 0.5, "logs 2^-k peak at k = 1"),
    SpaceFact("exp(2^(0-k))", "c0", 0, True, None, "logs 2^-k shrink to 0"),
    SpaceFact("exp(2^(0-k))", "c0", 1, True, None, "first-difference logs are 2^-(k+1)"),
    SpaceFact("exp(ln(k))", "linf", 0, False, None, "logs ln k are unbounded"),
    SpaceFact("exp(ln(k))", "linf", 1, True, LN2, "first-difference logs -ln(1 + 1/k) peak at k = 1"),
    SpaceFact("exp(ln(k))", "c0", 2, True, None, "second-difference logs ln((k+1)^2/(k(k+2))) shrink to 0"),
    SpaceFact("alt-harmonic", "linf", 0, True, 1.0, "logs (-1)^k/k peak in size at k = 1"),
    SpaceFact("alt-harmonic", "linf", 1, True, 1.5, "difference logs (-1)^k (1/k + 1/(k+1)) peak at k = 1"),
)

# ---------------------------------------------------------------------------
# float-duals: dual_test(entry, kind, m, N=100_000)
#
# alpha: sum k^m |ln a_k| < inf.  alpha_alpha: sup k^-m |ln a_k| < inf.
# beta: sum k ln a_k converges and the tail logs are summable.
# gamma: partial sums of k ln a_k bounded and the tail logs summable.


@dataclass(frozen=True)
class DualFact:
    entry: str
    kind: str
    m: int
    member: bool
    reason: str


def _poly_duals(name: str, d: int) -> list[DualFact]:
    """Logs k^d with d >= 0 (d = 0 is the constant e)."""
    out = [
        DualFact(name, "alpha", m, False, f"p-series: sum of k^{m + d} diverges")
        for m in (1, 2, 3)
    ]
    out += [
        DualFact(
            name, "alpha_alpha", m, m >= d,
            f"k^-{m} * k^{d} is {'bounded' if m >= d else 'unbounded'}",
        )
        for m in (1, 2, 3)
    ]
    out.append(DualFact(name, "beta", 1, False, f"p-series: sum of k^{d + 1} diverges"))
    out.append(DualFact(name, "gamma", 1, False, f"partial sums of k^{d + 1} are unbounded"))
    return out


def _inverse_power_duals(name: str, p: int) -> list[DualFact]:
    """Logs k^-p with p >= 1."""
    out = [
        DualFact(
            name, "alpha", m, p - m > 1,
            f"p-series: sum of k^{m - p} {'converges' if p - m > 1 else 'diverges'}",
        )
        for m in (1, 2, 3)
    ]
    out += [
        DualFact(name, "alpha_alpha", m, True, f"k^-{m} / k^{p} peaks at k = 1")
        for m in (1, 2, 3)
    ]
    ok = p > 2
    out.append(DualFact(
        name, "beta", 1, ok,
        f"p-series: sum of k^{1 - p} {'converges, tails ~ k^' + str(1 - p) if ok else 'diverges'}",
    ))
    out.append(DualFact(
        name, "gamma", 1, ok,
        f"partial sums of k^{1 - p} {'bounded, tails summable' if ok else 'unbounded'}",
    ))
    return out


def _zero_duals(name: str) -> list[DualFact]:
    return [
        DualFact(name, kind, m, True, "all logs are 0")
        for kind, m in (
            ("alpha", 1), ("alpha", 2), ("alpha", 3),
            ("alpha_alpha", 1), ("alpha_alpha", 2), ("alpha_alpha", 3),
            ("beta", 1), ("gamma", 1),
        )
    ]


DUAL_FACTS: tuple[DualFact, ...] = tuple(
    _poly_duals("exp(k)", 1)
    + _poly_duals("exp(k^2)", 2)
    + _poly_duals("exp(k^3)", 3)
    + _poly_duals("exp(k^4)", 4)
    + _zero_duals("1")
    + _poly_duals("e", 0)
    + _inverse_power_duals("exp(1/k)", 1)
    + _inverse_power_duals("exp(1/k^2)", 2)
    + _inverse_power_duals("exp(1/k^4)", 4)
    + _inverse_power_duals("exp(1/k^5)", 5)
    + [
        DualFact("exp(2^(0-k))", "alpha", m, True, f"geometric tail: sum of k^{m} 2^-k converges")
        for m in (1, 2, 3)
    ]
    + [
        DualFact("exp(2^(0-k))", "alpha_alpha", m, True, "logs 2^-k bounded by 1/2")
        for m in (1, 2, 3)
    ]
    + [
        DualFact("exp(2^(0-k))", "beta", 1, True, "sum of k 2^-k is 2, tails 2^-k summable"),
        DualFact("exp(2^(0-k))", "gamma", 1, True, "bounded partial sums, tails 2^-k summable"),
    ]
    + [
        DualFact("exp(ln(k))", "alpha", m, False, f"sum of k^{m} ln k diverges")
        for m in (1, 2, 3)
    ]
    + [
        DualFact("exp(ln(k))", "alpha_alpha", m, True, f"ln(k)/k^{m} peaks at small k, then shrinks")
        for m in (1, 2, 3)
    ]
    + [
        DualFact("exp(ln(k))", "beta", 1, False, "sum of k ln k diverges"),
        DualFact("exp(ln(k))", "gamma", 1, False, "partial sums of k ln k are unbounded"),
    ]
    + [
        DualFact("alt-harmonic", "alpha", m, False, f"p-series: sum of k^{m - 1} diverges")
        for m in (1, 2, 3)
    ]
    + [
        DualFact("alt-harmonic", "alpha_alpha", m, True, f"k^-{m} |log| bounded by 1")
        for m in (1, 2, 3)
    ]
    + [
        DualFact("alt-harmonic", "beta", 1, False, "partial sums of k ln a_k alternate between -1 and 0"),
        DualFact("alt-harmonic", "gamma", 1, False, "tail logs shrink like 1/(2k), not summable"),
    ]
)

# ---------------------------------------------------------------------------
# float-duals: lemma_equivalence_check(entry, N=100_000)
# Kinds of parts (a) sup |ln x_k - ln x_{k+1}|, (b)(i) sup |ln x_k|/k and
# (b)(ii) sup |ln x_k - k/(k+1) ln x_{k+1}|; True means bounded.

LEMMA_FACTS: dict[str, tuple[bool, bool, bool, str]] = {
    "exp(k)": (True, True, True, "differences 1, k/k = 1, k - k = 0"),
    "exp(k^2)": (False, False, False, "differences 2k+1, k^2/k = k, |k^2 - k(k+1)| = k"),
    "exp(k^3)": (False, False, False, "differences ~3k^2, k^3/k = k^2, ~2k^2"),
    "exp(k^4)": (False, False, False, "differences ~4k^3, k^4/k = k^3, ~3k^3"),
    "1": (True, True, True, "all logs are 0"),
    "e": (True, True, True, "differences 0, 1/k <= 1, 1/(k+1) <= 1/2"),
    "exp(1/k)": (True, True, True, "all three peak at k = 1"),
    "exp(1/k^2)": (True, True, True, "all three peak at k = 1"),
    "exp(1/k^4)": (True, True, True, "all three peak at k = 1"),
    "exp(1/k^5)": (True, True, True, "all three peak at k = 1"),
    "exp(2^(0-k))": (True, True, True, "all three peak at k = 1"),
    "exp(ln(k))": (True, True, True, "ln(1+1/k) <= ln 2, ln(k)/k peaks near 3, ln(k+1)/(k+1) shrinks"),
    "alt-harmonic": (True, True, True, "1/k + 1/(k+1) <= 3/2, 1/k^2 <= 1, bounded by 5/4"),
}

# ---------------------------------------------------------------------------
# The demonstrations: inclusion_demo(m) for m = 1..4 must hold, with the
# order-m difference of e^(k^m) converging to e^((-1)^m m!); the product
# counterexample algebra_counterexample(m) must hold for m = 2, 3.

INCLUSION_ORDERS = (1, 2, 3, 4)
ALGEBRA_ORDERS = (2, 3)


def power_witness_limit(m: int) -> int:
    """log of the order-m difference of e^(k^m), from integer differences."""
    return forward_difference_of_powers(m, m, 1)


# ---------------------------------------------------------------------------
# Integer oracles


def forward_difference_of_powers(d: int, m: int, k: int) -> int:
    """sum_v (-1)^v C(m, v) (k+v)^d with Python integers: the log of the
    order-m difference of e^(k^d) at k, in the x_k (-) x_{k+1} convention."""
    return sum((-1) ** v * math.comb(m, v) * (k + v) ** d for v in range(m + 1))


def power_norm_log(m: int) -> int:
    """log of delta_norm(e^(k^m), m, N) for any N >= 1: the head sum
    sum_{i<=m} i^m plus the sup of the constant |(-1)^m m!|."""
    return sum(i**m for i in range(1, m + 1)) + abs(forward_difference_of_powers(m, m, 1))


# ---------------------------------------------------------------------------
# Seeded power buffers: logs s * k^-p with a seeded sign s and exponent p
# drawn well inside the convergent or the divergent region of each test.
#
#   alpha(m):       sum k^(m-p) converges iff p - m > 1
#   alpha_alpha(m): sup k^(-m-p) is finite iff m + p >= 0
#   beta, gamma:    sum k^(1-p) converges / stays bounded iff p > 2
#
# The drawn regions keep the finite-window protocol (N/2, N, 2N with tol
# 1e-6 and increment-ratio cutoffs 0.8 / 0.95) far from its thresholds for
# N >= 20 000: convergent sums have increments below tol or ratios <= 2^-2,
# divergent ones ratios >= 2^0.2.

REGIONS = {
    # kind: (convergent range, divergent range), as offsets described above
    "alpha": ((2.0, 3.0), (0.0, 0.8)),  # p - m
    "alpha_alpha": ((0.5, 3.0), (-2.0, -1.0)),  # m + p
    "beta": ((4.0, 5.0), (0.5, 1.5)),  # p
    "gamma": ((4.0, 5.0), (0.5, 1.5)),  # p
}


@dataclass(frozen=True)
class PowerBuffer:
    kind: str
    m: int
    p: float
    sign: float
    member: bool

    @property
    def reason(self) -> str:
        return (
            f"{self.kind} m={self.m} on logs {self.sign:+.0f}*k^-{self.p:.4f}: "
            f"p-series says {'member' if self.member else 'not a member'}"
        )


def draw_power_buffer(rng, kind: str, m: int) -> PowerBuffer:
    """Draw a buffer spec for one dual test from a ``random.Random``."""
    member = rng.random() < 0.5
    lo, hi = REGIONS[kind][0 if member else 1]
    offset = rng.uniform(lo, hi)
    if kind == "alpha":
        p = m + offset
    elif kind == "alpha_alpha":
        p = offset - m
    else:
        p = offset
    sign = 1.0 if rng.random() < 0.5 else -1.0
    return PowerBuffer(kind, m, p, sign, member)


def power_buffer_member(spec: PowerBuffer) -> bool:
    """The p-series verdict, recomputed from p alone."""
    if spec.kind == "alpha":
        return spec.p - spec.m > 1
    if spec.kind == "alpha_alpha":
        return spec.m + spec.p >= 0
    return spec.p > 2


# ---------------------------------------------------------------------------
# cli-session: the README commands and their documented outcomes.
# Exit codes per the README: 0 definite, 2 inconclusive, 1 error, 64 usage.

EXIT_OK = 0
EXIT_ERROR = 1

README_COMMANDS: tuple[tuple[str, ...], ...] = (
    ("eval", "--seq", "exp(1/k)", "--range", "1..5"),
    ("diff", "--seq", "exp(k^2)", "--m", "2", "--range", "1..5"),
    ("norm", "--seq", "exp(k)", "--m", "1", "--N", "1000"),
    ("classify", "--seq", "exp(k)", "--space", "c0", "--m", "2", "--N", "100000"),
    ("dual", "--kind", "alpha", "--m", "2", "--seq", "exp(1/(k^4))"),
    ("lemma", "--seq", "exp(k)", "--N", "50000"),
    ("demo", "--which", "inclusion", "--m", "2"),
)

# Malformed input: the parser reaches the end of "exp(k^" at offset 6 while
# it still needs a base (number, k, e, "(", exp or ln).
MALFORMED_EXPR = "exp(k^"
MALFORMED_OFFSET = 6

ROW_RANGE = (1, 5000)
