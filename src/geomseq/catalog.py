"""Curated sequences with known classification facts.

Each entry pairs a sequence with the memberships it is known to satisfy or
fail, and each fact records why it is trusted:

* ``immediate`` — read directly off the definition,
* ``analytic`` — backed by a closed-form computation,
* ``oracle`` — produced by an independent numeric check, named in the note
  (p-series oracle, forward-difference oracle, geometric-tail oracle).

The test suite replays every annotation through the classifiers at the
default window and fails on any disagreement.  Entries are curated so that
none of the annotated questions comes back inconclusive at those settings;
borderline sequences stay out of the catalog.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gseq import BufferSeq, ExpressionSeq, GSeq

__all__ = ["Annotation", "CatalogEntry", "catalog_entries"]

BASES = ("immediate", "analytic", "oracle")

ALT_BUFFER_LEN = 200_010


@dataclass(frozen=True)
class Annotation:
    member: bool
    basis: str
    note: str

    def __post_init__(self) -> None:
        if self.basis not in BASES:
            raise ValueError(f"basis must be one of {BASES}, got {self.basis!r}")
        if self.basis == "oracle" and "oracle" not in self.note:
            raise ValueError("oracle-based annotations must name their oracle")


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    definition_text: str
    seq: GSeq = field(repr=False)
    space_annotations: dict[tuple[str, int], Annotation]
    dual_annotations: dict[tuple[str, int], Annotation]


def _ann(table: dict) -> dict:
    return {key: Annotation(*val) for key, val in table.items()}


def _expr_entry(src: str, spaces: dict, duals: dict) -> CatalogEntry:
    return CatalogEntry(src, src, ExpressionSeq(src), _ann(spaces), _ann(duals))


def _alternating_entry() -> CatalogEntry:
    logs = np.arange(1, ALT_BUFFER_LEN + 1, dtype=np.float64)
    np.divide(1.0, logs, out=logs)
    logs[::2] *= -1.0  # odd k
    spaces = {
        ("linf", 0): (True, "immediate", "logs bounded by 1"),
        ("linf", 1): (True, "analytic", "difference logs bounded by 2"),
    }
    duals = {
        ("alpha", 1): (False, "oracle", "p-series oracle: sum of 1 diverges"),
        ("alpha", 2): (False, "oracle", "p-series oracle: sum of k diverges"),
        ("alpha", 3): (False, "oracle", "p-series oracle: sum of k^2 diverges"),
        ("alpha_alpha", 1): (True, "immediate", "k^-1 |log| bounded by 1"),
        ("alpha_alpha", 2): (True, "immediate", "k^-2 |log| bounded by 1"),
        ("alpha_alpha", 3): (True, "immediate", "k^-3 |log| bounded by 1"),
        ("beta", 1): (
            False,
            "analytic",
            "partial sums of k log x_k alternate between -1 and 0",
        ),
        ("gamma", 1): (
            False,
            "oracle",
            "partial sums stay bounded but the tail logs shrink like 1/(2k); "
            "their absolute sum fails the p-series oracle",
        ),
    }
    return CatalogEntry(
        "alt-harmonic",
        f"finite buffer, logs (-1)^k / k for k <= {ALT_BUFFER_LEN}",
        BufferSeq(logs),
        _ann(spaces),
        _ann(duals),
    )


def catalog_entries() -> list[CatalogEntry]:
    """All curated entries, rebuilt fresh on each call."""
    entries = [
        _expr_entry(
            "exp(k)",
            spaces={
                ("linf", 0): (False, "analytic", "logs are k, unbounded"),
                ("c0", 1): (
                    False,
                    "analytic",
                    "first-difference logs are constantly -1; the limit e^-1 "
                    "is not the geometric zero",
                ),
                ("c", 1): (True, "analytic", "first-difference logs are constantly -1"),
                ("linf", 1): (True, "analytic", "first-difference logs are constantly -1"),
                ("c0", 2): (True, "analytic", "second differences collapse to the geometric zero"),
            },
            duals={
                ("alpha", 1): (False, "oracle", "p-series oracle: sum of k^2 diverges"),
                ("alpha", 2): (False, "oracle", "p-series oracle: sum of k^3 diverges"),
                ("alpha", 3): (False, "oracle", "p-series oracle: sum of k^4 diverges"),
                ("alpha_alpha", 1): (True, "oracle", "p-series oracle: k^-1 * k = 1, bounded"),
                ("alpha_alpha", 2): (True, "oracle", "p-series oracle: k^-2 * k shrinks"),
                ("alpha_alpha", 3): (True, "oracle", "p-series oracle: k^-3 * k shrinks"),
                ("beta", 1): (False, "oracle", "p-series oracle: sum of k^2 diverges"),
                ("gamma", 1): (False, "oracle", "p-series oracle: partial sums of k^2 unbounded"),
            },
        ),
        _expr_entry(
            "exp(k^2)",
            spaces={
                ("linf", 1): (False, "analytic", "first-difference logs are -(2k+1), unbounded"),
                ("c0", 2): (False, "analytic", "second-difference logs are constantly 2"),
                ("c", 2): (True, "analytic", "second-difference logs are constantly 2"),
                ("linf", 2): (True, "analytic", "second-difference logs are constantly 2"),
                ("c0", 3): (True, "analytic", "third differences collapse to the geometric zero"),
            },
            duals={
                ("alpha", 1): (False, "oracle", "p-series oracle: sum of k^3 diverges"),
                ("alpha", 2): (False, "oracle", "p-series oracle: sum of k^4 diverges"),
                ("alpha", 3): (False, "oracle", "p-series oracle: sum of k^5 diverges"),
                ("alpha_alpha", 1): (False, "oracle", "p-series oracle: k^-1 * k^2 = k, unbounded"),
                ("alpha_alpha", 2): (True, "oracle", "p-series oracle: k^-2 * k^2 = 1, bounded"),
                ("alpha_alpha", 3): (True, "oracle", "p-series oracle: k^-3 * k^2 shrinks"),
                ("beta", 1): (False, "oracle", "p-series oracle: sum of k^3 diverges"),
                ("gamma", 1): (False, "oracle", "p-series oracle: partial sums of k^3 unbounded"),
            },
        ),
        _expr_entry(
            "exp(k^3)",
            spaces={
                ("c0", 3): (False, "analytic", "third-difference logs are constantly -6"),
                ("c", 3): (True, "analytic", "third-difference logs are constantly -6"),
                ("linf", 3): (True, "analytic", "third-difference logs are constantly -6"),
                ("c0", 4): (True, "analytic", "fourth differences collapse to the geometric zero"),
            },
            duals={
                ("alpha", 1): (False, "oracle", "p-series oracle: sum of k^4 diverges"),
                ("alpha", 2): (False, "oracle", "p-series oracle: sum of k^5 diverges"),
                ("alpha", 3): (False, "oracle", "p-series oracle: sum of k^6 diverges"),
                ("alpha_alpha", 1): (False, "oracle", "p-series oracle: k^-1 * k^3 = k^2, unbounded"),
                ("alpha_alpha", 2): (False, "oracle", "p-series oracle: k^-2 * k^3 = k, unbounded"),
                ("alpha_alpha", 3): (True, "oracle", "p-series oracle: k^-3 * k^3 = 1, bounded"),
                ("beta", 1): (False, "oracle", "p-series oracle: sum of k^4 diverges"),
                ("gamma", 1): (False, "oracle", "p-series oracle: partial sums of k^4 unbounded"),
            },
        ),
        _expr_entry(
            "exp(k^4)",
            spaces={
                ("c0", 4): (False, "analytic", "fourth-difference logs are constantly 24"),
                ("c", 4): (True, "analytic", "fourth-difference logs are constantly 24"),
                ("linf", 4): (True, "analytic", "fourth-difference logs are constantly 24"),
                ("c0", 5): (True, "analytic", "fifth differences collapse to the geometric zero"),
            },
            duals={
                ("alpha", 1): (False, "oracle", "p-series oracle: sum of k^5 diverges"),
                ("alpha", 2): (False, "oracle", "p-series oracle: sum of k^6 diverges"),
                ("alpha", 3): (False, "oracle", "p-series oracle: sum of k^7 diverges"),
                ("alpha_alpha", 1): (False, "oracle", "p-series oracle: k^-1 * k^4 = k^3, unbounded"),
                ("alpha_alpha", 2): (False, "oracle", "p-series oracle: k^-2 * k^4 = k^2, unbounded"),
                ("alpha_alpha", 3): (False, "oracle", "p-series oracle: k^-3 * k^4 = k, unbounded"),
                ("beta", 1): (False, "oracle", "p-series oracle: sum of k^5 diverges"),
                ("gamma", 1): (False, "oracle", "p-series oracle: partial sums of k^5 unbounded"),
            },
        ),
        _expr_entry(
            "1",
            spaces={
                ("c0", 0): (True, "immediate", "every term is the geometric zero"),
                ("c", 0): (True, "immediate", "every term is the geometric zero"),
                ("linf", 0): (True, "immediate", "every term is the geometric zero"),
                ("c0", 1): (True, "immediate", "differences of the geometric zero stay there"),
                ("linf", 2): (True, "immediate", "differences of the geometric zero stay there"),
            },
            duals={
                ("alpha", 1): (True, "immediate", "all logs are 0"),
                ("alpha", 2): (True, "immediate", "all logs are 0"),
                ("alpha", 3): (True, "immediate", "all logs are 0"),
                ("alpha_alpha", 1): (True, "immediate", "all logs are 0"),
                ("alpha_alpha", 2): (True, "immediate", "all logs are 0"),
                ("alpha_alpha", 3): (True, "immediate", "all logs are 0"),
                ("beta", 1): (True, "immediate", "all logs are 0"),
                ("gamma", 1): (True, "immediate", "all logs are 0"),
            },
        ),
        _expr_entry(
            "e",
            spaces={
                ("c0", 0): (False, "analytic", "the constant e is not the geometric zero"),
                ("c", 0): (True, "immediate", "constant sequences converge to themselves"),
                ("linf", 0): (True, "immediate", "constant logs are bounded"),
                ("c0", 1): (True, "analytic", "differences of a constant collapse to the geometric zero"),
            },
            duals={
                ("alpha", 1): (False, "oracle", "p-series oracle: sum of k diverges"),
                ("alpha", 2): (False, "oracle", "p-series oracle: sum of k^2 diverges"),
                ("alpha", 3): (False, "oracle", "p-series oracle: sum of k^3 diverges"),
                ("alpha_alpha", 1): (True, "immediate", "k^-m bounded by 1"),
                ("alpha_alpha", 2): (True, "immediate", "k^-m bounded by 1"),
                ("alpha_alpha", 3): (True, "immediate", "k^-m bounded by 1"),
                ("beta", 1): (False, "oracle", "p-series oracle: sum of k diverges"),
                ("gamma", 1): (False, "oracle", "p-series oracle: partial sums of k unbounded"),
            },
        ),
        _expr_entry(
            "exp(1/k)",
            spaces={
                ("linf", 0): (True, "immediate", "logs bounded by 1"),
                ("c0", 1): (True, "analytic", "first-difference logs 1/(k(k+1)) shrink to 0"),
                ("linf", 1): (True, "analytic", "first-difference logs 1/(k(k+1)) bounded"),
            },
            duals={
                ("alpha", 1): (False, "oracle", "p-series oracle: sum of 1 diverges"),
                ("alpha", 2): (False, "oracle", "p-series oracle: sum of k diverges"),
                ("alpha", 3): (False, "oracle", "p-series oracle: sum of k^2 diverges"),
                ("alpha_alpha", 1): (True, "immediate", "k^-1 / k peaks at k = 1"),
                ("alpha_alpha", 2): (True, "immediate", "k^-2 / k peaks at k = 1"),
                ("alpha_alpha", 3): (True, "immediate", "k^-3 / k peaks at k = 1"),
                ("beta", 1): (False, "oracle", "p-series oracle: sum of 1 diverges"),
                ("gamma", 1): (False, "oracle", "p-series oracle: partial sums grow like the window"),
            },
        ),
        _expr_entry(
            "exp(1/k^2)",
            spaces={
                ("linf", 0): (True, "immediate", "logs bounded by 1"),
                ("c0", 1): (True, "analytic", "first-difference logs shrink like 2/k^3"),
            },
            duals={
                ("alpha", 1): (False, "oracle", "p-series oracle: harmonic sum diverges"),
                ("alpha", 2): (False, "oracle", "p-series oracle: sum of 1 diverges"),
                ("alpha", 3): (False, "oracle", "p-series oracle: sum of k diverges"),
                ("alpha_alpha", 1): (True, "immediate", "k^-1 / k^2 peaks at k = 1"),
                ("alpha_alpha", 2): (True, "immediate", "k^-2 / k^2 peaks at k = 1"),
                ("alpha_alpha", 3): (True, "immediate", "k^-3 / k^2 peaks at k = 1"),
                ("beta", 1): (False, "oracle", "p-series oracle: harmonic sum diverges"),
                ("gamma", 1): (False, "oracle", "p-series oracle: partial sums grow like log of the window"),
            },
        ),
        _expr_entry(
            "exp(1/k^4)",
            spaces={
                ("linf", 0): (True, "immediate", "logs bounded by 1"),
                ("c0", 1): (True, "analytic", "first-difference logs shrink like 4/k^5"),
            },
            duals={
                ("alpha", 1): (True, "oracle", "p-series oracle: sum of k^-3 converges"),
                ("alpha", 2): (True, "oracle", "p-series oracle: sum of k^-2 converges"),
                ("alpha", 3): (False, "oracle", "p-series oracle: harmonic sum diverges"),
                ("alpha_alpha", 1): (True, "immediate", "k^-1 / k^4 peaks at k = 1"),
                ("alpha_alpha", 2): (True, "immediate", "k^-2 / k^4 peaks at k = 1"),
                ("alpha_alpha", 3): (True, "immediate", "k^-3 / k^4 peaks at k = 1"),
                ("beta", 1): (
                    True,
                    "oracle",
                    "p-series oracle: sum of k^-3 converges and the tail logs "
                    "shrink like k^-3/3, so their absolute sum converges too",
                ),
                ("gamma", 1): (
                    True,
                    "oracle",
                    "p-series oracle: bounded partial sums and summable tail logs",
                ),
            },
        ),
        _expr_entry(
            "exp(1/k^5)",
            spaces={
                ("linf", 0): (True, "immediate", "logs bounded by 1"),
            },
            duals={
                ("alpha", 1): (True, "oracle", "p-series oracle: sum of k^-4 converges"),
                ("alpha", 2): (True, "oracle", "p-series oracle: sum of k^-3 converges"),
                ("alpha", 3): (True, "oracle", "p-series oracle: sum of k^-2 converges"),
                ("alpha_alpha", 1): (True, "immediate", "k^-1 / k^5 peaks at k = 1"),
                ("alpha_alpha", 2): (True, "immediate", "k^-2 / k^5 peaks at k = 1"),
                ("alpha_alpha", 3): (True, "immediate", "k^-3 / k^5 peaks at k = 1"),
                ("beta", 1): (
                    True,
                    "oracle",
                    "p-series oracle: sum of k^-4 converges and the tail logs "
                    "shrink like k^-4/4, so their absolute sum converges too",
                ),
                ("gamma", 1): (
                    True,
                    "oracle",
                    "p-series oracle: bounded partial sums and summable tail logs",
                ),
            },
        ),
        _expr_entry(
            "exp(2^(0-k))",
            spaces={
                ("c0", 0): (True, "analytic", "logs 2^-k shrink to 0"),
                ("c0", 1): (True, "analytic", "first-difference logs are 2^-(k+1)"),
                ("linf", 0): (True, "immediate", "logs bounded by 1/2"),
            },
            duals={
                ("alpha", 1): (True, "oracle", "geometric-tail oracle: sum of k 2^-k converges"),
                ("alpha", 2): (True, "oracle", "geometric-tail oracle: sum of k^2 2^-k converges"),
                ("alpha", 3): (True, "oracle", "geometric-tail oracle: sum of k^3 2^-k converges"),
                ("alpha_alpha", 1): (True, "immediate", "logs bounded by 1/2"),
                ("alpha_alpha", 2): (True, "immediate", "logs bounded by 1/2"),
                ("alpha_alpha", 3): (True, "immediate", "logs bounded by 1/2"),
                ("beta", 1): (
                    True,
                    "oracle",
                    "geometric-tail oracle: sum of k 2^-k is 2 and the tail "
                    "logs 2^-k are summable",
                ),
                ("gamma", 1): (
                    True,
                    "oracle",
                    "geometric-tail oracle: bounded partial sums and summable tail logs",
                ),
            },
        ),
        _expr_entry(
            "exp(ln(k))",
            spaces={
                ("linf", 0): (False, "immediate", "logs ln k are unbounded"),
                ("linf", 1): (True, "analytic", "first-difference logs -ln(1 + 1/k) bounded by ln 2"),
                ("c0", 2): (
                    True,
                    "analytic",
                    "second-difference logs ln((k+1)^2 / (k(k+2))) shrink to 0",
                ),
            },
            duals={
                ("alpha", 1): (False, "oracle", "p-series oracle: sum of k ln k diverges"),
                ("alpha", 2): (False, "oracle", "p-series oracle: sum of k^2 ln k diverges"),
                ("alpha", 3): (False, "oracle", "p-series oracle: sum of k^3 ln k diverges"),
                ("alpha_alpha", 1): (True, "analytic", "ln(k)/k peaks near k = 3, then shrinks"),
                ("alpha_alpha", 2): (True, "analytic", "ln(k)/k^2 peaks at small k, then shrinks"),
                ("alpha_alpha", 3): (True, "analytic", "ln(k)/k^3 peaks at small k, then shrinks"),
                ("beta", 1): (False, "oracle", "p-series oracle: sum of k ln k diverges"),
                ("gamma", 1): (False, "oracle", "p-series oracle: partial sums of k ln k unbounded"),
            },
        ),
        _alternating_entry(),
    ]
    return entries
