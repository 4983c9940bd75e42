"""Geometric sequences, their series operations, and finite-evidence verdicts.

A :class:`GSeq` is a 1-indexed sequence of geometric numbers backed by a
closed-form expression, a finite buffer of logs, or a lazy view over other
sequences.  Nothing is memoized; every access recomputes.

Each view has one float read, ``_read(ks)``, the logs of the terms ``ks``
as a 1-d array: ``ks`` is a window, a ``range`` of step 1, or points, an
int64 array in any order.  ``log_values(start, count)`` reads one window;
``log_points(ks)``, ``log_at(k)`` and ``term(k)`` read points, so a term
reads the same bits however it is asked for.

A sequence may carry an :class:`ExactForm` as its ``exact_form`` (else
None), exact logs decided once from the expression's structure
(:func:`geomseq.exprdsl.lower_log`), never by probing terms;
``exact_form.exact(k)`` is the exact log of term k.  Point reads read it
instead of the windows.  The difference views difference it symbolically
and read their windows from it too, because they subtract nearly equal
exponents like k^4 at k ~ 1e4, where float64 rounding would swamp
identities that must cancel to zero.  Other exact views keep float
windows, whose last bits can differ from the points.
The per-term Fraction reference for these exact logs is test code
(``tests/exact_oracle.py``); no access path calls it.

Boundedness, convergence and summability over an infinite index set are
undecidable from finitely many terms, so every numeric claim is issued as a
:class:`Verdict` produced by a fixed probing protocol: evaluate a statistic
at windows N/2, N and 2N, then decide by one rule, :func:`_ratio_rule`, in
this order: stabilization (growth below tol, where float64 resolves tol at
the statistic's size), a log magnitude beyond 1e6,
geometric decay of increments (ratio <= 0.8), persistent growth (ratio >=
0.95), or give up and say so.  The thresholds are package constants,
shared by every caller.

Every bulk read takes the pieces of :meth:`GSeq.log_chunks`: at most
:data:`SUM_CHUNK` terms, ending also at N/2, N and 2N, so memory does not
grow with N; only the c and c0 limit probe reads its 2 * :data:`PROBE_POINTS`
terms by :meth:`GSeq.log_points`.  A piece that fails to read raises its own
error and ends the scan; a buffer's pieces are read-only views of its logs,
so no fold may write into one.  Most verdicts fold the pieces in one engine,
:func:`window_scan`, into a small accumulator by ``add(k, vals)``,
``vals[0]`` being term k, read at each end: :class:`ExactSum` carries the
exact running sum as one Python int and rounds it once, to the value
``math.fsum`` gives for that prefix, taking each piece's exact sum by
error-free extraction (Rump, Ogita and Oishi, 2008; see ``_SUM_UNIT``);
:class:`RunningMax` keeps the sup and its first term, the witness; a float
running sum starts each piece's cumsum from the carried total, so it adds
term after term exactly as one cumsum over the whole window would.  The beta
and gamma fold carries a second such sum in the same cumsum, as the
imaginary lane of a complex piece: the logs from 2N down, which give the
tails R_k of two dyadic blocks (:mod:`geomseq.duals`).
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from .codec import Report, json_key
from .errors import DomainError, IndexOutOfRange, NonPositiveValue, check_int
from .garith import GNum
from . import exprdsl
from .exprdsl import ExprAst
from .ratfunc import Exact, NotExact, RatFunc

__all__ = [
    "GSeq",
    "ExpressionSeq",
    "BufferSeq",
    "ConstantSeq",
    "SparseLogSeq",
    "Verdict",
    "VerdictKind",
    "seq_from_expr",
    "seq_from_logs",
    "seq_from_values",
    "seq_constant",
    "seq_oplus",
    "seq_odot",
    "seq_scale",
    "term",
    "gsum_partial",
    "sup_gabs",
    "g_limit_probe",
    "remainder",
    "DEFAULT_WINDOW",
    "DEFAULT_TOL",
]

#: Default probe window N for every verdict-producing operation.
DEFAULT_WINDOW = 100_000

#: Default stabilization tolerance (log domain).
DEFAULT_TOL = 1e-6

#: The difference spaces :func:`geomseq.spaces.classify` decides, exported
#: there; defined here so the CLI's ``--space`` choices do not load it.
SPACES = ("linf", "c", "c0")

#: A log magnitude beyond this is treated as divergence outright.
LOG_MAGNITUDE_LIMIT = 1e6

# Increment-ratio cutoffs for the N/2 : N : 2N protocol.  Increments that
# shrink to <= 0.8 of the previous window extrapolate to a finite limit
# (p-series with p >= 1.5 land at <= 0.71); increments holding >= 0.95
# mean steady growth (the harmonic series sits exactly at 1.0).
RATIO_FINITE = 0.8
RATIO_DIVERGED = 0.95

#: Number of sample points per half-window in the limit probe.
PROBE_POINTS = 33


# ---------------------------------------------------------------------------
# Verdicts


class VerdictKind(str, Enum):
    FINITE = "finite"
    DIVERGED = "diverged"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Verdict(Report):
    """Outcome of a finite probe: a kind, an estimate when one is claimed,
    the window N it was run at, and the raw probe pair for diagnostics."""

    kind: VerdictKind
    estimate: Optional[GNum] = field(metadata=json_key("estimate_log"))
    window: int
    probe_n: float = field(metadata=json_key("probe_N"))
    probe_2n: float = field(metadata=json_key("probe_2N"))
    note: str = ""

    def __post_init__(self):
        if self.kind is VerdictKind.FINITE and self.estimate is None:
            raise ValueError("a finite verdict must carry an estimate")


def conjunction(*verdicts: Verdict) -> VerdictKind:
    """Combine verdicts of jointly required conditions.

    Any divergence decides; all finite means finite; otherwise unresolved.
    """
    kinds = [v.kind for v in verdicts]
    if VerdictKind.DIVERGED in kinds:
        return VerdictKind.DIVERGED
    if all(k is VerdictKind.FINITE for k in kinds):
        return VerdictKind.FINITE
    return VerdictKind.INCONCLUSIVE


def _ratio_rule(d1: float, d2: float, magnitude: float, tol: float) -> tuple[VerdictKind, str]:
    """The one verdict rule, from how far a statistic moves over [N/2, N]
    (d1) and over [N, 2N] (d2) and how large it is: a flat d2 is finite
    where float64 resolves tol at that magnitude (from 2^33, about 8.6e9,
    it does not, and a statistic can read flat by rounding alone); else past
    :data:`LOG_MAGNITUDE_LIMIT`, or not finite, is diverged; else a jump
    after a flat d1 is inconclusive; else the ratio d2 / d1 decides."""
    if d2 < tol and math.ulp(magnitude) < tol:
        return VerdictKind.FINITE, "stabilized: growth below tol between N and 2N"
    if not (math.isfinite(magnitude) and magnitude <= LOG_MAGNITUDE_LIMIT):
        return VerdictKind.DIVERGED, "statistic beyond the log magnitude limit"
    if d1 < tol:
        return VerdictKind.INCONCLUSIVE, "statistic jumped after having been flat"
    if (ratio := d2 / d1) <= RATIO_FINITE:
        return VerdictKind.FINITE, f"increments decaying geometrically (ratio {ratio:.3f})"
    if ratio >= RATIO_DIVERGED:
        return VerdictKind.DIVERGED, f"increments not shrinking (ratio {ratio:.3f})"
    return VerdictKind.INCONCLUSIVE, f"increment ratio {ratio:.3f} in the undecided band"


def monotone_verdict(
    t_half: float,
    t_n: float,
    t_2n: float,
    window: int,
    tol: float,
) -> Verdict:
    """Classify a nondecreasing statistic from its three window values."""
    kind, why = _ratio_rule(t_n - t_half, t_2n - t_n, t_2n, tol)
    estimate = GNum(float(t_2n)) if kind is VerdictKind.FINITE else None
    return Verdict(kind, estimate, window, t_n, t_2n, why)


def signed_series_verdict(
    partials: np.ndarray, window: int, tol: float
) -> Verdict:
    """Convergence probe for a signed series from its partial-sum array.

    ``partials[i]`` is the partial sum through index i+1 and must cover
    2*window terms; :func:`series_verdict` decides from its statistics.
    """
    n = window
    if len(partials) < 2 * n:
        raise ValueError("partial sums must cover the doubled window")
    w1 = partials[max(0, n // 2 - 1) : n]
    w2 = partials[n - 1 : 2 * n]
    return series_verdict(
        float(partials[n - 1]), float(partials[2 * n - 1]),
        float(np.max(np.abs(partials[: 2 * n]))),
        (np.min(w1), np.max(w1)), (np.min(w2), np.max(w2)), n, tol,
    )


def series_verdict(
    s_n: float, s_2n: float, mag: float, range1: tuple, range2: tuple, n: int, tol: float
) -> Verdict:
    """Convergence of a signed series from its partial sums S: S_N, S_2N,
    the sup of |S| through 2N, and the (min, max) of S over [N/2, N] and
    over [N, 2N].  The two oscillations max - min are the moves that
    :func:`_ratio_rule` reads, with sup |S| as the magnitude; a finite
    verdict estimates S_2N."""
    osc1 = float(range1[1]) - float(range1[0])  # Python floats: inf - inf is nan, unwarned
    osc2 = float(range2[1]) - float(range2[0])
    kind, why = _ratio_rule(osc1, osc2, mag, tol)
    estimate = GNum(s_2n) if kind is VerdictKind.FINITE else None
    return Verdict(kind, estimate, n, s_n, s_2n, why)


def check_window(N: int, tol: float) -> int:
    """The probe window N as an ``int`` >= 4 (:func:`~geomseq.errors.check_int`),
    and tol checked by :func:`check_tol`; the CLI's ``--N`` calls it too."""
    N = check_int(N, "N", 4)
    check_tol(tol)
    return N


def check_tol(tol: float) -> float:
    """tol, if a positive and finite real but no ``bool`` (an infinite tol would call
    every statistic stable), else a ``ValueError``; the CLI's ``--tol`` calls it too."""
    if isinstance(tol, bool) or not (isinstance(tol, numbers.Real) and tol > 0):
        raise ValueError(f"tol must be positive, got {tol!r}")
    if tol == math.inf:
        raise ValueError(f"tol must be finite, got {tol!r}")
    return tol


#: Terms per chunk of every window scan (:meth:`GSeq.log_chunks`) and of
#: :class:`ExactSum`.  A chunk's temporaries are a few 128 KB arrays, so
#: memory does not grow with N, and its float index is one add to a shared
#: array (:func:`geomseq.exprdsl.float_index`).
SUM_CHUNK = exprdsl.INDEX_SPAN

# A finite float64 is m * 2^(e - 53) with m a 53-bit integer and frexp's
# exponent e >= -1073, so every term is a whole multiple of 2^-1126.
# _chunk_total sums a chunk exactly, as an int in these units, by error-free
# extraction (Rump, Ogita and Oishi, *Accurate floating-point summation,
# part I*, SIAM J. Sci. Comput. 31, 2008).  With |p| <= 2^e and
# sigma = 2^(e + _MARGIN), q = (p + sigma) - sigma is p rounded to a multiple
# of 2^(e + _MARGIN - 53), at most 2^e in magnitude; the subtraction is exact
# by Sterbenz, and so is the remainder p - q.  A chunk holds fewer than
# 2^_MARGIN terms, so every partial sum of its q is a multiple of
# 2^(e + _MARGIN - 53) below 2^(e + _MARGIN): ``np.sum`` adds them exactly,
# in any order.  The remainder is at most 2^(e + _MARGIN - 53), half the
# float spacing above sigma, so the next pass may take that as its bound
# without measuring it, as long as its sigma is a normal float.
_SUM_UNIT = 1 << 1126
_MARGIN = SUM_CHUNK.bit_length()

# sigma stays finite for every top below this; larger terms are scaled down
# by 2^-_SHIFT, exactly, and summed on their own.
_BIG = 2.0 ** (1023 - _MARGIN)
_SHIFT = 512


def _extract(p: np.ndarray, e: int) -> tuple[int, np.ndarray]:
    """One pass over terms |p| <= 2^e: the sum of q, and p - q."""
    sigma = math.ldexp(1.0, e + _MARGIN)
    q = p + sigma
    q -= sigma
    n, d = float(q.sum()).as_integer_ratio()
    return n * (_SUM_UNIT // d), np.subtract(p, q, out=q)


def _chunk_total(p: np.ndarray) -> Optional[int]:
    """The exact sum of a chunk of at most :data:`SUM_CHUNK` terms, in units
    of 2^-1126 (see :data:`_SUM_UNIT`), or None if it holds an inf or nan.

    Pass 1 measures its top, pass 2 (unless its sigma would be subnormal)
    runs from pass 1's bound, and one ``any()`` after each ends most chunks.
    Later passes measure again, over the nonzero remainders only."""
    hi, lo = float(p.max(initial=0.0)), float(p.min(initial=0.0))
    if not math.isfinite(hi + lo):  # hi >= 0 >= lo: finite terms never overflow this
        return None
    top = max(hi, -lo)
    if not top:
        return 0
    if top >= _BIG:
        big = np.abs(p) >= _BIG
        return _chunk_total(p[~big]) + (_chunk_total(p[big] * 2.0**-_SHIFT) << _SHIFT)
    e = math.frexp(top)[1]
    total, p = _extract(p, e)
    if not p.any():
        return total
    if e + 2 * _MARGIN - 53 >= -1022:
        extra, p = _extract(p, e + _MARGIN - 53)
        total += extra
        if not p.any():
            return total
    while (p := p[p != 0]).size:
        extra, p = _extract(p, math.frexp(max(p.max(), -p.min()))[1])
        total += extra
    return total


class ExactSum:
    """The exact running sum of the float64 chunks added, carried as one
    Python int.

    :meth:`read` rounds it once: a finite sum reads bit for bit as
    ``math.fsum`` of everything added, except that a sum past float64 is
    +-inf rather than an ``OverflowError``.  Once inf or nan terms were
    added it reads as ``math.fsum`` of the distinct ones: +-inf, nan, or a
    ``ValueError`` for +inf together with -inf, as ``math.fsum`` gives.
    """

    def __init__(self):
        self.total = 0
        self.special = np.empty(0)  # the distinct inf and nan terms added

    def add(self, k: int, vals: np.ndarray) -> None:  # a sum needs no index k
        for start in range(0, len(vals), SUM_CHUNK):
            chunk = vals[start : start + SUM_CHUNK]
            total = _chunk_total(chunk)
            if total is None:
                finite = np.isfinite(chunk)
                self.special = np.unique(np.concatenate([self.special, chunk[~finite]]))
                total = _chunk_total(chunk[finite])
            self.total += total

    def read(self) -> float:
        if len(self.special):
            return math.fsum(self.special)
        try:
            return self.total / _SUM_UNIT  # int / int rounds correctly
        except OverflowError:
            return math.inf if self.total > 0 else -math.inf


class RunningMax:
    """The max of the chunks added and the first term holding it, as
    ``np.max`` and ``np.argmax`` give over all of them: once a nan is added
    the max is nan, held at the first nan."""

    def __init__(self):
        self.value = -math.inf
        self.index: Optional[int] = None

    def add(self, k: int, vals: np.ndarray) -> None:
        """Fold in ``vals``, ``vals[0]`` being term k."""
        if not len(vals) or math.isnan(self.value):
            return
        i = int(np.argmax(vals))
        if self.index is None or not vals[i] <= self.value:  # larger, or nan
            self.value, self.index = float(vals[i]), k + i

    def read(self) -> float:
        return self.value


def window_ends(N: int, first: int = 1) -> tuple[int, int, int]:
    """The last terms of the three probe windows of a scan from ``first``:
    N/2 (or ``first`` when N/2 lies before it), N and 2N."""
    return max(first, N // 2), N, 2 * N


def _weighted_abs(k: int, logs: np.ndarray, weight: float) -> np.ndarray:
    """k^weight |logs|, ``logs[0]`` being term k.  Past float64 a term is
    inf, and an inf weight on a zero log adds nothing.

    Weights 2 and 3 are products of k while the last k^w is below 2^53,
    exact and so equal to ``np.power``.  Only a positive weight overflows,
    at the last k first."""
    vals = np.abs(logs)
    if weight == 0.0:
        return vals
    n = len(logs)
    kw = exprdsl.float_index(k, n)
    with np.errstate(over="ignore", invalid="ignore"):
        if weight in (2.0, 3.0) and (k + n - 1) ** int(weight) < 2**53:
            kw = kw * kw if weight == 2.0 else kw * kw * kw
        elif weight != 1.0:
            np.power(kw, weight, out=kw)
        vals *= kw
    if n and kw[-1] == math.inf:
        vals[logs == 0.0] = 0.0
    return vals


def window_scan(
    x: GSeq, first: int, ends: tuple[int, ...], fold, weight: Optional[float] = None
) -> list:
    """The window engine: feed the :meth:`GSeq.log_chunks` pieces of terms
    ``first`` .. ``ends[-1]`` to ``fold.add(k, vals)``, ``vals[0]`` being
    term k, and return ``fold.read()`` at each of the ascending ``ends``.
    ``vals`` are the logs or, given a weight w, k^w times their magnitudes."""
    reads = []
    for k, logs in x.log_chunks(first, ends[-1], ends):
        fold.add(k, logs if weight is None else _weighted_abs(k, logs, weight))
        if k + len(logs) - 1 in ends:
            reads.append(fold.read())
    return reads


# ---------------------------------------------------------------------------
# Sequences


def _index_array(ks: range | np.ndarray) -> np.ndarray:
    """The int64 indices of a read: a window's ``range`` as an array."""
    return np.arange(ks.start, ks.stop, dtype=np.int64) if isinstance(ks, range) else ks


def _check_index(k: int) -> int:
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool) or k < 1:
        raise IndexOutOfRange(f"sequence indices start at 1, got {k!r}")
    if k >= 2**63:
        raise IndexOutOfRange(f"sequence indices end at 2^63-1, got {k!r}")
    return int(k)


def _listed(h: int, value: Callable[[int], Exact]) -> tuple:
    """``value(k)`` for k = 1..h as constants; where term k reads a pole it
    gets one too (a zero denominator), raised when the term is read."""
    out = []
    for k in range(1, h + 1):
        try:
            out.append(RatFunc.const(value(k)))
        except DomainError:
            out.append(RatFunc((1,), [()]))
    return tuple(out)


@dataclass(frozen=True)
class ExactForm:
    """The exact logs of an unbounded sequence: listed constants for the
    terms k <= len(head), then one rational function of k."""

    tail: RatFunc
    head: tuple = ()

    def exact(self, k: int) -> Exact:
        return (self.tail if k > len(self.head) else self.head[k - 1]).exact(k)

    def values(self, ks: range | np.ndarray) -> np.ndarray:
        """The logs at the indices ``ks``, correctly rounded: a window, a
        ``range`` of step 1, or an int64 index array of any shape.  Indices
        past the listed head go to :meth:`RatFunc.values` as they are; an
        index array is made only when a window overlaps the head."""
        h = len(self.head)
        if (ks.start if isinstance(ks, range) else ks.min(initial=h + 1)) > h:
            return self.tail.values(ks)
        ks = _index_array(ks)
        listed = ks <= h
        out = np.empty(ks.shape)
        out[listed] = [self.head[k - 1].at(k) for k in ks[listed].tolist()]
        out[~listed] = self.tail.values(ks[~listed])
        return out

    def combine(self, other: "ExactForm", op: Callable) -> Optional["ExactForm"]:
        """Termwise ``op`` (+ or *) of two forms; None past the size caps."""
        head = _listed(max(len(self.head), len(other.head)), lambda k: op(self.exact(k), other.exact(k)))
        try:
            return ExactForm(op(self.tail, other.tail), head)
        except NotExact:
            return None

    def pinned(self, m: int) -> "ExactForm":
        """Terms 1..m set to log 0, the rest kept."""
        head = _listed(max(m, len(self.head)), lambda k: 0 if k <= m else self.exact(k))
        return ExactForm(self.tail, head)

    def shifts(self, coeffs: list[int]) -> Optional["ExactForm"]:
        """The form of sum_v coeffs[v] * (log of term k+v); None past the caps."""
        head = _listed(len(self.head), lambda k: sum(c * self.exact(k + v) for v, c in enumerate(coeffs)))
        try:
            tail = self.tail * RatFunc.const(coeffs[0])
            for v, c in enumerate(coeffs[1:], 1):
                tail = tail + self.tail.shift(v) * RatFunc.const(c)
        except NotExact:
            return None
        return ExactForm(tail, head)


class GSeq:
    """Base class: a lazy 1-indexed sequence of geometric numbers."""

    #: The exact logs of every term, when the sequence has a closed rational
    #: form; point reads read it instead of the float windows.
    exact_form: Optional[ExactForm] = None

    @property
    def length(self) -> Optional[int]:
        """Number of defined terms, or None when unbounded."""
        return None

    def term(self, k: int) -> GNum:
        return GNum(self.log_at(k))

    def log_at(self, k: int) -> float:
        return float(self.log_points([k])[0])

    def log_points(self, ks) -> np.ndarray:
        """Float64 logs of the terms at the indices ``ks``, in any order."""
        if not (isinstance(ks, np.ndarray) and ks.dtype == np.int64):  # a huge index overflows the cast
            ks = np.array([_check_index(k) for k in ks], dtype=np.int64)
        if len(ks):
            self._bounded(ks.min())
            self._bounded(ks.max())
        if self.exact_form is not None:
            return self.exact_form.values(ks)
        with np.errstate(over="ignore"):  # a log past float64 reads as +-inf
            return self._read(ks)

    def _bounded(self, k: int) -> int:
        k = _check_index(k)
        n = self.length
        if n is not None and k > n:
            raise IndexOutOfRange(f"index {k} beyond the {n} defined terms")
        return k

    def log_values(self, start: int, count: int) -> np.ndarray:
        """Float64 logs of terms start .. start+count-1."""
        start = self._bounded(start)
        count = check_int(count, "count", 0)
        if count:
            self._bounded(start + count - 1)
        with np.errstate(over="ignore"):
            return self._read(range(start, start + count))

    def log_chunks(
        self, first: int, last: int, stops: Iterable[int] = ()
    ) -> Iterator[tuple[int, np.ndarray]]:
        """The window scan: the logs of terms first..last as ``(k, logs)``
        pieces in ascending order, ``logs[0]`` being term k, each read by
        :meth:`_piece`.

        A piece holds at most :data:`SUM_CHUNK` terms and ends at every stop
        in the range, so a fold over the pieces can be read there.  A piece
        may be a read-only view: a fold must not write into it.  The whole
        range is bounds-checked before any term is read; a piece that fails
        to read raises its own :class:`~geomseq.errors.GeometricError`, so
        the scan stops there.
        """
        first = self._bounded(first)
        if last < first:
            return
        self._bounded(last)
        edges = sorted({first, last + 1} | {s + 1 for s in stops if first <= s < last})
        for a, b in zip(edges, edges[1:]):
            for lo in range(a, b, SUM_CHUNK):
                yield lo, self._piece(lo, min(SUM_CHUNK, b - lo))

    def _piece(self, lo: int, n: int) -> np.ndarray:
        """The logs of terms lo .. lo+n-1, the window ``range(lo, lo + n)``,
        for :meth:`log_chunks` and for the beta and gamma tails
        (:mod:`geomseq.duals`)."""
        return self.log_values(lo, n)

    def _read(self, ks: range | np.ndarray) -> np.ndarray:
        """The one float read: the logs of the terms ``ks`` as a 1-d array.
        ``ks`` is a window, a ``range`` of step 1, or points, an int64 array
        in any order; the caller has checked their bounds."""
        raise NotImplementedError


class ExpressionSeq(GSeq):
    """Closed-form sequence defined by DSL source text (or a parsed AST)."""

    def __init__(self, src: str | ExprAst):
        if isinstance(src, str):
            self.ast = exprdsl.parse(src)
            self.source = exprdsl.to_source(self.ast)
        else:
            self.ast = src
            self.source = exprdsl.to_source(src)
        tail = exprdsl.lower_log(self.ast)
        self.exact_form = None if tail is None else ExactForm(tail)

    def __repr__(self) -> str:
        return f"ExpressionSeq({self.source!r})"

    def _read(self, ks: range | np.ndarray) -> np.ndarray:
        return exprdsl.eval_log_array(self.ast, ks)


class BufferSeq(GSeq):
    """Finite sequence held as an array of logs.  Pure float semantics."""

    def __init__(self, logs: np.ndarray):
        logs = np.asarray(logs, dtype=np.float64)
        if logs.ndim != 1:
            raise ValueError("a buffer sequence wants a 1-d array of logs")
        if not np.all(np.isfinite(logs)):
            raise DomainError("buffer logs must all be finite")
        self._logs = logs.view()
        self._logs.flags.writeable = False  # so every scan piece is read-only

    def __repr__(self) -> str:
        return f"BufferSeq(<{len(self._logs)} terms>)"

    @property
    def length(self) -> Optional[int]:
        return len(self._logs)

    def _piece(self, lo: int, n: int) -> np.ndarray:
        return self._logs[lo - 1 : lo - 1 + n]

    def _read(self, ks: range | np.ndarray) -> np.ndarray:
        return self._logs[_index_array(ks) - 1]


class ConstantSeq(GSeq):
    """The same geometric number at every index."""

    def __init__(self, g: GNum):
        self._log = g.log_value
        # floats are rationals; this is lossless
        self.exact_form = ExactForm(RatFunc.const(Fraction(self._log)))

    def __repr__(self) -> str:
        return f"ConstantSeq(e^{self._log:g})"

    def _read(self, ks: range | np.ndarray) -> np.ndarray:
        return np.full(len(ks), self._log)


class SparseLogSeq(GSeq):
    """Geometric zero everywhere except finitely many stored logs."""

    def __init__(self, entries: dict[int, float]):
        self._entries = {_check_index(k): float(v) for k, v in entries.items()}

    def __repr__(self) -> str:
        return f"SparseLogSeq(<{len(self._entries)} nonzero terms>)"

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self._entries))

    def _read(self, ks: range | np.ndarray) -> np.ndarray:
        ks = _index_array(ks)
        out = np.zeros(len(ks))
        for k, v in self._entries.items():
            out[ks == k] = v
        return out


class _BinaryView(GSeq):
    """Termwise a op b on the logs, exact or float: ``operator.add`` for the
    geometric sum, ``operator.mul`` for the geometric product."""

    def __init__(self, a: GSeq, b: GSeq, op: Callable):
        self.a = a
        self.b = b
        self._op = op
        fa, fb = a.exact_form, b.exact_form
        if fa is not None and fb is not None:
            self.exact_form = fa.combine(fb, op)

    @property
    def length(self) -> Optional[int]:
        return min((n for n in (self.a.length, self.b.length) if n is not None), default=None)

    def _read(self, ks: range | np.ndarray) -> np.ndarray:
        return self._op(self.a._read(ks), self.b._read(ks))


def seq_from_expr(src: str | ExprAst) -> ExpressionSeq:
    return ExpressionSeq(src)


def seq_from_logs(logs: Iterable[float]) -> BufferSeq:
    return BufferSeq(np.asarray(list(logs) if not isinstance(logs, np.ndarray) else logs))


def seq_from_values(values: Iterable[float]) -> BufferSeq:
    vals = np.asarray(
        list(values) if not isinstance(values, np.ndarray) else values,
        dtype=np.float64,
    )
    if not np.all(np.isfinite(vals) & (vals > 0.0)):
        raise NonPositiveValue("buffer values must be strictly positive finite reals")
    return BufferSeq(np.log(vals))


def seq_constant(g: GNum) -> ConstantSeq:
    return ConstantSeq(g)


def seq_oplus(x: GSeq, y: GSeq) -> GSeq:
    return _BinaryView(x, y, operator.add)


def seq_odot(x: GSeq, y: GSeq) -> GSeq:
    return _BinaryView(x, y, operator.mul)


def seq_scale(alpha: GNum, x: GSeq) -> GSeq:
    """Geometric scalar multiple alpha (*) x_k, i.e. logs scaled by ln(alpha)."""
    return _BinaryView(ConstantSeq(alpha), x, operator.mul)


# ---------------------------------------------------------------------------
# Series operations


def term(x: GSeq, k: int) -> GNum:
    """Term access as a free function, for symmetry with the other ops."""
    return x.term(k)


def gsum_partial(x: GSeq, n: int) -> GNum:
    """Geometric partial sum of the first n terms: exp of the correctly
    rounded sum of their logs (:class:`ExactSum`)."""
    n = check_int(n, "n", 0)
    return GNum(window_scan(x, 1, (n,), ExactSum())[0] if n else 0.0)


def sup_gabs(x: GSeq, N: int) -> GNum:
    """Supremum of the geometric absolute values of the first N terms."""
    N = check_int(N, "N", 1)
    return GNum(window_scan(x, 1, (N,), RunningMax(), weight=0.0)[0])


def _probe_ks(lo: int, hi: int) -> np.ndarray:
    """:data:`PROBE_POINTS` sorted indices spread over [lo, hi], repeats dropped."""
    ks = np.linspace(max(1, lo), hi, PROBE_POINTS).round().astype(np.int64)
    return ks[np.concatenate(([True], ks[1:] != ks[:-1]))]


def _limit_probe_detail(
    x: GSeq, N: int, tol: float, null: bool = False
) -> tuple[Verdict, Optional[int]]:
    """The limit probe of :func:`g_limit_probe`, or with ``null`` the probe
    for the geometric zero, and the sample of largest |log|, the witness.

    The zero probe lies within the limit probe: where that reads diverged,
    so does it; else it reads the samples' max |log| over [N/2, N] and over
    [N, 2N] as :func:`_ratio_rule`'s two moves, with their sup as the
    magnitude, and a finite verdict estimates log 0, the geometric zero."""
    N = check_window(N, tol)
    ks1 = _probe_ks(N // 2, N)
    all_ks = np.concatenate([ks1, _probe_ks(N, 2 * N)])
    all_logs = x.log_points(all_ks)
    logs1, logs2 = all_logs[: len(ks1)], all_logs[len(ks1) :]
    i_max = int(np.argmax(np.abs(all_logs)))
    mag = abs(float(all_logs[i_max]))
    t_n, t_2n = float(logs1[-1]), float(logs2[-1])
    lo1, hi1, lo2, hi2 = (float(v) for v in (logs1.min(), logs1.max(), logs2.min(), logs2.max()))
    verdict = series_verdict(t_n, t_2n, mag, (lo1, hi1), (lo2, hi2), N, tol)
    if null and verdict.kind is not VerdictKind.DIVERGED:  # no limit is no zero limit
        kind, why = _ratio_rule(max(-lo1, hi1), max(-lo2, hi2), mag, tol)  # the max |log|
        verdict = Verdict(kind, GNum(0.0) if kind is VerdictKind.FINITE else None, N, t_n, t_2n, why)
    return verdict, int(all_ks[i_max])


def g_limit_probe(x: GSeq, N: int = DEFAULT_WINDOW, tol: float = DEFAULT_TOL) -> Verdict:
    """Probe for a geometric limit from the logs at :data:`PROBE_POINTS`
    sample points over each of [N/2, N] and [N, 2N].

    :func:`series_verdict` decides, as for the partial sums of a series: the
    samples are the terms, their (min, max) over each half-window the two
    ranges, their sup |log| the magnitude.  A finite verdict estimates the
    log at 2N.
    """
    verdict, _ = _limit_probe_detail(x, N, tol)
    return verdict


def remainder(
    a: GSeq, n: int, N: int = DEFAULT_WINDOW, tol: float = DEFAULT_TOL
) -> tuple[GNum, Verdict]:
    """Truncated geometric tail after the n-th term, with a stability verdict.

    Returns exp(sum of logs over n+1 .. N) and a verdict on the tails t cut
    at N/2, N and 2N: :func:`_ratio_rule` reads the moves |t_N - t_N/2| and
    |t_2N - t_N|, with max(|t_N|, |t_2N|) as the magnitude.  A finite
    verdict estimates the tail at N.
    """
    n = check_int(n, "n", 0)
    N = check_int(N, "N", n + 2)
    check_tol(tol)
    t_half, t_n, t_2n = window_scan(a, n + 1, window_ends(N, n + 1), ExactSum())
    tail = GNum(t_n)
    kind, why = _ratio_rule(abs(t_n - t_half), abs(t_2n - t_n), max(abs(t_n), abs(t_2n)), tol)
    estimate = tail if kind is VerdictKind.FINITE else None
    return tail, Verdict(kind, estimate, N, t_n, t_2n, why)
