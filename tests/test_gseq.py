"""Sequence layer: lazy views, partial geometric sums, tails, and the
three-window verdict protocol they all share."""

import json
import math
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from geomseq import (
    DomainError,
    DualReport,
    GNum,
    GZERO,
    IndexOutOfRange,
    LemmaEquivalenceReport,
    MembershipReport,
    NonPositiveValue,
    Verdict,
    VerdictKind,
    alpha_alpha_dual_test,
    alpha_dual_test,
    beta_dual_test,
    classify,
    delta_binomial,
    delta_norm,
    g_limit_probe,
    gamma_dual_test,
    gsum_partial,
    lemma_equivalence_check,
    remainder,
    seq_constant,
    seq_from_expr,
    seq_from_logs,
    seq_from_values,
    seq_odot,
    seq_oplus,
    seq_scale,
    sup_gabs,
    term,
    weighted_sup,
)
from geomseq.gseq import (
    BufferSeq,
    ExpressionSeq,
    SparseLogSeq,
    SUM_CHUNK,
    conjunction,
    exact_prefix_sums,
    monotone_verdict,
    signed_series_verdict,
)


def rel_close(a, b, tol):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


class TestSequenceAccess:
    def test_expression_terms(self):
        x = seq_from_expr("exp(k)")
        assert term(x, 3).log_value == 3.0
        assert x.source == "exp(k)"

    def test_block_matches_pointwise(self):
        x = seq_from_expr("exp(ln(k)/k)")
        block = x.log_values(5, 20)
        for i, k in enumerate(range(5, 25)):
            assert block[i] == pytest.approx(x.log_at(k), rel=1e-15)

    def test_indices_start_at_one(self):
        x = seq_from_expr("exp(k)")
        with pytest.raises(IndexOutOfRange):
            term(x, 0)
        with pytest.raises(IndexOutOfRange):
            x.log_values(0, 3)

    def test_buffer_length_respected(self):
        b = seq_from_logs([0.1, 0.2, 0.3])
        assert b.length == 3
        assert term(b, 3).log_value == pytest.approx(0.3)
        with pytest.raises(IndexOutOfRange):
            term(b, 4)
        with pytest.raises(IndexOutOfRange):
            b.log_values(2, 3)

    def test_values_must_be_positive(self):
        with pytest.raises(NonPositiveValue):
            seq_from_values([1.0, 0.0, 2.0])
        with pytest.raises(NonPositiveValue):
            seq_from_values([1.0, -3.0])

    def test_buffer_blocks_are_copies(self):
        b = seq_from_logs([1.0, 2.0, 3.0])
        blk = b.log_values(1, 2)
        blk[0] = 99.0
        assert b.log_at(1) == 1.0

    def test_sparse_support(self):
        s = SparseLogSeq({2: 0.25, 5: 0.04})
        assert s.support == (2, 5)
        assert s.log_at(2) == 0.25
        assert s.log_at(3) == 0.0
        assert list(s.log_values(1, 6)) == [0.0, 0.25, 0.0, 0.0, 0.04, 0.0]


class TestExactness:
    def test_power_expressions_are_exact(self):
        assert ExpressionSeq("exp(k^2)").exact_form is not None
        assert ExpressionSeq("exp(1/k)").exact_form is not None
        assert ExpressionSeq("1").exact_form is not None
        assert ExpressionSeq("e").exact_form is not None

    def test_ln_expressions_are_not(self):
        assert ExpressionSeq("exp(ln(k))").exact_form is None

    def test_buffers_are_not(self):
        assert seq_from_logs([0.5]).exact_form is None

    def test_exact_log_values(self):
        x = ExpressionSeq("exp(k^3)")
        assert x.exact_form.exact(10) == 1000
        assert [x.exact_form.exact(k) for k in range(1, 5)] == [1, 8, 27, 64]


class TestCombinators:
    def test_oplus_adds_logs(self):
        x = seq_from_expr("exp(k)")
        y = seq_from_expr("exp(1/k)")
        z = seq_oplus(x, y)
        assert term(z, 4).log_value == pytest.approx(4.25)

    def test_odot_multiplies_logs(self):
        z = seq_odot(seq_from_expr("exp(k)"), seq_from_expr("exp(k)"))
        assert term(z, 5).log_value == 25.0

    def test_scale(self):
        z = seq_scale(GNum(2.0), seq_from_expr("exp(k)"))
        assert term(z, 7).log_value == 14.0

    def test_constant(self):
        c = seq_constant(GNum(0.5))
        assert term(c, 123).log_value == 0.5
        assert c.exact_form is not None

    def test_view_length_is_min_of_children(self):
        a = seq_from_logs([0.1] * 5)
        b = seq_from_logs([0.2] * 8)
        assert seq_oplus(a, b).length == 5


class TestPartialSums:
    def test_geometric_series_head(self):
        # product over exp(2^-k), k = 1..4: exponent 1/2+1/4+1/8+1/16
        x = seq_from_expr("exp(2^(0-k))")
        assert gsum_partial(x, 4).log_value == pytest.approx(15.0 / 16.0, rel=1e-15)

    def test_empty_sum_is_geometric_zero(self):
        assert gsum_partial(seq_from_expr("exp(k)"), 0) == GZERO

    def test_recurrence(self):
        x = seq_from_expr("exp(ln(k)/k)")
        for n in (1, 2, 9, 33):
            stepped = gsum_partial(x, n).log_value + x.log_at(n + 1)
            whole = gsum_partial(x, n + 1).log_value
            assert rel_close(stepped, whole, 1e-12)

    def test_concatenated_buffers_add(self, rng):
        left = rng.uniform(-2, 2, size=40)
        right = rng.uniform(-2, 2, size=25)
        whole = seq_from_logs(np.concatenate([left, right]))
        got = gsum_partial(whole, 65).log_value
        want = gsum_partial(seq_from_logs(left), 40).log_value + gsum_partial(
            seq_from_logs(right), 25
        ).log_value
        assert rel_close(got, want, 1e-12)

    def test_sup_gabs_frozen(self):
        assert sup_gabs(seq_from_expr("exp(1/k)"), 100).log_value == 1.0
        assert sup_gabs(seq_from_expr("exp(0-k)"), 5).log_value == 5.0


class TestRemainder:
    def test_geometric_tail(self):
        x = seq_from_expr("exp(2^(0-k))")
        tail, verdict = remainder(x, 3, 1000)
        assert tail.log_value == pytest.approx(0.125, rel=1e-12)
        assert verdict.kind is VerdictKind.FINITE

    def test_identity_with_partial_sums(self):
        x = seq_from_expr("exp(1/k^2)")
        N = 500
        for n in (1, 7, 50):
            tail, _ = remainder(x, n, N)
            got = gsum_partial(x, n).log_value + tail.log_value
            want = gsum_partial(x, N).log_value
            assert rel_close(got, want, 1e-12)

    def test_divergent_tail(self):
        _, verdict = remainder(seq_from_expr("exp(1/k)"), 1, 10000)
        assert verdict.kind is VerdictKind.DIVERGED

    def test_window_must_exceed_start(self):
        with pytest.raises(ValueError):
            remainder(seq_from_expr("exp(k)"), 5, 6)


class TestLimitProbe:
    def test_convergent(self):
        v = g_limit_probe(seq_from_expr("exp(1/k)"), 10000, 1e-3)
        assert v.kind is VerdictKind.FINITE
        assert abs(v.estimate.log_value) < 1e-3

    def test_divergent_fast(self):
        v = g_limit_probe(seq_from_expr("exp(k)"), 10000, 1e-3)
        assert v.kind is VerdictKind.DIVERGED

    def test_divergent_slow(self):
        # logs grow like ln k: well inside the magnitude limit, still caught
        v = g_limit_probe(seq_from_expr("exp(ln(k))"), 10000, 1e-3)
        assert v.kind is VerdictKind.DIVERGED

    def test_window_floor(self):
        with pytest.raises(ValueError):
            g_limit_probe(seq_from_expr("exp(k)"), 3)


class TestVerdictProtocol:
    def test_monotone_stabilized(self):
        v = monotone_verdict(1.0, 1.0, 1.0, 100, 1e-6)
        assert v.kind is VerdictKind.FINITE
        assert v.estimate.log_value == 1.0

    def test_monotone_geometric_decay(self):
        v = monotone_verdict(0.0, 10.0, 15.0, 100, 1e-6)
        assert v.kind is VerdictKind.FINITE

    def test_monotone_linear_growth(self):
        v = monotone_verdict(5.0, 10.0, 20.0, 100, 1e-6)
        assert v.kind is VerdictKind.DIVERGED

    def test_monotone_magnitude_limit(self):
        v = monotone_verdict(0.0, 0.0, 2e6, 100, 1e-6)
        assert v.kind is VerdictKind.DIVERGED

    def test_monotone_flat_then_jump(self):
        v = monotone_verdict(1.0, 1.0, 2.0, 100, 1e-6)
        assert v.kind is VerdictKind.INCONCLUSIVE

    def test_monotone_undecided_band(self):
        v = monotone_verdict(0.0, 10.0, 18.7, 100, 1e-6)
        assert v.kind is VerdictKind.INCONCLUSIVE

    def test_signed_flat(self):
        partials = np.full(200, 3.25)
        v = signed_series_verdict(partials, 100, 1e-6)
        assert v.kind is VerdictKind.FINITE
        assert v.estimate.log_value == 3.25

    def test_signed_oscillating(self):
        partials = np.where(np.arange(200) % 2 == 0, 1.0, 0.0)
        v = signed_series_verdict(partials, 100, 1e-6)
        assert v.kind is VerdictKind.DIVERGED

    def test_signed_needs_doubled_window(self):
        with pytest.raises(ValueError):
            signed_series_verdict(np.zeros(150), 100, 1e-6)

    def test_finite_requires_estimate(self):
        with pytest.raises(ValueError):
            Verdict(VerdictKind.FINITE, None, 100, 0.0, 0.0)

    def test_serialization_round_trip(self):
        v = monotone_verdict(0.0, 10.0, 15.0, 64, 1e-6)
        assert Verdict.from_dict(v.to_dict()) == v
        w = monotone_verdict(5.0, 10.0, 20.0, 64, 1e-6)
        assert Verdict.from_dict(w.to_dict()) == w

    def test_conjunction(self):
        fin = monotone_verdict(1.0, 1.0, 1.0, 10, 1e-6)
        div = monotone_verdict(5.0, 10.0, 20.0, 10, 1e-6)
        inc = monotone_verdict(1.0, 1.0, 2.0, 10, 1e-6)
        assert conjunction(fin, fin) is VerdictKind.FINITE
        assert conjunction(fin, div) is VerdictKind.DIVERGED
        assert conjunction(inc, div) is VerdictKind.DIVERGED
        assert conjunction(fin, inc) is VerdictKind.INCONCLUSIVE


def _fsum_or_exact(vals):
    """``math.fsum``, or where it overflows, the sum taken exactly in
    Fractions and rounded once (+-inf past float64)."""
    try:
        return math.fsum(vals)
    except OverflowError:
        total = sum(Fraction(float(v)) * 2**1074 for v in vals)
        try:
            return float(Fraction(int(total), 2**1074))
        except OverflowError:
            return math.inf if total > 0 else -math.inf


@st.composite
def chunk_crossing_arrays(draw):
    """Arrays of length j * SUM_CHUNK +- a few, with mixed signs, any finite
    magnitude (subnormals, +-0.0, up to 1e308) and x, -x cancellation runs,
    plus nondecreasing ends that may fall on or past a chunk boundary."""
    length = max(0, draw(st.integers(0, 3)) * SUM_CHUNK + draw(st.integers(-2, 2)))
    pool = np.array(draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                  min_size=1, max_size=8)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vals = rng.choice(pool, size=length) * rng.choice([-1.0, 1.0], size=length)
    runs = draw(st.sampled_from(["none", "pairs", "mirror"]))
    if runs == "pairs":  # x, -x, y, -y, ...
        vals[1::2] = -vals[: length // 2 * 2 : 2]
    elif runs == "mirror":  # the second half undoes the first, last in first out
        vals[length - length // 2 :] = -vals[: length // 2][::-1]
    marks = st.sampled_from([length, length // 2, SUM_CHUNK, SUM_CHUNK - 1, SUM_CHUNK + 1])
    ends = draw(st.lists(st.integers(0, length + 1) | marks, min_size=1, max_size=4))
    return vals, sorted(ends)


class TestExactPrefixSums:
    @settings(max_examples=60, deadline=None)
    @given(chunk_crossing_arrays())
    def test_equals_fsum_of_each_prefix(self, case):
        vals, ends = case
        got = [v.hex() for v in exact_prefix_sums(vals, ends)]
        assert got == [_fsum_or_exact(vals[:e]).hex() for e in ends]

    @settings(max_examples=30, deadline=None)
    @given(chunk_crossing_arrays(), st.data())
    def test_inf_and_nan_behave_as_fsum(self, case, data):
        vals, ends = case
        assume(len(vals) > 0)
        specials = st.sampled_from([math.inf, -math.inf, math.nan])
        for x in data.draw(st.lists(specials, min_size=1, max_size=3)):
            vals[data.draw(st.integers(0, len(vals) - 1))] = x
        expected = []
        for e in ends:
            prefix = vals[:e]
            special = prefix[~np.isfinite(prefix)]
            try:
                total = math.fsum(special) if len(special) else _fsum_or_exact(prefix)
                expected.append(total.hex())
            except ValueError:  # +inf with -inf, as fsum says
                with pytest.raises(ValueError):
                    exact_prefix_sums(vals, ends)
                return
        assert [v.hex() for v in exact_prefix_sums(vals, ends)] == expected

    def test_a_term_past_the_last_end_is_not_read(self):
        vals = np.full(SUM_CHUNK, 2.0**1023)
        vals[2] = math.nan
        assert exact_prefix_sums(vals, [2]) == [math.inf]

    def test_overflow_is_infinite(self):
        big = sys.float_info.max
        assert exact_prefix_sums(np.full(3, 1e308), [1, 3]) == [1e308, math.inf]
        assert exact_prefix_sums(np.full(3, -1e308), [3]) == [-math.inf]
        assert exact_prefix_sums(np.full(20_000, 1e304), [10_000, 20_000]) == [
            math.fsum([1e304] * 10_000), math.inf]
        # the halfway point between the largest float and 2^1024 rounds to even: inf
        assert exact_prefix_sums(np.array([big, 2.0**970]), [2]) == [math.inf]
        assert exact_prefix_sums(np.array([big, 2.0**969]), [2]) == [big]

    def test_no_intermediate_overflow(self):
        with pytest.raises(OverflowError):
            math.fsum([1e308, 1e308, -1e308])
        assert exact_prefix_sums(np.array([1e308, 1e308, -1e308]), [2, 3]) == [
            math.inf, 1e308]

    def test_exact_zero_is_positive(self):
        for vals in ([-0.0], [-0.0, -0.0], [1.5, -1.5], [5e-324, -5e-324]):
            (total,) = exact_prefix_sums(np.array(vals), [len(vals)])
            assert total.hex() == "0x0.0p+0"


# ---------------------------------------------------------------------------
# The window scan.  Every N/2, N, 2N report reads its terms in pieces of
# SUM_CHUNK; the references below read them as one whole array, with the
# formulas the reports were read with before the scan.


def _stat_at_ends(stat, vals, N, offset=0):
    """``stat`` of the prefixes of ``vals`` (``vals[0]`` is term offset + 1)
    ending at terms N/2 (or offset + 1), N and 2N."""
    ends = [end - offset for end in (max(offset + 1, N // 2), N, 2 * N)]
    if stat is math.fsum:
        return tuple(exact_prefix_sums(vals, ends))
    return tuple(float(stat(vals[:end])) for end in ends)


def _tail_total(logs):
    """Sum of |R_k| over the block, R_k being the sum of the logs after k."""
    with np.errstate(over="ignore"):
        tails = np.cumsum(logs[::-1])[::-1][1:]
    return exact_prefix_sums(np.abs(tails), (len(tails),))[0]


def _weights(m, N):
    return np.power(np.arange(1, 2 * N + 1, dtype=np.float64), float(m))


def _whole_alpha(a, m, N, tol):
    logs = a.log_values(1, 2 * N)
    with np.errstate(over="ignore", invalid="ignore"):
        vals = _weights(m, N) * np.abs(logs)
    vals[logs == 0.0] = 0.0
    t = _stat_at_ends(math.fsum, vals, N)
    return DualReport("alpha", m, monotone_verdict(*t, N, tol), GNum(t[1]))


def _whole_weighted_sup(x, d, w, N, tol):
    logs = delta_binomial(x, d).log_values(1, 2 * N)
    with np.errstate(over="ignore", invalid="ignore"):
        vals = _weights(w, N) * np.abs(logs)
    vals[logs == 0.0] = 0.0
    s = _stat_at_ends(np.max, vals, N)
    return GNum(s[1]), monotone_verdict(*s, N, tol)


def _whole_alpha_alpha(a, m, N, tol):
    partial, verdict = _whole_weighted_sup(a, 0, -float(m), N, tol)
    return DualReport("alpha_alpha", m, verdict, partial)


def _whole_first_order(kind, a, N, tol):
    logs = a.log_values(1, 2 * N)
    with np.errstate(over="ignore", invalid="ignore"):
        partials = np.cumsum(_weights(1, N) * logs)
    if not np.isfinite(partials[-1]):
        i = np.flatnonzero(~np.isfinite(partials))[0]
        partials[i:] = partials[i]
    if kind == "beta":
        label, cond = "series", signed_series_verdict(partials, N, tol)
    else:
        label = "partial sups"
        cond = monotone_verdict(*_stat_at_ends(np.max, np.abs(partials), N), N, tol)
    tails = monotone_verdict(*_stat_at_ends(_tail_total, logs, N), N, tol)
    joint = conjunction(cond, tails)
    overall = Verdict(
        joint, cond.estimate if joint is VerdictKind.FINITE else None, N,
        cond.probe_n, cond.probe_2n, f"{label} {cond.kind.value}; tails {tails.kind.value}",
    )
    return DualReport(kind, 1, overall, GNum(float(partials[N - 1])), remainder_ok=tails)


def _whole_linf(x, m, N, tol):
    vals = np.abs(delta_binomial(x, m).log_values(1, 2 * N))
    verdict = monotone_verdict(*_stat_at_ends(np.max, vals, N), N, tol)
    witness = int(np.argmax(vals)) + 1
    return MembershipReport(
        "linf", m, verdict, witness if verdict.kind is VerdictKind.DIVERGED else None, N
    )


def _whole_lemma(x, N, tol):
    logs = x.log_values(1, 2 * N + 1)
    ks = np.arange(1, 2 * N + 1, dtype=np.float64)
    head, tail = logs[:-1], logs[1:]
    with np.errstate(over="ignore"):
        parts = (np.abs(head - tail), np.abs(head) / ks, np.abs(head - (ks / (ks + 1.0)) * tail))
    verdicts = [monotone_verdict(*_stat_at_ends(np.max, v, N), N, tol) for v in parts]
    return LemmaEquivalenceReport(*verdicts, window=N)


def _whole_remainder(a, n, N, tol):
    t_half, t_n, t_2n = _stat_at_ends(math.fsum, a.log_values(n + 1, 2 * N - n), N, n)
    d2, d1 = abs(t_2n - t_n), abs(t_n - t_half)
    if max(abs(t_n), abs(t_2n)) > 1e6:
        kind, why = VerdictKind.DIVERGED, "tail beyond the log magnitude limit"
    elif d2 < tol:
        kind, why = VerdictKind.FINITE, "tails at N and 2N agree below tol"
    elif d1 >= tol and d2 >= 0.95 * d1:
        kind, why = VerdictKind.DIVERGED, "tail discrepancy not shrinking between windows"
    else:
        kind, why = VerdictKind.INCONCLUSIVE, "tail still moving at this window"
    tail = GNum(t_n)
    return tail, Verdict(kind, tail if kind is VerdictKind.FINITE else None, N, t_n, t_2n, why)


def _json(report):
    if isinstance(report, tuple):  # (value, verdict)
        report = [report[0].log_value, report[1].to_dict()]
    else:
        report = report.to_dict()
    return json.dumps(report, sort_keys=True)


@st.composite
def scan_cases(draw):
    """A window N that puts N/2, N or 2N on a SUM_CHUNK multiple or one
    term off it, and a buffer of 2N + 2 logs: a smooth or noisy base, or
    all -0.0, with runs of +-1e308 (partial sums past float64), zeros and
    -0.0 dropped on the window ends and piece boundaries."""
    C = SUM_CHUNK
    d = draw(st.sampled_from([-1, 0, 1]))
    which = draw(st.sampled_from(["N/2", "N", "2N"]))
    if which == "N/2":
        N = 2 * (C + d) + draw(st.integers(0, 1))
    elif which == "N":
        N = draw(st.integers(1, 2)) * C + d
    else:  # 2N is even: it lands on the multiple or two terms off it
        N = draw(st.integers(1, 3)) * C // 2 + d
    n = 2 * N + 2  # the second difference reads two terms past 2N
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ks = np.arange(1, n + 1, dtype=np.float64)
    base = draw(st.sampled_from(["power", "alternating", "noise", "-0.0"]))
    if base == "power":
        logs = draw(st.sampled_from([1.0, -1.0])) * ks ** -draw(st.sampled_from([0.5, 1.0, 2.5]))
    elif base == "alternating":
        logs = (-1.0) ** ks / ks
    elif base == "noise":
        logs = rng.normal(0.0, 1e-3, n)
    else:
        logs = np.full(n, -0.0)
    marks = [1, N // 2, N, 2 * N, *range(C, n, C)]
    for _ in range(draw(st.integers(0, 3))):
        values = draw(st.sampled_from([[1e308], [-1e308], [1e308, -1e308], [0.0], [-0.0]]))
        start = min(max(1, draw(st.sampled_from(marks)) + draw(st.integers(-2, 2))), n)
        for value in values:  # +1e308 then -1e308 would form inf - inf past float64
            stop = start + draw(st.integers(1, 40))
            logs[start - 1 : stop - 1] = value
            start = min(stop, n)
    return N, logs


def _held_case():
    """+1e308 then -1e308 across the end N and a piece boundary: the
    partial sums pass float64 and must hold +inf, not form inf - inf."""
    N = SUM_CHUNK + 1
    ks = np.arange(1, 2 * N + 3, dtype=np.float64)
    logs = (-1.0) ** ks / ks
    logs[N - 3 : N + 2] = 1e308
    logs[N + 2 : N + 6] = -1e308
    return N, logs


def _streamed_and_whole(x, N, m, n):
    tol = 1e-6
    return [
        (alpha_dual_test(x, m, N, tol), _whole_alpha(x, m, N, tol)),
        (alpha_alpha_dual_test(x, m, N, tol), _whole_alpha_alpha(x, m, N, tol)),
        (beta_dual_test(x, N, tol), _whole_first_order("beta", x, N, tol)),
        (gamma_dual_test(x, N, tol), _whole_first_order("gamma", x, N, tol)),
        (classify(x, "linf", m % 3, N, tol), _whole_linf(x, m % 3, N, tol)),
        (weighted_sup(x, 1, 0.5, N, tol), _whole_weighted_sup(x, 1, 0.5, N, tol)),
        (lemma_equivalence_check(x, N, tol), _whole_lemma(x, N, tol)),
        (remainder(x, n, N, tol), _whole_remainder(x, n, N, tol)),
    ]


class TestWindowScan:
    @settings(max_examples=12, deadline=None)
    @given(scan_cases(), st.sampled_from([1, 2, 3]), st.sampled_from([0, 3, SUM_CHUNK - 1, SUM_CHUNK]))
    @example(_held_case(), 1, 3)
    @example((SUM_CHUNK, np.full(2 * SUM_CHUNK + 2, -0.0)), 3, 0)
    def test_streamed_reports_equal_whole_array_reads(self, case, m, n):
        N, logs = case
        x = seq_from_logs(logs)
        for streamed, whole in _streamed_and_whole(x, N, m, min(n, N - 2)):
            assert _json(streamed) == _json(whole)
        assert gsum_partial(x, 2 * N).log_value.hex() == _fsum_or_exact(logs[: 2 * N]).hex()
        assert sup_gabs(x, N).log_value == np.max(np.abs(logs[:N]))

    def test_an_infinite_weight_on_a_zero_log_adds_nothing(self):
        # k^60 passes float64 from k = 137 000 on: there the zero logs read
        # 0 * inf, which the alpha sum and weighted_sup must skip
        N = 5 * SUM_CHUNK
        logs = np.full(2 * N, 1e-300)
        logs[140_000:] = 0.0
        x = seq_from_logs(logs)
        report = alpha_dual_test(x, 60, N)
        assert _json(report) == _json(_whole_alpha(x, 60, N, 1e-6))
        assert report.verdict.probe_2n == math.inf  # k^60 * 1e-300 passes float64 first
        logs[100_000:] = 0.0
        x = seq_from_logs(logs)
        report = alpha_dual_test(x, 60, N)
        assert _json(report) == _json(_whole_alpha(x, 60, N, 1e-6))
        assert math.isfinite(report.verdict.probe_2n)
        streamed = weighted_sup(x, 0, 60.0, N, 1e-6)
        assert _json(streamed) == _json(_whole_weighted_sup(x, 0, 60.0, N, 1e-6))
        assert math.isfinite(streamed[1].probe_2n)

    def test_a_weighted_log_past_float64_reads_inf_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            value, verdict = weighted_sup(seq_from_logs(np.full(20_000, 1e308)), 0, 0.5, 10_000)
        assert value.log_value == math.inf
        assert verdict.probe_n == verdict.probe_2n == math.inf

    def test_pieces_cover_the_range_and_end_at_each_stop(self):
        x = seq_from_logs(np.arange(1.0, 3 * SUM_CHUNK + 8))
        stops = (5, SUM_CHUNK, SUM_CHUNK + 1, 2 * SUM_CHUNK - 1)
        pieces = [(k, len(logs)) for k, logs in x.log_chunks(3, 3 * SUM_CHUNK + 2, stops)]
        ends = [k + n - 1 for k, n in pieces]
        assert pieces[0][0] == 3 and ends[-1] == 3 * SUM_CHUNK + 2
        assert all(k == e + 1 for (k, _), e in zip(pieces[1:], ends))
        assert all(0 < n <= SUM_CHUNK for _, n in pieces)
        assert set(stops) <= set(ends)
        backward = list(x.log_chunks(3, 3 * SUM_CHUNK + 2, stops, reverse=True))
        assert [(k, len(logs)) for k, logs in backward] == pieces[::-1]
        for k, logs in backward:
            assert np.array_equal(logs, np.arange(k, k + len(logs), dtype=np.float64))

    def test_a_short_buffer_names_the_window_end(self):
        """Each scan checks its whole range before reading a term, so the
        error names the last term of the window, not of the first piece
        that runs past the buffer."""
        L, N = SUM_CHUNK + 3, 10_000
        x = seq_from_logs(np.full(L, 0.5))
        calls = {
            "alpha": (lambda: alpha_dual_test(x, 2, N), 2 * N, L),
            "alpha_alpha": (lambda: alpha_alpha_dual_test(x, 1, N), 2 * N, L),
            "beta": (lambda: beta_dual_test(x, N), 2 * N, L),
            "gamma": (lambda: gamma_dual_test(x, N), 2 * N, L),
            "linf": (lambda: classify(x, "linf", 1, N), 2 * N, L - 1),
            "lemma": (lambda: lemma_equivalence_check(x, N), 2 * N + 1, L),
            "remainder": (lambda: remainder(x, 3, N), 2 * N, L),
            "gsum_partial": (lambda: gsum_partial(x, 2 * N), 2 * N, L),
            "sup_gabs": (lambda: sup_gabs(x, 2 * N), 2 * N, L),
            "delta_norm": (lambda: delta_norm(x, 2, 2 * N), 2 * N, L - 2),
        }
        for name, (call, last, defined) in calls.items():
            with pytest.raises(IndexOutOfRange) as err:
                call()
            assert str(err.value) == f"index {last} beyond the {defined} defined terms", name

    def test_a_failing_piece_raises_its_own_error(self):
        # The first piece divides by zero at k = 5; the scan stops there
        # rather than reading the window whole, which would meet the inner
        # exp overflow (from k = 21 294) first.
        x = seq_from_expr("exp(k/30)/(k-5)")
        N = 12_000
        for call in (lambda: alpha_dual_test(x, 1, N), lambda: classify(x, "linf", 0, N),
                     lambda: beta_dual_test(x, N), lambda: gsum_partial(x, 2 * N)):
            with pytest.raises(DomainError) as err:
                call()
            assert str(err.value) == "division by zero at k=5"


MEMORY_GATE = """
import resource, sys
import geomseq as gs

def peak_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / (1 << (20 if sys.platform == "darwin" else 10))

floor = peak_mb()
N = 10**6
exact, floats = gs.seq_from_expr("exp(1/k^2)"), gs.seq_from_expr("exp(ln(k)/k)")
gs.alpha_dual_test(exact, 2, N)
gs.alpha_alpha_dual_test(floats, 1, N)
gs.beta_dual_test(exact, N)
gs.gamma_dual_test(floats, N)
gs.classify(floats, "linf", 0, N)
gs.classify(exact, "linf", 1, N)  # Python-int blocks past k = 9741
try:  # the first piece fails at k = 5; the scan must not read on
    gs.alpha_dual_test(gs.seq_from_expr("exp(k/30)/(k-5)"), 1, N)
except gs.DomainError:
    pass
print(peak_mb() - floor)
"""


#: Runs the gate one process further down: Linux keeps ru_maxrss across
#: exec, so a child started straight from the test process would begin at
#: that process's own peak and hide any growth below it.
RELAY = "import subprocess, sys; subprocess.run([sys.executable, '-c', sys.argv[1]], check=True)"


def test_memory_does_not_grow_with_the_window():
    """At N = 10^6 the scans stay within 16 MB of the post-import floor,
    measured in a fresh process (ru_maxrss is a high-water mark)."""
    proc = subprocess.run(
        [sys.executable, "-c", RELAY, MEMORY_GATE], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) <= 16.0
