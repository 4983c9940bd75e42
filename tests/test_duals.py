"""Dual-space membership: the four tests, the non-perfectness witnesses,
and the sparse counterexample construction."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from geomseq import (
    DualReport,
    NoSubsequenceFound,
    UnsupportedOrder,
    VerdictKind,
    alpha_alpha_dual_test,
    alpha_dual_test,
    beta_dual_test,
    classify,
    counterexample_sequence,
    dual_test,
    gamma_dual_test,
    remainder,
    seq_from_expr,
    seq_from_logs,
)
from geomseq.duals import _tail_blocks
from geomseq.gseq import SparseLogSeq

N = 10_000


def alternating_buffer(n: int):
    ks = np.arange(1, n + 1, dtype=np.float64)
    signs = np.where(np.arange(1, n + 1) % 2 == 0, 1.0, -1.0)
    return seq_from_logs(signs / ks)


class TestAlpha:
    def test_fast_decay_is_member(self):
        report = alpha_dual_test(seq_from_expr("exp(1/k^4)"), 2, N)
        assert report.member
        assert report.kind == "alpha" and report.m == 2

    def test_harmonic_boundary_is_not(self):
        report = alpha_dual_test(seq_from_expr("exp(1/k^3)"), 2, N)
        assert not report.member
        assert report.verdict.kind is VerdictKind.DIVERGED

    def test_geometric_zero_is_member(self):
        report = alpha_dual_test(seq_from_expr("1"), 3, N)
        assert report.member
        assert report.partial_value.log_value == 0.0

    def test_interpretation_free(self):
        # one operation serves both the bounded and the convergent space:
        # there is no space parameter to vary, and reruns are identical
        a = seq_from_expr("exp(1/k^4)")
        assert alpha_dual_test(a, 1, N) == alpha_dual_test(a, 1, N)


class TestAlphaAlpha:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_matching_power_is_member_with_sup_e(self, m):
        a = seq_from_expr(f"exp(k^{m})" if m > 1 else "exp(k)")
        report = alpha_alpha_dual_test(a, m, N)
        assert report.member
        assert report.partial_value.log_value == 1.0

    @pytest.mark.parametrize("m", [1, 2])
    def test_one_power_up_is_not(self, m):
        a = seq_from_expr(f"exp(k^{m + 1})")
        report = alpha_alpha_dual_test(a, m, N)
        assert not report.member

    def test_geometric_zero_is_member(self):
        assert alpha_alpha_dual_test(seq_from_expr("1"), 1, N).member


class TestBeta:
    def test_geometric_decay_is_member(self):
        report = beta_dual_test(seq_from_expr("exp(2^(0-k))"), N)
        assert report.member
        assert report.remainder_ok is not None
        assert report.remainder_ok.kind is VerdictKind.FINITE
        # sum of k 2^-k is 2
        assert report.verdict.estimate.log_value == pytest.approx(2.0, abs=1e-6)

    def test_inverse_square_fails_the_series_leg(self):
        report = beta_dual_test(seq_from_expr("exp(1/k^2)"), N)
        assert not report.member
        assert "series diverged" in report.verdict.note

    def test_geometric_zero_is_member(self):
        assert beta_dual_test(seq_from_expr("1"), N).member


class TestGamma:
    def test_geometric_decay_is_member(self):
        assert gamma_dual_test(seq_from_expr("exp(2^(0-k))"), N).member

    def test_alternating_buffer_fails_only_on_remainders(self):
        report = gamma_dual_test(alternating_buffer(2 * N + 10), N)
        assert not report.member
        # the partial sums themselves stay bounded; the tails are the problem
        assert "partial sups finite" in report.verdict.note
        assert report.remainder_ok.kind is VerdictKind.DIVERGED

    def test_constant_e_is_not_member(self):
        report = gamma_dual_test(seq_from_expr("e"), N)
        assert not report.member

    def test_contains_beta_on_the_alternating_case(self):
        buf = alternating_buffer(2 * N + 10)
        assert not beta_dual_test(buf, N).member
        # gamma also rejects here, but for the weaker leg; see note above


class TestTailCondition:
    """sum |R_k| at each window sums R_k up to that window's own end.  An
    R_k truncated at 2N for every window shrinks to 0 as k nears 2N, so the
    [N, 2N] increment would read low and these divergent tails finite."""

    @pytest.mark.parametrize("test", [beta_dual_test, gamma_dual_test])
    @pytest.mark.parametrize(
        "src, kind",
        [
            ("exp(1/k^2)", VerdictKind.DIVERGED),  # R_k ~ 1/k
            ("exp(1/k)", VerdictKind.DIVERGED),
            (-1.5, VerdictKind.DIVERGED),  # a buffer of logs k^-1.5: R_k ~ 2/sqrt(k)
            (-3.5, VerdictKind.FINITE),
        ],
    )
    def test_divergent_tails_are_diverged(self, test, src, kind):
        n = 2**15
        if isinstance(src, str):
            a = seq_from_expr(src)
        else:
            a = seq_from_logs(np.arange(1, 2 * n + 1, dtype=np.float64) ** src)
        assert test(a, n).remainder_ok.kind is kind


def _power_tail_logs(c, alpha, n):
    """n logs c k^-(1+alpha): the tails R_k ~ (c/alpha) k^-alpha, so
    sum |R_k| diverges iff alpha <= 1, and A(2N)/A(N) tends to 2^(1-alpha)."""
    return c * np.arange(1, n + 1, dtype=np.float64) ** -(1.0 + alpha)


def _found_spike(amplitude):
    """Logs k^-1.5 (alpha = 1/2) at N = 2^15 with amplitude/sqrt(N) taken
    from term N+1: per-end tail sums read these divergent tails finite."""
    n = 2**15
    logs = _power_tail_logs(1.0, 0.5, 2 * n)
    logs[n] -= amplitude / math.sqrt(n)
    return 0.5, n, logs


@st.composite
def power_tails(draw, spike):
    """(alpha, N, logs): a power tail at N = 2^12, alpha in [0.3, 2], whose
    amplitude keeps A(N) above about 60 tol.  With ``spike``, one term
    j in (N, 2N] moves by d, |d| up to 8 |R_N|: a spike shifts the R_k of
    k < j only, so it moves the block A(2N) by at most (j - N) |d|, and that
    is capped at A(2N)/8.  (Larger spikes can cancel much of the block:
    no window probe decides an infinite tail.)"""
    n = 2**12
    alpha = draw(st.floats(0.3, 2.0))
    c = draw(st.sampled_from([1.0, -1.0])) * 10.0 ** draw(st.floats(0.0, 2.0))
    logs = _power_tail_logs(c, alpha, 2 * n)
    if spike:
        offset = draw(st.integers(0, 12).flatmap(lambda b: st.integers(1, 2**b)))
        outer = logs[n:][::-1]
        cap = min(8.0 * abs(outer.sum()), np.abs(np.cumsum(outer)).sum() / (8 * offset))
        logs[n + offset - 1] += draw(st.floats(-1.0, 1.0)) * cap
    return alpha, n, logs


class TestTailBlocks:
    """The tails leg reads A(N) and A(2N), A(e) = sum of |R_k| over
    e/2 <= k < e with R_k cut at e: a term past N leaves A(N) as it is."""

    @settings(max_examples=40, deadline=None)
    @given(power_tails(spike=True), st.sampled_from([beta_dual_test, gamma_dual_test]))
    @example(_found_spike(2.0), beta_dual_test)
    @example(_found_spike(2.0), gamma_dual_test)
    @example(_found_spike(1.0), beta_dual_test)
    @example(_found_spike(1.0), gamma_dual_test)
    def test_a_spike_past_n_does_not_settle_divergent_tails(self, case, test):
        alpha, n, logs = case
        tails = test(seq_from_logs(logs), n).remainder_ok
        if alpha <= 1.0:
            assert tails.kind is not VerdictKind.FINITE, tails.note
        if alpha >= 1.5:
            assert tails.kind is not VerdictKind.DIVERGED, tails.note

    @pytest.mark.parametrize("amplitude", [2.0, 1.0])
    @pytest.mark.parametrize("test", [beta_dual_test, gamma_dual_test])
    def test_found_spikes_are_diverged(self, amplitude, test):
        _, n, logs = _found_spike(amplitude)
        report = test(seq_from_logs(logs), n)
        assert report.remainder_ok.kind is VerdictKind.DIVERGED
        assert report.verdict.note.endswith("tails diverged")

    @settings(max_examples=40, deadline=None)
    @given(power_tails(spike=False).filter(lambda case: not 1.0 < case[0] < 1.5))
    def test_spike_free_power_tails(self, case):
        alpha, n, logs = case
        kind = VerdictKind.DIVERGED if alpha <= 1.0 else VerdictKind.FINITE
        assert beta_dual_test(seq_from_logs(logs), n).remainder_ok.kind is kind

    @settings(max_examples=60, deadline=None)
    @given(st.integers(4, 40).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.floats(-1e200, 1e200), min_size=2 * n, max_size=2 * n)
    )))
    def test_each_block_within_the_recursive_summation_bound(self, case):
        """|A - A_exact| <= sum_k gamma_(e-k) sum_(j=k+1..e) |l_j| + u |A_exact|:
        each R_k is a recursive sum of e - k logs, its |R_k| are summed
        exactly and rounded once."""
        n, logs = case
        u = Fraction(1, 2**53)
        for e, got in zip((n, 2 * n), _tail_blocks(seq_from_logs(np.array(logs)), n)):
            r = mass = exact = bound = Fraction(0)
            for count, log in enumerate(reversed(logs[e // 2 : e]), 1):  # R_(e - count)
                r += Fraction(log)
                mass += abs(Fraction(log))
                exact += abs(r)
                bound += count * u / (1 - count * u) * mass
            assert abs(Fraction(got) - exact) <= bound + u * exact


class TestDispatcher:
    def test_kind_normalization(self):
        a = seq_from_expr("exp(1/k^4)")
        assert dual_test(a, "alpha-alpha", 2, N) == alpha_alpha_dual_test(a, 2, N)

    def test_beta_beyond_first_order_refused(self):
        with pytest.raises(UnsupportedOrder):
            dual_test(seq_from_expr("e"), "beta", 2, N)

    def test_gamma_beyond_first_order_refused(self):
        with pytest.raises(UnsupportedOrder):
            dual_test(seq_from_expr("e"), "gamma", 3, N)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            dual_test(seq_from_expr("e"), "delta", 1, N)

    def test_report_round_trip(self):
        for kind in ("alpha", "beta"):
            report = dual_test(seq_from_expr("exp(2^(0-k))"), kind, 1, N)
            assert DualReport.from_dict(report.to_dict()) == report


def reference_search(a, m, count, search_window):
    """The counterexample search as it read the terms before it took engine
    pieces: 1024-term ``log_values`` blocks from term 1, kept as the
    reference for :func:`counterexample_sequence`."""
    limit = search_window
    if a.length is not None:
        limit = min(limit, a.length)
    entries = {}
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


def _search_outcome(search, a, m, count, window):
    """The support and the ``.hex()`` of each stored log, or the error text."""
    try:
        x = search(a, m, count, window)
    except NoSubsequenceFound as exc:
        return str(exc)
    return x.support, [x.log_at(k).hex() for k in x.support]


#: Windows at the edges of a 1024-term block and of an engine piece.
_EDGE_WINDOWS = [1, 1023, 1024, 1025, 2048, 16383, 16384, 16385, 16386, 20_000]


@st.composite
def search_cases(draw):
    """A buffer of small logs with candidate hits at drawn terms and at
    16 384 and 16 385, each large enough for some i and not for others."""
    m, count = draw(st.integers(1, 3)), draw(st.integers(1, 6))
    past_the_piece = st.sampled_from([16_385, 16_386, 20_000])
    window = draw(st.sampled_from(_EDGE_WINDOWS) | past_the_piece | st.integers(1, 20_000))
    n = draw(st.sampled_from([0, *_EDGE_WINDOWS]) | past_the_piece | st.integers(0, 20_000))
    places = draw(st.lists(st.integers(1, 20_000) | st.sampled_from(_EDGE_WINDOWS), max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    logs = rng.normal(0.0, 0.5, n)
    for k in [*places, 16_384, 16_385]:
        if k <= n:
            logs[k - 1] = rng.choice([-1.0, 1.0]) * (k * rng.uniform(0.5, 7.0)) ** m
    return seq_from_logs(logs), m, count, window


class TestCounterexample:
    def test_quadratic_witness(self):
        x = counterexample_sequence(seq_from_expr("exp(k^2)"), 1, 3)
        assert x.support == (2, 3, 4)
        assert x.log_at(2) == pytest.approx(1 / 4)
        assert x.log_at(3) == pytest.approx(1 / 9)
        assert x.log_at(4) == pytest.approx(1 / 16)

    def test_result_is_alpha_summable(self):
        x = counterexample_sequence(seq_from_expr("exp(k^2)"), 1, 5)
        assert alpha_dual_test(x, 1, N).member

    def test_bounded_input_has_no_subsequence(self):
        with pytest.raises(NoSubsequenceFound):
            counterexample_sequence(seq_from_expr("e"), 1, 1, search_window=5000)

    @settings(max_examples=60, deadline=None)
    @given(search_cases())
    @example((seq_from_logs(np.zeros(16_385)), 1, 1, 16_385))
    def test_search_equals_the_block_reader_on_buffers(self, case):
        a, m, count, window = case
        expected = _search_outcome(reference_search, a, m, count, window)
        assert _search_outcome(counterexample_sequence, a, m, count, window) == expected

    def test_search_equals_the_block_reader_on_the_catalog(self, catalog):
        for entry in catalog:
            for m in (1, 2, 3):
                for count in (1, 6):
                    expected = _search_outcome(reference_search, entry.seq, m, count, 17_000)
                    got = _search_outcome(counterexample_sequence, entry.seq, m, count, 17_000)
                    assert got == expected, (entry.name, m, count)

    def test_empty_buffer_has_no_subsequence(self):
        empty = seq_from_logs(np.zeros(0))
        message = r"^no subsequence .* in the first 0 terms \(got 0 of 2\)$"
        for search in (reference_search, counterexample_sequence):
            with pytest.raises(NoSubsequenceFound, match=message):
                search(empty, 1, 2, 1000)

    def test_count_validation(self):
        with pytest.raises(ValueError):
            counterexample_sequence(seq_from_expr("exp(k^2)"), 1, 0)

    @pytest.mark.parametrize("window", [0, -5, 1e3, "1000"])
    def test_search_window_validation(self, window):
        with pytest.raises(ValueError, match="search_window"):
            counterexample_sequence(seq_from_expr("exp(k^2)"), 1, 3, search_window=window)


class TestNonPerfectness:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_second_dual_strictly_larger(self, m):
        """exp(k^m) sits in the second dual and in the bounded difference
        space, yet outside the first dual: the spaces are not perfect."""
        a = seq_from_expr(f"exp(k^{m})" if m > 1 else "exp(k)")
        assert alpha_alpha_dual_test(a, m, N).member
        assert classify(a, "linf", m, N).member
        assert not alpha_dual_test(a, m, N).member


class TestRemainderConsistency:
    def test_windows_agree_in_kind_on_catalog(self, catalog):
        for entry in catalog:
            if ("beta", 1) not in entry.dual_annotations:
                continue
            at_n = beta_dual_test(entry.seq, 50_000).remainder_ok
            at_2n = beta_dual_test(entry.seq, 100_000).remainder_ok
            assert at_n.kind is at_2n.kind, entry.name


class TestContainmentAnnotations:
    def test_alpha_implies_beta_implies_gamma(self, catalog):
        # the annotation table itself must respect the containment chain
        for entry in catalog:
            ann = entry.dual_annotations
            if ("alpha", 1) in ann and ("beta", 1) in ann:
                if ann[("alpha", 1)].member:
                    assert ann[("beta", 1)].member, entry.name
            if ("beta", 1) in ann and ("gamma", 1) in ann:
                if ann[("beta", 1)].member:
                    assert ann[("gamma", 1)].member, entry.name


class TestWindowSums:
    def test_catalog_sums_equal_direct_fsum(self, catalog):
        """At workload scale the one-pass window sums are math.fsum's sums."""
        n = 100_000
        for entry in catalog:
            logs = entry.seq.log_values(1, 2 * n)
            weighted = np.arange(1, 2 * n + 1, dtype=np.float64) * np.abs(logs)
            alpha = alpha_dual_test(entry.seq, 1, n).verdict
            assert alpha.probe_n.hex() == math.fsum(weighted[:n]).hex(), entry.name
            assert alpha.probe_2n.hex() == math.fsum(weighted).hex(), entry.name
            tail, _ = remainder(entry.seq, 3, n)
            assert tail.log_value.hex() == math.fsum(logs[3:n]).hex(), entry.name
            # the tail blocks (e/2, e], each R_k summed down from its own end e
            a_n, a_2n = (math.fsum(np.abs(np.cumsum(logs[e // 2 : e][::-1]))) for e in (n, 2 * n))
            tails = beta_dual_test(entry.seq, n).remainder_ok
            assert tails.probe_n.hex() == a_n.hex(), entry.name
            assert tails.probe_2n.hex() == (a_n + a_2n).hex(), entry.name

    @pytest.mark.parametrize("kind", ["alpha", "beta", "gamma"])
    def test_sums_past_float64_diverge(self, kind):
        """A finite buffer whose sums leave float64 reads +inf, not an error."""
        report = dual_test(seq_from_logs(np.full(20_000, 1e300)), kind, 1, 10_000)
        assert report.verdict.kind is VerdictKind.DIVERGED
        assert report.verdict.probe_2n == math.inf
