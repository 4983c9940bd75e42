"""Dual-space membership: the four tests, the non-perfectness witnesses,
and the sparse counterexample construction."""

import math

import numpy as np
import pytest

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
            tails = np.cumsum(logs[:n][::-1])[::-1][1:]
            tail_sum = beta_dual_test(entry.seq, n).remainder_ok.probe_n
            assert tail_sum.hex() == math.fsum(np.abs(tails)).hex(), entry.name

    @pytest.mark.parametrize("kind", ["alpha", "beta", "gamma"])
    def test_sums_past_float64_diverge(self, kind):
        """A finite buffer whose sums leave float64 reads +inf, not an error."""
        report = dual_test(seq_from_logs(np.full(20_000, 1e300)), kind, 1, 10_000)
        assert report.verdict.kind is VerdictKind.DIVERGED
        assert report.verdict.probe_2n == math.inf
