"""Membership classifiers for the bounded / convergent / null difference
spaces, the weighted sup probe, and the two demonstration constructions."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from geomseq import (
    MembershipReport,
    VerdictKind,
    algebra_counterexample,
    classify,
    delta_binomial,
    inclusion_demo,
    lemma_equivalence_check,
    seq_from_expr,
    seq_from_logs,
    weighted_sup,
)

N = 10_000
TOL = 1e-6


class TestClassify:
    @pytest.mark.parametrize("m", [1, 2])
    def test_power_witness_joins_one_order_up(self, m):
        x = seq_from_expr(f"exp(k^{m})" if m > 1 else "exp(k)")
        report = classify(x, "c0", m + 1, N)
        assert report.member
        assert report.verdict.kind is VerdictKind.FINITE

    @pytest.mark.parametrize("m", [1, 2])
    def test_power_witness_misses_its_own_order(self, m):
        x = seq_from_expr(f"exp(k^{m})" if m > 1 else "exp(k)")
        report = classify(x, "c0", m, N)
        assert not report.member
        assert report.verdict.kind is VerdictKind.DIVERGED
        assert report.witness_index is not None

    def test_constant_is_bounded(self):
        report = classify(seq_from_expr("exp(5)"), "linf", 1, N)
        assert report.member

    def test_convergent_but_not_null(self):
        # differences tend to e^-1: in c, outside c0
        x = seq_from_expr("exp(k)")
        assert classify(x, "c", 1, N).member
        r = classify(x, "c0", 1, N)
        assert (r.verdict.kind, r.verdict.note) == (
            VerdictKind.DIVERGED, "increments not shrinking (ratio 1.000)")

    @staticmethod
    def slow_oscillation(n, freq=1.0, phase=0.0):
        """Logs sin(freq ln k + phase) through 2n + 2: no limit, and over a
        doubling the samples move as a convergent sequence's may."""
        return seq_from_logs(np.sin(freq * np.log(np.arange(1, 2 * n + 3, dtype=np.float64)) + phase))

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(8, 6000),
        freq=st.floats(0.1, 4.0),
        phase=st.floats(0.0, 6.3),
    )
    # max |log| falls 1.000 -> 0.769 over the two half-windows, but the
    # samples' oscillation grows 0.231 -> 0.586: no limit, so no zero limit
    @example(n=5152, freq=1.0, phase=0.0)
    def test_c0_lies_within_c(self, n, freq, phase):
        x = self.slow_oscillation(n, freq, phase)
        c, c0 = classify(x, "c", 0, n).verdict, classify(x, "c0", 0, n).verdict
        if c.kind is VerdictKind.DIVERGED:
            assert (c0.kind, c0.note) == (c.kind, c.note)

    def test_slow_oscillation_at_a_crest_reads_finite(self):
        """A known wrong verdict, pinned so that a change to it shows: near
        a crest, sin(ln k) moves 0.633 over [550, 1100] and 0.328 over
        [1100, 2200], a ratio of 0.52, as 1 - 1/k's samples move (ratio 0.5)
        on their way to a limit.  Three windows cannot tell the two apart."""
        v = classify(self.slow_oscillation(1100), "c", 0, 1100).verdict
        assert (v.kind, v.note) == (VerdictKind.FINITE, "increments decaying geometrically (ratio 0.519)")

    def test_unknown_space_rejected(self):
        with pytest.raises(ValueError):
            classify(seq_from_expr("exp(k)"), "l2", 1, N)

    def test_small_window_rejected(self):
        with pytest.raises(ValueError):
            classify(seq_from_expr("exp(k)"), "c", 1, 3)

    def test_report_round_trip(self):
        report = classify(seq_from_expr("exp(k)"), "c0", 2, N)
        assert MembershipReport.from_dict(report.to_dict()) == report

    def test_diverged_reports_carry_a_witness(self):
        report = classify(seq_from_expr("exp(k)"), "linf", 0, N)
        assert report.verdict.kind is VerdictKind.DIVERGED
        assert report.witness_index >= 1


class TestWeightedSup:
    def test_linear_over_inverse_weight(self):
        value, verdict = weighted_sup(seq_from_expr("exp(k)"), 0, -1.0, N)
        assert value.log_value == 1.0
        assert verdict.kind is VerdictKind.FINITE

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_power_over_matching_weight(self, m):
        x = seq_from_expr(f"exp(k^{m})" if m > 1 else "exp(k)")
        value, verdict = weighted_sup(x, 0, -float(m), N)
        assert value.log_value == 1.0
        assert verdict.kind is VerdictKind.FINITE

    def test_mismatched_weight_diverges(self):
        _, verdict = weighted_sup(seq_from_expr("exp(k^2)"), 0, -1.0, N)
        assert verdict.kind is VerdictKind.DIVERGED

    def test_difference_order_applies_first(self):
        # first differences of exp(k^2) have logs -(2k+1); over k they stay bounded
        _, verdict = weighted_sup(seq_from_expr("exp(k^2)"), 1, -1.0, N)
        assert verdict.kind is VerdictKind.FINITE

    def test_a_nan_weight_is_rejected_and_infinite_weights_are_not(self):
        x = seq_from_expr("exp(1/k)")
        with pytest.raises(ValueError, match="weight_exp"):
            weighted_sup(x, 0, float("nan"), 1000)
        assert weighted_sup(x, 0, float("inf"), 1000)[1].probe_2n == float("inf")
        assert weighted_sup(x, 0, float("-inf"), 1000)[1].probe_2n == 1.0


class TestLemmaEquivalence:
    def test_linear_witness(self):
        r = lemma_equivalence_check(seq_from_expr("exp(k)"), N)
        assert r.agreement and not r.has_inconclusive
        assert r.cond_a.kind is VerdictKind.FINITE
        assert r.cond_a.estimate.log_value == pytest.approx(1.0, abs=1e-9)
        assert r.cond_b_i.estimate.log_value == pytest.approx(1.0, abs=1e-9)
        assert r.cond_b_ii.estimate.log_value == pytest.approx(0.0, abs=1e-9)

    def test_quadratic_witness_diverges_on_both_sides(self):
        r = lemma_equivalence_check(seq_from_expr("exp(k^2)"), N)
        assert r.agreement
        assert r.cond_a.kind is VerdictKind.DIVERGED
        assert r.cond_b_i.kind is VerdictKind.DIVERGED

    def test_geometric_zero(self):
        r = lemma_equivalence_check(seq_from_expr("1"), 100)
        assert r.agreement
        for v in (r.cond_a, r.cond_b_i, r.cond_b_ii):
            assert v.kind is VerdictKind.FINITE
            assert v.estimate.log_value == 0.0

    def test_report_round_trip(self):
        from geomseq import LemmaEquivalenceReport

        r = lemma_equivalence_check(seq_from_expr("exp(k)"), 1000)
        assert LemmaEquivalenceReport.from_dict(r.to_dict()) == r

    def test_agreement_over_catalog(self, catalog):
        # full-window agreement is pinned in the acceptance suite; this is
        # the cheap smoke version at a tenth of the window
        for entry in catalog:
            r = lemma_equivalence_check(entry.seq, N)
            assert r.agreement, entry.name


class TestInclusionDemo:
    @pytest.mark.parametrize("m", [1, 2])
    def test_strict_inclusion(self, m):
        report = inclusion_demo(m, 20_000)
        assert report.holds
        assert not report.at_order_m.member
        assert report.at_order_m_plus_1.member
        assert report.chain_c.member and report.chain_linf.member

    def test_rejects_order_zero(self):
        with pytest.raises(ValueError):
            inclusion_demo(0)

    def test_round_trip(self):
        from geomseq import InclusionDemoReport

        report = inclusion_demo(1, 5000)
        assert InclusionDemoReport.from_dict(report.to_dict()) == report


class TestAlgebraCounterexample:
    @pytest.mark.parametrize("m", [2, 3])
    def test_product_escapes(self, m):
        report = algebra_counterexample(m, 20_000)
        assert report.holds
        assert report.x_report.member and report.y_report.member
        assert not report.product_report.member
        assert report.product_report.verdict.kind is VerdictKind.DIVERGED

    def test_first_order_not_applicable(self):
        with pytest.raises(ValueError):
            algebra_counterexample(1)

    def test_round_trip(self):
        from geomseq import AlgebraCounterexampleReport

        report = algebra_counterexample(2, 5000)
        assert AlgebraCounterexampleReport.from_dict(report.to_dict()) == report


class TestChainProperties:
    def test_membership_chain_on_catalog(self, catalog):
        # null implies convergent implies bounded, at the annotated orders
        for entry in catalog:
            for (space, m), ann in entry.space_annotations.items():
                if space == "c0" and ann.member:
                    assert classify(entry.seq, "c", m, N).member, (entry.name, m)
                    assert classify(entry.seq, "linf", m, N).member, (entry.name, m)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_weighted_sup_chain_on_catalog(self, catalog, m):
        # bounded inverse-weighted differences at order m-1 force bounded
        # k^-m-weighted terms
        for entry in catalog:
            if entry.seq.length is not None:
                continue  # buffers are too short for the doubled diff window
            _, premise = weighted_sup(entry.seq, m - 1, -1.0, N)
            if premise.kind is VerdictKind.FINITE:
                _, conclusion = weighted_sup(entry.seq, 0, -float(m), N)
                assert conclusion.kind is VerdictKind.FINITE, (entry.name, m)


def _poly_source(coeffs):
    """The DSL text of an integer polynomial in k, constant term first (the
    grammar has no unary minus, so the text starts from 0)."""
    return "0" + "".join(f"{'-' if c < 0 else '+'}{abs(c)}*k^{i}" for i, c in enumerate(coeffs) if c)


COEFFS = st.lists(st.integers(-5, 5), min_size=1, max_size=4)


def _no_root_from_one(q):
    """No zero at an integer k >= 1: every root of q lies within Cauchy's
    bound 1 + max |q_i / q_top| <= 6."""
    return any(q) and all(sum(c * k**i for i, c in enumerate(q)) for k in range(1, 7))


class TestDegreeRule:
    """Logs P(k)/Q(k): Delta^m of them is a rational function whose tail
    is bounded, and convergent, exactly when its numerator's degree is at
    most its denominator's, and null exactly when it is below (or the
    numerator is zero).  Every verdict is inconclusive or agrees, and no
    finite verdict meets a diverged one in a space that holds it."""

    @staticmethod
    def degree_rule(x, m):
        tail = delta_binomial(x, m).exact_form.tail
        excess = len(tail.num) - len(tail.den_poly)  # numerator degree over the denominator's
        return {"linf": excess <= 0, "c": excess <= 0, "c0": excess < 0 or not tail.num}

    @settings(max_examples=40, deadline=None)
    @given(p=COEFFS, q=COEFFS.filter(_no_root_from_one))
    @example(p=[-1, 1], q=[0, 1])  # exp(1-1/k)
    @example(p=[0, 1], q=[1, 1])  # exp(k/(k+1))
    @example(p=[-3, 5], q=[3, 1])  # exp((5*k-3)/(k+3))
    @example(p=[3, -1, 3], q=[5, 1])  # exp((3*k^2-k+3)/(k+5))
    def test_verdicts_agree_with_the_degree_rule(self, p, q):
        x = seq_from_expr(f"exp(({_poly_source(p)})/({_poly_source(q)}))")
        n = 1 << 12
        kinds = {}
        for m in range(3):
            rule = self.degree_rule(x, m)
            for space in ("linf", "c", "c0"):
                kind = kinds[space, m] = classify(x, space, m, n).verdict.kind
                if kind is not VerdictKind.INCONCLUSIVE:
                    assert (kind is VerdictKind.FINITE) is rule[space], (space, m)
        kinds["c0", 3] = classify(x, "c0", 3, n).verdict.kind
        for m in range(3):
            for inner, outer in ((("c0", m), ("c", m)), (("c", m), ("linf", m)), (("c", m), ("c0", m + 1))):
                assert (kinds[inner], kinds[outer]) != (VerdictKind.FINITE, VerdictKind.DIVERGED), (inner, outer)
