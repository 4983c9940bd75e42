"""Sequence layer: lazy views, partial geometric sums, tails, and the
three-window verdict protocol they all share."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from geomseq import (
    GNum,
    GZERO,
    IndexOutOfRange,
    NonPositiveValue,
    Verdict,
    VerdictKind,
    g_limit_probe,
    gsum_partial,
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
    window_statistic,
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
        v = monotone_verdict(0.0, 10.0, 15.0, 64, 1e-6, note="unit test")
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


class TestWindowStatistic:
    @given(
        st.integers(min_value=4, max_value=300),
        st.data(),
        st.sampled_from([np.max, math.fsum]),
    )
    def test_equals_direct_prefix_reductions(self, N, data, stat):
        offset = data.draw(st.integers(min_value=0, max_value=N - 2))
        vals = np.array(
            data.draw(
                st.lists(
                    st.floats(min_value=-1e6, max_value=1e6),
                    min_size=2 * N - offset,
                    max_size=2 * N - offset,
                )
            )
        )
        terms = range(offset + 1, 2 * N + 1)  # the term each value belongs to
        ends = (max(offset + 1, N // 2), N, 2 * N)
        direct = tuple(
            float(stat([v for k, v in zip(terms, vals) if k <= end])) for end in ends
        )
        assert window_statistic(stat, vals, N, offset) == direct


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
