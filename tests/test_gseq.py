"""Sequence layer: lazy views, partial geometric sums, tails, and the
three-window verdict protocol they all share."""

import importlib.util
import json
import math
import re
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from geomseq import (
    DomainError,
    DualReport,
    GNum,
    GZERO,
    GeometricError,
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
from geomseq import gseq
from geomseq.gseq import (
    BufferSeq,
    ExpressionSeq,
    SparseLogSeq,
    SUM_CHUNK,
    _BIG,
    _MARGIN,
    _chunk_total,
    conjunction,
    monotone_verdict,
    series_verdict,
    signed_series_verdict,
)
from exact_sums import exact_prefix_sums
from grammar import EXPRESSIONS


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

    @pytest.mark.parametrize("src", ["exp(1/k)", "exp(ln(k)/k)"])
    def test_indices_end_at_int64(self, src):
        x = seq_from_expr(src)
        assert x.log_points([2**63 - 1])[0] == x.term(2**63 - 1).log_value > 0.0
        reads = (lambda: x.term(2**63), lambda: x.log_points([1, 2**63]), lambda: x.log_values(2**63 - 1, 2))
        for read in reads:
            with pytest.raises(IndexOutOfRange, match=r"end at 2\^63-1, got 9223372036854775808$"):
                read()

    @pytest.mark.parametrize("src", ["exp(1/k)", "exp(ln(k)/k)"])
    def test_a_window_is_checked_at_its_ends(self, src):
        """A window too long for a ``len`` is refused by its last index."""
        with pytest.raises(IndexOutOfRange, match=r"end at 2\^63-1, got 18446744073709551615$"):
            seq_from_expr(src).log_points(range(2**63 - 1, 2**64))

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

    def test_sparse_term_at_the_int64_end(self):
        s = SparseLogSeq({2**63 - 1: 1.0})
        assert s.log_at(2**63 - 1) == 1.0
        assert list(s.log_values(2**63 - 2, 2)) == [0.0, 1.0]
        assert list(s.log_points([1, 2**63 - 2, 2**63 - 1])) == [0.0, 0.0, 1.0]

    # five terms each where the sequence is finite
    POINT_SEQS = {
        "buffer": lambda: seq_from_logs([1.0, 2.0, 3.0, 4.0, 5.0]),
        "float expression": lambda: seq_from_expr("exp(ln(k)/k)"),
        "exact expression": lambda: seq_from_expr("exp(1/k)"),
        "difference": lambda: delta_binomial(seq_from_logs([1.0, 4.0, 9.0, 16.0, 25.0, 36.0]), 1),
        "sparse": lambda: SparseLogSeq({2: 1.5}),
    }

    @pytest.mark.parametrize("name", sorted(POINT_SEQS))
    @pytest.mark.parametrize(
        "ks, message",
        [
            ([5, 0, 3], "start at 1, got 0$"),
            ([3, -4, 3], "start at 1, got -4$"),
            ([1, 2.5, 3], "start at 1, got 2.5$"),
            ([1, True, 3], "start at 1, got True$"),
            ([1, 2**63, 2], r"end at 2\^63-1, got 9223372036854775808$"),
            (np.array([5, 0, 3]), "start at 1, got "),
            (np.array([3, -4, 3]), "start at 1, got "),
        ],
    )
    def test_points_check_every_index(self, name, ks, message):
        with pytest.raises(IndexOutOfRange, match=message):
            self.POINT_SEQS[name]().log_points(ks)

    @pytest.mark.parametrize("name", sorted(POINT_SEQS))
    def test_points_in_any_order(self, name):
        x = self.POINT_SEQS[name]()
        expected = [x.log_at(k).hex() for k in (5, 1, 3, 3)]
        for ks in ([5, 1, 3, 3], np.array([5, 1, 3, 3])):
            assert [v.hex() for v in x.log_points(ks).tolist()] == expected
        if x.length is not None:
            for ks in ([2, 9, 3], np.array([2, 9, 3]), [1, 7, 9]):
                with pytest.raises(IndexOutOfRange, match="^index 9 beyond the 5 defined terms$"):
                    x.log_points(ks)

    @pytest.mark.parametrize(
        "key, message",
        [(2**64, r"end at 2\^63-1, got 18446744073709551616$"), (0, "start at 1, got 0$")],
    )
    def test_sparse_keys_are_indices(self, key, message):
        with pytest.raises(IndexOutOfRange, match=message):
            SparseLogSeq({5: 1.0, key: 3.0})


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

    @pytest.mark.parametrize(
        "tol, message",
        [(math.inf, "tol must be finite, got inf"), (0.0, "tol must be positive, got 0.0"),
         (math.nan, "tol must be positive, got nan"), ("1e-6", "tol must be positive, got '1e-6'")],
    )
    def test_tol_must_be_positive_and_finite(self, tol, message):
        """An infinite tol would call every tail, and every statistic, stable."""
        x = seq_from_expr("exp(k)")
        for call in (lambda: remainder(x, 1, 100, tol), lambda: g_limit_probe(x, 100, tol),
                     lambda: classify(x, "linf", 0, 100, tol)):
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == message


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

    @pytest.mark.parametrize(
        "mag, range1, range2, kind, note",
        [
            (2e6, (0.0, 1.0), (3.0, 3.0), VerdictKind.FINITE,
             "stabilized: growth below tol between N and 2N"),
            (2e6, (0.0, 1.0), (0.0, 1.0), VerdictKind.DIVERGED,
             "statistic beyond the log magnitude limit"),
            (1e25, (1e25, 1e25), (1e25, 1e25), VerdictKind.DIVERGED,
             "statistic beyond the log magnitude limit"),
            (np.inf, (np.inf, np.inf), (np.inf, np.inf), VerdictKind.DIVERGED,
             "statistic beyond the log magnitude limit"),
            (2.0, (1.0, 1.0), (1.0, 2.0), VerdictKind.INCONCLUSIVE,
             "statistic jumped after having been flat"),
            (1.0, (0.0, 1.0), (0.0, 0.25), VerdictKind.FINITE,
             "increments decaying geometrically (ratio 0.250)"),
            (1.0, (0.0, 1.0), (0.0, 1.0), VerdictKind.DIVERGED,
             "increments not shrinking (ratio 1.000)"),
            (1.0, (0.0, 1.0), (0.0, 0.9), VerdictKind.INCONCLUSIVE,
             "increment ratio 0.900 in the undecided band"),
        ],
        ids=["flat", "cap", "rounded-flat", "non-finite", "jumped", "decaying", "steady", "band"],
    )
    def test_series_branches(self, mag, range1, range2, kind, note):
        """Every branch of the one rule, in its order: flat partial sums are
        finite even past the magnitude limit, unless float64 cannot resolve
        tol at their size, and an oscillation of inf - inf (nan) is diverged
        by the limit."""
        # numpy floats, as signed_series_verdict passes: their inf - inf warns
        range1, range2 = np.array(range1), np.array(range2)
        v = series_verdict(1.0, 1.5, mag, range1, range2, 100, 1e-6)
        assert (v.kind, v.note) == (kind, note)
        assert v.estimate == (GNum(1.5) if kind is VerdictKind.FINITE else None)

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


@pytest.fixture(scope="module")
def digest():
    """``tools/report_digest.py``, for its boundary grid and p-series answers,
    loaded on first use; the ``sys.path`` entries it adds are dropped again."""
    path = Path(__file__).resolve().parent.parent / "tools" / "report_digest.py"
    spec = importlib.util.spec_from_file_location("report_digest", path)
    module = importlib.util.module_from_spec(spec)
    with mock.patch.object(sys, "path", list(sys.path)):
        spec.loader.exec_module(module)
    return module


class TestOneRule:
    """Verdicts against the p-series answer on the digest's boundary grid:
    logs s*k^-p and s*(-1)^k*k^-p, p = -3 .. 5 in steps of 0.1, s = 1 or -3.
    The grid holds whole tenths of p only: a convergent series within about
    0.074 of its boundary has a band ratio 2^-(p - p0) >= 0.95 and can read
    diverged."""

    #: The probes not held to the answer on an alternating p = 0 log
    #: s*(-1)^k at a power-of-two window: the limit probe (c) samples only
    #: even terms there and the remainder's cuts are all even, so both read
    #: a constant and call it convergent.  Every other verdict is held.
    UNHELD = ("c", "remainder")

    def check_grid_point(self, digest, family, tenths, n):
        s, alternating = digest.BOUNDARY_FAMILIES[family]
        x = seq_from_logs(digest.boundary_logs(s, alternating, tenths, n))
        even_samples = alternating and tenths == 0 and n & (n - 1) == 0
        for probe, m in digest.BOUNDARY_PROBES:
            if even_samples and probe in self.UNHELD:
                continue
            report = digest.probe_report(x, probe, m, n)
            kind = (report[1] if probe == "remainder" else report["verdict"])["kind"]
            if kind != "inconclusive":
                member = digest.p_series_member(probe, m, tenths, alternating)
                assert (kind == "finite") is member, (probe, m)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_verdicts_agree_with_the_p_series(self, digest, data):
        family = data.draw(st.sampled_from(sorted(digest.BOUNDARY_FAMILIES)), label="family")
        tenths = data.draw(st.sampled_from(digest.BOUNDARY_TENTHS), label="tenths")
        self.check_grid_point(digest, family, tenths, 1 << 12)

    @pytest.mark.parametrize(
        "family, tenths, n",
        [
            ("k^-p", 30, 1 << 12),  # exp(1/k^3): beta's series is sum 1/k^2
            ("(-1)^k k^-p", 20, 1 << 12),  # exp((0-1)^k/k^2): sum (-1)^k/k
            ("k^-p", 25, 1 << 15),
            ("-3(-1)^k k^-p", 15, 1 << 15),
            ("-3k^-p", -10, 1 << 15),
            ("(-1)^k k^-p", 0, 1 << 15),
            ("-3(-1)^k k^-p", 0, (1 << 12) + 1),  # odd samples and cuts: c and remainder held
        ],
    )
    def test_verdicts_agree_at_examples(self, digest, family, tenths, n):
        self.check_grid_point(digest, family, tenths, n)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(-(2.0**33), 2.0**33, exclude_min=True, exclude_max=True), st.booleans())
    @example(2e6, True)  # exp(2000000)
    @example(-3e6, False)
    @example(8.5e9, True)
    @example(5e-324, False)
    def test_constant_logs_read_finite(self, c, exact):
        """A constant is bounded, convergent and k^-m-bounded at any size
        where float64 resolves tol (below 2^33): flatness decides before
        the log magnitude limit."""
        n = 1 << 12
        x = seq_constant(GNum(c)) if exact else seq_from_logs(np.full(2 * n + 2, c))
        for m in range(3):
            assert classify(x, "linf", m, n).verdict.kind is VerdictKind.FINITE
            assert classify(x, "c", m, n).verdict.kind is VerdictKind.FINITE
        for m in (1, 2):
            assert alpha_alpha_dual_test(x, m, n).verdict.kind is VerdictKind.FINITE

    def test_flat_by_rounding_is_no_evidence(self):
        """Past 2^33 a statistic can stand still by rounding alone: the sum
        1e25 + H_N rounds to 1e25 at every window, and so do the logs
        1e20 + k.  The cap decides them, not flatness."""
        n = 1 << 12
        logs = np.arange(1, 2 * n + 3, dtype=np.float64) ** -2.0
        logs[0] = 1e25
        x = seq_from_logs(logs)
        cap = (VerdictKind.DIVERGED, "statistic beyond the log magnitude limit")
        v = alpha_dual_test(x, 1, n).verdict
        assert (v.kind, v.note) == cap
        v = remainder(x, 0, n)[1]
        assert (v.kind, v.note) == cap
        assert v.probe_n == v.probe_2n == 1e25  # flat as read
        x = seq_from_logs(1e20 + np.arange(1, 2 * n + 3, dtype=np.float64))
        assert classify(x, "linf", 0, n).verdict.kind is VerdictKind.DIVERGED
        v = classify(x, "c", 0, n).verdict
        assert (v.kind, v.note) == cap


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


@st.composite
def kernel_chunks(draw):
    """Finite chunks of up to SUM_CHUNK terms at the edges of the exact-sum
    kernel: exponent spreads that take three or more passes, terms at and
    above 2^1000 among subnormals, a full chunk of one sign near its top,
    tops that are powers of two, and +-0.0 with x, -x pairs."""
    kind = draw(st.sampled_from(["spread", "big", "one_sign", "equal", "pow2", "cancel"]))
    if kind in ("one_sign", "equal"):  # a full chunk is the worst case
        n = SUM_CHUNK
    else:
        n = draw(st.sampled_from([SUM_CHUNK, SUM_CHUNK - 1]) | st.integers(0, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    signs = rng.choice([-1.0, 1.0], size=n)
    if kind == "spread":
        lo = draw(st.integers(-1074, 1000))
        hi = min(1024, lo + draw(st.integers(80, 2100)))
        vals = np.ldexp(rng.random(n), rng.integers(lo, hi, size=n)) * signs
    elif kind == "big":  # [2^1000, 2^1024) or subnormal
        big = np.ldexp(1.0 + rng.random(n), rng.integers(1000, 1023, size=n))
        tiny = rng.integers(1, 1 << 52, size=n) * 2.0**-1074
        vals = np.where(rng.random(n) < 0.5, big, tiny) * signs
    elif kind == "one_sign":  # the most a sum of a pass's q can reach
        e = draw(st.integers(-1073, 1024))
        vals = np.ldexp(0.5 + 0.5 * rng.random(n), e) * draw(st.sampled_from([-1.0, 1.0]))
    elif kind == "equal":
        top = draw(st.sampled_from([sys.float_info.max, np.nextafter(_BIG, 0.0), _BIG, 2.0**1000,
                                    np.nextafter(1.0, 0.0), 5e-324]))
        vals = np.full(n, top * draw(st.sampled_from([-1.0, 1.0])))
    elif kind == "pow2":  # frexp(2^j) is (0.5, j + 1)
        j = draw(st.integers(-1074, 1023))
        vals = np.ldexp(rng.random(n), j) * signs
        vals[rng.random(n) < 0.1] = 2.0**j
    else:
        vals = np.ldexp(rng.random(n), rng.integers(-1074, 1024, size=n)) * signs
        vals[rng.random(n) < 0.2] = draw(st.sampled_from([0.0, -0.0]))
        vals[1::2] = -vals[: n // 2 * 2 : 2]
    return vals


class TestChunkKernel:
    @settings(max_examples=40, deadline=None)
    @given(kernel_chunks())
    @example(np.ldexp(0.5 + 0.5 * np.random.default_rng(1).random(SUM_CHUNK), 1024))
    @example(np.array([2.0**1000, -(2.0**1023), 5e-324, sys.float_info.max, -2.5e-310]))
    @example(2.0 ** -np.arange(SUM_CHUNK) * 1.1)
    def test_is_the_fraction_sum(self, chunk):
        assert _chunk_total(chunk) == sum(Fraction(v) for v in chunk.tolist()) * 2**1126

    def test_margin_covers_a_whole_chunk(self):
        # a pass's partial sums stay below 2^(e + _MARGIN) only while a chunk
        # holds fewer than 2^_MARGIN terms, and sigma stays finite below _BIG
        assert SUM_CHUNK < 2**_MARGIN
        assert math.isfinite(math.ldexp(1.0, math.frexp(np.nextafter(_BIG, 0.0))[1] + _MARGIN))


@st.composite
def pass_edge_chunks(draw):
    """Chunks at the edges of the kernel's second pass, which runs from the
    bound the first leaves: tops in 2^-1010 .. 2^-980, where its sigma nears
    the subnormals; spreads over 25 binades, which can still need a third pass;
    and integer-valued pieces, which the first pass clears alone.  Returns
    the chunk and whether one pass must do."""
    kind = draw(st.sampled_from(["tiny", "spread", "integers"]))
    n = draw(st.sampled_from([SUM_CHUNK, SUM_CHUNK - 1]) | st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "integers":  # below 2^37 the first pass rounds to a grid of at most 1
        bits = draw(st.integers(0, 36))
        return rng.integers(-(2**bits), 2**bits, size=n, endpoint=True).astype(np.float64), True
    top = draw(st.integers(-1010, -980)) if kind == "tiny" else draw(st.integers(-1000, 1000))
    spread = draw(st.integers(0, 80)) if kind == "tiny" else 25
    exps = rng.integers(top - spread, top, size=n, endpoint=True)
    return np.ldexp(1.0 + rng.random(n), exps) * rng.choice([-1.0, 1.0], size=n), False


def _pass_bounds(chunk):
    """The bound 2^e of each extraction pass the kernel runs on ``chunk``."""
    with mock.patch.object(gseq, "_extract", wraps=gseq._extract) as spy:
        total = _chunk_total(chunk)
    assert total == sum(Fraction(v) for v in chunk.tolist()) * 2**1126
    return [call.args[1] for call in spy.call_args_list]


class TestChunkKernelPasses:
    @settings(max_examples=40, deadline=None)
    @given(pass_edge_chunks())
    def test_is_the_fraction_sum(self, case):
        chunk, one_pass = case
        bounds = _pass_bounds(chunk)
        if one_pass:
            assert len(bounds) <= 1
        elif len(bounds) > 1 and bounds[0] + 2 * _MARGIN - 53 >= -1022:
            assert bounds[1] == bounds[0] + _MARGIN - 53  # not measured

    @pytest.mark.parametrize("terms, bounds", [
        ([3.0 * j for j in range(-SUM_CHUNK // 2, SUM_CHUNK // 2)], [15]),
        ([1.0 + 2.0**-40, -0.5], [1, -37]),  # the first pass leaves 2^-40
        ([1.5, 2.0**-25 + 2.0**-77], [1, -37, -76]),  # 25 binades: 2^-77 outlives two passes
        ([2.0**-1000 + 2.0**-1052], [-999, -1037]),  # the second sigma is 2^-1022
        ([2.0**-1001 + 2.0**-1053], [-1000, -1052]),  # it would be 2^-1023: measured instead
        ([2.0**-1005 + 2.0**-1057, 5e-324], [-1004, -1056]),
    ])
    def test_second_pass_runs_from_the_first_passs_bound(self, terms, bounds):
        # the first pass's remainders are at most 2^(e + _MARGIN - 53)
        assert _MARGIN == 15
        assert _pass_bounds(np.array(terms)) == bounds


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


def _tail_blocks(logs, N):
    """The exact sums of |R_k| over the blocks of terms (N/2, N] and
    (N, 2N], R_k being the sum of the logs after k through the block's end."""
    blocks = []
    for e in (N, 2 * N):
        with np.errstate(over="ignore"):
            tails = np.cumsum(logs[e // 2 : e][::-1])
        blocks.append(exact_prefix_sums(np.abs(tails), (len(tails),))[0])
    return blocks


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
    a_n, a_2n = _tail_blocks(logs, N)
    tails = monotone_verdict(0.0, a_n, a_n + a_2n, N, tol)
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
    kind, why = gseq._ratio_rule(abs(t_n - t_half), abs(t_2n - t_n), max(abs(t_n), abs(t_2n)), tol)
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


@st.composite
def first_order_cases(draw):
    """A window N, small (odd or even) or one term off SUM_CHUNK, and a
    sequence: an expression of the grammar, or a buffer of 2N + 4 logs (a
    power, alternating or all -0.0 base) with runs of +-1e308 across the
    block end N, where the partial sums of k ln a_k pass float64 while
    alternating runs keep the tails finite."""
    N = draw(st.one_of(st.integers(4, 64), st.sampled_from([SUM_CHUNK - 1, SUM_CHUNK + 1])))
    if draw(st.booleans()):
        return N, seq_from_expr(draw(EXPRESSIONS))
    ks = np.arange(1, 2 * N + 5, dtype=np.float64)
    base = draw(st.sampled_from(["power", "alternating", "-0.0"]))
    if base == "power":
        logs = draw(st.sampled_from([1.0, -1.0])) * ks ** -draw(st.sampled_from([0.5, 1.0, 2.5]))
    elif base == "alternating":
        logs = (-1.0) ** ks / ks
    else:
        logs = np.full(len(ks), -0.0)
    for _ in range(draw(st.integers(0, 2))):
        start = N + draw(st.integers(-3, 1))
        run = 1e308 * draw(st.sampled_from([1.0, -1.0])) ** np.arange(draw(st.integers(1, 6)))
        logs[start - 1 : start - 1 + len(run)] = draw(st.sampled_from([1.0, -1.0])) * run
    return N, seq_from_logs(logs)


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


#: Expressions whose terms fault at different nodes, and the fault of the
#: first failing term: from k = 2 the outer exp overflows, from k = 6 an
#: inner one; ln(ln(exp(0.5^k))) is negative from k = 1, and from k = 53,
#: where exp(0.5^k) rounds to 1, its outer ln takes ln of 0.
FIRST_FAULTS = [
    ("exp(exp(exp(exp(k)+exp(k))))", DomainError, "inner exp overflow at k=2"),
    ("ln(ln(exp(0.5^k)))", NonPositiveValue, "sequence value must be strictly positive and finite at k=1"),
]


@pytest.mark.parametrize("src, error, message", FIRST_FAULTS)
def test_a_window_names_its_first_failing_term(src, error, message):
    """However far a window reaches past its first failing term, it raises
    that term's fault, not a fault some later term meets at an inner node."""
    x = seq_from_expr(src)
    for n in [*range(int(message.rsplit("=", 1)[1]), 130), SUM_CHUNK, 3 * SUM_CHUNK + 5]:
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            x.log_values(1, n)


def test_points_name_the_first_failing_term_in_their_own_order():
    """Points fail at the first failing term in the order given, with that
    term's innermost fault."""
    x = seq_from_expr(FIRST_FAULTS[1][0])
    with pytest.raises(DomainError, match=r"^ln of non-positive value at k=60$"):
        x.log_points([60, 1])
    with pytest.raises(NonPositiveValue, match=r"at k=1$"):
        x.log_points([1, 60])


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

    @settings(max_examples=100, deadline=None)
    @given(first_order_cases(), st.sampled_from([beta_dual_test, gamma_dual_test]))
    @example((5, seq_from_logs(np.full(10, -0.0))), beta_dual_test)
    @example((5, seq_from_logs(np.full(10, -0.0))), gamma_dual_test)
    @example((SUM_CHUNK + 1, seq_from_expr("exp(1/((k-30000)*(k-20000)))")), gamma_dual_test)
    @example((4, seq_from_expr(FIRST_FAULTS[0][0])), beta_dual_test)
    @example((27, seq_from_expr(FIRST_FAULTS[1][0])), gamma_dual_test)
    def test_first_order_reports_equal_whole_array_reads(self, case, test):
        """Beta and gamma fold the partial sums and the tails in one scan:
        their reports, or the error of the first term that fails to read,
        are those of one read of the whole window."""
        N, x = case
        kind = test.__name__.split("_")[0]
        try:
            whole = _whole_first_order(kind, x, N, 1e-6)
        except GeometricError as err:
            with pytest.raises(type(err), match=f"^{re.escape(str(err))}$"):
                test(x, N, 1e-6)
            return
        assert _json(test(x, N, 1e-6)) == _json(whole)

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

    @settings(deadline=None)
    @given(
        st.sampled_from([(2.0, 94_906_265), (3.0, 208_063)]).flatmap(
            lambda we: st.tuples(st.just(we[0]), st.integers(we[1] - 80, we[1] + 5))
        ),
        st.integers(1, 64),
    )
    @example((3.0, 208_063 - 15), 16)
    @example((3.0, 208_064 - 15), 16)
    def test_integer_weights_are_np_power_bit_for_bit(self, wk, n):
        """Weights 2 and 3 are products of k while the last k^w is below
        2^53, ``np.power`` past it: both read the same bits on every piece."""
        weight, k = wk
        logs = np.random.default_rng(k).standard_normal(n) * 10.0 ** np.arange(-3, n - 3)
        logs[::5] = 0.0
        ks = np.arange(k, k + n, dtype=np.float64)
        want = np.abs(logs) * np.power(ks, weight)
        assert gseq._weighted_abs(k, logs, weight).tobytes() == want.tobytes()

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
        for k, logs in x.log_chunks(3, 3 * SUM_CHUNK + 2, stops):
            assert np.array_equal(logs, np.arange(k, k + len(logs), dtype=np.float64))

    def test_scans_never_write_into_a_buffer(self):
        """A buffer's scan pieces are read-only views of the caller's array:
        every verdict over it leaves the array's bytes as they were."""
        n = 2 * SUM_CHUNK + 9
        logs = np.random.default_rng(5).standard_normal(n) / np.arange(1, n + 1)
        logs[::7], logs[3::11] = 0.0, -0.0
        kept = logs.tobytes()
        x, N = BufferSeq(logs), (n - 1) // 2
        calls = [
            lambda: alpha_dual_test(x, 1, N), lambda: alpha_dual_test(x, 2, N),
            lambda: alpha_alpha_dual_test(x, 1, N), lambda: beta_dual_test(x, N),
            lambda: gamma_dual_test(x, N), lambda: lemma_equivalence_check(x, N),
            lambda: gsum_partial(x, n), lambda: remainder(x, 3, N), lambda: sup_gabs(x, n),
        ] + [lambda s=s, m=m: classify(x, s, m, N) for s in ("linf", "c", "c0") for m in (0, 1)]
        for call in calls:
            call()
        assert logs.tobytes() == kept and logs.flags.writeable
        for _, piece in x.log_chunks(1, n):
            with pytest.raises(ValueError, match="read-only"):
                piece[0] = 1.0

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
        # The first piece divides by zero at k = 5; the scan stops there and
        # never reads the inner exp overflow from k = 21 294 on.
        x = seq_from_expr("exp(k/30)/(k-5)^2")
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
    gs.alpha_dual_test(gs.seq_from_expr("exp(k/30)/(k-5)^2"), 1, N)
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
