"""Difference operator: the two implementations, their exact-arithmetic
fast path, and the norm built on top."""

import math
import tracemalloc

import numpy as np
import pytest

from geomseq import (
    DomainError,
    GNum,
    IndexOutOfRange,
    UnsupportedOrder,
    binomial_row,
    d_operator,
    delta_binomial,
    delta_norm,
    delta_recursive,
    gsub,
    seq_from_expr,
    seq_from_logs,
    seq_odot,
    seq_oplus,
    seq_scale,
    sup_gabs,
    term,
)
from geomseq.gdiff import MAX_ORDER, check_order
from geomseq.gseq import SUM_CHUNK


def classical_forward(logs: np.ndarray, m: int) -> np.ndarray:
    """Oracle: m applications of np.diff, sign-fixed to the
    x_k / x_{k+1} convention."""
    out = logs.astype(np.float64)
    for _ in range(m):
        out = -np.diff(out)
    return out


class TestOrderGuard:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_order(-1)

    def test_rejects_non_integers(self):
        with pytest.raises(ValueError):
            check_order(2.0)
        with pytest.raises(ValueError):
            check_order(True)

    def test_rejects_beyond_cap(self):
        with pytest.raises(UnsupportedOrder):
            check_order(MAX_ORDER + 1)
        with pytest.raises(UnsupportedOrder):
            delta_binomial(seq_from_expr("exp(k)"), 61)

    def test_cap_itself_is_fine(self):
        assert check_order(MAX_ORDER) == MAX_ORDER


def test_binomial_row():
    assert binomial_row(0) == [1]
    assert binomial_row(5) == [1, 5, 10, 10, 5, 1]


class TestFrozenConstants:
    """The power witnesses: order-m differences of exp(k^m) are the
    constant with log (-1)^m m!, one order higher collapses them."""

    @pytest.mark.parametrize(
        "src,m,expected_log",
        [
            ("exp(k)", 1, -1.0),
            ("exp(k^2)", 2, 2.0),
            ("exp(k^3)", 3, -6.0),
            ("exp(k^4)", 4, 24.0),
        ],
    )
    def test_order_m_constant(self, src, m, expected_log):
        view = delta_binomial(seq_from_expr(src), m)
        for k in (1, 2, 10, 999, 10_000):
            assert term(view, k).log_value == expected_log

    @pytest.mark.parametrize("src,m", [("exp(k)", 1), ("exp(k^2)", 2), ("exp(k^4)", 4)])
    def test_order_m_plus_one_collapses(self, src, m):
        view = delta_binomial(seq_from_expr(src), m + 1)
        for k in (1, 3, 5000, 10_000):
            assert term(view, k).log_value == 0.0

    def test_single_step(self):
        view = delta_binomial(seq_from_expr("exp(k)"), 1)
        got = term(view, 7)
        want = gsub(term(seq_from_expr("exp(k)"), 7), term(seq_from_expr("exp(k)"), 8))
        assert got == want

    def test_order_zero_is_identity(self):
        x = seq_from_expr("exp(1/k)")
        assert delta_binomial(x, 0) is x


class TestEquivalence:
    def test_recursive_matches_binomial_on_random_logs(self, rng):
        logs = rng.uniform(-5, 5, size=200)
        x = seq_from_logs(logs)
        for m in range(7):
            a = delta_recursive(x, m)
            b = delta_binomial(x, m)
            va = a.log_values(1, 150)
            vb = b.log_values(1, 150)
            err = np.max(np.abs(va - vb) / np.maximum(1.0, np.maximum(np.abs(va), np.abs(vb))))
            assert err <= 1e-9

    def test_shadow_commutation(self, rng):
        logs = rng.uniform(-5, 5, size=120)
        x = seq_from_logs(logs)
        for m in (1, 2, 3, 5):
            got = delta_binomial(x, m).log_values(1, 100)
            want = classical_forward(logs, m)[:100]
            err = np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want)))
            assert err <= 1e-12
            # the chain shares no code with np.diff: nested differences, bit for bit
            assert np.array_equal(delta_recursive(x, m).log_values(1, 100), want)

    def test_semigroup(self, rng):
        logs = rng.uniform(-3, 3, size=80)
        x = seq_from_logs(logs)
        for m1, m2 in ((1, 1), (1, 2), (2, 2), (3, 1)):
            nested = delta_binomial(delta_binomial(x, m1), m2).log_values(1, 40)
            flat = delta_binomial(x, m1 + m2).log_values(1, 40)
            err = np.max(np.abs(nested - flat) / np.maximum(1.0, np.abs(flat)))
            assert err <= 1e-9

    def test_exact_path_agrees_with_floats(self):
        x = seq_from_expr("exp(k^3)")
        view = delta_binomial(x, 2)
        assert view.exact_form is not None
        exact = [view.exact_form.exact(k) for k in range(1, 31)]
        floats = view.log_values(1, 30)
        assert np.allclose(np.array(exact, dtype=float), floats, rtol=1e-12)


class TestIndexEnd:
    """A difference read at int64's last index reads past it."""

    @pytest.mark.parametrize("m", [1, 2])
    def test_float_read_past_the_end_is_out_of_range(self, m):
        x = seq_from_expr("exp(ln(k)/k)")
        assert x.exact_form is None
        for view in (delta_binomial(x, m), delta_recursive(x, m)):
            with pytest.raises(IndexOutOfRange, match=r"end at 2\^63-1, got 92233720368547758"):
                view.log_at(2**63 - 1)
            assert math.isfinite(view.log_at(2**63 - 1 - m))  # the last term whose read fits

    def test_exact_read_at_the_end(self):
        x = seq_from_expr("exp(1/k)")
        for view in (delta_binomial(x, 1), delta_recursive(x, 1)):
            assert view.log_at(2**63 - 1) == 1.1754943508222875e-38

    @pytest.mark.parametrize("exact_first", [True, False])
    def test_float_read_over_an_exact_difference(self, exact_first):
        exact = delta_binomial(seq_from_expr("exp(1/k)"), 1)
        x = seq_from_expr("exp(ln(k)/k)")
        both = seq_oplus(exact, x) if exact_first else seq_oplus(x, exact)
        with pytest.raises(IndexOutOfRange, match=r"end at 2\^63-1, got 9223372036854775808$"):
            delta_binomial(both, 1).log_at(2**63 - 1)


class TestPointReads:
    """A float difference reads a point set SUM_CHUNK points at a time."""

    def test_peak_is_bounded_and_bits_are_the_window_read(self):
        view = delta_binomial(seq_from_expr("exp(ln(k)/k)"), 20)
        tracemalloc.start()
        try:
            got = view.log_points(np.arange(1, 10**5 + 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20  # one n x (m + 1) grid of 10^5 points is 16 MiB
        assert got.tobytes() == view.log_points(range(1, 10**5 + 1)).tobytes()

    def test_first_failing_point_in_order_is_named(self):
        view = delta_binomial(seq_from_expr("exp(ln(k-20000))"), 2)
        ks = np.concatenate([np.arange(30_000, 30_000 + SUM_CHUNK + 5), [9, 4]])
        with pytest.raises(DomainError, match=r"at k=9$"):
            view.log_points(ks)


class TestHomomorphism:
    def test_additivity(self, rng):
        for _ in range(10):
            x = seq_from_logs(rng.uniform(-4, 4, size=60))
            y = seq_from_logs(rng.uniform(-4, 4, size=60))
            for m in (1, 2, 4):
                lhs = delta_binomial(seq_oplus(x, y), m).log_values(1, 40)
                rhs = delta_binomial(x, m).log_values(1, 40) + delta_binomial(
                    y, m
                ).log_values(1, 40)
                assert np.max(np.abs(lhs - rhs)) <= 1e-10 * max(1.0, np.max(np.abs(rhs)))

    def test_homogeneity(self, rng):
        alpha = GNum(1.7)
        x = seq_from_logs(rng.uniform(-4, 4, size=60))
        for m in (1, 3):
            lhs = delta_binomial(seq_scale(alpha, x), m).log_values(1, 40)
            rhs = 1.7 * delta_binomial(x, m).log_values(1, 40)
            assert np.max(np.abs(lhs - rhs)) <= 1e-10 * max(1.0, np.max(np.abs(rhs)))


class TestDOperator:
    def test_head_is_pinned(self):
        y = d_operator(seq_from_expr("exp(k)"), 3)
        assert [term(y, k).log_value for k in (1, 2, 3)] == [0.0, 0.0, 0.0]
        assert term(y, 4).log_value == 4.0

    def test_idempotent(self, rng):
        x = seq_from_logs(rng.uniform(-2, 2, size=30))
        once = d_operator(x, 2).log_values(1, 30)
        twice = d_operator(d_operator(x, 2), 2).log_values(1, 30)
        assert np.array_equal(once, twice)

    def test_blocks_zero_the_head(self):
        y = d_operator(seq_from_expr("exp(k)"), 4)
        assert list(y.log_values(2, 5)) == [0.0, 0.0, 0.0, 5.0, 6.0]


class TestNorm:
    def test_frozen_values(self):
        # head |ln x_1| = 1 plus sup |first-difference logs| = 1
        assert delta_norm(seq_from_expr("exp(k)"), 1, 100).log_value == 2.0
        # head 1 + 4 plus sup 2
        assert delta_norm(seq_from_expr("exp(k^2)"), 2, 100).log_value == 7.0

    def test_order_zero_is_plain_sup(self):
        x = seq_from_expr("exp(1/k)")
        assert delta_norm(x, 0, 50) == sup_gabs(x, 50)

    def test_absolute_homogeneity_on_pinned_heads(self, rng):
        x = d_operator(seq_from_logs(rng.uniform(-3, 3, size=70)), 2)
        base = delta_norm(x, 2, 50).log_value
        scaled = delta_norm(seq_scale(GNum(-2.5), x), 2, 50).log_value
        assert scaled == pytest.approx(2.5 * base, rel=1e-12)

    def test_triangle(self, rng):
        x = seq_from_logs(rng.uniform(-3, 3, size=70))
        y = seq_from_logs(rng.uniform(-3, 3, size=70))
        n_xy = delta_norm(seq_oplus(x, y), 2, 50).log_value
        n_sum = delta_norm(x, 2, 50).log_value + delta_norm(y, 2, 50).log_value
        assert n_xy <= n_sum + 1e-12

    def test_positive_definite_at_geometric_zero(self):
        assert delta_norm(seq_from_expr("1"), 3, 50).log_value == 0.0

    def test_window_validation(self):
        with pytest.raises(ValueError):
            delta_norm(seq_from_expr("exp(k)"), 1, 0)
