"""The exact form of a sequence: one rational function per view, differenced
symbolically, held against the per-term Fraction oracle (eval_log_exact)."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from geomseq import (
    DomainError,
    d_operator,
    delta_binomial,
    delta_recursive,
    seq_from_expr,
    term,
)
from geomseq.exprdsl import eval_log_exact, lower_log, parse
from geomseq.gdiff import binomial_row
from geomseq.ratfunc import MAX_DEGREE, RatFunc

_leaves = st.one_of(
    st.just("k"),
    st.integers(1, 9).map(str),
    st.sampled_from(["0.5", "2.25", "0.1", "1e-3", "12.75"]),
)


def _combine(children):
    binary = st.tuples(children, st.sampled_from("+-*/"), children).map(
        lambda t: f"({t[0]}{t[1]}{t[2]})"
    )
    power = st.tuples(children, st.integers(-3, 4)).map(
        lambda t: f"({t[0]})^{t[1]}" if t[1] >= 0 else f"({t[0]})^(0-{-t[1]})"
    )
    return binary | power


#: exp of a rational exponent: k, integer and decimal constants, + - * /,
#: integer powers -3..4.
exponents = st.recursive(_leaves, _combine, max_leaves=6).map(lambda s: f"exp({s})")
orders = st.integers(0, 6)
starts = st.integers(1, 10**6)
counts = st.integers(1, 40)

_settings = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def _outcome(fn, *args):
    """The float bits a call returns, or the error type it raises."""
    try:
        return _bits(fn(*args))
    except DomainError:
        return DomainError


def _oracle(src: str, m: int, k: int):
    """float(sum_v c_v * eval_log_exact(k + v)): None where the oracle
    declines, DomainError where a term has no finite log."""
    ast = parse(src)
    coeffs = [c if v % 2 == 0 else -c for v, c in enumerate(binomial_row(m))]
    total = 0
    try:
        for v, c in enumerate(coeffs):
            ex = eval_log_exact(ast, k + v)
            if ex is None:
                return None
            total += c * ex
        return float(total)
    except (DomainError, OverflowError):
        return DomainError


@_settings
@given(exponents, st.integers(1, 6), starts, counts)
def test_block_equals_terms_bitwise(src, m, start, count):
    # m >= 1: an expression's own blocks stay on the float path by design
    view = delta_binomial(seq_from_expr(src), m)
    assume(view.exact_form is not None)
    terms = [_outcome(view.log_at, k) for k in range(start, start + count)]
    if DomainError in terms:
        with pytest.raises(DomainError):
            view.log_values(start, count)
    else:
        assert view.log_values(start, count).tobytes() == b"".join(terms)


@_settings
@given(exponents, orders, starts, counts)
def test_terms_match_the_fraction_oracle(src, m, start, count):
    view = delta_binomial(seq_from_expr(src), m)
    assume(view.exact_form is not None)
    for k in range(start, start + min(count, 8)):
        want = _oracle(src, m, k)
        if want is None:
            continue
        assert _outcome(view.log_at, k) == (want if want is DomainError else _bits(want))


@_settings
@given(exponents, orders, starts, counts)
def test_recursive_and_binomial_agree_bitwise(src, m, start, count):
    x = seq_from_expr(src)
    rec, bino = delta_recursive(x, m), delta_binomial(x, m)
    assume(rec.exact_form is not None and bino.exact_form is not None)
    assert _outcome(rec.log_values, start, count) == _outcome(bino.log_values, start, count)
    for k in (start, start + count - 1):
        assert _outcome(rec.log_at, k) == _outcome(bino.log_at, k)


@given(st.integers(1, 4), counts)
def test_pole_raises_on_every_path(start, count):
    view = delta_binomial(seq_from_expr("exp(1/(k-3))"), 1)
    covers_pole = start <= 3 and start + count - 1 >= 2  # terms 2 and 3 read k = 3
    if covers_pole:
        with pytest.raises(DomainError, match="division by zero"):
            view.log_values(start, count)
    else:
        view.log_values(start, count)
    for k in range(start, start + count):
        if k in (2, 3):
            with pytest.raises(DomainError):
                view.log_at(k)
        else:
            view.log_at(k)


class TestStructuralExactness:
    @pytest.mark.parametrize("src", ["exp(2^(0-k))", "exp(k^k)", "exp(ln(k))", "k", "exp(e*k)"])
    def test_exponents_exact_only_at_some_k_go_float(self, src):
        assert seq_from_expr(src).exact_form is None

    @pytest.mark.parametrize("src", ["exp(k^2)", "exp(1/k)", "1", "e", "e^(k/3)", "exp(k)^2/e"])
    def test_rational_exponents_are_exact(self, src):
        assert seq_from_expr(src).exact_form is not None

    def test_degree_cap_is_checked_before_expanding(self):
        assert lower_log(parse("exp((k+1)^1000000)")) is None
        assert lower_log(parse("exp(k^%d)" % MAX_DEGREE)) is not None
        assert lower_log(parse("exp(10^1000000)")) is None

    def test_poles_are_not_cancelled(self):
        for src in ("exp((k-3)/(k-3))", "exp(1/(1/(k-3)))", "exp((1/(k-3))^0)"):
            x = seq_from_expr(src)
            assert x.exact_form is not None
            with pytest.raises(DomainError, match="k=3"):
                x.log_at(3)
            assert x.log_at(4) == float(eval_log_exact(parse(src), 4))

    def test_exact_zero_is_positive_zero(self):
        r = RatFunc((0,), [(-3,)])
        assert math.copysign(1.0, r.at(5)) == 1.0
        assert math.copysign(1.0, r.values(np.arange(1, 4))[0]) == 1.0
        assert _bits(delta_binomial(seq_from_expr("exp(k^2)"), 3).log_values(1, 4)) == _bits([0.0] * 4)

    def test_python_int_fallback_matches_int64_path(self):
        r = RatFunc((1,), [(0, 1), (1, 1), (2, 1)])  # 1/(k(k+1)(k+2)): int64 up to k ~ 2e5
        assert r.values(np.arange(1, 11)).tobytes() == _bits([r.at(k) for k in range(1, 11)])
        for start in (300_000, 10**7):  # past 2^53 (in and beyond int64): Python ints
            big = r.values(np.arange(start, start + 2000))
            assert big.tobytes() == _bits([r.at(k) for k in range(start, start + 2000)])

    def test_quotient_beyond_float64_is_a_domain_error(self):
        x = seq_from_expr("exp(k^200)")
        assert x.log_at(2) == 2.0**200
        with pytest.raises(DomainError, match="beyond float64"):
            x.log_at(100)


class TestWindowIndependence:
    """A term's log does not depend on the window it was read in."""

    def test_mixed_exponent_block_is_prefix_stable(self):
        view = delta_binomial(seq_from_expr("exp(k^2+2^(0-k))"), 3)
        assert view.exact_form is None
        long = view.log_values(1, 400)
        assert view.log_values(1, 50).tobytes() == long[:50].tobytes()
        for k in (1, 42, 200, 351, 400):
            assert view.log_values(k, 1).tobytes() == long[k - 1 : k].tobytes()
        # the scalar path sums with fsum, the block path in order: they agree
        # to 1e-12 relative on a unit floor
        terms = np.array([term(view, k).log_value for k in range(1, 401)])
        assert np.all(np.abs(terms - long) <= 1e-12 * np.maximum(1.0, np.abs(long)))


class TestPinnedHead:
    def test_difference_of_a_pinned_head_is_exact(self):
        y = d_operator(seq_from_expr("exp(1/k)"), 2)
        d2 = delta_binomial(y, 2)
        assert [y.exact_form.exact(k) for k in range(1, 5)] == [0, 0, Fraction(1, 3), Fraction(1, 4)]
        want = [Fraction(1, 3), Fraction(-5, 12), Fraction(1, 30)]
        assert [d2.exact_form.exact(k) for k in range(1, 4)] == want
        assert _bits(d2.log_values(1, 3)) == _bits([1 / 3, -5 / 12, 1 / 30])
        assert _outcome(delta_recursive(y, 2).log_values, 1, 50) == _outcome(d2.log_values, 1, 50)

    def test_head_term_reading_a_pole_raises_only_there(self):
        view = delta_binomial(d_operator(seq_from_expr("exp(1/(k-3))"), 2), 1)
        assert view.log_at(1) == 0.0
        with pytest.raises(DomainError):
            view.log_at(2)
        with pytest.raises(DomainError):
            view.log_values(1, 5)
        assert view.log_values(4, 3).tobytes() == _bits([1 / 2, 1 / 6, 1 / 12])
