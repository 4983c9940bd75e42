import json
import math
import re
import sys
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from geomseq import (
    DomainError,
    GeometricError,
    NonPositiveValue,
    ParseError,
    classify,
    parse,
    seq_from_expr,
    to_source,
)
from geomseq import exprdsl, ratfunc
from geomseq.exprdsl import (
    INDEX_SPAN,
    MAX_NESTING,
    eval_at,
    eval_log,
    eval_log_array,
    eval_value,
    eval_value_array,
    float_index,
    lower_log,
)

from exact_oracle import eval_exact, eval_log_exact
from grammar import EXPRESSIONS

# fifty shapes covering every production, nesting and both shortcut forms
CORPUS = [
    "1",
    "2",
    "0.5",
    "1e3",
    "2.5e-2",
    "k",
    "e",
    "k+1",
    "k-1+2",
    "2*k",
    "k/2",
    "k^2",
    "k^2+k",
    "k^2-k+1",
    "2*k+1",
    "(k+1)*(k+2)",
    "k*(k+1)",
    "1/k",
    "1/(k+1)",
    "1/k^2",
    "1/(k^4)",
    "1/k^5",
    "2^k",
    "2^(0-k)",
    "k^k",
    "2^k^2",
    "(2^k)^2",
    "e^k",
    "e*k",
    "k/e",
    "exp(k)",
    "exp(k^2)",
    "exp(k^3)",
    "exp(k^4)",
    "exp(1/k)",
    "exp(1/k^2)",
    "exp(1/k^4)",
    "exp(2^(0-k))",
    "exp(0-k)",
    "exp(k-1)",
    "exp((k+1)/k)",
    "exp(k*(k+1))",
    "ln(k)",
    "ln(k+1)",
    "exp(ln(k))",
    "exp(ln(k)/k)",
    "ln(exp(k))",
    "exp(k)/exp(k+1)",
    "exp(k^2)*exp(k)",
    "(k+1)^3/(k^2+1)",
]


def test_corpus_has_fifty_expressions():
    assert len(CORPUS) == 50


@pytest.mark.parametrize("src", CORPUS)
def test_pretty_print_is_fixed_point(src):
    ast = parse(src)
    printed = to_source(ast)
    assert parse(printed) == ast
    assert to_source(parse(printed)) == printed


@pytest.mark.parametrize("src", CORPUS)
def test_scalar_and_array_evaluation_agree(src):
    ks = np.arange(1, 33)
    try:
        arr = eval_value_array(parse(src), ks)
    except DomainError:
        pytest.skip("value overflow at array scale is exercised elsewhere")
    for k in (1, 2, 3, 17, 32):
        assert arr[k - 1] == pytest.approx(eval_value(parse(src), k), rel=1e-13)


class TestAstShapes:
    def test_exp_of_power(self):
        ast = parse("exp(k^2)")
        assert ast.kind == "exp"
        inner = ast.children[0]
        assert inner.kind == "pow"
        assert inner.children[0].kind == "k"
        assert inner.children[1].value == 2.0

    def test_precedence(self):
        ast = parse("2*k+1")
        assert ast.kind == "add"
        assert ast.children[0].kind == "mul"

    def test_power_is_right_associative(self):
        ast = parse("2^k^2")
        assert ast.kind == "pow"
        assert ast.children[1].kind == "pow"

    def test_parens_override(self):
        assert parse("(2^k)^2") != parse("2^k^2")

    def test_whitespace_is_free(self):
        assert parse(" k + 1 ") == parse("k+1")


class TestParseErrors:
    def test_empty_input(self):
        with pytest.raises(ParseError) as exc:
            parse("")
        assert exc.value.offset == 0

    def test_truncated_input_reports_offset_and_expectations(self):
        with pytest.raises(ParseError) as exc:
            parse("exp(k^")
        assert exc.value.offset == 6
        assert "number" in exc.value.expected
        assert "k" in exc.value.expected

    def test_unknown_name(self):
        with pytest.raises(ParseError):
            parse("sin(k)")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError) as exc:
            parse("k+1)")
        assert exc.value.offset == 3

    def test_non_ascii_rejected(self):
        with pytest.raises(ParseError):
            parse("k²")

    @pytest.mark.parametrize("src, offset", [("k\fk", 1), ("k\vk", 1), ("1.e3", 1), ("k+k;", 3)])
    def test_unexpected_character_at_its_offset(self, src, offset):
        message = re.escape(f"unexpected character {src[offset]!r}")
        with pytest.raises(ParseError, match=message) as exc:
            parse(src)
        assert exc.value.offset == offset

    @pytest.mark.parametrize(
        "src, offset", [("k+\u0663", 2), ("\uff4b", 0), ("k\u00a0+k", 1), ("1\u0663", 1)]
    )
    def test_unicode_digits_letters_and_spaces_are_non_ascii(self, src, offset):
        with pytest.raises(ParseError, match="non-ASCII character") as exc:
            parse(src)
        assert exc.value.offset == offset

    def test_exponent_without_digits_ends_the_number(self):
        with pytest.raises(ParseError, match="unknown name 'ek'") as exc:
            parse("2ek")
        assert exc.value.offset == 1

    def test_tab_cr_and_lf_are_whitespace(self):
        assert to_source(parse("\tk\r+\n1 ")) == "k+1"

    def test_negative_literal_rejected(self):
        # unary minus is not in the grammar; spell it 0-k
        with pytest.raises(ParseError):
            parse("-k")

    def test_error_message_carries_offset(self):
        with pytest.raises(ParseError, match="offset 6"):
            parse("exp(k^")

    def test_nesting_cap_is_a_parse_error(self):
        with pytest.raises(ParseError) as exc:
            parse("(" * 3000 + "k" + ")" * 3000)
        assert exc.value.offset == MAX_NESTING
        assert "k" in exc.value.expected
        with pytest.raises(ParseError) as exc:
            parse("k" + "^k" * 1000)
        assert exc.value.offset == 1 + 2 * MAX_NESTING
        assert exc.value.expected
        # a flat chain builds a tree as deep as it is long
        with pytest.raises(ParseError) as exc:
            parse("+".join(["k"] * 1000))
        assert exc.value.offset == 1 + 2 * MAX_NESTING

    @pytest.mark.parametrize("opener", ["(", "exp(", "ln("])
    def test_nesting_at_the_cap_parses(self, opener):
        assert MAX_NESTING >= 200
        assert parse(opener * MAX_NESTING + "k" + ")" * MAX_NESTING) is not None
        assert parse("k" + "^k" * MAX_NESTING).kind == "pow"
        with pytest.raises(ParseError):
            parse(opener * (MAX_NESTING + 1) + "k" + ")" * (MAX_NESTING + 1))

    def test_operator_levels_at_the_cap_parse(self):
        assert parse("+".join(["k"] * (MAX_NESTING + 1))).height == MAX_NESTING + 1
        with pytest.raises(ParseError):
            parse("exp(" + "*".join(["k"] * (MAX_NESTING + 1)) + ")")


class TestEvaluation:
    def test_polynomial(self):
        assert eval_value(parse("2*k+1"), 3) == 7.0

    def test_self_power(self):
        assert eval_value(parse("k^k"), 3) == 27.0

    def test_ln_of_e(self):
        assert eval_value(parse("ln(e)"), 1) == pytest.approx(1.0)

    def test_division_by_zero_is_domain_error(self):
        with pytest.raises(DomainError):
            eval_value(parse("1/(k-1)"), 1)

    def test_ln_of_nonpositive_is_domain_error(self):
        with pytest.raises(DomainError):
            eval_value(parse("ln(k-1)"), 1)

    def test_eval_log_matches_value(self):
        for src in ("2*k", "exp(1/k)", "k^2+1"):
            got = eval_log(parse(src), 5)
            assert got == pytest.approx(math.log(eval_value(parse(src), 5)), rel=1e-14)

    def test_k_must_be_positive_integer(self):
        with pytest.raises(DomainError):
            eval_value(parse("k"), 0)

    @pytest.mark.parametrize("read", [eval_value, eval_at, eval_log])
    def test_k_must_fit_int64(self, read):
        assert eval_value(parse("k"), 2**63 - 1) == 2.0**63
        for k in (2**63, 2**64, True):
            with pytest.raises(DomainError, match=re.escape(f"1..2^63-1, got {k!r}")):
                read(parse("k"), k)

    @pytest.mark.parametrize(
        "ks, got",
        [
            (np.array([1.5]), 1.5),
            (np.array([True]), True),
            (np.array([2.0, 3.0]), 2.0),
            (np.array([2.0**63]), 2.0**63),
            (np.array([3, 2**63], dtype=np.uint64), 2**63),
            (np.array([4, 2**64 - 1], dtype=np.uint64), 2**64 - 1),
        ],
    )
    @pytest.mark.parametrize("read", [eval_value_array, eval_log_array])
    def test_index_arrays_must_hold_int64_integers(self, read, ks, got):
        """An index array is read as the scalar path reads each index."""
        with pytest.raises(DomainError, match=re.escape(f"1..2^63-1, got {got!r}")):
            read(parse("k"), ks)

    @pytest.mark.parametrize("read", [eval_value_array, eval_log_array])
    def test_a_range_reads_as_its_index_array(self, read):
        ast = parse("(ln(k)+1)/k")
        for lo, n in ((1, 5), (70_000, INDEX_SPAN + 3), (2**53 - 3, 6), (2**63 - 4, 4)):
            assert _bits(read(ast, range(lo, lo + n))) == _bits(read(ast, lo + np.arange(n)))
        with pytest.raises(DomainError, match="positive integers, got 0"):
            read(parse("k"), range(0, 3))
        assert read(parse("k"), range(0, 0)).shape == (0,)

    @pytest.mark.parametrize(
        "lo, n", [(1, 1), (1, INDEX_SPAN), (9, INDEX_SPAN + 1), (2**53 - INDEX_SPAN, INDEX_SPAN),
                  (2**53 - 5, 6), (2**53 + 1, 8), (2**62, 5)]
    )
    def test_float_index_is_the_float_arange(self, lo, n):
        got = float_index(lo, n)
        assert _bits(got) == _bits(np.arange(lo, lo + n, dtype=np.float64))
        if lo + n <= 2**53:
            assert _bits(got) == _bits(np.arange(lo, lo + n).astype(np.float64))

    def test_difference_pieces_take_the_shared_offsets(self, monkeypatch):
        """A difference view reads m terms past each scan piece; those reads
        still add to the shared offsets, and read the same bits as the
        float ``arange`` did."""
        x = seq_from_expr("exp(ln(k)/k)")
        spans = []

        def spy(lo, n):
            spans.append(n)
            return float_index(lo, n)

        monkeypatch.setattr(exprdsl, "float_index", spy)
        report = json.dumps(classify(x, "linf", 2, 10**5).to_dict())
        assert max(spans) == INDEX_SPAN + 2
        assert max(spans) <= len(ratfunc._OFFSETS)
        monkeypatch.setattr(ratfunc, "_OFFSETS", ratfunc._OFFSETS[:INDEX_SPAN])
        assert json.dumps(classify(x, "linf", 2, 10**5).to_dict()) == report


class TestTopLevelExpShortcut:
    """exp(f(k)) evaluates f directly in log space: no overflow, 1e-14 tight."""

    def test_no_overflow_for_huge_exponents(self):
        assert eval_at(parse("exp(k^3)"), 100).log_value == 1_000_000.0

    @pytest.mark.parametrize("src", ["exp(k)", "exp(k^2)", "exp(1/k)", "exp(ln(k)/k)"])
    def test_log_matches_direct_inner_evaluation(self, src):
        ast = parse(src)
        for k in (1, 2, 7, 40):
            direct = eval_value(ast.children[0], k)
            got = eval_at(ast, k).log_value
            assert abs(got - direct) <= 1e-14 * max(1.0, abs(direct))

    def test_array_shortcut_matches_scalar(self):
        ast = parse("exp(k^4)")
        arr = eval_log_array(ast, np.arange(1, 50))
        for k in (1, 10, 49):
            assert arr[k - 1] == eval_at(ast, k).log_value

    def test_plain_expression_goes_through_values(self):
        got = eval_at(parse("2*k"), 5)
        assert got.log_value == pytest.approx(math.log(10.0), rel=1e-15)

    def test_nonpositive_value_rejected(self):
        with pytest.raises(NonPositiveValue):
            eval_at(parse("k-2"), 1)


class TestPowerFaults:
    """A power that has no real value raises at its own node, with one message
    from the scalar path and an array read that starts at that term."""

    @pytest.mark.parametrize(
        "src, k, message",
        [
            ("(0-2)^0.5", 1, "invalid power in '(0-2)^0.5' at k=1"),
            ("exp((0-2)^0.5)", 1, "invalid power in '(0-2)^0.5' at k=1"),
            ("(0-2)^(1/k)", 2, "invalid power in '(0-2)^(1/k)' at k=2"),
            ("0^(0-k)", 1, "division by zero at k=1"),
        ],
    )
    def test_scalar_and_array_paths_raise_alike(self, src, k, message):
        with pytest.raises(DomainError) as scalar:
            eval_at(parse(src), k)
        with pytest.raises(DomainError) as array:
            seq_from_expr(src).log_points(np.arange(k, k + 3))
        assert str(scalar.value) == str(array.value) == message

    def test_scalar_power_is_never_complex(self):
        with pytest.raises(DomainError, match="invalid power"):
            eval_value(parse("(0-8)^(1/3)"), 1)
        assert eval_value(parse("(0-8)^3"), 1) == -512.0


def _lit(x: float) -> str:
    """DSL source that evaluates to the float ``x``, sign of zero included."""
    if x == 0.0 and math.copysign(1.0, x) < 0:
        return "(0*(0-1))"
    return repr(x) if x >= 0 else f"(0-{-x!r})"


def _edge_power(u: float, t: float) -> str:
    """2^u raised to p*k, with p·log2 of the base equal to t (up to rounding)."""
    base = 2.0**u
    return f"{_lit(base)}^({_lit(t / math.log2(base))}*k)"


#: Positive bases whose power at k = 1 has p·log2 b in [-1081, -1074], away
#: from the tie at -1075: the result rounds to zero or to 2^-1074 whichever
#: way the power is taken, and the terms k >= 2 lie deep in the fill.
_EDGE = st.builds(
    _edge_power,
    st.floats(-1000.0, 1000.0).filter(lambda u: abs(u) > 1e-3),
    st.one_of(st.floats(-1075.0, -1074.0), st.floats(-1081.0, -1075.0)).filter(
        lambda t: abs(t + 1075.0) > 1e-6
    ),
)

#: Bases in (0, 1) with large positive exponents, all inside the fill.
_SMALL_BASE = st.tuples(
    st.floats(1e-300, 1.0, exclude_max=True), st.floats(1.0, 1e300)
).filter(lambda bp: bp[1] * math.log2(bp[0]) < -1081.0).map(
    lambda bp: f"{_lit(bp[0])}^({_lit(bp[1])}*k)"
)

def _shifted_power(base: float, e: float, s: float) -> str:
    """base^(e + s*k); every term's exponent is exact in float64."""
    return f"{_lit(base)}^({_lit(e)}+{_lit(s)}*k)"


_SIGNS = st.sampled_from([1.0, -1.0])

#: ±2^j or ±3 to integer powers, exact or past the float range (2^-1075 is
#: the tie that rounds to zero), and 0 or -0 to integer and real powers.
_EXACT = st.one_of(
    st.builds(
        _shifted_power,
        st.sampled_from([s * 2.0**j for j in (-3, -2, -1, 1, 2, 3) for s in (1, -1)]),
        st.integers(-1100, 1100).map(float),
        _SIGNS,
    ),
    st.builds(_shifted_power, st.sampled_from([3.0, -3.0]), st.integers(8, 25).map(float), _SIGNS),
    st.builds(
        _shifted_power,
        st.sampled_from([0.0, -0.0]),
        st.one_of(st.integers(-6, 6).map(float), st.floats(-6.0, 6.0)),
        _SIGNS,
    ),
)


def _bits(values) -> list[int]:
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


@given(_EDGE | _SMALL_BASE | _EXACT)
@example("2.0^((0-1074.5)*k)")  # 2^-1074 at k = 1, then the fill
@example("0.5^(1070.0+1.0*k)")  # the tie 2^-1075 at k = 5
def test_array_power_is_the_scalar_power_bit_for_bit(src):
    """The underflow fill and exact powers against Python's ``**`` on the
    base and exponent the array path reads: ``np.power`` and ``**`` differ
    in the last bit on other powers, so those are not drawn."""
    ast, ks = parse(src), np.arange(1, 9)
    bases, powers = (eval_value_array(child, ks).tolist() for child in ast.children)
    want = []
    for k, b, p in zip(ks.tolist(), bases, powers):
        message = None
        try:
            value = b**p
        except ZeroDivisionError:
            message = f"division by zero at k={k}"
        except OverflowError:
            message = f"overflow evaluating {to_source(ast)!r} at k={k}"
        else:
            if isinstance(value, complex):
                message = f"invalid power in {to_source(ast)!r} at k={k}"
        if message is not None:
            with pytest.raises(DomainError) as err:
                eval_value_array(ast, ks)
            assert str(err.value) == message
            return
        want.append(value)
    assert _bits(eval_value_array(ast, ks)) == _bits(want)


def _read(read):
    """The bits of a float read, or the type and message of its error."""
    try:
        return _bits([read()])[0]
    except GeometricError as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=200, deadline=None)
@given(EXPRESSIONS, st.lists(st.integers(1, 40), min_size=1, max_size=4, unique=True))
@example("exp(exp(1/k))", [1, 40])
@example("exp(exp(k^(1/2))/k)", [14, 19, 22])
@example("k*exp(1/k)", [1, 40])
@example("2+exp(0-k/7)", [4])
@example("ln(0.5^k)", [1, 2])
def test_a_terms_log_does_not_depend_on_how_it_is_read(src, ks):
    """One term's log, or its error, read alone, as a one-term array, inside
    a whole window and as a point of the sequence, where no exact form
    reads the points instead."""
    ast, window = parse(src), np.arange(1, 41)
    try:
        logs = eval_log_array(ast, window)
    except GeometricError:
        logs = None  # a window that fails names its own first fault
    for k in ks:
        want = _read(lambda: eval_log(ast, k))
        assert _read(lambda: eval_log_array(ast, np.array([k]))[0]) == want, k
        if logs is not None:
            assert _read(lambda: logs[k - 1]) == want, k
        if lower_log(ast) is None:
            assert _read(lambda: seq_from_expr(ast).log_points([k])[0]) == want, k


class TestExactEvaluation:
    def test_rational_arithmetic(self):
        assert eval_exact(parse("k^2/(k+1)"), 3) == Fraction(9, 4)

    def test_integer_results_stay_integers(self):
        got = eval_exact(parse("k^2+k"), 4)
        assert got == 20 and isinstance(got, int)

    def test_negative_power(self):
        assert eval_exact(parse("2^(0-k)"), 3) == Fraction(1, 8)

    def test_huge_exponent_bails_to_none(self):
        # beyond the size guard the exact path declines, floats take over
        assert eval_exact(parse("2^k"), 700) is None

    def test_e_is_not_exact(self):
        assert eval_exact(parse("e"), 1) is None

    def test_log_of_exp_form(self):
        assert eval_log_exact(parse("exp(k^4)"), 7) == 2401

    def test_log_of_unit(self):
        assert eval_log_exact(parse("1"), 5) == 0

    def test_log_of_e(self):
        assert eval_log_exact(parse("e"), 9) == 1

    def test_log_of_product_of_exps(self):
        got = eval_log_exact(parse("exp(k^2)*exp(k)"), 3)
        assert got == 12

    def test_log_of_ln_form_is_unavailable(self):
        assert eval_log_exact(parse("exp(ln(k))"), 3) is None


class TestParserRobustness:
    def test_nesting_at_the_cap_parses_from_a_deep_stack(self):
        src = "(" * MAX_NESTING + "k" + ")" * MAX_NESTING

        def nested(depth):
            return parse(src) if depth == 0 else nested(depth - 1)

        assert nested(190).kind == "k"

    def test_exhausted_stack_is_a_parse_error(self):
        src = "exp(" * MAX_NESTING + "k" + ")" * MAX_NESTING

        def nested(depth):
            return parse(src) if depth == 0 else nested(depth - 1)

        frame, used = sys._getframe(), 0
        while frame is not None:
            frame, used = frame.f_back, used + 1
        with pytest.raises(ParseError, match="stack"):
            nested(sys.getrecursionlimit() - used - 20)  # 20 frames left for parse

    @pytest.mark.parametrize("src, offset", [("1e400", 0), ("k*1e-400", 2), ("exp(2*1" + "0" * 400 + ")", 6)])
    def test_literal_outside_float64_is_a_parse_error(self, src, offset):
        with pytest.raises(ParseError) as exc:
            parse(src)
        assert exc.value.offset == offset

    def test_literals_inside_float64_still_parse(self):
        assert parse("1.7e308").value == 1.7e308
        assert parse("5e-324").value == 5e-324
        assert parse("0.0").value == 0.0


def _outcome(read):
    """The bits of an array read, or the type and message of its error."""
    try:
        return _bits(read())
    except GeometricError as exc:
        return type(exc).__name__, str(exc)


#: The last k with k^p below 2^53, for p = 2..5: a ``k^p`` piece through it
#: is a product of copies of k, one past it ``np.power``.
POWER_EDGES = {2: 94_906_265, 3: 208_063, 4: 9741, 5: 1552}

#: Pieces that replay the checked interpreter: k^400 overflows from k = 6
#: but 1/(k^400) reads 0.0 there; a zero divisor at k = 2; an inner exp
#: past float64; and powers across the edges above.
_REPLAYS = ["exp(1/(k^400))", "exp(0-1/(k-2))", "exp(exp(k))", "1/exp(k^400)", "ln(k^5)",
            "exp(k^2)", "exp(1/k^3)", "k^4", "exp(k^5/k^4)", "exp(0-k^3)"]

_PIECE_STARTS = st.one_of(
    st.integers(1, 80),
    st.sampled_from(sorted(POWER_EDGES.values())).flatmap(lambda e: st.integers(e - 70, e + 5)),
    st.integers(2**53 - 70, 2**53 + 5),
    st.integers(2**63 - 200, 2**63 - 65),
)


@settings(max_examples=300, deadline=None)
@given(EXPRESSIONS | st.sampled_from(_REPLAYS), _PIECE_STARTS, st.integers(1, 64))
@example("exp(1/(k^400))", 1, 12)
@example("1/exp(k^400)", 1, 12)
@example("exp(0-1/(k-2))", 1, 4)
@example("exp(k^3)", 208_063 - 31, 32)
@example("exp(k^3)", 208_064 - 31, 32)
@example("k^4", 9741 - 7, 9)
@example("exp(1/k^5)", 1552, 2)
def test_a_piece_reads_as_the_checked_interpreter(src, lo, n):
    """A scan piece's logs and values, read in one unchecked pass, are the
    checked interpreter's bit for bit, or raise its error and message."""
    ast = parse(src)
    ks = np.arange(lo, lo + n, dtype=np.int64)
    for log in (True, False):
        want = _outcome(lambda: exprdsl._checked(ast, ks.astype(np.float64), ks, log))
        if log:
            assert _outcome(lambda: seq_from_expr(ast).log_values(lo, n)) == want
        read = eval_log_array if log else eval_value_array
        assert _outcome(lambda: read(ast, ks)) == want
        assert _outcome(lambda: read(ast, range(lo, lo + n))) == want


@settings(deadline=None)
@given(st.integers(2, 52), st.integers(-40, 40))
@example(2, 0)
@example(3, 1)
@example(4, 0)
@example(5, 1)
def test_integer_power_is_np_power_bit_for_bit(p, past_edge):
    """k^p is a product of copies of k while the last k^p is below 2^53,
    ``np.power`` past it: wherever the tests run, the two agree on every
    window."""
    last = max(1, _last_below(p) + past_edge)
    ks = np.arange(max(1, last - 40), last + 1)
    got = eval_value_array(parse(f"k^{p}"), ks)
    assert _bits(got) == _bits(np.power(ks.astype(np.float64), np.full(len(ks), float(p))))
    if last**p < 2**53:
        assert got.tolist() == [float(k**p) for k in ks.tolist()]


def _last_below(p: int) -> int:
    """The largest k with k^p below 2^53."""
    k = round(2 ** (53 / p))
    while k**p >= 2**53:
        k -= 1
    while (k + 1) ** p < 2**53:
        k += 1
    return k


def test_power_edges_are_the_last_terms_below_2_53():
    assert POWER_EDGES == {p: _last_below(p) for p in POWER_EDGES}


@st.composite
def _underflowing(draw):
    """``b^(c-k)`` or ``(p/q)^k``, and the first k whose p·log2 b is below
    the fill edge by more than 1: past it a piece reads +0.0 unpowered."""
    margin = 1.0 - exprdsl._UNDERFLOW_LOG2
    if draw(st.booleans()):
        b, c = draw(st.sampled_from(["2", "3", "10", "1.5"])), draw(st.integers(0, 5))
        return f"{b}^({c}-k)", c + math.floor(margin / math.log2(float(b))) + 1
    q = draw(st.integers(2, 9))
    p = draw(st.integers(1, q - 1))
    return f"({p}/{q})^k", math.floor(margin / math.log2(q / p)) + 1


@settings(max_examples=200, deadline=None)
@given(_underflowing(), st.integers(-300, 300), st.integers(1, 200))
@example(("2^(0-k)", 1082), 1, 200)  # wholly past the edge
@example(("(1/2)^k", 1082), 1075 - 1082, 8)  # across it
def test_underflowed_powers_read_plus_zero(power, offset, n):
    """Windows across the underflow edge and past it: the one-pass read is
    the checked replay's and the per-term read's bit for bit, its zeros are
    +0.0, and a window wholly past the edge calls no ``np.power``."""
    (src, edge), lo = power, max(1, power[1] + offset)
    ast, ks = parse(f"exp({src})"), range(lo, lo + n)
    with mock.patch.object(np, "power", wraps=np.power) as spy:
        got = eval_log_array(ast, ks)
    assert _bits(got) == _bits(exprdsl._checked(ast, float_index(lo, n), ks, True))
    assert _bits(got) == _bits([seq_from_expr(ast).log_at(k) for k in ks])
    assert not np.signbit(got).any()
    if lo > edge:
        assert spy.call_count == 0 and not got.any()
