import math
import re
import sys
from fractions import Fraction

import numpy as np
import pytest

from geomseq import DomainError, NonPositiveValue, ParseError, parse, to_source
from geomseq.exprdsl import (
    MAX_NESTING,
    eval_at,
    eval_exact,
    eval_log,
    eval_log_array,
    eval_log_exact,
    eval_value,
    eval_value_array,
)

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
