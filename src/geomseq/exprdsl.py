"""A tiny closed-form language for sequence terms in the free variable k.

Grammar (ASCII only, whitespace insignificant)::

    expr   := term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*
    factor := base ("^" factor)?          # right associative
    base   := NUMBER | "k" | "e" | "(" expr ")"
            | "exp" "(" expr ")" | "ln" "(" expr ")"
    NUMBER := digits ["." digits] [("e"|"E") ["+"|"-"] digits]

There are no negative literals; write ``0-k`` or parenthesize.  Expressions
denote ordinary real arithmetic.  A sequence whose source reads ``exp(f(k))``
is evaluated through its exponent: the log of the term is f(k) computed
directly, so e^(k^4) never exists as a float value.  Inner ``exp`` nodes
evaluate numerically and may overflow to a :class:`DomainError`.

Three evaluators and one lowering share the AST:

* :func:`eval_value` / :func:`eval_value_array` work in the value domain;
* :func:`eval_at` produces a :class:`GNum` using the top-level exp shortcut;
* :func:`lower_log` turns the log of the term into one exact rational
  function of k where the structure allows (rational exponents under exp,
  integer powers, products), for difference operators to cancel exactly;
* :func:`eval_exact` / :func:`eval_log_exact`, per term with Fractions, are
  the reference oracle for that lowering; no access path calls them.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation
from fractions import Fraction

import numpy as np

from .errors import DomainError, NonPositiveValue, ParseError
from .garith import GNum
from .ratfunc import Exact, NotExact, RatFunc

__all__ = [
    "ExprAst",
    "parse",
    "to_source",
    "eval_value",
    "eval_at",
    "eval_log",
]

# The per-term oracle declines (returns None) once integers grow past this.
# 2^600 is far beyond anything a difference of catalog exponents produces
# while still catching 2^(-k) style blowups.
_EXACT_LIMIT = 1 << 600


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class ExprAst:
    """One node: kind in {const, k, e, add, sub, mul, div, pow, exp, ln}.

    Constants carry their float value, the exact rational it denotes, and
    the literal text (used verbatim by the pretty printer).
    """

    kind: str
    children: tuple["ExprAst", ...] = ()
    value: float | None = None
    exact: Exact | None = None
    literal: str | None = None
    #: Levels from this node down to its deepest leaf; the evaluators and
    #: the printer recurse this deep.
    height: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        height = 1 + max((c.height for c in self.children), default=0)
        object.__setattr__(self, "height", height)


def _const_node(text: str, offset: int) -> ExprAst:
    try:
        dec = Decimal(text)
    except InvalidOperation:
        raise ParseError(f"bad numeric literal {text!r}", offset)
    value = float(dec)  # correctly rounded; inf or 0.0 past the float64 range
    if math.isinf(value) or (value == 0.0 and dec != 0):
        raise ParseError(f"numeric literal {text!r} outside the float64 range", offset)
    exact = Fraction(dec)
    if exact.denominator == 1:
        exact = int(exact)
    return ExprAst("const", value=value, exact=exact, literal=text)


# ---------------------------------------------------------------------------
# Tokenizer

_NUMBER_RE = re.compile(r"\d+(?:\.\d+)?(?:[eE][+-]?\d+)?")
_NAME_RE = re.compile(r"[A-Za-z]+")
_WS = " \t\r\n"
_SINGLE = {
    "+": "+",
    "-": "-",
    "*": "*",
    "/": "/",
    "^": "^",
    "(": "(",
    ")": ")",
}

_BASE_EXPECTED = ("number", "k", "e", "(", "exp", "ln")
_BINARY = {"+": "add", "-": "sub", "*": "mul", "/": "div"}

#: Deepest nesting the parser accepts, counted two ways: open parentheses,
#: ``exp(``/``ln(`` and ``^`` on the way down (the descent spends up to two
#: stack frames per level), and operator levels of the finished tree (which
#: a long ``k+k+...`` chain also builds).  Both stay well inside the
#: interpreter's default recursion limit.
MAX_NESTING = 200


@dataclass(frozen=True)
class _Token:
    kind: str  # number, k, e, exp, ln, + - * / ^ ( ), end
    text: str
    pos: int


def _tokenize(src: str) -> list[_Token]:
    out: list[_Token] = []
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch in _WS:
            i += 1
            continue
        if ord(ch) > 127:
            raise ParseError(f"non-ASCII character {ch!r}", i)
        if ch.isdigit():
            m = _NUMBER_RE.match(src, i)
            assert m is not None
            out.append(_Token("number", m.group(), i))
            i = m.end()
            continue
        if ch.isalpha():
            m = _NAME_RE.match(src, i)
            assert m is not None
            name = m.group()
            if name not in ("k", "e", "exp", "ln"):
                raise ParseError(
                    f"unknown name {name!r}", i, ("k", "e", "exp", "ln")
                )
            out.append(_Token(name, name, i))
            i = m.end()
            continue
        if ch in _SINGLE:
            out.append(_Token(ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    out.append(_Token("end", "", n))
    return out


# ---------------------------------------------------------------------------
# Parser (recursive descent, precedence climbing by grammar level)


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.i = 0
        self.depth = 0

    @property
    def cur(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.cur
        self.i += 1
        return tok

    def expect(self, kind: str, expected: tuple[str, ...]) -> _Token:
        if self.cur.kind != kind:
            raise ParseError(
                f"unexpected {self.cur.kind!r}", self.cur.pos, expected
            )
        return self.advance()

    def descend(self, expected: tuple[str, ...]) -> None:
        """Enter one nesting level at the current token."""
        if self.depth == MAX_NESTING:
            raise ParseError(
                f"nesting deeper than {MAX_NESTING} levels", self.cur.pos, expected
            )
        self.depth += 1

    def node(self, kind: str, children: tuple[ExprAst, ...], tok: _Token) -> ExprAst:
        """An operator node built at ``tok``, refused beyond the cap."""
        node = ExprAst(kind, children)
        if node.height > MAX_NESTING + 1:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", tok.pos)
        return node

    def parse(self) -> ExprAst:
        node = self.expr()
        if self.cur.kind != "end":
            raise ParseError(
                f"trailing input {self.cur.text!r}",
                self.cur.pos,
                ("+", "-", "*", "/", "^", "end of input"),
            )
        return node

    def expr(self) -> ExprAst:
        """Left-associative sums of products in one loop: two frames a level."""
        total = op = None
        node = self.factor()
        while self.cur.kind in _BINARY:
            tok = self.advance()
            if tok.kind in ("*", "/"):
                node = self.node(_BINARY[tok.kind], (node, self.factor()), tok)
                continue
            if total is not None:
                node = self.node(_BINARY[op.kind], (total, node), op)
            total, op = node, tok
            node = self.factor()
        if total is not None:
            node = self.node(_BINARY[op.kind], (total, node), op)
        return node

    def factor(self) -> ExprAst:
        """An atom, raised to a right-associative power when ``^`` follows."""
        tok = self.cur
        if tok.kind == "number":
            self.advance()
            node = _const_node(tok.text, tok.pos)
        elif tok.kind in ("k", "e"):
            self.advance()
            node = ExprAst(tok.kind)
        elif tok.kind in ("(", "exp", "ln"):
            self.descend(("number", "k", "e"))
            self.advance()
            if tok.kind != "(":
                self.expect("(", ("(",))
            node = self.expr()
            self.expect(")", (")",))
            self.depth -= 1
            if tok.kind != "(":
                node = self.node(tok.kind, (node,), tok)
        else:
            raise ParseError(f"unexpected {tok.kind!r}", tok.pos, _BASE_EXPECTED)
        if self.cur.kind == "^":
            self.descend(("+", "-", "*", "/", ")", "end of input"))
            tok = self.advance()
            rhs = self.factor()  # right associative
            self.depth -= 1
            node = self.node("pow", (node, rhs), tok)
        return node


def parse(src: str) -> ExprAst:
    """Parse source text into an AST, or raise ParseError with offset."""
    if not isinstance(src, str) or not src.strip():
        raise ParseError("empty expression", 0, _BASE_EXPECTED)
    parser = _Parser(src)
    try:
        return parser.parse()
    except RecursionError:  # the caller's own stack left too little room
        raise ParseError("nesting too deep for the interpreter stack", parser.cur.pos) from None


# ---------------------------------------------------------------------------
# Pretty printer.  Minimal parentheses; reparses to the same AST and is a
# fixed point of parse-then-print.

_PREC = {"add": 1, "sub": 1, "mul": 2, "div": 2, "pow": 3}
_ATOM_PREC = 4


def to_source(node: ExprAst) -> str:
    text, _ = _render(node)
    return text


def _render(node: ExprAst) -> tuple[str, int]:
    if node.kind == "const":
        return node.literal or f"{node.value:g}", _ATOM_PREC
    if node.kind == "k":
        return "k", _ATOM_PREC
    if node.kind == "e":
        return "e", _ATOM_PREC
    if node.kind in ("exp", "ln"):
        inner, _ = _render(node.children[0])
        return f"{node.kind}({inner})", _ATOM_PREC
    a, b = node.children
    prec = _PREC[node.kind]
    if node.kind == "pow":
        # bases are grammar atoms; exponents rebind at the same level
        left = _wrap(a, _ATOM_PREC)
        right = _wrap(b, prec)
    else:
        left = _wrap(a, prec)
        right = _wrap(b, prec + 1)
    op = {"add": "+", "sub": "-", "mul": "*", "div": "/", "pow": "^"}[node.kind]
    return f"{left}{op}{right}", prec


def _wrap(node: ExprAst, min_prec: int) -> str:
    text, prec = _render(node)
    if prec < min_prec:
        return f"({text})"
    return text


# ---------------------------------------------------------------------------
# Value-domain evaluation (scalar)


def _check_k(k: int) -> int:
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < 1:
        raise DomainError(f"sequence index must be a positive integer, got {k!r}")
    return int(k)


def eval_value(node: ExprAst, k: int) -> float:
    """Plain real evaluation at integer index k (k >= 1)."""
    _check_k(k)
    kind = node.kind
    if kind == "const":
        return node.value  # type: ignore[return-value]
    if kind == "k":
        return float(k)
    if kind == "e":
        return math.e
    if kind in ("add", "sub", "mul", "div", "pow"):
        a = eval_value(node.children[0], k)
        b = eval_value(node.children[1], k)
        try:
            if kind == "add":
                return a + b
            if kind == "sub":
                return a - b
            if kind == "mul":
                return a * b
            if kind == "div":
                return a / b
            return a**b
        except ZeroDivisionError:
            raise DomainError(f"division by zero at k={k}")
        except OverflowError:
            raise DomainError(f"overflow evaluating {to_source(node)!r} at k={k}")
        except ValueError:
            raise DomainError(
                f"invalid power in {to_source(node)!r} at k={k}"
            )
    if kind == "exp":
        a = eval_value(node.children[0], k)
        try:
            return math.exp(a)
        except OverflowError:
            raise DomainError(f"inner exp overflow at k={k}")
    if kind == "ln":
        a = eval_value(node.children[0], k)
        if a <= 0:
            raise DomainError(f"ln of non-positive value {a!r} at k={k}")
        return math.log(a)
    raise DomainError(f"unknown node kind {kind!r}")


def eval_at(node: ExprAst, k: int) -> GNum:
    """Evaluate as a geometric number at index k (k >= 1).

    A top-level ``exp(f(k))`` becomes ``GNum.from_log(f(k))`` without ever
    forming the exponential; anything else is evaluated as a value and must
    come out strictly positive.
    """
    _check_k(k)
    if node.kind == "exp":
        u = eval_value(node.children[0], k)
        return GNum.from_log(u)
    v = eval_value(node, k)
    return GNum.from_value(v)


def eval_log(node: ExprAst, k: int) -> float:
    return eval_at(node, k).log_value


# ---------------------------------------------------------------------------
# Value-domain evaluation (vectorized)


def eval_value_array(node: ExprAst, ks: np.ndarray) -> np.ndarray:
    """Vectorized :func:`eval_value` over an integer index array."""
    ks = np.asarray(ks)
    if ks.size and int(ks.min()) < 1:
        raise DomainError(
            f"sequence indices must be positive integers, got {int(ks.min())}"
        )
    with np.errstate(all="ignore"):
        vals = _value_array(node, ks)
    if not np.all(np.isfinite(vals)):
        bad = int(ks[np.nonzero(~np.isfinite(vals))[0][0]])
        raise DomainError(f"overflow evaluating {to_source(node)!r} at k={bad}")
    return vals


def _value_array(node: ExprAst, ks: np.ndarray) -> np.ndarray:
    kind = node.kind
    if kind == "const":
        return np.full(ks.shape, node.value, dtype=np.float64)
    if kind == "k":
        return ks.astype(np.float64)
    if kind == "e":
        return np.full(ks.shape, math.e, dtype=np.float64)
    if kind in ("add", "sub", "mul", "div", "pow"):
        a = _value_array(node.children[0], ks)
        b = _value_array(node.children[1], ks)
        if kind == "add":
            return a + b
        if kind == "sub":
            return a - b
        if kind == "mul":
            return a * b
        if kind == "div":
            if np.any(b == 0.0):
                bad = int(ks[np.nonzero(b == 0.0)[0][0]])
                raise DomainError(f"division by zero at k={bad}")
            return a / b
        return np.power(a, b)
    if kind == "exp":
        a = _value_array(node.children[0], ks)
        out = np.exp(a)
        if not np.all(np.isfinite(out)):
            bad = int(ks[np.nonzero(~np.isfinite(out))[0][0]])
            raise DomainError(f"inner exp overflow at k={bad}")
        return out
    if kind == "ln":
        a = _value_array(node.children[0], ks)
        if np.any(a <= 0.0):
            bad = int(ks[np.nonzero(a <= 0.0)[0][0]])
            raise DomainError(f"ln of non-positive value at k={bad}")
        return np.log(a)
    raise DomainError(f"unknown node kind {kind!r}")


def eval_log_array(node: ExprAst, ks: np.ndarray) -> np.ndarray:
    """Vectorized log-domain evaluation with the top-level exp shortcut."""
    if node.kind == "exp":
        logs = eval_value_array(node.children[0], ks)
        if not np.all(np.isfinite(logs)):
            bad = int(ks[np.nonzero(~np.isfinite(logs))[0][0]])
            raise DomainError(f"non-finite exponent at k={bad}")
        return logs
    vals = eval_value_array(node, ks)
    if not np.all(np.isfinite(vals) & (vals > 0.0)):
        bad = int(ks[np.nonzero(~(np.isfinite(vals) & (vals > 0.0)))[0][0]])
        raise NonPositiveValue(
            f"sequence value must be strictly positive and finite at k={bad}"
        )
    return np.log(vals)


# ---------------------------------------------------------------------------
# Exact rational evaluation.  Returns None where no (cheaply bounded) exact
# form exists; errors mirror the float path so behaviour never depends on
# which evaluator ran first.


def _guard(r: Exact | None) -> Exact | None:
    if r is None:
        return None
    if isinstance(r, Fraction):
        if r.denominator == 1:
            r = int(r)
        elif abs(r.numerator) > _EXACT_LIMIT or r.denominator > _EXACT_LIMIT:
            return None
    if isinstance(r, int) and abs(r) > _EXACT_LIMIT:
        return None
    return r


def eval_exact(node: ExprAst, k: int) -> Exact | None:
    """Exact rational value of the expression at k, or None."""
    _check_k(k)
    kind = node.kind
    if kind == "const":
        return node.exact
    if kind == "k":
        return int(k)
    if kind in ("e", "exp", "ln"):
        return None
    a = eval_exact(node.children[0], k)
    if a is None:
        return None
    b = eval_exact(node.children[1], k)
    if b is None:
        return None
    if kind == "add":
        return _guard(a + b)
    if kind == "sub":
        return _guard(a - b)
    if kind == "mul":
        return _guard(a * b)
    if kind == "div":
        if b == 0:
            raise DomainError(f"division by zero at k={k}")
        return _guard(Fraction(a) / b)
    # pow: integer exponents only
    if isinstance(b, Fraction):
        return None
    if a == 0 and b < 0:
        raise DomainError(f"division by zero at k={k}")
    base_bits = abs(a).bit_length() if isinstance(a, int) else max(
        abs(a.numerator).bit_length(), a.denominator.bit_length()
    )
    if base_bits * abs(b) > 700:  # pre-guard: do not build huge powers
        return None
    if b >= 0:
        return _guard(a**b)
    return _guard(Fraction(a) ** b)


def eval_log_exact(node: ExprAst, k: int) -> Exact | None:
    """Exact rational log of the term value at k, or None.

    Recognizes exp(rational), the constant e, integer/rational powers of
    exactly-logged bases, products and quotients of them, and the constant 1.
    """
    kind = node.kind
    if kind == "e":
        return 1
    if kind == "exp":
        return eval_exact(node.children[0], k)
    if kind == "const":
        return 0 if node.exact == 1 else None
    if kind == "mul":
        la = eval_log_exact(node.children[0], k)
        if la is None:
            return None
        lb = eval_log_exact(node.children[1], k)
        if lb is None:
            return None
        return _guard(la + lb)
    if kind == "div":
        la = eval_log_exact(node.children[0], k)
        if la is None:
            return None
        lb = eval_log_exact(node.children[1], k)
        if lb is None:
            return None
        return _guard(la - lb)
    if kind == "pow":
        lb = eval_log_exact(node.children[0], k)
        if lb is None:
            return None
        p = eval_exact(node.children[1], k)
        if p is None:
            return None
        return _guard(p * lb if isinstance(p, int) else Fraction(p) * lb)
    if kind in ("add", "sub"):
        v = eval_exact(node, k)
        return 0 if v == 1 else None
    if kind == "k":
        return 0 if k == 1 else None
    return None


# ---------------------------------------------------------------------------
# Lowering to one exact rational function of k: the structural twin of
# eval_log_exact, decided once per expression instead of per term.


def lower_log(node: ExprAst) -> RatFunc | None:
    """The exact log of the term as a rational function of k, or None.

    :func:`eval_log_exact`'s rules on structure alone: ``e`` is 1, ``exp(V)``
    is V, the constant 1 is 0, ``*`` and ``/`` add and subtract logs, ``b^p``
    is V(p) times the log of b.  A value V is built from constants, k,
    ``+ - * /`` and constant integer powers.  Anything else is None: ``ln``,
    an inner ``exp``, ``e`` in a value, other powers, degrees past
    :data:`geomseq.ratfunc.MAX_DEGREE`.
    """
    try:
        return _lower_log(node)
    except NotExact:
        return None


_ARITH = {"add": operator.add, "sub": operator.sub, "mul": operator.mul, "div": lambda a, b: a * b**-1}


def _lower_log(node: ExprAst) -> RatFunc:
    kind, ch = node.kind, node.children
    if kind == "e":
        return RatFunc.const(1)
    if kind == "exp":
        return _lower_value(ch[0])
    if kind == "const" and node.exact == 1:
        return RatFunc.const(0)
    if kind in ("mul", "div"):
        return _ARITH["add" if kind == "mul" else "sub"](_lower_log(ch[0]), _lower_log(ch[1]))
    if kind == "pow":
        return _lower_value(ch[1]) * _lower_log(ch[0])
    raise NotExact(kind)


def _lower_value(node: ExprAst) -> RatFunc:
    kind, ch = node.kind, node.children
    if kind == "const":
        return RatFunc.const(node.exact)
    if kind == "k":
        return RatFunc((0, 1))
    if kind == "pow":
        p = _lower_value(ch[1]).constant()
        if p is None or p.denominator != 1:
            raise NotExact("power without a constant integer exponent")
        return _lower_value(ch[0]) ** int(p)
    if kind in _ARITH:
        return _ARITH[kind](_lower_value(ch[0]), _lower_value(ch[1]))
    raise NotExact(kind)
