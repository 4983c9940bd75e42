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

One ASCII-only regular expression scans the source; any character it
does not take as whitespace, a number, a name or an operator is an error at
its offset.  One table, ``_ARITH``, says what each ``+ - * / ^`` node
computes, for every evaluator and the lowering alike.

Two evaluators and one lowering share the AST:

* :func:`eval_value` / :func:`eval_value_array` work in the value domain;
* :func:`eval_at` produces a :class:`GNum` using the top-level exp shortcut;
* :func:`lower_log` turns the log of the term into one exact rational
  function of k where the structure allows (rational exponents under exp,
  integer powers, products), for difference operators to cancel exactly.

The per-term Fraction oracle that the tests hold the lowering against lives
in ``tests/exact_oracle.py``; no access path needs it.
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

#: What each binary node computes, in the evaluators and the lowering; the
#: lowering takes ``pow`` only with a constant integer exponent, by a rule
#: of its own.
_ARITH = {
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "div": operator.truediv,
    "pow": operator.pow,
}


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

#: One pattern scans the whole source: whitespace (unnamed), a number, a
#: name, an operator, or any other character, which is an error.  ASCII
#: classes only, so Unicode digits, letters and spaces fall to ``bad``.
_TOKEN_RE = re.compile(
    r"[ \t\r\n]+|(?P<number>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)|(?P<name>[A-Za-z]+)"
    r"|(?P<op>[-+*/^()])|(?P<bad>.)",
    re.ASCII | re.DOTALL,
)

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
    for m in _TOKEN_RE.finditer(src):
        kind, text, pos = m.lastgroup, m.group(), m.start()
        if kind == "bad":
            what = "non-ASCII" if ord(text) > 127 else "unexpected"
            raise ParseError(f"{what} character {text!r}", pos)
        if kind == "name" and text not in ("k", "e", "exp", "ln"):
            raise ParseError(f"unknown name {text!r}", pos, ("k", "e", "exp", "ln"))
        if kind is not None:
            out.append(_Token("number" if kind == "number" else text, text, pos))
    out.append(_Token("end", "", len(src)))
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
    if kind in _ARITH:
        a = eval_value(node.children[0], k)
        b = eval_value(node.children[1], k)
        try:
            return _ARITH[kind](a, b)
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
        bad = _first(ks, ~np.isfinite(vals))
        raise DomainError(f"overflow evaluating {to_source(node)!r} at k={bad}")
    return vals


def _first(ks: np.ndarray, mask: np.ndarray) -> int:
    """The index at the first True of ``mask``, for an error message."""
    return int(ks[np.nonzero(mask)[0][0]])


def _value_array(node: ExprAst, ks: np.ndarray) -> np.ndarray:
    kind = node.kind
    if kind == "const":
        return np.full(ks.shape, node.value, dtype=np.float64)
    if kind == "k":
        return ks.astype(np.float64)
    if kind == "e":
        return np.full(ks.shape, math.e, dtype=np.float64)
    if kind in _ARITH:
        a = _value_array(node.children[0], ks)
        b = _value_array(node.children[1], ks)
        if kind == "div" and np.any(b == 0.0):
            raise DomainError(f"division by zero at k={_first(ks, b == 0.0)}")
        return _ARITH[kind](a, b)
    if kind == "exp":
        out = np.exp(_value_array(node.children[0], ks))
        if not np.all(np.isfinite(out)):
            raise DomainError(f"inner exp overflow at k={_first(ks, ~np.isfinite(out))}")
        return out
    if kind == "ln":
        a = _value_array(node.children[0], ks)
        if np.any(a <= 0.0):
            raise DomainError(f"ln of non-positive value at k={_first(ks, a <= 0.0)}")
        return np.log(a)
    raise DomainError(f"unknown node kind {kind!r}")


def eval_log_array(node: ExprAst, ks: np.ndarray) -> np.ndarray:
    """Vectorized log-domain evaluation with the top-level exp shortcut.

    :func:`eval_value_array` returns finite values only.
    """
    if node.kind == "exp":
        return eval_value_array(node.children[0], ks)
    vals = eval_value_array(node, ks)
    if np.any(vals <= 0.0):
        bad = _first(ks, vals <= 0.0)
        raise NonPositiveValue(f"sequence value must be strictly positive and finite at k={bad}")
    return np.log(vals)


# ---------------------------------------------------------------------------
# Lowering to one exact rational function of k, decided once per expression
# instead of per term.


def lower_log(node: ExprAst) -> RatFunc | None:
    """The exact log of the term as a rational function of k, or None.

    Decided on structure alone: ``e`` is 1, ``exp(V)`` is V, the constant 1
    is 0, ``*`` and ``/`` add and subtract logs, ``b^p`` is V(p) times the
    log of b.  A value V is built from constants, k, ``+ - * /`` and
    constant integer powers.  Anything else is None: ``ln``, an inner
    ``exp``, ``e`` in a value, other powers, degrees past
    :data:`geomseq.ratfunc.MAX_DEGREE`.
    """
    try:
        return _lower_log(node)
    except NotExact:
        return None


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
