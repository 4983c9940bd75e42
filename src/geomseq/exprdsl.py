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
evaluate numerically and may overflow to a :class:`DomainError`.  A float
power b^p with b > 0 and p·log2 b < -1080 is +0.0, what Python's ``**``
gives, without computing it: a power under 2^-1075 rounds to zero, and the
five-binade margin covers the rounding of p·log2 b and of ``pow``.  ``k^p``
with a constant integer p >= 2 is the product of p copies of k while the
largest k^p is below 2^53: exact, so the same bits as ``pow``.

One ASCII-only regular expression scans the source; any character it
does not take as whitespace, a number, a name or an operator is an error at
its offset.  One table, ``_ARITH``, says what each ``+ - * / ^`` node
computes, for the evaluator and the lowering alike.

One float evaluator and one lowering share the AST:

* :func:`eval_value_array` reads the values over a 1-d index array (or a
  ``range``, whose float index is :func:`geomseq.ratfunc.float_index`) and
  :func:`eval_log_array` the logs, with the top-level exp shortcut;
  :func:`eval_value`, :func:`eval_at` and :func:`eval_log` read one term as
  a one-term array, so a term's bits do not depend on how it is asked for.
  Each read runs the interpreter once without its per-node checks, under
  trapping divide, overflow and invalid float flags, and checks only that
  the result is finite.  Only when a flag fires or the result is not finite
  does it replay the interpreter with every check, which raises the fault
  of the first failing term in the order of the indices (at that term its
  innermost fault) or returns the values;
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
from .ratfunc import _EXACT_INTS, INDEX_SPAN, Exact, NotExact, RatFunc, float_index  # noqa: F401

__all__ = [
    "ExprAst",
    "parse",
    "to_source",
    "eval_value",
    "eval_at",
    "eval_log",
]

#: What each binary node computes, in the evaluator and the lowering; the
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
    #: Levels from this node down to its deepest leaf; the evaluator and
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
# Evaluation.  One float interpreter, over index arrays; a public scalar read
# is the read of a one-term array.


def _check_k(k: int) -> int:
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or not 1 <= k < 2**63:
        raise DomainError(f"sequence index must be an integer in 1..2^63-1, got {k!r}")
    return int(k)


#: The p·log2 b below which a power of a positive base reads as +0.0.
_UNDERFLOW_LOG2 = -1080.0

#: The constant exponents p that ``k^p`` may take as a product of p copies
#: of k, by float: past p = 52 every k >= 2 has k^p beyond 2^53.
_PRODUCTS = {float(p): p for p in range(2, 53)}

def _indices(ks) -> tuple[np.ndarray, np.ndarray | range]:
    """The float index of ``ks`` and, for the replay's messages, the indices
    themselves: a 1-d integer array, or a ``range`` of step 1, whose float
    index up to 2^53 (:func:`~geomseq.ratfunc.float_index`) needs no int64
    array.  Each index must be an integer in 1..2^63-1."""
    if isinstance(ks, range) and ks.step == 1:
        if len(ks) and ks.start < 1:
            raise DomainError(f"sequence indices must be positive integers, got {ks.start}")
        if ks.stop <= _EXACT_INTS:
            return float_index(ks.start, len(ks)), ks
        if len(ks):
            _check_k(ks[-1])
        ks = ks.start + np.arange(len(ks), dtype=np.int64)
    ks = np.asarray(ks)
    if not np.issubdtype(ks.dtype, np.integer):  # a bool or a float is no index
        ks = np.array([_check_k(k) for k in ks.tolist()], dtype=np.int64)
    if ks.size and int(ks.min()) < 1:
        raise DomainError(f"sequence indices must be positive integers, got {int(ks.min())}")
    if ks.size and int(ks.max()) >= 2**63:
        _check_k(int(ks.max()))
    return ks.astype(np.float64), ks


def eval_value_array(node: ExprAst, ks) -> np.ndarray:
    """The real values at an integer index array (or ``range``), all finite:
    the one float interpreter, which :func:`eval_value` reads at a single
    term."""
    return _evaluate(node, ks, log=False)


def eval_log_array(node: ExprAst, ks) -> np.ndarray:
    """Vectorized log-domain evaluation with the top-level exp shortcut: the
    log of ``exp(f)`` is the value of f, anything else is evaluated as a
    value and must come out strictly positive."""
    return _evaluate(node, ks, log=True)


def _target(node: ExprAst, log: bool) -> tuple[ExprAst, bool]:
    """The node whose values a read evaluates, and whether it takes their
    log: the log of ``exp(f)`` is the value of f."""
    if log and node.kind == "exp":
        return node.children[0], False
    return node, log


def _evaluate(node: ExprAst, ks, log: bool) -> np.ndarray:
    """The values, or with ``log`` the logs, at the indices ``ks``: one
    unchecked pass under trapping float flags, replayed by :func:`_checked`
    only on a flag or a result that is not finite (Demmel and Li, *Faster
    numerical algorithms via exception handling*, IEEE Trans. Comput. 43,
    1994).  Index and literals are finite, so each fault a check looks for
    (a zero divisor, an inner ``exp`` or a result past float64, ``ln`` or
    log of a value <= 0, a faulting power) raises a flag where it is made;
    the replay also returns values a flag ends in, as 1/(k^400) reads 0.0
    past the overflow of k^400.  An underflow is no fault."""
    x, ks = _indices(ks)
    target, log = _target(node, log)
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise", under="ignore"):
            vals = _value_array(target, x)
            if np.isfinite(vals).all():
                return np.log(vals) if log else vals
    except FloatingPointError:
        pass
    return _checked(target, x, ks, log)


def _checked(node: ExprAst, x: np.ndarray, ks: np.ndarray | range, log: bool) -> np.ndarray:
    """:func:`_evaluate`'s replay, and the reference its first pass is held
    to: the interpreter with every check, at the float index ``x`` of ``ks``,
    a window or int64 indices.  It raises the first failing term's fault in
    the order of ``ks``, its innermost one, the one a read of that term alone
    raises: a node records where it faults after its children do."""
    target, log = _target(node, log)
    faults: list = []
    with np.errstate(all="ignore"):
        vals = _value_array(target, x, faults)
        faults.append((~np.isfinite(vals), DomainError, f"overflow evaluating {to_source(target)!r}"))
        if log:
            positive = "sequence value must be strictly positive and finite"
            faults.append((vals <= 0.0, NonPositiveValue, positive))
    masks = [np.broadcast_to(mask, x.shape) for mask, _, _ in faults]
    for i in np.flatnonzero(np.any(masks, axis=0))[:1]:  # the first failing term
        error, what = next(fault[1:] for fault, mask in zip(faults, masks) if mask[i])
        raise error(f"{what} at k={int(ks[i])}")
    return np.log(vals) if log else vals


def _value_array(
    node: ExprAst, x: np.ndarray, faults: list | None = None, scalar: bool = False
) -> np.ndarray:
    """The values of ``node`` at the float index ``x``; given ``faults``
    (the replay), each check appends its ``(mask, error, message)``."""
    kind = node.kind
    if kind in ("const", "e"):  # a float64 scalar, if asked, reads as its full array in + - * /
        value = np.float64(math.e if kind == "e" else node.value)
        return value if scalar else np.full(x.shape, value)
    if kind == "k":
        return x
    if kind == "pow":  # full arrays: numpy's scalar-exponent powers differ in the last bit
        return _power(node, *(_value_array(child, x, faults) for child in node.children), faults)
    if kind in _ARITH:
        a, b = (_value_array(child, x, faults, scalar=True) for child in node.children)
        if faults is not None and kind == "div":
            faults.append((b == 0.0, DomainError, "division by zero"))
        out = _ARITH[kind](a, b)
        return out if isinstance(out, np.ndarray) else np.full(x.shape, out)
    if kind == "exp":
        out = np.exp(_value_array(node.children[0], x, faults))
        if faults is not None:
            faults.append((~np.isfinite(out), DomainError, "inner exp overflow"))
        return out
    if kind == "ln":
        a = _value_array(node.children[0], x, faults)
        if faults is not None:
            faults.append((a <= 0.0, DomainError, "ln of non-positive value"))
        return np.log(a)
    raise DomainError(f"unknown node kind {kind!r}")


def _power(node: ExprAst, a: np.ndarray, b: np.ndarray, faults: list | None) -> np.ndarray:
    """``a ^ b`` term by term by ``np.power``, faulting (given ``faults``)
    where Python's ``**`` raises and filling +0.0, as ``**`` reads it, where p·log2 b
    < :data:`_UNDERFLOW_LOG2` (underflowing ``np.power`` takes libm's slow
    path).  p·log2 b is bilinear, so its corners over the ranges of a and b
    settle most pieces first: nothing is filled when every corner is at or
    above the edge, and everything, with no mask and no ``np.power``, when
    every corner is below it by 1 (far more than ``math.log2`` and
    ``np.log2`` differ by).

    ``k^p`` for a constant integer p >= 2 is the product of p copies of k
    while the largest k^p is below 2^53: every partial product is then an
    integer float64 holds, so the product is exact and equals ``pow``'s
    exactly rounded result.
    """
    if not a.size:
        return np.power(a, b)
    base, exponent = node.children
    if exponent.kind == "const":
        p = _PRODUCTS.get(exponent.value) if base.kind == "k" else None
        if p is not None and int(a.max()) ** p < _EXACT_INTS:
            out = a * a
            for _ in range(p - 2):
                out *= a
            return out
        ps = (exponent.value,)
    else:
        ps = (float(b.min()), float(b.max()))
    lo = float(a.min())
    if lo > 0.0:
        bases = (lo,) if min(ps) >= 0.0 else (lo, float(a.max()))
        if all(math.log2(u) * p >= _UNDERFLOW_LOG2 for u in bases for p in ps):
            return np.power(a, b)
        bases = (lo,) if max(ps) <= 0.0 else (lo, float(a.max()))
        if all(math.log2(u) * p < _UNDERFLOW_LOG2 - 1.0 for u in bases for p in ps):
            return np.zeros(a.shape)
    with np.errstate(all="ignore"):  # the fill mask is no value: a base <= 0 is no fault here
        fill = (a > 0.0) & (b * np.log2(a) < _UNDERFLOW_LOG2)
    out = np.power(a, b, out=np.zeros(a.shape), where=~fill)
    if faults is not None and not lo > 0.0:  # a zero or negative base (or NaN) may fault
        zero = (a == 0.0) & (b < 0.0) & np.isfinite(b)  # 0.0 ** -inf is inf
        faults.append((zero, DomainError, "division by zero"))
        invalid = np.isnan(out) & ~np.isnan(a) & ~np.isnan(b)
        faults.append((invalid, DomainError, f"invalid power in {to_source(node)!r}"))
    return out


def eval_value(node: ExprAst, k: int) -> float:
    """Plain real evaluation at integer index k (k >= 1)."""
    return float(eval_value_array(node, np.array([_check_k(k)]))[0])


def eval_at(node: ExprAst, k: int) -> GNum:
    """Evaluate as a geometric number at index k (k >= 1).

    A top-level ``exp(f(k))`` becomes the log f(k) without ever forming the
    exponential; anything else is evaluated as a value and must come out
    strictly positive (see :func:`eval_log_array`).
    """
    return GNum(float(eval_log_array(node, np.array([_check_k(k)]))[0]))


def eval_log(node: ExprAst, k: int) -> float:
    return eval_at(node, k).log_value


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
