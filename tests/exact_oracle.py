"""The per-term Fraction oracle for :func:`geomseq.exprdsl.lower_log`.

:func:`eval_exact` and :func:`eval_log_exact` read one term at a time with
Python ints and Fractions.  No access path of the package calls them; the
tests hold the lowering and the exact blocks built from it against them.
"""

from __future__ import annotations

from fractions import Fraction

from geomseq.errors import DomainError
from geomseq.exprdsl import _ARITH, ExprAst, _check_k
from geomseq.ratfunc import Exact

# The per-term oracle declines (returns None) once integers grow past this.
# 2^600 is far beyond anything a difference of catalog exponents produces
# while still catching 2^(-k) style blowups.
_EXACT_LIMIT = 1 << 600


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
    if kind == "div":
        if b == 0:
            raise DomainError(f"division by zero at k={k}")
        a = Fraction(a)
    if kind != "pow":
        return _guard(_ARITH[kind](a, b))
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
