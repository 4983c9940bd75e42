"""One read per view: a term's float64 log does not depend on how it is
asked for (``log_at``, ``log_points`` or a ``log_values`` window), over every
view kind on float and exact bases."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from geomseq import (
    DomainError,
    GNum,
    d_operator,
    delta_binomial,
    delta_recursive,
    seq_constant,
    seq_from_expr,
    seq_from_logs,
    seq_odot,
    seq_oplus,
)
from geomseq.gdiff import _DeltaBinomialView, _DeltaStepView
from geomseq.gseq import SparseLogSeq

#: Indices read per view stay at or below this.
TOP = 400

_BUFFER = np.random.default_rng(7).normal(0.0, 3.0, 600)
_POLE = "exp(ln(k)/(k-2))"  # a pole at k = 2, pinned away by D_3

FLOAT_BASES = {
    "exp(ln(k)/k)": lambda: seq_from_expr("exp(ln(k)/k)"),
    "exp(2^(0-k))": lambda: seq_from_expr("exp(2^(0-k))"),
    "exp(k^2+2^(0-k))": lambda: seq_from_expr("exp(k^2+2^(0-k))"),
    "exp(ln(k))": lambda: seq_from_expr("exp(ln(k))"),
    "buffer": lambda: seq_from_logs(_BUFFER),
    "sparse": lambda: SparseLogSeq({1: 0.5, 7: -2.0, 64: 3.25, 399: 1e-3}),
    "pinned pole": lambda: d_operator(seq_from_expr(_POLE), 3),
}
EXACT_BASES = {
    "exp(k^2)": lambda: seq_from_expr("exp(k^2)"),
    "exp(1/k)": lambda: seq_from_expr("exp(1/k)"),
    "exp(k^3/7)": lambda: seq_from_expr("exp(k^3/7)"),
    "constant": lambda: seq_constant(GNum(0.3)),
}
BASES = {**FLOAT_BASES, **EXACT_BASES}

orders = st.integers(0, 3)
leaves = st.sampled_from(sorted(BASES)).map(lambda name: (name, BASES[name]()))


def _wrap(children):
    def binary(op, sym):
        return st.tuples(children, children).map(
            lambda t: (f"({t[0][0]} {sym} {t[1][0]})", op(t[0][1], t[1][1]))
        )

    def unary(op, name):
        return st.tuples(children, orders).map(
            lambda t: (f"{name}^{t[1]}({t[0][0]})", op(t[0][1], t[1]))
        )

    return st.one_of(
        binary(seq_oplus, "+"),
        binary(seq_odot, "*"),
        unary(d_operator, "D"),
        unary(delta_recursive, "Drec"),
        unary(delta_binomial, "Dbin"),
    )


views = st.recursive(leaves, _wrap, max_leaves=3)

_settings = settings(
    max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _top(view) -> int:
    return min(TOP, view.length or TOP)


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def _outcome(fn, *args):
    """The float bits a call returns, or the error type it raises."""
    try:
        return _bits(fn(*args))
    except DomainError:
        return DomainError


def _reads_one_path(view) -> bool:
    """Windows and points agree for float views and for the difference
    views; an exact non-difference view reads points exactly, windows in
    float."""
    return not view.has_exact_logs or isinstance(view, (_DeltaStepView, _DeltaBinomialView))


@_settings
@given(views, st.data())
def test_points_equal_terms_bitwise(named, data):
    _, view = named
    top = _top(view)
    ks = sorted(set(data.draw(st.lists(st.integers(1, top), max_size=12))))
    want = [_outcome(view.log_at, k) for k in ks]
    if DomainError in want:
        with pytest.raises(DomainError):
            view.log_points(np.array(ks, dtype=np.int64))
    else:
        assert _bits(view.log_points(np.array(ks, dtype=np.int64))) == b"".join(want)


@_settings
@given(views, st.data())
def test_windows_are_prefix_stable_and_match_points(named, data):
    _, view = named
    top = _top(view)
    start = data.draw(st.integers(1, top))
    count = data.draw(st.integers(0, top - start + 1))
    cut = data.draw(st.integers(0, count))
    long = _outcome(view.log_values, start, count)
    if long is DomainError:
        return
    assert _outcome(view.log_values, start, cut) == long[: 8 * cut]
    if _reads_one_path(view):
        terms = [_outcome(view.log_at, k) for k in range(start, start + count)]
        assert long == b"".join(terms)


@pytest.mark.parametrize("base", sorted(BASES))
@pytest.mark.parametrize("m", [1, 2, 3])
def test_every_window_term_is_its_point(base, m):
    for view in (delta_binomial(BASES[base](), m), delta_recursive(BASES[base](), m)):
        top = _top(view)
        block = view.log_values(1, top)
        assert _bits(block) == _bits(view.log_points(np.arange(1, top + 1)))
        assert _bits(block) == _bits([view.log_at(k) for k in range(1, top + 1)])


@pytest.mark.parametrize("base", sorted(BASES) + ["exp(1e300*k)"])
def test_empty_reads(base):
    x = BASES[base]() if base in BASES else seq_from_expr(base)
    assert x.log_points(np.arange(1, 1)).shape == (0,)
    assert x.log_values(1, 0).shape == (0,)
    assert delta_binomial(x, 2).log_values(5, 0).shape == (0,)


class TestPinnedHead:
    def test_a_pinned_term_does_not_read_the_child(self):
        view = d_operator(seq_from_expr(_POLE), 3)
        with pytest.raises(DomainError):
            seq_from_expr(_POLE).log_at(2)
        assert view.log_at(2) == 0.0
        block = view.log_values(1, 6)
        assert _bits(block[:3]) == _bits([0.0] * 3)
        assert _bits(block) == _bits(view.log_points(np.arange(1, 7)))
        assert _bits(block[3:]) == _bits(seq_from_expr(_POLE).log_values(4, 3))

    def test_a_window_wholly_in_the_head_is_zero(self):
        view = d_operator(seq_from_logs([1.0, 2.0]), 5)
        assert _bits(view.log_values(1, 2)) == _bits([0.0, 0.0])
        assert _bits(view.log_points([1, 2])) == _bits([0.0, 0.0])
