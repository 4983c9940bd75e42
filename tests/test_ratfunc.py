"""RatFunc.values against RatFunc.at: one float64 Horner pass below 2^53,
Python ints past it, bit for bit the same as the scalar read."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from geomseq import DomainError
from geomseq.gseq import SUM_CHUNK
from geomseq.ratfunc import RatFunc


def _ints(bits: int):
    """Integers of up to ``bits`` bits, either sign, every size drawn alike."""
    return st.integers(0, bits).flatmap(lambda b: st.integers(-(2**b), 2**b))


#: [] is the zero numerator; a factor may have a negative leading coefficient
#: or be all zeros (a pole at every k).
numerators = st.lists(_ints(62), max_size=4)
denominators = st.lists(st.lists(_ints(20), min_size=1, max_size=3).map(tuple), max_size=3)
_k = st.integers(0, 31).flatmap(lambda b: st.integers(1, 2**b))
index_arrays = st.one_of(
    st.lists(_k, max_size=12).map(lambda ks: np.array(ks, dtype=np.int64)),
    st.tuples(st.integers(1, 3), st.integers(0, 4)).flatmap(
        lambda shape: st.lists(_k, min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]).map(
            lambda ks: np.array(ks, dtype=np.int64).reshape(shape)
        )
    ),
)


@st.composite
def forms(draw):
    """(num, den, ks); half the numerators get a leading coefficient that puts
    their bound at max(ks) between 2^52 and 2^54, around the float64 switch."""
    num, den, ks = draw(numerators), draw(denominators), draw(index_arrays)
    if num and ks.size and draw(st.booleans()):
        k_max, target = int(ks.max()), draw(st.integers(2**52, 2**54))
        rest = sum(abs(c) * k_max**i for i, c in enumerate(num[:-1]))
        num[-1] = max(1, (target - rest) // k_max ** (len(num) - 1)) * (-1 if num[-1] < 0 else 1)
    return num, den, ks


@settings(max_examples=400, deadline=None)
@given(forms())
# bound exactly 2^53 (float64 Horner) and 2^53 + 1 (Python ints) at k_max = 2,
# on the numerator and on the denominator; float64 Horner would round
# 2^52 * 2 + 1 to 2^53 and miss the correctly rounded quotient
@example(([0, 2**52], [(3,)], np.array([1, 2])))
@example(([1, 2**52], [(3,)], np.array([1, 2])))
@example(([3], [(2**52, 2**51)], np.array([1, 2])))
@example(([3], [(1, 2**52)], np.array([1, 2])))
# 0 / (-k) is +0.0, not -0.0
@example(([], [(0, -1)], np.array([[1, 2, 3]])))
# poles: the first k in index order is named
@example(([1], [(-3, 1), (0, 1)], np.array([5, 3, 4])))
@example(([1], [()], np.array([[7], [2]])))
def test_values_equal_the_point_reads(form):
    num, den, ks = form
    r = RatFunc(num, den)
    want = []
    for k in ks.flat:
        try:
            want.append(float.hex(r.at(int(k))))
        except DomainError as exc:
            with pytest.raises(DomainError) as got:
                r.values(ks)
            assert str(got.value) == str(exc)
            return
    got = r.values(ks)
    assert got.dtype == np.float64 and got.shape == ks.shape
    assert [float.hex(v) for v in got.flat] == want


def _bound_ok(r: RatFunc, k: int) -> bool:
    return all(sum(abs(c) * k**i for i, c in enumerate(p)) <= 2**53 for p in (r.num, r.den_poly))


def _switch(r: RatFunc) -> int:
    """The largest k whose window still reads in float64 (0 when none does)."""
    lo, hi = 0, 2**63
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if _bound_ok(r, mid) else (lo, mid)
    return lo


#: Degree 0 (a constant, the pole constant), d = 1 polynomials, and powers
#: whose quotients pass float64 (k^20) or underflow to -0.0 (-1/k^40) in the
#: windows drawn below.
special_forms = st.sampled_from(
    [((7,), ()), ((-3,), [(6,)]), ((), [(-5,)]), ((1,), [()]), ((0, 1), ()), ((5, -2, 1), ()),
     ((0,) * 20 + (1,), ()), ((1,), [(0,) * 40 + (-1,)])]
)


@st.composite
def windows(draw):
    """A form and a window of n terms: low, ending around the form's float64
    switch point or around 2^53, or at the last index 2^63 - 1."""
    num, den = draw(st.one_of(st.tuples(numerators, denominators), st.tuples(numerators, st.just(())), special_forms))
    r = RatFunc(num, den)
    n = draw(st.sampled_from([0, 1, 17, SUM_CHUNK]))
    where = draw(st.sampled_from(["low", "switch", "2^53", "top"]))
    last = {"low": n, "switch": _switch(r), "2^53": 2**53, "top": 2**63 - 1}[where]
    last += draw(st.integers(-2, 0 if where == "top" else 2))
    lo = min(max(1, last - n + 1), 2**63 - max(n, 1))
    return r, range(lo, lo + n)


@settings(max_examples=150, deadline=None)
@given(windows())
# -1/k^40 underflows to -0.0 from about k = 2^27 on, in Python ints
@example((RatFunc((1,), [(0,) * 40 + (-1,)]), range(2**53, 2**53 + 17)))
# k^20 passes float64 from about k = 2^51.2 on
@example((RatFunc((0,) * 20 + (1,)), range(2**63 - 17, 2**63)))
@example((RatFunc((1,), [()]), range(5, 5 + SUM_CHUNK)))
def test_windows_and_index_arrays_equal_the_point_reads(form):
    """values(range), values(int64 array) and the point reads agree bit for
    bit, zero signs included, or raise the same DomainError text."""
    r, ks = form
    array = ks.start + np.arange(len(ks), dtype=np.int64)
    try:
        want = np.array([r.at(k) for k in ks]).tobytes()
    except DomainError as exc:
        for read in (ks, array):
            with pytest.raises(DomainError) as got:
                r.values(read)
            assert str(got.value) == str(exc)
        return
    for read in (ks, array):
        got = r.values(read)
        assert got.dtype == np.float64 and got.shape == (len(ks),)
        assert got.tobytes() == want
