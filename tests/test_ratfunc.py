"""RatFunc.values against RatFunc.at: one float64 Horner pass below 2^53,
Python ints past it, bit for bit the same as the scalar read."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from geomseq import DomainError
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
