"""One rule for every integer argument: an ``int`` or a numpy integer, never a
``bool``, at or above the argument's bound, else a ``ValueError`` naming the
argument, the bound and the value (``geomseq.errors.check_int``)."""

import json

import numpy as np
import pytest

from geomseq import (
    GNum,
    IndexOutOfRange,
    alpha_alpha_dual_test,
    alpha_dual_test,
    beta_dual_test,
    classify,
    counterexample_sequence,
    d_operator,
    delta_binomial,
    delta_norm,
    dual_test,
    gamma_dual_test,
    gpow,
    gsum_partial,
    natural,
    remainder,
    seq_from_expr,
    sup_gabs,
    weighted_sup,
)
from geomseq.cli import main
from geomseq.gseq import GSeq, SparseLogSeq

X = seq_from_expr("exp(1/k)")
SQUARES = seq_from_expr("exp(k^2)")

#: (entry point and argument, the argument's name, its bound, a valid value, the call)
CASES = [
    ("classify-N", "N", 4, 64, lambda v: classify(X, "linf", 1, N=v)),
    ("classify-m", "m", 0, 2, lambda v: classify(X, "c", v, N=64)),
    ("weighted_sup-diff_order", "diff_order", 0, 1, lambda v: weighted_sup(X, v, 1.0, 64)),
    ("weighted_sup-N", "N", 4, 64, lambda v: weighted_sup(X, 1, 1.0, v)),
    ("alpha-m", "m", 0, 2, lambda v: alpha_dual_test(X, v, 64)),
    ("alpha-N", "N", 4, 64, lambda v: alpha_dual_test(X, 1, v)),
    ("alpha_alpha-m", "m", 0, 2, lambda v: alpha_alpha_dual_test(X, v, 64)),
    ("alpha_alpha-N", "N", 4, 64, lambda v: alpha_alpha_dual_test(X, 1, v)),
    ("beta-N", "N", 4, 64, lambda v: beta_dual_test(X, v)),
    ("gamma-N", "N", 4, 64, lambda v: gamma_dual_test(X, v)),
    ("dual_test-alpha-m", "m", 0, 2, lambda v: dual_test(X, "alpha", v, 64)),
    ("dual_test-beta-m", "m", 0, 1, lambda v: dual_test(X, "beta", v, 64)),
    ("dual_test-gamma-N", "N", 4, 64, lambda v: dual_test(X, "gamma", 1, v)),
    ("gsum_partial-n", "n", 0, 5, lambda v: gsum_partial(X, v)),
    ("sup_gabs-N", "N", 1, 5, lambda v: sup_gabs(X, v)),
    ("remainder-n", "n", 0, 3, lambda v: remainder(X, v, 64)),
    ("remainder-N", "N", 5, 64, lambda v: remainder(X, 3, v)),
    ("delta_norm-m", "m", 0, 2, lambda v: delta_norm(X, v, 10)),
    ("delta_norm-N", "N", 1, 10, lambda v: delta_norm(X, 1, v)),
    ("delta_binomial-m", "m", 0, 2, lambda v: delta_binomial(X, v)),
    ("d_operator-m", "m", 0, 2, lambda v: d_operator(X, v)),
    ("counterexample-count", "count", 1, 3, lambda v: counterexample_sequence(SQUARES, 1, v)),
    ("counterexample-search_window", "search_window", 1, 50,
     lambda v: counterexample_sequence(SQUARES, 1, 3, v)),
    ("log_values-count", "count", 0, 10, lambda v: X.log_values(2, v)),
    ("gpow-p", "p", 0, 3, lambda v: gpow(GNum(1.5), v)),
]
IDS = [case[0] for case in CASES]


def _dump(result) -> str:
    """What a call returned, as text: a report's ``json.dumps(to_dict())``,
    the bits of a number or of a sequence's first terms."""
    if isinstance(result, tuple):
        return "|".join(map(_dump, result))
    if hasattr(result, "to_dict"):
        return json.dumps(result.to_dict())
    if isinstance(result, GNum):
        return result.log_value.hex()
    if isinstance(result, GSeq):
        result = result.log_values(1, 12)
    return result.tobytes().hex()


@pytest.mark.parametrize("name, arg, bound, good, call", CASES, ids=IDS)
class TestIntegerArguments:
    @pytest.mark.parametrize("integer", [np.int64, np.int32])
    def test_numpy_integer_equals_int(self, name, arg, bound, good, call, integer):
        assert _dump(call(integer(good))) == _dump(call(good))

    @pytest.mark.parametrize("value", [True, 2.0, np.float64(2.0)], ids=repr)
    def test_non_integer_is_refused(self, name, arg, bound, good, call, value):
        with pytest.raises(ValueError) as err:
            call(value)
        assert str(err.value) == f"{arg} must be an integer >= {bound}, got {value!r}"

    def test_one_below_the_bound_is_refused(self, name, arg, bound, good, call):
        with pytest.raises(ValueError) as err:
            call(bound - 1)
        assert str(err.value) == f"{arg} must be an integer >= {bound}, got {bound - 1}"


def test_natural_takes_any_integer_but_no_bool():
    assert natural(np.int64(-3)) == natural(-3) == GNum(-3.0)
    for value in (True, 2.0, np.float64(2.0)):
        with pytest.raises(ValueError, match=r"^n must be an integer, got "):
            natural(value)


@pytest.mark.parametrize("key", [2.7, True, np.float64(2.0)], ids=repr)
def test_sparse_keys_are_indices(key):
    with pytest.raises(IndexOutOfRange):
        SparseLogSeq({key: 1.0})


def test_sparse_numpy_keys_equal_int_keys():
    a, b = SparseLogSeq({np.int64(3): 1.5}), SparseLogSeq({3: 1.5})
    assert a.support == b.support == (3,)
    assert type(a.support[0]) is int
    assert a.log_values(1, 5).tobytes() == b.log_values(1, 5).tobytes()


@pytest.mark.parametrize("tol", [True, False], ids=repr)
def test_tol_is_no_bool(tol):
    """``True`` is a ``numbers.Real`` equal to 1, so it would pass as tol = 1."""
    for call in (lambda: classify(X, "linf", 0, 100, tol), lambda: remainder(X, 1, 100, tol)):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == f"tol must be positive, got {tol!r}"


@pytest.mark.parametrize(
    "flag, value, message",
    [("--N", "2", "N must be an integer >= 4, got 2"), ("--m", "-1", "m must be an integer >= 0, got -1"),
     ("--tol", "0", "tol must be positive, got 0.0")],
)
def test_cli_refuses_with_the_library_message(flag, value, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--seq", "exp(k)", "--space", "c", flag, value])
    assert exc.value.code == 64
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith(f"argument {flag}: {message}\n")
