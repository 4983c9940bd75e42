"""The JSON layout of the six report classes: pinned key sets, and lossless
round trips through ``to_dict``/``from_dict``."""

import json
import math

from hypothesis import given, strategies as st

from geomseq import (
    DualReport,
    GNum,
    Verdict,
    VerdictKind,
    algebra_counterexample,
    classify,
    dual_test,
    inclusion_demo,
    lemma_equivalence_check,
    seq_from_expr,
)
from geomseq.duals import DUAL_KINDS

N = 1000


def shape(d: dict) -> dict:
    """Nested key set of a dict: each key maps to its sub-shape or None."""
    return {k: shape(v) if isinstance(v, dict) else None for k, v in d.items()}


VERDICT = dict.fromkeys(("kind", "estimate_log", "window", "probe_N", "probe_2N", "note"))
MEMBERSHIP = {
    "space": None,
    "m": None,
    "verdict": VERDICT,
    "witness_index": None,
    "window": None,
}


class TestPinnedKeys:
    def test_verdict(self):
        d = classify(seq_from_expr("exp(k)"), "c0", 2, N).verdict.to_dict()
        assert shape(d) == VERDICT
        assert d["kind"] == "finite" and type(d["kind"]) is str
        assert type(d["estimate_log"]) is float

    def test_membership_report(self):
        d = classify(seq_from_expr("exp(k^2)"), "linf", 1, N).to_dict()
        assert shape(d) == MEMBERSHIP
        assert d["verdict"]["kind"] == "diverged"
        assert d["verdict"]["estimate_log"] is None
        assert type(d["witness_index"]) is int

    def test_dual_report(self):
        seq = seq_from_expr("exp(2^(0-k))")
        dual = {"kind": None, "m": None, "verdict": VERDICT, "partial_log": None}
        alpha = dual_test(seq, "alpha", 1, N).to_dict()
        assert shape(alpha) == {**dual, "remainder_ok": None}
        assert alpha["remainder_ok"] is None
        assert type(alpha["partial_log"]) is float
        beta = dual_test(seq, "beta", 1, N).to_dict()
        assert shape(beta) == {**dual, "remainder_ok": VERDICT}

    def test_lemma_report(self):
        d = lemma_equivalence_check(seq_from_expr("exp(k)"), N).to_dict()
        assert shape(d) == {
            "window": None,
            "parts": {"a": VERDICT, "b_i": VERDICT, "b_ii": VERDICT},
            "b_kind": None,
            "agreement": None,
        }
        assert d["b_kind"] == "finite" and type(d["b_kind"]) is str
        assert d["agreement"] is True

    def test_inclusion_demo_report(self):
        d = inclusion_demo(1, N).to_dict()
        assert shape(d) == {
            "m": None,
            "witness_source": None,
            "at_order_m": MEMBERSHIP,
            "at_order_m_plus_1": MEMBERSHIP,
            "chain_c": MEMBERSHIP,
            "chain_linf": MEMBERSHIP,
            "holds": None,
        }
        assert d["holds"] is True

    def test_algebra_counterexample_report(self):
        d = algebra_counterexample(2, N).to_dict()
        assert shape(d) == {
            "m": None,
            "x_source": None,
            "y_source": None,
            "x_report": MEMBERSHIP,
            "y_report": MEMBERSHIP,
            "product_report": MEMBERSHIP,
            "holds": None,
        }
        assert d["holds"] is True
        assert json.loads(json.dumps(d)) == d


floats = st.floats(allow_nan=False, allow_infinity=False)
estimates = st.one_of(st.none(), st.just(-0.0), floats).map(
    lambda u: None if u is None else GNum(u)
)


@st.composite
def verdicts(draw):
    kind = draw(st.sampled_from(VerdictKind))
    estimate = draw(estimates)
    if kind is VerdictKind.FINITE and estimate is None:
        estimate = GNum(draw(floats))
    return Verdict(
        kind,
        estimate,
        draw(st.integers(min_value=4, max_value=10**7)),
        draw(floats),
        draw(floats),
        draw(st.text(max_size=40)),
    )


def same_sign_bits(a, b):
    if a is None or b is None:
        return a is b
    return math.copysign(1.0, a.log_value) == math.copysign(1.0, b.log_value)


class TestRoundTrip:
    @given(verdicts())
    def test_verdict(self, v):
        d = v.to_dict()
        rebuilt = Verdict.from_dict(d)
        assert rebuilt == v
        assert same_sign_bits(rebuilt.estimate, v.estimate)
        assert Verdict.from_dict(json.loads(json.dumps(d))) == v

    @given(
        st.sampled_from(DUAL_KINDS),
        st.integers(min_value=0, max_value=60),
        verdicts(),
        floats,
        st.one_of(st.none(), verdicts()),
    )
    def test_dual_report(self, kind, m, verdict, partial, remainder):
        report = DualReport(kind, m, verdict, GNum(partial), remainder)
        d = report.to_dict()
        assert DualReport.from_dict(d) == report
        assert DualReport.from_dict(json.loads(json.dumps(d))) == report
        if remainder is None:
            del d["remainder_ok"]
            assert DualReport.from_dict(d) == report
