"""A hypothesis strategy over the whole expression grammar, shared by the
command-line and the evaluator properties."""

from __future__ import annotations

from hypothesis import strategies as st


def _grow(inner):
    """One grammar step over smaller expressions: arithmetic, ``ln``, inner
    ``exp``, non-integer and k-th powers, and sums of exponentials."""
    return st.one_of(
        st.tuples(inner, st.sampled_from("+-*/"), inner).map(lambda t: f"({t[0]}{t[1]}{t[2]})"),
        inner.map(lambda a: f"exp({a})"),
        inner.map(lambda a: f"ln({a})"),
        st.tuples(inner, st.sampled_from(["0.5", "1.5", "(0-2.5)", "(1/3)", "2", "k"])).map(
            lambda t: f"({t[0]})^{t[1]}"
        ),
        st.sampled_from(["2", "0.5", "e", "1e300"]).map(lambda b: f"{b}^k"),
        st.tuples(inner, st.sampled_from("+-"), inner).map(
            lambda t: f"exp({t[0]}){t[1]}exp({t[2]})"
        ),
    )


EXPRESSIONS = st.recursive(
    st.sampled_from(["k", "e", "0", "1", "2", "0.5", "3.25", "710", "1e300", "1e-300"]),
    _grow,
    max_leaves=8,
)
