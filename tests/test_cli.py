"""End-to-end command-line checks through a real subprocess: output
envelopes, exit codes, file input, and the lossless report round-trip."""

import contextlib
import io
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from geomseq import GeometricError, classify, dual_test, seq_from_expr
from geomseq.cli import dual_report_from_envelope, main, membership_report_from_envelope


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "geomseq", *args],
        capture_output=True,
        text=True,
        timeout=120,
    )


def run_json(*args, expect=0):
    proc = run_cli(*args)
    assert proc.returncode == expect, proc.stderr or proc.stdout
    return json.loads(proc.stdout)


class TestRowCommands:
    def test_second_difference_of_quadratic_exponent(self):
        env = run_json("diff", "--seq", "exp(k^2)", "--m", "2", "--range", "1..5")
        assert [row["log_value"] for row in env["rows"]] == [2.0] * 5
        assert env["rows"][0]["rendering"] == "e^2"
        assert env["command"] == "diff"

    def test_eval_rows(self):
        env = run_json("eval", "--seq", "exp(k)", "--range", "3..5")
        assert [row["k"] for row in env["rows"]] == [3, 4, 5]
        assert [row["log_value"] for row in env["rows"]] == [3.0, 4.0, 5.0]

    def test_default_range_is_ten_rows(self):
        env = run_json("eval", "--seq", "exp(k)")
        assert len(env["rows"]) == 10

    def test_csv_column_order(self):
        proc = run_cli("diff", "--seq", "exp(k^2)", "--m", "2", "--range", "1..3",
                       "--format", "csv")
        assert proc.returncode == 0
        lines = proc.stdout.strip().splitlines()
        assert lines[0] == "k,log_value,rendering"
        assert lines[1].split(",") == ["1", "2.0", "e^2"]
        assert len(lines) == 4


class TestVerdictCommands:
    def test_classify_member_exit_zero(self):
        env = run_json(
            "classify", "--seq", "exp(k)", "--space", "c0", "--m", "2", "--N", "100000"
        )
        assert env["member"] is True
        assert env["verdict"]["kind"] == "finite"
        assert env["verdict"]["estimate_log"] == pytest.approx(0.0, abs=1e-9)

    def test_dual_member(self):
        env = run_json("dual", "--kind", "alpha", "--m", "2", "--seq", "exp(1/(k^4))")
        assert env["member"] is True
        assert env["inputs"]["kind"] == "alpha"

    def test_alpha_alpha_spelling_normalized(self):
        env = run_json("dual", "--kind", "alpha-alpha", "--m", "1", "--seq", "exp(k)",
                       "--N", "10000")
        assert env["inputs"]["kind"] == "alpha_alpha"
        assert env["member"] is True

    def test_inconclusive_exit_two(self):
        env = run_json(
            "classify", "--seq", "exp(ln(k))", "--space", "c", "--m", "1",
            "--N", "10000", expect=2,
        )
        assert env["verdict"]["kind"] == "inconclusive"

    def test_norm(self):
        env = run_json("norm", "--seq", "exp(k)", "--m", "1", "--N", "100")
        assert env["log_value"] == 2.0
        assert env["rendering"] == "e^2"

    def test_lemma(self):
        env = run_json("lemma", "--seq", "exp(k)", "--N", "10000")
        assert env["agreement"] is True
        assert env["cond_a"]["kind"] == "finite"

    def test_demo_inclusion(self):
        env = run_json("demo", "--which", "inclusion", "--m", "1", "--N", "20000")
        assert env["holds"] is True
        assert env["report"]["at_order_m"]["verdict"]["kind"] == "diverged"

    def test_demo_algebra(self):
        env = run_json("demo", "--which", "algebra", "--m", "2", "--N", "20000")
        assert env["holds"] is True

    def test_verdict_csv_is_key_value(self):
        proc = run_cli("classify", "--seq", "exp(k)", "--space", "c0", "--m", "2",
                       "--N", "10000", "--format", "csv")
        lines = proc.stdout.strip().splitlines()
        assert lines[0] == "key,value"
        keys = [line.split(",", 1)[0] for line in lines[1:]]
        assert "verdict.kind" in keys and "member" in keys


class TestRoundTrip:
    def test_classify_envelope_rebuilds_the_report(self):
        env = run_json(
            "classify", "--seq", "exp(k)", "--space", "c0", "--m", "2", "--N", "100000"
        )
        rebuilt = membership_report_from_envelope(env)
        direct = classify(seq_from_expr("exp(k)"), "c0", 2, 100_000)
        assert rebuilt == direct

    def test_dual_envelope_rebuilds_the_report(self):
        env = run_json("dual", "--kind", "beta", "--m", "1", "--seq", "exp(2^(0-k))",
                       "--N", "10000")
        rebuilt = dual_report_from_envelope(env)
        direct = dual_test(seq_from_expr("exp(2^(0-k))"), "beta", 1, 10_000)
        assert rebuilt == direct


def keys(d: dict) -> list:
    """Ordered nested keys of an envelope, as they are printed."""
    return [(k, keys(v)) if isinstance(v, dict) else k for k, v in d.items()]


VERDICT = ["kind", "estimate_log", "window"]
DIAGNOSTICS = ["probe_N", "probe_2N", "note"]
REPORT_VERDICT = VERDICT + DIAGNOSTICS
MEMBERSHIP = ["space", "m", ("verdict", REPORT_VERDICT), "witness_index", "window"]


class TestEnvelopeKeys:
    def test_classify(self):
        env = run_json("classify", "--seq", "exp(k)", "--space", "c0", "--m", "2",
                       "--N", "1000")
        assert keys(env) == [
            "command",
            ("inputs", ["seq", "space", "m", "N", "tol"]),
            ("verdict", VERDICT),
            ("diagnostics", DIAGNOSTICS),
            "witness_index",
            "member",
        ]

    def test_dual(self):
        env = run_json("dual", "--kind", "gamma", "--seq", "exp(2^(0-k))", "--N", "1000")
        assert keys(env) == [
            "command",
            ("inputs", ["seq", "kind", "m", "N", "tol"]),
            ("verdict", VERDICT),
            ("diagnostics", DIAGNOSTICS),
            "witness_index",
            "member",
            "partial_log",
            ("remainder_ok", REPORT_VERDICT),
        ]
        assert env["witness_index"] is None

    def test_lemma(self):
        env = run_json("lemma", "--seq", "exp(k)", "--N", "1000")
        assert keys(env) == [
            "command",
            ("inputs", ["seq", "N", "tol"]),
            "agreement",
            "has_inconclusive",
            ("cond_a", REPORT_VERDICT),
            ("cond_b_i", REPORT_VERDICT),
            ("cond_b_ii", REPORT_VERDICT),
            "window",
        ]

    def test_demo(self):
        env = run_json("demo", "--which", "algebra", "--m", "2", "--N", "1000")
        assert keys(env) == [
            "command",
            ("inputs", ["which", "m", "N", "tol"]),
            "holds",
            ("report", [
                "m",
                "x_source",
                "y_source",
                ("x_report", MEMBERSHIP),
                ("y_report", MEMBERSHIP),
                ("product_report", MEMBERSHIP),
                "holds",
            ]),
        ]


class TestFileInput:
    def test_values_file(self, tmp_path):
        buf = tmp_path / "values.txt"
        buf.write_text("2.0\n4.0\n8.0\n# trailing comment\n\n16.0\n")
        env = run_json("eval", "--seq", str(buf), "--range", "1..4")
        assert env["rows"][0]["log_value"] == pytest.approx(0.6931471805599453)
        assert len(env["rows"]) == 4

    def test_logs_flag(self, tmp_path):
        buf = tmp_path / "logs.txt"
        buf.write_text("0.5\n-0.5\n1.5\n")
        env = run_json("eval", "--seq", str(buf), "--logs", "--range", "1..3")
        assert [row["log_value"] for row in env["rows"]] == [0.5, -0.5, 1.5]

    def test_nonpositive_value_is_an_error(self, tmp_path):
        buf = tmp_path / "bad.txt"
        buf.write_text("1.0\n-2.0\n")
        proc = run_cli("eval", "--seq", str(buf), "--range", "1..2")
        assert proc.returncode == 1
        err = json.loads(proc.stdout)["error"]
        assert err["type"] == "NonPositiveValue"

    def test_expression_longer_than_a_file_name(self):
        src = "+".join(["k"] * 130)  # 259 characters
        env = run_json("eval", "--seq", src, "--range", "1..2")
        assert env["rows"][0]["log_value"] == math.log(130)

    @pytest.mark.parametrize("kind", ["alpha", "beta", "gamma"])
    def test_dual_sums_past_float64_diverge(self, tmp_path, kind):
        buf = tmp_path / "big.txt"
        buf.write_text("1e300\n" * 20_000)
        env = run_json(
            "dual", "--kind", kind, "--m", "1", "--seq", str(buf), "--logs", "--N", "10000"
        )
        assert env["verdict"]["kind"] == "diverged"
        assert env["diagnostics"]["probe_2N"] == math.inf

    def test_malformed_line_is_an_error(self, tmp_path):
        buf = tmp_path / "bad.txt"
        buf.write_text("1.0\nnot-a-number\n")
        proc = run_cli("eval", "--seq", str(buf), "--range", "1..1")
        assert proc.returncode == 1


class TestErrors:
    def test_parse_error_exit_one_with_offset(self):
        proc = run_cli("eval", "--seq", "exp(k^")
        assert proc.returncode == 1
        err = json.loads(proc.stdout)["error"]
        assert err["type"] == "ParseError"
        assert err["offset"] == 6
        assert "number" in err["expected"]

    def test_out_of_range_is_an_error(self, tmp_path):
        buf = tmp_path / "short.txt"
        buf.write_text("2.0\n")
        proc = run_cli("eval", "--seq", str(buf), "--range", "1..5")
        assert proc.returncode == 1
        assert json.loads(proc.stdout)["error"]["type"] == "IndexOutOfRange"

    def test_order_cap_is_an_error(self):
        proc = run_cli("diff", "--seq", "exp(k)", "--m", "61", "--range", "1..2")
        assert proc.returncode == 1
        assert json.loads(proc.stdout)["error"]["type"] == "OverflowError"

    @pytest.mark.parametrize(
        "src, offset",
        [("(" * 3000 + "k" + ")" * 3000, 200), ("+".join(["k"] * 1000), 401)],
    )
    def test_nesting_cap_is_a_parse_error(self, src, offset):
        proc = run_cli("eval", "--seq", src)
        assert proc.returncode == 1
        err = json.loads(proc.stdout)["error"]
        assert err["type"] == "ParseError"
        assert err["offset"] == offset

    def test_beta_order_restriction(self):
        proc = run_cli("dual", "--kind", "beta", "--m", "2", "--seq", "e", "--N", "10000")
        assert proc.returncode == 1
        assert json.loads(proc.stdout)["error"]["type"] == "UnsupportedOrder"


class TestUsage:
    def test_unknown_command(self):
        proc = run_cli("bogus")
        assert proc.returncode == 64
        assert "error" in proc.stderr

    def test_missing_required_flag(self):
        proc = run_cli("classify", "--space", "c0")
        assert proc.returncode == 64

    def test_bad_range_syntax(self):
        proc = run_cli("eval", "--seq", "exp(k)", "--range", "five")
        assert proc.returncode == 64

    def test_window_floor(self):
        proc = run_cli("classify", "--seq", "exp(k)", "--space", "c", "--N", "2")
        assert proc.returncode == 64

    def test_no_command(self):
        proc = run_cli()
        assert proc.returncode == 64


class TestRobustness:
    def test_literal_beyond_float64_is_a_parse_error(self):
        proc = run_cli("eval", "--seq", "exp(1e400*k)")
        assert proc.returncode == 1
        err = json.loads(proc.stdout)["error"]
        assert err["type"] == "ParseError"
        assert err["offset"] == 4

    def test_reader_closing_early_leaves_no_traceback(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "geomseq", "eval", "--seq", "exp(k^2/1e300)",
             "--range", "1..2"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        proc.stdout.close()  # like `| head` exiting before the output is written
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 1
        assert b"Traceback" not in err and b"BrokenPipeError" not in err


def _strict_json(text: str):
    """Parse output as JSON that may hold +-Infinity but never NaN."""

    def constant(name):
        assert name != "NaN", "NaN is not a number a report may carry"
        return float(name)

    return json.loads(text, parse_constant=constant)


class TestStrictOutput:
    """Logs at the edge of float64: stdout stays strict JSON, stderr empty."""

    #: The sign of line k of each file of +-1e308 logs; "overflowing" repeats
    #: 1e308, 1e308, -1e308, so its sums pass float64 before they come back.
    SIGNS = {
        "alternating": lambda k: (-1) ** k,
        "flat": lambda k: 1,
        "overflowing": lambda k: -1 if k % 3 == 2 else 1,
    }

    @pytest.fixture(params=sorted(SIGNS))
    def extreme(self, request, tmp_path):
        sign = self.SIGNS[request.param]
        path = tmp_path / f"{request.param}.txt"
        path.write_text("".join(f"{sign(k) * 1e308!r}\n" for k in range(20_000)))
        return str(path)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "argv",
        [
            ["dual", "--kind", "alpha", "--N", "10000"],
            ["dual", "--kind", "beta", "--N", "10000"],
            ["dual", "--kind", "gamma", "--N", "10000"],
            ["lemma", "--N", "9000"],
            ["classify", "--space", "linf", "--m", "1", "--N", "9000"],
            ["classify", "--space", "linf", "--m", "3", "--N", "9000"],
            ["classify", "--space", "c0", "--m", "3", "--N", "9000"],
            ["diff", "--m", "3", "--range", "1..6"],
            ["norm", "--m", "2", "--N", "9000"],
        ],
        ids=lambda argv: " ".join(argv[:3]) + " " + " ".join(argv[3:5]),
    )
    def test_extreme_logs(self, extreme, argv, capsys):
        code = main([*argv, "--seq", extreme, "--logs"])
        out, err = capsys.readouterr()
        assert err == ""
        assert code in (0, 2), out
        _strict_json(out)

    def test_first_order_overflow_diverges(self, extreme, capsys):
        for kind in ("beta", "gamma"):
            assert main(["dual", "--kind", kind, "--N", "10000", "--seq", extreme, "--logs"]) == 0
            env = _strict_json(capsys.readouterr().out)
            assert env["verdict"]["kind"] == "diverged"
            assert math.isinf(env["partial_log"])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_weighted_sum_past_float64_diverges(self, capsys):
        # k^2 * 1e300 k is inf from k = 565, and the finite terms before it
        # already sum past float64: the sum is +inf, not an OverflowError
        argv = ["dual", "--kind", "alpha", "--m", "2", "--seq", "exp(1e300*k)", "--N", "900"]
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert err == ""
        env = _strict_json(out)
        assert env["verdict"]["kind"] == "diverged"
        assert env["diagnostics"]["probe_N"] == env["diagnostics"]["probe_2N"] == math.inf

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_weight_past_float64_on_a_zero_log(self, capsys):
        # 200000^60 overflows; times the zero log of the term it still adds nothing
        assert main(["dual", "--kind", "alpha", "--m", "60", "--seq", "1", "--N", "100000"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert _strict_json(out)["verdict"]["kind"] == "finite"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_differences_of_a_flat_edge_cancel(self, tmp_path, capsys):
        path = tmp_path / "flat.txt"
        path.write_text("1e308\n" * 100)
        assert main(["diff", "--m", "3", "--range", "1..6", "--seq", str(path), "--logs"]) == 0
        assert [row["log_value"] for row in _strict_json(capsys.readouterr().out)["rows"]] == [0.0] * 6


def _error_names(cls) -> set:
    return {cls.__name__}.union(*(_error_names(sub) for sub in cls.__subclasses__()))


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


_EXPRESSIONS = st.recursive(
    st.sampled_from(["k", "e", "0", "1", "2", "0.5", "3.25", "710", "1e300", "1e-300"]),
    _grow,
    max_leaves=8,
)

#: A --logs file repeats one of these patterns of extreme logs.
_LOG_PATTERNS = st.lists(
    st.sampled_from([1e308, -1e308, 1e300, 710.0, 1.0, -1.0, 1e-308, -5e-324, 0.0]),
    min_size=1,
    max_size=6,
)


def _commands():
    N, m = st.sampled_from(["4", "8", "30"]), st.integers(0, 3).map(str)
    return st.one_of(
        st.just(["eval", "--range", "1..6"]),
        m.map(lambda m: ["diff", "--m", m, "--range", "1..6"]),
        st.tuples(m, N).map(lambda t: ["norm", "--m", t[0], "--N", t[1]]),
        st.tuples(st.sampled_from(["linf", "c", "c0"]), m, N).map(
            lambda t: ["classify", "--space", t[0], "--m", t[1], "--N", t[2]]
        ),
        st.tuples(st.sampled_from(["alpha", "alpha-alpha", "beta", "gamma"]), m, N).map(
            lambda t: ["dual", "--kind", t[0], "--m", t[1], "--N", t[2]]
        ),
    )


class TestFullGrammar:
    """Any expression the grammar accepts, or any file of extreme logs, ends
    in strict JSON on stdout, nothing on stderr, exit 0, 1 or 2, and on
    exit 1 an error of this package's own hierarchy."""

    ERRORS = _error_names(GeometricError)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=200, deadline=None)
    @given(_commands(), _EXPRESSIONS | _LOG_PATTERNS)
    @example(["dual", "--kind", "alpha", "--m", "2", "--N", "900"], "exp(1e300*k)")
    @example(["dual", "--kind", "beta", "--m", "1", "--N", "30"], [1e308, 1e308, -1e308])
    @example(["dual", "--kind", "gamma", "--m", "1", "--N", "30"], [1e308, 1e308, -1e308])
    def test_every_input_ends_in_strict_output(self, argv, seq):
        with tempfile.TemporaryDirectory() as tmp:
            if isinstance(seq, list):
                path = Path(tmp) / "logs.txt"
                path.write_text("".join(f"{v!r}\n" for v in seq * 30))
                argv = [*argv, "--seq", str(path), "--logs"]
            else:
                argv = [*argv, "--seq", seq]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        assert code in (0, 1, 2), argv
        assert err.getvalue() == "", argv
        env = _strict_json(out.getvalue())
        if code == 1:
            assert env["error"]["type"] in self.ERRORS, (argv, env)
