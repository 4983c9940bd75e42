"""End-to-end command-line checks through a real subprocess: output
envelopes, exit codes, file input, and the lossless report round-trip."""

import json
import math
import subprocess
import sys

import pytest

from geomseq import classify, dual_test, seq_from_expr
from geomseq.cli import dual_report_from_envelope, membership_report_from_envelope


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
