"""End-to-end command-line checks through a real subprocess: output
envelopes, exit codes, file input, and the lossless report round-trip."""

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from geomseq import GeometricError, GNum, classify, dual_test, seq_from_expr, seq_from_logs, seq_from_values
from geomseq.cli import dual_report_from_envelope, load_sequence, main, membership_report_from_envelope
from geomseq.errors import DomainError
from geomseq.gdiff import MAX_ORDER, delta_binomial
from geomseq.gseq import SUM_CHUNK, ExpressionSeq

from grammar import EXPRESSIONS


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
            "classify", "--seq", "exp(ln(ln(k+1)))", "--space", "c", "--m", "0",
            "--N", "10000", expect=2,
        )
        assert env["verdict"]["kind"] == "inconclusive"
        assert env["diagnostics"]["note"] == "increment ratio 0.927 in the undecided band"

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

    @pytest.mark.parametrize(
        "argv, inputs",
        [
            (["eval", "--seq", "exp(1/k)", "--range", "1..5"], ["seq", "range"]),
            (["diff", "--seq", "exp(k^2)", "--m", "2", "--range", "1..5"], ["seq", "m", "range"]),
        ],
    )
    def test_rows(self, argv, inputs):
        env = run_json(*argv)
        assert keys(env) == ["command", ("inputs", inputs), "rows"]
        assert env["inputs"]["range"] == "1..5"
        assert [row["k"] for row in env["rows"]] == [1, 2, 3, 4, 5]

    def test_norm(self):
        env = run_json("norm", "--seq", "exp(k)", "--m", "1", "--N", "1000")
        assert keys(env) == [
            "command",
            ("inputs", ["seq", "m", "N", "tol"]),
            "log_value",
            "rendering",
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


class _Discard(io.TextIOBase):
    """A stdout that keeps none of the text written to it."""

    def write(self, text):
        return len(text)


def _stdout_of(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def _reference_rows(argv, seq, lo, hi, fmt) -> str:
    """eval/diff output built as row dicts, with json.dumps(indent=2) or csv.writer."""
    logs = seq.log_points(np.arange(lo, hi + 1, dtype=np.int64)).tolist()
    rows = [{"k": k, "log_value": v, "rendering": GNum(v).render()} for k, v in enumerate(logs, lo)]
    if fmt == "json":
        inputs = {"seq": argv[argv.index("--seq") + 1]}
        if argv[0] == "diff":
            inputs["m"] = int(argv[argv.index("--m") + 1])
        inputs["range"] = f"{lo}..{hi}"
        return json.dumps({"command": argv[0], "inputs": inputs, "rows": rows}, indent=2) + "\n"
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["k", "log_value", "rendering"])
    for row in rows:
        writer.writerow([row["k"], repr(row["log_value"]), row["rendering"]])
    return out.getvalue()


#: Lines of a --logs buffer: its first differences reach +-Infinity, and
#: its terms hold a negative zero, the least subnormal and 1e300.
_EXTREME_LOGS = [1e308, 1e308, -1e308, -1e308, 1e308, -0.0, 5e-324, 1e300, -1e300, 0.5]


class TestRowWriter:
    """eval and diff write the same bytes as row dicts through json.dumps
    or csv.writer would, at every piece boundary and at int64's end."""

    LENGTHS = [1, SUM_CHUNK - 1, SUM_CHUNK, SUM_CHUNK + 1]

    @pytest.fixture(scope="class")
    def extreme(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("rows") / "extreme.txt"
        lines = (_EXTREME_LOGS * (SUM_CHUNK // len(_EXTREME_LOGS) + 2))[: SUM_CHUNK + 8]
        path.write_text("".join(f"{v!r}\n" for v in lines))
        return str(path)

    @settings(max_examples=30, deadline=None)
    @given(
        seq=st.sampled_from(["exp(1/k)", "exp(k^3)", "exp(k^2/1e300)", "exp(ln(k)/k)", "k", None]),
        m=st.sampled_from([None, 0, 1, 2, 3]),
        length=st.sampled_from(LENGTHS),
        at_end=st.booleans(),
        fmt=st.sampled_from(["json", "csv"]),
    )
    @example(seq=None, m=1, length=SUM_CHUNK + 1, at_end=False, fmt="json")
    @example(seq=None, m=2, length=SUM_CHUNK, at_end=False, fmt="csv")
    @example(seq="exp(1/k)", m=None, length=SUM_CHUNK + 1, at_end=True, fmt="json")
    def test_rows_match_the_dict_writers(self, extreme, seq, m, length, at_end, fmt):
        lo = 2**63 - length if at_end and seq is not None else 1
        hi = lo + length - 1
        argv = ["eval" if m is None else "diff", "--seq", seq or extreme] + ["--logs"] * (seq is None)
        if m is not None:
            argv += ["--m", str(m)]
        argv += ["--range", f"{lo}..{hi}", "--format", fmt]
        view = load_sequence(seq or extreme, logs=seq is None)
        if m is not None:
            view = delta_binomial(view, m)
        try:
            expected = _reference_rows(argv, view, lo, hi, fmt)
        except GeometricError as exc:  # a float difference read past 2^63-1
            code, out = _stdout_of(argv)
            assert code == 1 and json.loads(out)["error"]["message"] == str(exc)
            return
        assert _stdout_of(argv) == (0, expected)

    def test_non_finite_logs_are_written_as_json_and_repr_write_them(self, extreme, capsys):
        for fmt, words in (("json", ["Infinity", "-Infinity"]), ("csv", [",inf,", ",-inf,"])):
            assert main(["diff", "--seq", extreme, "--logs", "--m", "1", "--range", "1..6", "--format", fmt]) == 0
            out = capsys.readouterr().out
            assert all(word in out for word in words) and "e^inf" in out and "e^-inf" in out


#: Line breaks str.splitlines() knows, and the lines a number file may hold.
_BREAKS = ["\n", "\r\n", "\r", "\f", "\v", "\x1c", "\x85", "\u2028"]
_LINES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.just(""),
    st.sampled_from(["# comment", "  # indented comment", "#"]),
    st.tuples(st.sampled_from(["", " ", "\t", "  "]), st.floats(1e-300, 1e300).map(repr),
              st.sampled_from(["", " ", "\t "])).map("".join),
    st.sampled_from(["not-a-number", "1.0.0", "  nope ", "0x10", "inf", "nan", "-0.0"]),
)


def _reference_load(path: Path, logs: bool):
    """A number file read whole, as ``read_text().splitlines()`` gives its lines."""
    values = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            values.append(float(stripped))
        except ValueError:
            raise DomainError(f"{path}:{lineno}: not a number: {stripped!r}") from None
    arr = np.asarray(values, dtype=np.float64)
    return seq_from_logs(arr) if logs else seq_from_values(arr)


def _loaded(load, path: Path, logs: bool):
    """The bits of the logs a loader reads, or its error's type and text."""
    try:
        seq = load(path, logs)
    except (GeometricError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return seq.log_values(1, seq.length).view(np.int64).tolist() if seq.length else []


class TestNumberReader:
    """A --seq file read line by line gives the logs, or the error, of the
    file read whole, for every line break str.splitlines() knows."""

    @settings(max_examples=150, deadline=None)
    @given(
        lines=st.lists(_LINES, max_size=12),
        breaks=st.lists(st.sampled_from(_BREAKS), min_size=1, max_size=3),
        final=st.booleans(),
        logs=st.booleans(),
    )
    def test_lines_and_errors_match_a_whole_read(self, lines, breaks, final, logs):
        text = "".join(line + breaks[i % len(breaks)] for i, line in enumerate(lines))
        if not final and text:
            text = text[: -len(breaks[(len(lines) - 1) % len(breaks)])]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "numbers.txt"
            path.write_bytes(text.encode())
            expected = _loaded(_reference_load, path, logs)
            assert _loaded(lambda p, logs: load_sequence(str(p), logs), path, logs) == expected

    @pytest.mark.parametrize("before", ["1.0\n" * 3000, "1.0\nnot-a-number\n" + "2.0\n" * 3000])
    def test_undecodable_byte_past_the_first_read_keeps_its_envelope(self, tmp_path, before, capsys):
        path = tmp_path / "undecodable.txt"
        path.write_bytes(before.encode() + b"\xff\n3.0\n")
        with pytest.raises(UnicodeDecodeError) as exc:
            path.read_text()
        assert main(["norm", "--seq", str(path), "--logs", "--N", "8"]) == 1
        message = {"error": {"type": "UnicodeDecodeError", "message": str(exc.value)}}
        assert capsys.readouterr().out == json.dumps(message, indent=2) + "\n"
        assert f"position {len(before)}" in str(exc.value)


def _peak_mb(argv) -> float:
    """The traced peak of ``main(argv)``, its output discarded as written."""
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(_Discard()):
            assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


class TestBoundedMemory:
    """Rows are written piece by piece and files read line by line, so
    neither keeps a Python object per row or per line."""

    #: Beyond the logs (0.8 MB), a 16 384-row piece of json text (1.9 MB) and
    #: its row strings (2.9 MB) while they are joined; csv rows are shorter.
    #: One dict per row took 104.6 MB (json) and 44.5 MB (csv).
    @pytest.mark.parametrize("fmt, bound", [("json", 8.0), ("csv", 5.0)])
    def test_eval_rows_stay_within_a_piece(self, fmt, bound):
        assert _peak_mb(["eval", "--seq", "exp(1/k)", "--range", "1..100000", "--format", fmt]) < bound

    def test_a_float_difference_reads_its_child_window_once(self, monkeypatch):
        """diff's rows are one window: the child is read for its n + m terms,
        not for the m + 1 terms of each row."""
        read, counts = ExpressionSeq._read, []

        def spy(self, ks):
            counts.append(len(ks))
            return read(self, ks)

        monkeypatch.setattr(ExpressionSeq, "_read", spy)
        with contextlib.redirect_stdout(_Discard()):
            assert main(["diff", "--seq", "exp(ln(k)/k)", "--m", "3", "--range", "1..1000"]) == 0
        assert sum(counts) == 1000 + 3

    def test_file_read_stays_under_4_mb(self, tmp_path):
        path = tmp_path / "logs.txt"
        path.write_text("".join(f"{1.0 / k!r}\n" for k in range(1, 100_001)))
        assert _peak_mb(["norm", "--seq", str(path), "--logs", "--N", "50000"]) < 4.0


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

    def test_range_at_the_int64_end(self, capsys):
        assert main(["eval", "--seq", "exp(1/k)", "--range", "9223372036854775806..9223372036854775807"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert [row["k"] for row in json.loads(out)["rows"]] == [2**63 - 2, 2**63 - 1]

    def test_float_difference_at_the_int64_end_is_out_of_range(self, capsys):
        argv = ["diff", "--seq", "exp(ln(k)/k)", "--m", "1", "--range", "9223372036854775807..9223372036854775807"]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert err == ""
        assert json.loads(out)["error"] == {
            "type": "IndexOutOfRange",
            "message": "sequence indices end at 2^63-1, got 9223372036854775808",
        }

    def test_exact_difference_at_the_int64_end(self, capsys):
        argv = ["diff", "--seq", "exp(1/k)", "--m", "1", "--range", "9223372036854775807..9223372036854775807"]
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert json.loads(out)["rows"][0]["log_value"] == 1.1754943508222875e-38

    def test_range_too_long_to_allocate_is_an_error(self, monkeypatch, capsys):
        class ArrayMemoryError(MemoryError):  # as numpy's private subclass
            pass

        arange = np.arange

        def refusing(*args, **kwargs):
            if len(args) > 1 and args[1] - args[0] > 2**32:
                raise ArrayMemoryError("Unable to allocate 8.00 TiB")
            return arange(*args, **kwargs)

        monkeypatch.setattr(np, "arange", refusing)
        assert main(["eval", "--seq", "exp(1/k)", "--range", "1..1099511627776"]) == 1
        out, err = capsys.readouterr()
        assert err == ""
        assert json.loads(out)["error"] == {"type": "MemoryError", "message": "Unable to allocate 8.00 TiB"}

    @pytest.mark.parametrize("last", ["9223372036854775808", str(2**64)])
    def test_range_past_int64_is_a_usage_error(self, last, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--seq", "exp(1/k)", "--range", f"9223372036854775806..{last}"])
        assert exc.value.code == 64
        out, err = capsys.readouterr()
        assert out == ""
        assert err.endswith("range needs 1 <= start <= end <= 2^63-1\n")

    def test_order_cap_is_an_error(self):
        proc = run_cli("diff", "--seq", "exp(k)", "--m", "61", "--range", "1..2")
        assert proc.returncode == 1
        assert json.loads(proc.stdout)["error"]["type"] == "UnsupportedOrder"

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

    @pytest.mark.parametrize(
        "tol, message",
        [("inf", "finite"), ("1e400", "finite"), ("nan", "positive"), ("0", "positive")],
    )
    def test_tol_must_be_positive_and_finite(self, tol, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--seq", "exp(k)", "--space", "linf", "--m", "0", "--N", "100", "--tol", tol])
        assert exc.value.code == 64
        out, err = capsys.readouterr()
        assert out == ""
        assert err.endswith(f"argument --tol: tol must be {message}, got {float(tol)!r}\n")

    @pytest.mark.parametrize(
        "flag, text, message",
        [
            ("--N", "1.5", "N must be an integer >= 4, got '1.5'"),
            ("--m", "x", "m must be an integer >= 0, got 'x'"),
            ("--tol", "abc", "tol must be positive, got 'abc'"),
        ],
    )
    def test_text_that_does_not_parse_gets_the_library_rule(self, flag, text, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--seq", "exp(k)", "--space", "c", flag, text])
        assert exc.value.code == 64
        out, err = capsys.readouterr()
        assert out == ""
        assert err.endswith(f"argument {flag}: {message}\n")
        assert "_type" not in err  # argparse's generic message names the type function


#: One command in a fresh interpreter; prints the geomseq modules it loaded,
#: and numpy.ma if it loaded that.
MODULES_OF = """
import contextlib, io, sys
from geomseq import cli
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(sys.argv[1:])
print(*sorted(name.split(".")[1] for name in sys.modules if name.startswith("geomseq.")))
print("numpy.ma" if "numpy.ma" in sys.modules else "")
"""

COMMANDS = {
    "eval": ("eval", "--seq", "exp(1/k)", "--range", "1..5"),
    "diff": ("diff", "--seq", "exp(k^2)", "--m", "2", "--range", "1..5"),
    "norm": ("norm", "--seq", "exp(k)", "--m", "1", "--N", "1000"),
    "classify": ("classify", "--seq", "exp(k)", "--space", "c0", "--m", "2", "--N", "1000"),
    "dual": ("dual", "--kind", "alpha", "--m", "2", "--seq", "exp(1/(k^4))", "--N", "1000"),
    "lemma": ("lemma", "--seq", "exp(k)", "--N", "1000"),
    "demo": ("demo", "--which", "inclusion", "--m", "2", "--N", "1000"),
}


class TestModuleSets:
    """A command imports only the modules it uses."""

    @pytest.fixture(scope="class")
    def loaded(self):
        def modules(argv):
            proc = subprocess.run([sys.executable, "-c", MODULES_OF, *argv],
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            return set(proc.stdout.split())

        return {command: modules(argv) for command, argv in COMMANDS.items()}

    def test_eval_loads_no_deferred_module(self, loaded):
        assert "gseq" in loaded["eval"]
        assert not loaded["eval"] & {"gdiff", "spaces", "duals", "catalog"}

    @pytest.mark.parametrize("command", ["diff", "norm"])
    def test_differences_add_only_gdiff(self, loaded, command):
        assert loaded[command] == loaded["eval"] | {"gdiff"}

    @pytest.mark.parametrize("command", ["classify", "lemma", "demo"])
    def test_spaces_commands_load_no_duals(self, loaded, command):
        assert "spaces" in loaded[command]
        assert not loaded[command] & {"duals", "catalog"}

    def test_no_command_loads_the_catalog(self, loaded):
        assert loaded["dual"] >= {"gdiff", "spaces", "duals"}
        assert all("catalog" not in modules for modules in loaded.values())

    def test_no_command_loads_numpy_ma(self, loaded):
        # classify --space c0 and demo run the limit probe: np.unique or
        # np.median there would load numpy.ma
        assert all("numpy.ma" not in modules for modules in loaded.values())


class TestHardExit:
    """``python -m geomseq`` ends with ``os._exit`` once its output is flushed."""

    @staticmethod
    def _eval(fmt):
        proc = subprocess.run(
            [sys.executable, "-m", "geomseq", "eval", "--seq", "exp(1/k)", "--range", "1..200000",
             "--format", fmt],
            capture_output=True, timeout=120,
            env={**os.environ, "PYTHONUNBUFFERED": ""},  # a block-buffered stdout, as in a pipeline
        )
        assert proc.returncode == 0 and proc.stderr == b""
        return proc.stdout.decode()

    def test_csv_rows_reach_the_pipe_whole(self):
        lines = self._eval("csv").split("\n")
        assert lines.pop() == ""  # the text ends in a newline
        assert len(lines) == 200_001
        assert lines[-1] == "200000,5e-06,e^5e-06"

    def test_json_rows_reach_the_pipe_whole(self):
        out = self._eval("json")
        assert out.endswith("\n  ]\n}\n")
        rows = json.loads(out)["rows"]
        assert len(rows) == 200_000 and rows[-1]["k"] == 200_000

    def test_help_keeps_the_normal_exit(self):
        proc = run_cli("--help")
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage: geomseq")


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


#: A --logs file repeats one of these patterns of extreme logs, or of
#: them and a line that is not a number.
_LOG_PATTERNS = st.lists(
    st.sampled_from(
        [1e308, -1e308, 1e300, 710.0, 1.0, -1.0, 1e-308, -5e-324, 0.0, "not-a-number"]
    ),
    min_size=1,
    max_size=6,
)


def _commands():
    N = st.sampled_from(["4", "8", "30"])
    m = st.sampled_from(["0", "1", "2", "3", str(MAX_ORDER + 1)])
    return st.one_of(
        st.just(["eval", "--range", "1..6"]),
        st.just(["eval", "--range", "9223372036854775806..9223372036854775807"]),  # int64's end
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
    """Any expression the grammar accepts, or any file of extreme logs, at
    any order up to one past the cap, ends in strict JSON on stdout, nothing
    on stderr, exit 0, 1 or 2, and on exit 1 an error of this package's own
    hierarchy."""

    ERRORS = _error_names(GeometricError)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=200, deadline=None)
    @given(_commands(), EXPRESSIONS | _LOG_PATTERNS)
    @example(["dual", "--kind", "alpha", "--m", "2", "--N", "900"], "exp(1e300*k)")
    @example(["dual", "--kind", "beta", "--m", "1", "--N", "30"], [1e308, 1e308, -1e308])
    @example(["dual", "--kind", "gamma", "--m", "1", "--N", "30"], [1e308, 1e308, -1e308])
    @example(["diff", "--m", str(MAX_ORDER + 1), "--range", "1..6"], "exp(k)")
    @example(["eval", "--range", "1..6"], [1.0, "not-a-number"])
    def test_every_input_ends_in_strict_output(self, argv, seq):
        with tempfile.TemporaryDirectory() as tmp:
            if isinstance(seq, list):
                path = Path(tmp) / "logs.txt"
                path.write_text("".join(f"{v}\n" for v in seq * 30))
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
