"""Command-line front end.

Subcommands map one-to-one onto library operations:

* ``eval``     term values over a k-range
* ``diff``     difference-sequence terms over a k-range
* ``norm``     the order-m difference norm over a window
* ``classify`` membership of a difference sequence space
* ``dual``     dual-space membership (alpha, alpha-alpha, beta, gamma)
* ``lemma``    the two-sided boundedness equivalence check
* ``demo``     the strict-inclusion and product-escape demonstrations

Sequences are given with ``--seq`` as either expression text (``"exp(k^2)"``)
or a path to an existing file of newline-separated positive values
(``--logs`` reads the lines as logs instead).  Numeric output is log-domain
under ``log_value`` plus a rendering ``e^{...}``.

Every output is one envelope: ``command``, ``inputs``, then the command's
body.  ``inputs`` echoes the command's own arguments among seq, which, space,
kind, m, range, N and tol, in that order, the range as ``a..b`` and the kind
as ``dual_test`` reports it (``alpha_alpha`` for ``alpha-alpha``).

Exit status: 0 definite verdict, 2 inconclusive, 1 error, 64 usage.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING, NoReturn

import numpy as np

from .errors import DomainError, GeometricError, ParseError, check_int
from .garith import GNum
from .gseq import (
    DEFAULT_TOL,
    DEFAULT_WINDOW,
    SPACES,
    SUM_CHUNK,
    GSeq,
    check_tol,
    check_window,
    seq_from_expr,
    seq_from_logs,
    seq_from_values,
)

# gdiff, spaces, duals and csv are imported by the commands that use them.
if TYPE_CHECKING:
    from .duals import DualReport
    from .spaces import MembershipReport

__all__ = [
    "main",
    "run",
    "load_sequence",
    "membership_report_from_envelope",
    "dual_report_from_envelope",
]

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 64


class _ArgumentParser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; the contract here is 64."""

    def error(self, message):  # noqa: A002 - argparse API
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _usage(parse, text: str, check, *args):
    """A library argument check of the parsed text, whose ``ValueError`` is a
    usage error.  Text that does not parse goes to the check as it is, so the
    message states the library's rule either way."""
    try:
        value = parse(text)
    except ValueError:
        value = text
    try:
        return check(value, *args)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _window_type(text: str) -> int:
    return _usage(int, text, check_window, DEFAULT_TOL)


def _order_type(text: str) -> int:
    # not check_order: an order past MAX_ORDER is the library's UnsupportedOrder, exit 1
    return _usage(int, text, check_int, "m", 0)


def _tol_type(text: str) -> float:
    return _usage(float, text, check_tol)


def _range_type(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise argparse.ArgumentTypeError("range must look like 1..10")
    try:
        a, b = int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError("range bounds must be integers") from None
    if a < 1 or b < a or b >= 2**63:
        raise argparse.ArgumentTypeError("range needs 1 <= start <= end <= 2^63-1")
    return a, b


def load_sequence(spec: str, logs: bool = False) -> GSeq:
    """An expression, unless ``spec`` names an existing file of numbers."""
    if not os.path.isfile(spec):  # also for an expression longer than a file name may be
        return seq_from_expr(spec)
    try:
        with open(spec) as f:
            arr = np.fromiter(_numbers(f, spec), dtype=np.float64)
    except UnicodeDecodeError:
        with open(spec) as f:
            f.read()  # the same error, its byte position counted from the file's start
        raise
    return seq_from_logs(arr) if logs else seq_from_values(arr)


def _numbers(f, spec: str):
    """The numbers of a file, line by line.  Each raw line is split again, so
    the lines and their numbers are ``read_text().splitlines()``'s."""
    for lineno, line in enumerate((line for raw in f for line in raw.splitlines()), start=1):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            try:
                yield float(stripped)
            except ValueError:
                for _ in f:  # an undecodable byte further on is the error read_text() meets first
                    pass
                raise DomainError(f"{spec}:{lineno}: not a number: {stripped!r}") from None


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="geomseq", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_ArgumentParser)

    def seq_flags(p, with_range=False, with_window=False, with_m=True):
        p.add_argument("--seq", required=True, help="expression text or buffer file path")
        p.add_argument("--logs", action="store_true", help="buffer file lines are logs, not values")
        if with_m:
            p.add_argument("--m", type=_order_type, default=1, help="difference order (default 1)")
        if with_range:
            p.add_argument("--range", type=_range_type, default=(1, 10), metavar="A..B",
                           help="k-range, default 1..10")
        if with_window:
            p.add_argument("--N", type=_window_type, default=DEFAULT_WINDOW,
                           help=f"probe window (default {DEFAULT_WINDOW})")
            p.add_argument("--tol", type=_tol_type, default=DEFAULT_TOL,
                           help=f"stabilization tolerance (default {DEFAULT_TOL})")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p_eval = sub.add_parser("eval", help="evaluate terms over a k-range")
    seq_flags(p_eval, with_range=True, with_m=False)

    p_diff = sub.add_parser("diff", help="difference-sequence terms over a k-range")
    seq_flags(p_diff, with_range=True)

    p_norm = sub.add_parser("norm", help="order-m difference norm over a window")
    seq_flags(p_norm, with_window=True)

    p_classify = sub.add_parser("classify", help="difference-space membership")
    seq_flags(p_classify, with_window=True)
    p_classify.add_argument("--space", required=True, choices=SPACES)

    p_dual = sub.add_parser("dual", help="dual-space membership")
    seq_flags(p_dual, with_window=True)
    p_dual.add_argument(
        "--kind",
        required=True,
        choices=("alpha", "alpha-alpha", "alpha_alpha", "beta", "gamma"),
    )

    p_lemma = sub.add_parser("lemma", help="two-sided boundedness equivalence check")
    seq_flags(p_lemma, with_window=True, with_m=False)

    p_demo = sub.add_parser("demo", help="inclusion / product-escape demonstrations")
    p_demo.add_argument("--which", choices=("inclusion", "algebra"), default="inclusion")
    p_demo.add_argument("--m", type=_order_type, default=1)
    p_demo.add_argument("--N", type=_window_type, default=DEFAULT_WINDOW)
    p_demo.add_argument("--tol", type=_tol_type, default=DEFAULT_TOL)
    p_demo.add_argument("--format", choices=("json", "csv"), default="json")

    return parser


#: The arguments ``inputs`` echoes, in this order, where the command takes them.
_INPUTS = ("seq", "which", "space", "kind", "m", "range", "N", "tol")

#: Verdict keys the classify and dual envelopes move to their diagnostics.
_DIAGNOSTICS = ("probe_N", "probe_2N", "note")


def _envelope(args, **body) -> dict:
    """``{"command", "inputs", **body}``, the one shape of every output."""
    given = vars(args)
    inputs = {key: given[key] for key in _INPUTS if key in given}
    if "range" in inputs:
        inputs["range"] = "{}..{}".format(*inputs["range"])
    if "kind" in inputs:
        inputs["kind"] = inputs["kind"].replace("-", "_")  # as dual_test reports it
    return {"command": args.command, "inputs": inputs, **body}


def _verdict_envelope(report, args) -> dict:
    """The classify/dual envelope of a report: the verdict split into its
    decision and its diagnostics; its space or kind and m are the inputs'."""
    d = report.to_dict()
    verdict = d.pop("verdict")
    diagnostics = {key: verdict.pop(key) for key in _DIAGNOSTICS}
    witness = d.pop("witness_index", None)
    for key in ("space", "kind", "m", "window"):  # the verdict block carries the window
        d.pop(key, None)
    return _envelope(args, verdict=verdict, diagnostics=diagnostics, witness_index=witness,
                     member=report.member, **d)


def _report_from_envelope(cls, name: str, env: dict):
    inputs, verdict = env["inputs"], {**env["verdict"], **env["diagnostics"]}
    return cls.from_dict({**env, name: inputs[name], "m": inputs["m"], "verdict": verdict,
                          "window": verdict["window"]})


def membership_report_from_envelope(env: dict) -> MembershipReport:
    """Rebuild the classify report from its JSON envelope."""
    from .spaces import MembershipReport

    return _report_from_envelope(MembershipReport, "space", env)


def dual_report_from_envelope(env: dict) -> DualReport:
    """Rebuild the dual report from its JSON envelope."""
    from .duals import DualReport

    return _report_from_envelope(DualReport, "kind", env)


def _rows_envelope(args, seq: GSeq) -> dict:
    """The eval/diff envelope; its rows are the logs over the window ``args.range``, read whole."""
    lo, hi = args.range
    return _envelope(args, rows=seq.log_points(range(lo, hi + 1)))


#: Per format, a row's template and the text between two rows.  No field needs quoting
#: or escaping (an int, a float repr, ``e^`` and a number): csv.writer's rows.
_ROWS = {"json": ('{{\n      "k": {},\n      "log_value": {},\n      "rendering": "{}"\n    }}', ",\n    "),
         "csv": ("{},{},{}", "\n")}


def _csv_value(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)  # a float's str is its repr


def _flatten(d: dict, prefix: str = ""):
    for key, val in d.items():
        name = f"{prefix}{key}"
        if isinstance(val, dict):
            yield from _flatten(val, name + ".")
        elif isinstance(val, list):
            yield name, json.dumps(val)
        else:
            yield name, val


def _emit(env: dict, args) -> None:
    """Write an envelope; eval/diff rows one piece of text per write, nothing to raise past the head."""
    fmt, out = args.format, sys.stdout
    if "rows" in env:
        row, sep = _ROWS[fmt]
        head, _, tail = json.dumps({**env, "rows": [None]}, indent=2).rpartition("null")
        if fmt == "csv":
            head, tail = "k,log_value,rendering\n", ""
        out.write(head)
        for i in range(0, len(env["rows"]), SUM_CHUNK):
            piece = env["rows"][i : i + SUM_CHUNK]
            k, vals = args.range[0] + i, piece.tolist()
            text = repr if fmt == "csv" or np.isfinite(piece).all() else json.dumps  # Infinity, NaN
            if i:
                out.write(sep)
            out.write(sep.join(map(row.format, range(k, k + len(vals)), map(text, vals),
                                   map(GNum.RENDER.format, vals))))
        out.write(tail + "\n")
    elif fmt == "json":
        print(json.dumps(env, indent=2))
    else:
        import csv

        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["key", "value"])
        for key, val in _flatten(env):
            writer.writerow([key, _csv_value(val)])


def _exit_for(*verdict_kinds: str) -> int:
    return EXIT_INCONCLUSIVE if "inconclusive" in verdict_kinds else EXIT_OK


def _run_command(args: argparse.Namespace) -> int:
    if args.command == "demo":
        from .spaces import algebra_counterexample, inclusion_demo

        demo = inclusion_demo if args.which == "inclusion" else algebra_counterexample
        report = demo(args.m, args.N, args.tol)
        body = report.to_dict()
        env = _envelope(args, holds=report.holds, report=body)
        # the nested objects of a demo report are its membership reports
        kinds = [sub["verdict"]["kind"] for sub in body.values() if isinstance(sub, dict)]
        code = _exit_for(*kinds)
    else:
        env, code = _sequence_command(args, load_sequence(args.seq, args.logs))
    _emit(env, args)
    return code


def _sequence_command(args: argparse.Namespace, seq: GSeq) -> tuple[dict, int]:
    """The envelope and exit code of a command that reads a sequence."""
    if args.command == "eval":
        return _rows_envelope(args, seq), EXIT_OK
    if args.command == "diff":
        from .gdiff import delta_binomial

        return _rows_envelope(args, delta_binomial(seq, args.m)), EXIT_OK
    if args.command == "norm":
        from .gdiff import delta_norm

        g = delta_norm(seq, args.m, args.N)
        return _envelope(args, log_value=g.log_value, rendering=g.render()), EXIT_OK
    if args.command == "lemma":
        from .spaces import lemma_equivalence_check

        report = lemma_equivalence_check(seq, args.N, args.tol)
        env = _envelope(
            args, agreement=report.agreement, has_inconclusive=report.has_inconclusive,
            cond_a=report.cond_a.to_dict(), cond_b_i=report.cond_b_i.to_dict(),
            cond_b_ii=report.cond_b_ii.to_dict(), window=report.window,
        )
        return env, EXIT_INCONCLUSIVE if report.has_inconclusive else EXIT_OK
    if args.command == "classify":
        from .spaces import classify

        report = classify(seq, args.space, args.m, args.N, args.tol)
    else:
        from .duals import dual_test

        report = dual_test(seq, args.kind, args.m, args.N, args.tol)
    return _verdict_envelope(report, args), _exit_for(report.verdict.kind.value)


def _error_payload(exc: BaseException) -> dict:
    kind = MemoryError if isinstance(exc, MemoryError) else type(exc)  # numpy raises a private subclass
    payload = {"type": kind.__name__, "message": str(exc)}
    if isinstance(exc, ParseError):
        payload["offset"] = exc.offset
        payload["expected"] = list(exc.expected)
    return {"error": payload}


def main(argv=None) -> int:
    """Run one command and return its exit status; argparse's usage errors
    and ``--help`` raise ``SystemExit``."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        try:
            code = _run_command(args)
        except (GeometricError, ValueError, OverflowError, LookupError, OSError, MemoryError) as exc:
            print(json.dumps(_error_payload(exc), indent=2))
            code = EXIT_ERROR
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left early (``| head``): no traceback, no exit-time flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_ERROR
    return code


def run() -> NoReturn:
    """The process entry point of ``python -m geomseq`` and the ``geomseq``
    script: :func:`main`, then ``os._exit`` with its code once stdout and
    stderr are flushed, so the process skips interpreter teardown (module and
    numpy finalization), which costs more than most commands' own work.

    ``os._exit`` runs no ``atexit`` handler and flushes no other stream: one
    added later, say a ``logging`` handler, must be flushed here first.  A
    ``SystemExit`` from argparse (usage, ``--help``) and an exception the
    command does not catch leave the normal way.
    """
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
