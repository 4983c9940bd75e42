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

Exit status: 0 definite verdict, 2 inconclusive, 1 error, 64 usage.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from pathlib import Path

import numpy as np

from .duals import DualReport, dual_test
from .errors import DomainError, GeometricError, ParseError
from .garith import GNum
from .gdiff import delta_binomial, delta_norm
from .gseq import (
    DEFAULT_TOL,
    DEFAULT_WINDOW,
    GSeq,
    seq_from_expr,
    seq_from_logs,
    seq_from_values,
)
from .spaces import (
    SPACES,
    MembershipReport,
    algebra_counterexample,
    classify,
    inclusion_demo,
    lemma_equivalence_check,
)

__all__ = [
    "main",
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


def _window_type(text: str) -> int:
    n = int(text)
    if n < 4:
        raise argparse.ArgumentTypeError("N must be at least 4")
    return n


def _order_type(text: str) -> int:
    m = int(text)
    if m < 0:
        raise argparse.ArgumentTypeError("m must be non-negative")
    return m


def _tol_type(text: str) -> float:
    t = float(text)
    if not t > 0:
        raise argparse.ArgumentTypeError("tol must be positive")
    return t


def _range_type(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise argparse.ArgumentTypeError("range must look like 1..10")
    try:
        a, b = int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError("range bounds must be integers") from None
    if a < 1 or b < a:
        raise argparse.ArgumentTypeError("range needs 1 <= start <= end")
    return a, b


def load_sequence(spec: str, logs: bool = False) -> GSeq:
    """An expression, unless ``spec`` names an existing file of numbers."""
    path = Path(spec)
    try:
        is_file = path.is_file()
    except OSError:  # e.g. an expression longer than a file name may be
        is_file = False
    if is_file:
        values = []
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            try:
                values.append(float(stripped))
            except ValueError:
                raise DomainError(f"{spec}:{lineno}: not a number: {stripped!r}") from None
        arr = np.asarray(values, dtype=np.float64)
        if logs:
            return seq_from_logs(arr)
        return seq_from_values(arr)
    return seq_from_expr(spec)


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


#: Verdict keys the classify and dual envelopes move to their diagnostics.
_DIAGNOSTICS = ("probe_N", "probe_2N", "note")


def _verdict_envelope(name: str, report, args) -> dict:
    """The classify/dual envelope of a report: the verdict split into its
    decision and its diagnostics, the report's ``name`` and m under inputs."""
    d = report.to_dict()
    verdict = d.pop("verdict")
    diagnostics = {key: verdict.pop(key) for key in _DIAGNOSTICS}
    env = {
        "command": args.command,
        "inputs": {
            "seq": args.seq,
            name: d.pop(name),
            "m": d.pop("m"),
            "N": args.N,
            "tol": args.tol,
        },
        "verdict": verdict,
        "diagnostics": diagnostics,
        "witness_index": d.pop("witness_index", None),
        "member": report.member,
    }
    d.pop("window", None)  # the verdict block carries the window
    return {**env, **d}


def _report_from_envelope(cls, name: str, env: dict):
    return cls.from_dict(
        {
            **env,
            name: env["inputs"][name],
            "m": env["inputs"]["m"],
            "verdict": {**env["verdict"], **env["diagnostics"]},
            "window": env["verdict"]["window"],
        }
    )


def membership_report_from_envelope(env: dict) -> MembershipReport:
    """Rebuild the classify report from its JSON envelope."""
    return _report_from_envelope(MembershipReport, "space", env)


def dual_report_from_envelope(env: dict) -> DualReport:
    """Rebuild the dual report from its JSON envelope."""
    return _report_from_envelope(DualReport, "kind", env)


def _rows_envelope(args, seq: GSeq, **inputs) -> dict:
    """The eval/diff envelope: the logs of ``seq`` over ``args.range``."""
    lo, hi = args.range
    logs = seq.log_points(np.arange(lo, hi + 1)).tolist()
    rows = [{"k": k, "log_value": v, "rendering": GNum(v).render()} for k, v in enumerate(logs, lo)]
    inputs = {"seq": args.seq, **inputs, "range": f"{lo}..{hi}"}
    return {"command": args.command, "inputs": inputs, "rows": rows}


def _csv_value(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _flatten(d: dict, prefix: str = ""):
    for key, val in d.items():
        name = f"{prefix}{key}"
        if isinstance(val, dict):
            yield from _flatten(val, name + ".")
        elif isinstance(val, list):
            yield name, json.dumps(val)
        else:
            yield name, val


def _emit(env: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(env, indent=2))
        return
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    if "rows" in env:
        writer.writerow(["k", "log_value", "rendering"])
        for row in env["rows"]:
            writer.writerow([row["k"], _csv_value(row["log_value"]), row["rendering"]])
    else:
        writer.writerow(["key", "value"])
        for key, val in _flatten(env):
            writer.writerow([key, _csv_value(val)])
    sys.stdout.write(out.getvalue())


def _exit_for(*verdict_kinds: str) -> int:
    return EXIT_INCONCLUSIVE if "inconclusive" in verdict_kinds else EXIT_OK


def _run(args: argparse.Namespace) -> int:
    if args.command == "demo":
        demo = inclusion_demo if args.which == "inclusion" else algebra_counterexample
        report = demo(args.m, args.N, args.tol)
        body = report.to_dict()
        env = {
            "command": "demo",
            "inputs": {"which": args.which, "m": args.m, "N": args.N, "tol": args.tol},
            "holds": report.holds,
            "report": body,
        }
        # the nested objects of a demo report are its membership reports
        kinds = [sub["verdict"]["kind"] for sub in body.values() if isinstance(sub, dict)]
        code = _exit_for(*kinds)
    else:
        env, code = _sequence_command(args, load_sequence(args.seq, args.logs))
    _emit(env, args.format)
    return code


def _sequence_command(args: argparse.Namespace, seq: GSeq) -> tuple[dict, int]:
    """The envelope and exit code of a command that reads a sequence."""
    if args.command == "eval":
        return _rows_envelope(args, seq), EXIT_OK
    if args.command == "diff":
        return _rows_envelope(args, delta_binomial(seq, args.m), m=args.m), EXIT_OK
    if args.command == "norm":
        g = delta_norm(seq, args.m, args.N)
        env = {
            "command": "norm",
            "inputs": {"seq": args.seq, "m": args.m, "N": args.N, "tol": args.tol},
            "log_value": g.log_value,
            "rendering": g.render(),
        }
        return env, EXIT_OK
    if args.command == "lemma":
        report = lemma_equivalence_check(seq, args.N, args.tol)
        env = {
            "command": "lemma",
            "inputs": {"seq": args.seq, "N": args.N, "tol": args.tol},
            "agreement": report.agreement,
            "has_inconclusive": report.has_inconclusive,
            "cond_a": report.cond_a.to_dict(),
            "cond_b_i": report.cond_b_i.to_dict(),
            "cond_b_ii": report.cond_b_ii.to_dict(),
            "window": report.window,
        }
        return env, EXIT_INCONCLUSIVE if report.has_inconclusive else EXIT_OK
    if args.command == "classify":
        name, report = "space", classify(seq, args.space, args.m, args.N, args.tol)
    else:
        name, report = "kind", dual_test(seq, args.kind, args.m, args.N, args.tol)
    return _verdict_envelope(name, report, args), _exit_for(report.verdict.kind.value)


def _error_payload(exc: BaseException) -> dict:
    payload = {"type": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, ParseError):
        payload["offset"] = exc.offset
        payload["expected"] = list(exc.expected)
    return {"error": payload}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        try:
            code = _run(args)
        except (GeometricError, ValueError, OverflowError, LookupError, OSError) as exc:
            print(json.dumps(_error_payload(exc), indent=2))
            code = EXIT_ERROR
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left early (``| head``): no traceback, no exit-time flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_ERROR
    return code


if __name__ == "__main__":
    sys.exit(main())
