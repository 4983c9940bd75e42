"""The three workloads: their inputs, their query decks and the checks.

A query is one library call that returns a report, or one CLI process.
Each query pairs the call with a check against :mod:`answers`; a check
returns None when the output is right, or a one-line description of what is
wrong.  ``build`` is the whole set-up of a workload: importing geomseq and
making the inputs from the seed.  A deck runs in a fixed order and the seed
only draws the inputs: with a seeded order, the peak memory of float-duals
moved by one 16 MB buffer between seeds.
"""

from __future__ import annotations

import io
import json
import os
import random
import signal
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

import answers

WORKLOADS = ("catalog-spaces", "float-duals", "cli-session")

SPACE_WINDOW = 100_000  # classify and the catalog dual/lemma queries
BIG_WINDOW = 1_000_000  # the seeded-buffer dual tests of float-duals
CLI_FILE_WINDOW = 20_000  # the --seq <file> --logs dual query of cli-session
CHILD_TIMEOUT_S = 170


@dataclass
class Query:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], Optional[str]]
    big: bool = False  # one of the N = 10^6 dual tests


@dataclass
class Deck:
    queries: list[Query]
    post_checks: list[Callable[[], Optional[str]]] = field(default_factory=list)
    cleanup: Callable[[], None] = lambda: None


# ---------------------------------------------------------------------------
# Checks on library reports


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= 1e-12 * max(1.0, abs(want))


def _kind(member: bool) -> str:
    return "finite" if member else "diverged"


def check_membership(report, fact: answers.SpaceFact) -> Optional[str]:
    kind = report.verdict.kind.value
    if kind != _kind(fact.member) or report.member != fact.member:
        return f"verdict {kind}, expected {_kind(fact.member)}: {fact.reason}"
    if fact.estimate is not None:
        got = report.verdict.estimate.log_value
        if not _close(got, fact.estimate):
            return f"estimate log {got!r}, expected {fact.estimate!r}: {fact.reason}"
    return None


def check_inclusion(report, m: int) -> Optional[str]:
    limit = answers.power_witness_limit(m)
    if not report.holds:
        return f"inclusion demo at m={m} does not hold"
    if report.at_order_m.verdict.kind.value != "diverged":
        return f"c0 at order {m} is not diverged"
    if report.at_order_m_plus_1.verdict.kind.value != "finite":
        return f"c0 at order {m + 1} is not finite"
    if report.chain_c.verdict.estimate.log_value != float(limit):
        return f"c limit log {report.chain_c.verdict.estimate.log_value!r}, expected {limit}"
    if report.chain_linf.verdict.estimate.log_value != float(abs(limit)):
        return f"linf sup log {report.chain_linf.verdict.estimate.log_value!r}, expected {abs(limit)}"
    return None


def check_algebra(report, m: int) -> Optional[str]:
    if not report.holds:
        return f"product counterexample at m={m} does not hold"
    if report.product_report.verdict.kind.value != "diverged":
        return "the product is not diverged in c0"
    return None


def check_dual(report, member: bool, reason: str) -> Optional[str]:
    kind = report.verdict.kind.value
    if kind != _kind(member) or report.member != member:
        return f"verdict {kind}, expected {_kind(member)}: {reason}"
    return None


def check_lemma(report, facts) -> Optional[str]:
    *parts, reason = facts
    got = (report.cond_a, report.cond_b_i, report.cond_b_ii)
    for label, verdict, bounded in zip(("a", "b_i", "b_ii"), got, parts):
        if verdict.kind.value != _kind(bounded):
            return f"part {label} {verdict.kind.value}, expected {_kind(bounded)}: {reason}"
    if not report.agreement or report.has_inconclusive:
        return "parts (a) and (b) disagree or are inconclusive"
    return None


# ---------------------------------------------------------------------------
# Library workloads


def _entries_by_name(gs) -> dict:
    return {entry.name: entry for entry in gs.catalog_entries()}


def _entry_seq(entries: dict, name: str):
    entry = entries.get(name)
    if entry is None:
        raise LookupError(f"catalog entry {name!r} is missing")
    return entry.seq


def _identity_checks(gs, rng: random.Random) -> list[Callable[[], Optional[str]]]:
    """exp(k^m) at sampled k: order m gives log (-1)^m m!, order m+1 gives
    log 0, and the norm at a sampled window gives sum_{i<=m} i^m + m!."""
    checks = []
    for m in (1, 2, 3, 4):
        ks = [rng.randint(1, 10**6) for _ in range(3)]
        window = rng.randint(16, 400)

        def check(m=m, ks=ks, window=window):
            x = gs.seq_from_expr(f"exp(k^{m})")
            for order in (m, m + 1):
                view = gs.delta_binomial(x, order)
                for k in ks:
                    want = answers.forward_difference_of_powers(m, order, k)
                    got = gs.term(view, k).log_value
                    if got != float(want):
                        return f"exp(k^{m}) order {order} at k={k}: log {got!r}, oracle {want}"
            got = gs.delta_norm(x, m, window).log_value
            want = answers.power_norm_log(m)
            if got != float(want):
                return f"norm of exp(k^{m}) at N={window}: log {got!r}, oracle {want}"
            return None

        checks.append(check)
    return checks


def catalog_spaces(gs, seed: int, facts=answers.SPACE_FACTS) -> Deck:
    rng = random.Random(seed)
    entries = _entries_by_name(gs)
    queries = []
    for fact in facts:
        seq = _entry_seq(entries, fact.entry)
        queries.append(Query(
            f"classify {fact.entry} {fact.space} m={fact.m}",
            lambda seq=seq, f=fact: gs.classify(seq, f.space, f.m, SPACE_WINDOW),
            lambda r, f=fact: check_membership(r, f),
        ))
    for m in answers.INCLUSION_ORDERS:
        queries.append(Query(
            f"inclusion_demo m={m}",
            lambda m=m: gs.inclusion_demo(m, SPACE_WINDOW),
            lambda r, m=m: check_inclusion(r, m),
        ))
    for m in answers.ALGEBRA_ORDERS:
        queries.append(Query(
            f"algebra_counterexample m={m}",
            lambda m=m: gs.algebra_counterexample(m, SPACE_WINDOW),
            lambda r, m=m: check_algebra(r, m),
        ))
    return Deck(queries, _identity_checks(gs, rng))


def power_buffer_logs(spec: answers.PowerBuffer, window: int):
    import numpy as np

    ks = np.arange(1, 2 * window + 1, dtype=np.float64)
    return spec.sign * np.power(ks, -spec.p)


def float_duals(gs, seed: int) -> Deck:
    rng = random.Random(seed)
    entries = _entries_by_name(gs)
    queries = []
    for fact in answers.DUAL_FACTS:
        seq = _entry_seq(entries, fact.entry)
        queries.append(Query(
            f"dual {fact.entry} {fact.kind} m={fact.m}",
            lambda seq=seq, f=fact: gs.dual_test(seq, f.kind, f.m, SPACE_WINDOW),
            lambda r, f=fact: check_dual(r, f.member, f.reason),
        ))
    for name, facts in answers.LEMMA_FACTS.items():
        seq = _entry_seq(entries, name)
        queries.append(Query(
            f"lemma {name}",
            lambda seq=seq: gs.lemma_equivalence_check(seq, SPACE_WINDOW),
            lambda r, facts=facts: check_lemma(r, facts),
        ))
    tests = {
        "alpha": lambda s, m: gs.alpha_dual_test(s, m, BIG_WINDOW),
        "alpha_alpha": lambda s, m: gs.alpha_alpha_dual_test(s, m, BIG_WINDOW),
        "beta": lambda s, m: gs.beta_dual_test(s, BIG_WINDOW),
        "gamma": lambda s, m: gs.gamma_dual_test(s, BIG_WINDOW),
    }
    for kind, test in tests.items():
        m = rng.randint(1, 3) if kind.startswith("alpha") else 1
        spec = answers.draw_power_buffer(rng, kind, m)
        seq = gs.seq_from_logs(power_buffer_logs(spec, BIG_WINDOW))
        queries.append(Query(
            f"{kind} m={m} p={spec.p:.4f} N={BIG_WINDOW}",
            lambda seq=seq, test=test, m=m: test(seq, m),
            lambda r, spec=spec: check_dual(
                r, answers.power_buffer_member(spec), spec.reason
            ),
            big=True,
        ))
    return Deck(queries)


# ---------------------------------------------------------------------------
# cli-session


@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: str
    stderr: str


def _envelope(res: CliResult) -> dict:
    return json.loads(res.stdout)


def _expect_exit(res: CliResult, code: int) -> Optional[str]:
    if res.code != code:
        tail = (res.stderr or res.stdout).strip().splitlines()[-1:] or [""]
        return f"exit {res.code}, expected {code}: {tail[0][:200]}"
    return None


def _check_rows(res: CliResult, fmt: str, lo: int, hi: int, want) -> Optional[str]:
    problem = _expect_exit(res, answers.EXIT_OK)
    if problem:
        return problem
    if fmt == "json":
        rows = [(r["k"], r["log_value"]) for r in _envelope(res)["rows"]]
    else:
        lines = res.stdout.splitlines()
        if lines[0] != "k,log_value,rendering":
            return f"csv header {lines[0]!r}"
        rows = []
        for line in lines[1:]:
            k, log_value, _ = line.split(",", 2)
            rows.append((int(k), float(log_value)))
    if [k for k, _ in rows] != list(range(lo, hi + 1)):
        return f"rows do not cover {lo}..{hi}"
    for k, got in rows:
        if got != want(k):
            return f"row k={k}: log {got!r}, expected {want(k)!r}"
    return None


def _check_verdict(res: CliResult, member: bool) -> Optional[str]:
    problem = _expect_exit(res, answers.EXIT_OK)
    if problem:
        return problem
    env = _envelope(res)
    if env["verdict"]["kind"] != _kind(member) or env["member"] is not member:
        return f"verdict {env['verdict']['kind']}, expected {_kind(member)}"
    return None


def _check_norm(res: CliResult) -> Optional[str]:
    problem = _expect_exit(res, answers.EXIT_OK)
    if problem:
        return problem
    got = _envelope(res)["log_value"]
    want = float(answers.power_norm_log(1))
    return None if got == want else f"norm log {got!r}, expected {want!r}"


def _check_lemma_env(res: CliResult) -> Optional[str]:
    problem = _expect_exit(res, answers.EXIT_OK)
    if problem:
        return problem
    env = _envelope(res)
    kinds = [env[p]["kind"] for p in ("cond_a", "cond_b_i", "cond_b_ii")]
    if kinds != ["finite"] * 3 or not env["agreement"] or env["has_inconclusive"]:
        return f"lemma parts {kinds}, agreement {env['agreement']}"
    return None


def _check_demo(res: CliResult) -> Optional[str]:
    problem = _expect_exit(res, answers.EXIT_OK)
    if problem:
        return problem
    return None if _envelope(res)["holds"] is True else "inclusion demo does not hold"


def _check_parse_error(res: CliResult) -> Optional[str]:
    problem = _expect_exit(res, answers.EXIT_ERROR)
    if problem:
        return problem
    for stream in (res.stderr, res.stdout):
        try:
            err = json.loads(stream)["error"]
        except (ValueError, KeyError, TypeError):
            continue
        if (
            err.get("type") == "ParseError"
            and err.get("offset") == answers.MALFORMED_OFFSET
            and isinstance(err.get("expected"), list)
            and "number" in err["expected"]
        ):
            return None
        return f"error object {err!r}"
    return "no ParseError JSON object on either stream"


def cli_commands(seq_file: Path, spec: answers.PowerBuffer):
    """(argv, check) for every command of the session."""
    readme = answers.README_COMMANDS
    lo, hi = answers.ROW_RANGE
    inv = lambda k: 1.0 / k  # noqa: E731 - exp(1/k) rows have log 1/k
    cube = lambda k: float(answers.power_witness_limit(3))  # noqa: E731
    square = lambda k: float(answers.power_witness_limit(2))  # noqa: E731
    commands = [
        (readme[0], lambda r: _check_rows(r, "json", 1, 5, inv)),
        (readme[1], lambda r: _check_rows(r, "json", 1, 5, square)),
        (readme[2], _check_norm),
        # c0 at order 2 of e^k: second differences of k vanish
        (readme[3], lambda r: _check_verdict(r, True)),
        # alpha at m = 2 of e^(k^-4): sum k^2 k^-4 converges
        (readme[4], lambda r: _check_verdict(r, True)),
        (readme[5], _check_lemma_env),
        (readme[6], _check_demo),
    ]
    for fmt in ("json", "csv"):
        commands.append((
            ("eval", "--seq", "exp(1/k)", "--range", f"{lo}..{hi}", "--format", fmt),
            lambda r, fmt=fmt: _check_rows(r, fmt, lo, hi, inv),
        ))
        commands.append((
            ("diff", "--seq", "exp(k^3)", "--m", "3", "--range", f"{lo}..{hi}", "--format", fmt),
            lambda r, fmt=fmt: _check_rows(r, fmt, lo, hi, cube),
        ))
    commands.append((
        ("dual", "--kind", spec.kind, "--m", str(spec.m), "--seq", str(seq_file),
         "--logs", "--N", str(CLI_FILE_WINDOW)),
        lambda r: _check_verdict(r, answers.power_buffer_member(spec)),
    ))
    commands.append((
        ("eval", "--seq", answers.MALFORMED_EXPR, "--range", "1..3"),
        _check_parse_error,
    ))
    return commands


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _expire(signum, frame):
    raise TimeoutError(f"child process still running after {CHILD_TIMEOUT_S} s")


def run_child(argv, root: Path, env: dict) -> CliResult:
    """Run one child to its end and capture its output.

    The time limit comes from SIGALRM, not from ``subprocess``'s own
    timeout: with a timeout, ``Popen.wait`` polls with sleeps of up to
    50 ms, and those sleeps would land in every measured wall time.
    """
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.alarm(CHILD_TIMEOUT_S)
    try:
        proc = subprocess.Popen(argv, cwd=root, env=env, text=True,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            out, err = proc.communicate()
        except BaseException:
            proc.kill()
            proc.communicate()
            raise
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    return CliResult(proc.returncode, out, err)


def run_cli_child(argv, root: Path, env: dict) -> CliResult:
    return run_child([sys.executable, "-m", "geomseq", *argv], root, env)


def run_cli_in_process(argv) -> CliResult:
    from geomseq import cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return CliResult(int(code), out.getvalue(), err.getvalue())


def cli_session(seed: int, root: Path, in_process: bool) -> Deck:
    rng = random.Random(seed)
    kind = rng.choice(("alpha", "alpha_alpha", "beta", "gamma"))
    m = rng.randint(1, 3) if kind.startswith("alpha") else 1
    spec = answers.draw_power_buffer(rng, kind, m)
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    seq_file = out_dir / f"cli-logs-seed{seed}-pid{os.getpid()}.txt"
    logs = power_buffer_logs(spec, CLI_FILE_WINDOW)
    seq_file.write_text("\n".join(repr(float(v)) for v in logs) + "\n")

    env = child_env(root)
    queries = []
    for argv, check in cli_commands(seq_file, spec):
        if in_process:
            run = lambda argv=argv: run_cli_in_process(argv)  # noqa: E731
        else:
            run = lambda argv=argv: run_cli_child(argv, root, env)  # noqa: E731
        queries.append(Query("geomseq " + " ".join(argv), run, check))
    return Deck(queries, cleanup=lambda: seq_file.unlink(missing_ok=True))


def build(workload: str, seed: int, root: Path, in_process: bool = False) -> Deck:
    """The whole set-up of one workload: import geomseq and make the inputs."""
    if workload == "cli-session":
        if in_process:
            import geomseq.cli  # noqa: F401
        return cli_session(seed, root, in_process)
    import geomseq as gs

    if workload == "catalog-spaces":
        return catalog_spaces(gs, seed)
    if workload == "float-duals":
        return float_duals(gs, seed)
    raise ValueError(f"unknown workload {workload!r}")
