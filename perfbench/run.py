"""Benchmark geomseq on one workload and print its metrics.

    python3 perfbench/run.py --workload catalog-spaces --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout; the package is imported from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the run is
instrumented and the metrics are the per-layer ones.  See README.md.
"""

import os

# One process, no threads: keep numpy's BLAS pool at one thread.  This must
# happen before numpy is imported, here or in any child.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 12  # fresh set-up processes timed per run, spread over the run
MAX_REPORTED_ERRORS = 5


def _checked_child(argv, env):
    import decks

    res = decks.run_child(argv, ROOT, env)
    if res.code != 0:
        raise RuntimeError(f"{argv[1:]} exited {res.code}: {res.stderr.strip()[-500:]}")
    return res


class SetupProbe:
    """Times the set-up of a fresh process, ``SETUP_SAMPLES`` times per run.

    The samples are taken between queries, one every ``seconds /
    SETUP_SAMPLES``, rather than all at the start: on a shared machine the
    speed drifts over seconds, and a median over samples spread across the
    whole run follows that drift far less than a burst does.  One untimed warm-up
    comes first, so a cold bytecode cache is not counted.
    """

    def __init__(self, workload: str, seed: int, env, seconds: float):
        if workload == "cli-session":
            self.argv = [sys.executable, "-c", "import geomseq.cli"]
        else:
            self.argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                         "--seed", str(seed), "--setup-only"]
        self.env = env
        self.interval = seconds / SETUP_SAMPLES
        self.times: list[float] = []
        _checked_child(self.argv, env)
        self.last = time.perf_counter()

    def sample(self) -> None:
        t0 = time.perf_counter()
        _checked_child(self.argv, self.env)
        self.last = time.perf_counter()
        self.times.append(self.last - t0)

    def __call__(self) -> None:
        if time.perf_counter() - self.last >= self.interval:
            self.sample()

    def median(self) -> float:
        while len(self.times) < SETUP_SAMPLES // 2:
            self.sample()
        return statistics.median(self.times)


def cli_import_seconds(env) -> float:
    """In-child time of ``import geomseq.cli``, without interpreter start."""
    code = ("import time; t = time.perf_counter(); import geomseq.cli; "
            "print(time.perf_counter() - t)")
    values = [float(_checked_child([sys.executable, "-c", code], env).stdout)
              for _ in range(SETUP_SAMPLES + 1)]
    return statistics.median(values[1:])


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.busy = 0.0  # wall time of every query, failed ones too
        self.times: list[float] = []  # wall time of each query that passed
        self.errors: list[str] = []

    def note(self, text: str) -> None:
        if len(self.errors) < MAX_REPORTED_ERRORS:
            self.errors.append(text)

    def run(self, query, tracer=None) -> None:
        """Run, time and check one query."""
        self.attempted += 1
        problem = None
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = query.run()
            else:
                with tracer.root("query:" + query.name):
                    result = query.run()
        except Exception:  # a query that raises counts as failed
            problem = traceback.format_exc(limit=2).strip()
        elapsed = time.perf_counter() - t0
        self.busy += elapsed
        if problem is None:
            problem = query.check(result)
            if problem is not None:
                self.wrong += 1
                problem = "wrong answer: " + problem
        if problem is None:
            self.times.append(elapsed)
        else:
            self.failed += 1
            self.note(f"{query.name}: {problem}")


def run_rounds(deck, seconds: float, tracer=None, between=None) -> tuple[Tally, int]:
    """Whole rounds of the deck until ``seconds`` have passed (at least one).

    ``between``, when given, is called after every query, outside its timing.
    """
    tally = Tally()
    started = time.perf_counter()
    rounds = 0
    while rounds == 0 or time.perf_counter() - started < seconds:
        for query in deck.queries:
            tally.run(query, tracer)
            if between is not None:
                between()
        rounds += 1
    return tally, rounds


def post_checks(deck, tally: Tally, tracer=None) -> bool:
    ok = True
    for check in deck.post_checks:
        if tracer is None:
            problem = check()
        else:
            with tracer.root("check"):
                problem = check()
        if problem is not None:
            ok = False
            tally.note(f"identity check: {problem}")
    return ok


def peak_alloc_mb(deck) -> float:
    """tracemalloc peak over the N = 10^6 dual tests, run once untraced."""
    import tracemalloc

    peak = 0
    for query in deck.queries:
        if not query.big:
            continue
        tracemalloc.start()
        try:
            query.run()
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peak / 2**20


def measure(workload: str, seed: int, seconds: float) -> dict:
    import decks

    probe = SetupProbe(workload, seed, decks.child_env(ROOT), seconds)
    deck = decks.build(workload, seed, ROOT)
    try:
        tally, _ = run_rounds(deck, seconds, between=probe)
        ok = post_checks(deck, tally)
    finally:
        deck.cleanup()
    setup_s = probe.median()
    who = resource.RUSAGE_CHILDREN if workload == "cli-session" else resource.RUSAGE_SELF
    completed = len(tally.times)
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "queries_per_s": {"value": completed / tally.busy, "unit": "1/s"},
        "query_p50_s": {"value": statistics.median(tally.times) if completed else 0.0,
                        "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(who).ru_maxrss / 1024, "unit": "MB"},
    }
    return _result(tally, ok, metrics)


def measure_traced(workload: str, seed: int, seconds: float) -> dict:
    import answers
    import decks
    import tracing

    import geomseq  # noqa: F401 - instrumenting needs the modules loaded
    import geomseq.cli  # noqa: F401

    tracer = tracing.Tracer()
    tracing.instrument(tracer)
    in_process = workload == "cli-session"
    with tracer.root("setup"):
        deck = decks.build(workload, seed, ROOT, in_process=in_process)
    try:
        if in_process:
            sizes = []
            for query in deck.queries:
                run = query.run

                def sized(run=run):
                    res = run()
                    sizes.append(len(res.stdout.encode()) + len(res.stderr.encode()))
                    return res

                query.run = sized
        tally, rounds = run_rounds(deck, seconds, tracer)
        ok = post_checks(deck, tally, tracer)
        tracer.extra["gseq.window_protocols_s"] = tracing.time_window_protocols(
            tracer.captured, answers.TOL
        )
        if any(q.big for q in deck.queries):
            tracer.extra["duals.peak_alloc_mb"] = peak_alloc_mb(deck)
        if in_process:
            tracer.extra["cli.output_bytes"] = round(sum(sizes) / rounds)
            tracer.extra["cli.import_s"] = cli_import_seconds(decks.child_env(ROOT))
    finally:
        deck.cleanup()
    tracer.write(ROOT / ".bench_out" / f"trace-{workload}-seed{seed}.jsonl")
    # Compared with an untraced run of the same length, this gives the
    # tracing overhead (for cli-session the traced queries run in process).
    print(f"queries_per_s under tracing: {len(tally.times) / tally.busy:.6g}", file=sys.stderr)
    return _result(tally, ok, tracing.layer_metrics(tracer, rounds))


def _result(tally: Tally, ok: bool, metrics: dict) -> dict:
    for text in tally.errors:
        print(text, file=sys.stderr)
    return {
        "correct": ok and tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def self_test() -> int:
    """Flip one expected answer and check that its query is reported failed."""
    import dataclasses

    import answers
    import decks
    import geomseq as gs

    target = next(f for f in answers.SPACE_FACTS
                  if (f.entry, f.space, f.m) == ("exp(k)", "c0", 2))
    flipped = dataclasses.replace(target, member=not target.member)
    cheap = [f for f in answers.SPACE_FACTS if f.entry == "exp(k)" and f.space != "linf"]
    facts = [flipped if f is target else f for f in cheap]
    deck = decks.catalog_spaces(gs, 1, facts=facts)
    deck.queries = [q for q in deck.queries if q.name.startswith("classify")]
    tally, _ = run_rounds(deck, 0)
    expect = f"classify {target.entry} {target.space} m={target.m}: wrong answer"
    caught = any(e.startswith(expect) for e in tally.errors)
    if tally.failed == 1 and tally.wrong == 1 and caught:
        print(f"self-test PASS: {len(facts)} queries, the flipped one reported failed")
        return 0
    print(f"self-test FAIL: failed={tally.failed} wrong={tally.wrong} errors={tally.errors}")
    return 1


def main(argv=None) -> int:
    import decks

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=decks.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import geomseq, build the inputs and exit (set-up probe)")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "geomseq" / "__init__.py").is_file():
        print(f"perfbench: no geomseq package under {SRC}; run from the root of a "
              "geomseq checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_only:
        decks.build(args.workload, args.seed, ROOT).cleanup()
        return 0
    if args.trace:
        result = measure_traced(args.workload, args.seed, args.seconds)
    else:
        result = measure(args.workload, args.seed, args.seconds)
    for name, metric in result["metrics"].items():
        print(f"{name:32s} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
