"""Spans and counts for the traced run, recorded from outside the package.

``instrument(tracer)`` wraps the public entry points of each geomseq module
(and the block-access methods of the sequence classes) so that every call
opens a span named after its layer.  Nothing inside ``src/geomseq`` is
changed: functions are replaced in every module namespace that binds them,
and methods on the classes that define them.

Per-term layers (``eval_log_exact``, ``log_at``) are called millions of
times per round, so calls of the same layer under the same parent span are
merged into one span record that keeps the first start, the last end, the
number of calls and the summed duration.  A layer's self time is its summed
duration minus the summed duration of its child spans.  A call that
re-enters the layer it is already in (recursion, or a view delegating to
another sequence of the same layer) stays inside the outer span.
"""

from __future__ import annotations

import functools
import json
import math
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

# Per-layer metrics, in the order BENCHMARK.json lists them.
LAYER_METRICS = (
    ("catalog.build_s", "s"),
    ("exprdsl.parse_s", "s"),
    ("exprdsl.eval_log_array_s", "s"),
    ("exprdsl.eval_log_exact_s", "s"),
    ("exprdsl.eval_log_exact_calls", "count"),
    ("gseq.log_values_s", "s"),
    ("gseq.log_values_terms", "count"),
    ("gseq.log_exact_block_s", "s"),
    ("gseq.log_exact_block_terms", "count"),
    ("gseq.log_at_s", "s"),
    ("gseq.log_at_calls", "count"),
    ("gseq.window_protocols_s", "s"),
    ("gdiff.delta_block_s", "s"),
    ("gdiff.delta_norm_s", "s"),
    ("spaces.classify_linf_s", "s"),
    ("spaces.classify_c_s", "s"),
    ("spaces.classify_c0_s", "s"),
    ("spaces.lemma_s", "s"),
    ("duals.alpha_s", "s"),
    ("duals.alpha_alpha_s", "s"),
    ("duals.beta_s", "s"),
    ("duals.gamma_s", "s"),
    ("duals.peak_alloc_mb", "MB"),
    ("cli.import_s", "s"),
    ("cli.main_s", "s"),
    ("cli.output_bytes", "bytes"),
)

# Roots whose spans are reported once per run; every other root is a query
# and its spans are averaged over the rounds.
ONCE_ROOTS = ("setup", "check")


class Span:
    __slots__ = ("id", "name", "parent", "root", "start", "end", "calls",
                 "busy", "child_busy", "units", "kids")

    def __init__(self, sid, name, parent, root, start):
        self.id = sid
        self.name = name
        self.parent = parent
        self.root = root
        self.start = start
        self.end = start
        self.calls = 0
        self.busy = 0.0
        self.child_busy = 0.0
        self.units = 0
        self.kids = {}

    @property
    def self_s(self) -> float:
        return self.busy - self.child_busy


class Tracer:
    """In-memory span store; written out once, when the run ends."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.extra: dict[str, float] = defaultdict(float)
        self.captured: list[np.ndarray] = []

    def _new(self, name, parent, root, start):
        sp = Span(len(self.spans), name, parent, root, start)
        self.spans.append(sp)
        return sp

    def root(self, name: str):
        """Open a top-level span: "setup", "check", or one query."""
        return _RootScope(self, name)

    def current(self):
        return self.stack[-1] if self.stack else None

    def call(self, name, fn, args, kwargs, units=0):
        parent = self.current()
        if parent is None or parent.name == name:
            return fn(*args, **kwargs)
        sp = parent.kids.get(name)
        t0 = time.perf_counter()
        if sp is None:
            sp = self._new(name, parent, parent.root, t0)
            parent.kids[name] = sp
        self.stack.append(sp)
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self.stack.pop()
            dt = t1 - t0
            sp.end = t1
            sp.calls += 1
            sp.busy += dt
            sp.units += units
            parent.child_busy += dt

    def layer_totals(self, rounds: int) -> dict[str, tuple[float, int, int]]:
        """name -> (self seconds, calls, units), setup and checks counted
        once, queries averaged over ``rounds``."""
        out: dict[str, list[float]] = defaultdict(lambda: [0.0, 0.0, 0.0])
        for sp in self.spans:
            if sp.parent is None:
                continue
            scale = 1.0 if sp.root.name in ONCE_ROOTS else 1.0 / rounds
            acc = out[sp.name]
            acc[0] += sp.self_s * scale
            acc[1] += sp.calls * scale
            acc[2] += sp.units * scale
        return {k: (v[0], round(v[1]), round(v[2])) for k, v in out.items()}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for sp in self.spans:
                fh.write(json.dumps({
                    "id": sp.id,
                    "name": sp.name,
                    "parent": None if sp.parent is None else sp.parent.id,
                    "root": sp.root.id,
                    "start": sp.start,
                    "end": sp.end,
                    "calls": sp.calls,
                    "busy_s": sp.busy,
                    "self_s": sp.self_s,
                    "units": sp.units,
                }) + "\n")


class _RootScope:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        sp = self.tracer._new(self.name, None, None, time.perf_counter())
        sp.root = sp
        self.span = sp
        self.tracer.stack.append(sp)
        return sp

    def __exit__(self, *exc):
        t1 = time.perf_counter()
        self.tracer.stack.pop()
        sp = self.span
        sp.end = t1
        sp.calls = 1
        sp.busy = t1 - sp.start
        return False


# ---------------------------------------------------------------------------
# Instrumentation


def _wrap_function(tracer, name, fn, namer=None, counter=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = namer(args, kwargs) if namer else name
        units = counter(args, kwargs) if counter else 0
        return tracer.call(span, fn, args, kwargs, units)

    return wrapper


def _is_view(obj) -> bool:
    return type(obj).__module__ == "geomseq.gdiff"


def _count_arg(args, kwargs):
    return int(kwargs.get("count", args[2] if len(args) > 2 else 0))


def _capture(tracer, result):
    parent = tracer.current()
    if (
        len(tracer.captured) < 8
        and parent is not None
        and parent.name.split(".")[0] in ("spaces", "duals")
        and isinstance(result, np.ndarray)
        and result.size >= 8
    ):
        tracer.captured.append(result)


def instrument(tracer: Tracer) -> None:
    """Wrap the package's entry points for the rest of the process."""
    import geomseq
    from geomseq import catalog, cli, duals, exprdsl, gdiff, gseq, spaces

    modules = (geomseq, catalog, cli, duals, exprdsl, gdiff, gseq, spaces)

    def classify_name(args, kwargs):
        space = kwargs.get("space", args[1] if len(args) > 1 else "?")
        return f"spaces.classify_{space}"

    functions = {
        (catalog, "catalog_entries"): ("catalog.build", None, None),
        (exprdsl, "parse"): ("exprdsl.parse", None, None),
        (exprdsl, "eval_log_array"): ("exprdsl.eval_log_array", None, None),
        (exprdsl, "eval_log_exact"): ("exprdsl.eval_log_exact", None, lambda a, k: 1),
        (gdiff, "delta_norm"): ("gdiff.delta_norm", None, None),
        (spaces, "classify"): ("spaces.classify", classify_name, None),
        (spaces, "lemma_equivalence_check"): ("spaces.lemma", None, None),
        (spaces, "inclusion_demo"): ("spaces.inclusion_demo", None, None),
        (spaces, "algebra_counterexample"): ("spaces.algebra_counterexample", None, None),
        (duals, "alpha_dual_test"): ("duals.alpha", None, None),
        (duals, "alpha_alpha_dual_test"): ("duals.alpha_alpha", None, None),
        (duals, "beta_dual_test"): ("duals.beta", None, None),
        (duals, "gamma_dual_test"): ("duals.gamma", None, None),
        (duals, "dual_test"): ("duals.dual_test", None, None),
        (cli, "main"): ("cli.main", None, None),
    }
    for (home, attr), (name, namer, counter) in functions.items():
        original = getattr(home, attr, None)
        if original is None:
            continue
        wrapped = _wrap_function(tracer, name, original, namer, counter)
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, key, wrapped)

    def block_method(layer, fn):
        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            name = "gdiff.delta_block" if _is_view(self) else layer
            units = _count_arg((self,) + args, kwargs)
            result = tracer.call(name, fn, (self,) + args, kwargs, units)
            _capture(tracer, result)
            return result

        return wrapper

    def scalar_method(layer, fn):
        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            return tracer.call(layer, fn, (self,) + args, kwargs, 1)

        return wrapper

    methods = {
        "log_values": lambda fn: block_method("gseq.log_values", fn),
        "log_exact_block": lambda fn: block_method("gseq.log_exact_block", fn),
        "log_at": lambda fn: scalar_method("gseq.log_at", fn),
    }
    classes = [
        cls
        for mod in (gseq, gdiff)
        for cls in vars(mod).values()
        if isinstance(cls, type) and issubclass(cls, gseq.GSeq) and cls.__module__ == mod.__name__
    ]
    for cls in classes:
        for attr, make in methods.items():
            if attr in vars(cls):
                setattr(cls, attr, make(vars(cls)[attr]))


# ---------------------------------------------------------------------------
# Window protocols on the workload's own arrays


def time_window_protocols(arrays, tol: float) -> float:
    """Seconds to decide every N/2, N, 2N protocol on the captured blocks.

    Each captured block is read as 2N terms of a statistic: its running sup,
    its compensated running sum and its signed partial sums each go through
    the package's verdict functions.  Returns 0 when the package no longer
    has them.
    """
    from geomseq import gseq

    monotone = getattr(gseq, "monotone_verdict", None)
    signed = getattr(gseq, "signed_series_verdict", None)
    if monotone is None or signed is None:
        return 0.0
    total = 0.0
    for arr in arrays:
        n = len(arr) // 2
        if n < 4:
            continue
        vals = np.abs(arr[: 2 * n])
        partials = np.cumsum(arr[: 2 * n])
        t0 = time.perf_counter()
        half = max(1, n // 2)
        monotone(float(np.max(vals[:half])), float(np.max(vals[:n])),
                 float(np.max(vals)), n, tol)
        monotone(math.fsum(vals[:half]), math.fsum(vals[:n]), math.fsum(vals), n, tol)
        signed(partials, n, tol)
        total += time.perf_counter() - t0
    return total


def layer_metrics(tracer: Tracer, rounds: int) -> dict[str, dict]:
    totals = tracer.layer_totals(rounds)

    def self_s(name):
        return totals.get(name, (0.0, 0, 0))[0]

    values = {
        "catalog.build_s": self_s("catalog.build"),
        "exprdsl.parse_s": self_s("exprdsl.parse"),
        "exprdsl.eval_log_array_s": self_s("exprdsl.eval_log_array"),
        "exprdsl.eval_log_exact_s": self_s("exprdsl.eval_log_exact"),
        "exprdsl.eval_log_exact_calls": totals.get("exprdsl.eval_log_exact", (0, 0, 0))[1],
        "gseq.log_values_s": self_s("gseq.log_values"),
        "gseq.log_values_terms": totals.get("gseq.log_values", (0, 0, 0))[2],
        "gseq.log_exact_block_s": self_s("gseq.log_exact_block"),
        "gseq.log_exact_block_terms": totals.get("gseq.log_exact_block", (0, 0, 0))[2],
        "gseq.log_at_s": self_s("gseq.log_at"),
        "gseq.log_at_calls": totals.get("gseq.log_at", (0, 0, 0))[1],
        "gdiff.delta_block_s": self_s("gdiff.delta_block"),
        "gdiff.delta_norm_s": self_s("gdiff.delta_norm"),
        "spaces.classify_linf_s": self_s("spaces.classify_linf"),
        "spaces.classify_c_s": self_s("spaces.classify_c"),
        "spaces.classify_c0_s": self_s("spaces.classify_c0"),
        "spaces.lemma_s": self_s("spaces.lemma"),
        "duals.alpha_s": self_s("duals.alpha"),
        "duals.alpha_alpha_s": self_s("duals.alpha_alpha"),
        "duals.beta_s": self_s("duals.beta"),
        "duals.gamma_s": self_s("duals.gamma"),
        "cli.main_s": self_s("cli.main"),
    }
    values.update(tracer.extra)
    return {name: {"value": values.get(name, 0), "unit": unit} for name, unit in LAYER_METRICS}
