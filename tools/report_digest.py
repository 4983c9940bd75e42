"""Print a digest of every report, CLI output and demo output, one per line.

    python tools/report_digest.py > after.txt

Each line is a record name and the sha256 of what that record produced:
``json.dumps(report.to_dict(), sort_keys=True)`` for a library report, or a
CLI command's / demo's stdout, stderr and exit code; a point-read record
holds the ``log_at`` of each of its indices (or the error it raised), a
window record the ``log_values`` / ``log_points`` of one read, and
the ``namespace`` record the sorted ``geomseq.__all__``.  To check that a change
leaves every output byte-identical, run the script in a checkout of the
parent commit as well (copy it there if it is new) and compare the two
files:

    python tools/report_digest.py --compare before.txt after.txt

That exits 1 unless the records that differ (changed, added or removed) are
exactly the ones listed in ``tools/digest_moves.txt``, one
``record-name<TAB>reason`` a line: a record that moved unlisted fails, and
so does a listed one that did not move, so the list holds only the moves of
the change at hand.  The package is imported from the ``src/`` next to this
script.

The boundary records also score the verdicts.  Each name ends in its
p-series answer, ``member`` or ``not-member``:

    python tools/report_digest.py --score > after-score.txt
    python tools/report_digest.py --compare-scores before-score.txt after-score.txt

``--score`` re-runs the boundary probes and prints how many verdicts are
right, wrong, ``inconclusive`` or an error per probe and m, then each wrong
and each error record by name.  ``--compare-scores`` exits 1 when a record is
wrong or an error after but not before, unless ``tools/digest_moves.txt``
lists it.
"""

import argparse
import hashlib
import json
import math
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(ROOT / "perfbench"))

import numpy as np  # noqa: E402

import geomseq  # noqa: E402
from geomseq import catalog, duals, gdiff, gseq, spaces  # noqa: E402
import answers  # noqa: E402  (perfbench's answer key)
from decks import power_buffer_logs  # noqa: E402

N = 100_000

#: Windows of the scan records: at 2^15 the ends N/2, N and 2N each close a
#: 2^14-term piece of the window scan; at 2^15 + 3 none does.
SCAN_WINDOWS = (1 << 15, (1 << 15) + 3)

#: The window of float-duals' four seeded power-buffer dual tests.
BIG_WINDOW = 1_000_000

CLI_COMMANDS = [
    # the README examples
    ["eval", "--seq", "exp(1/k)", "--range", "1..5"],
    ["diff", "--seq", "exp(k^2)", "--m", "2", "--range", "1..5"],
    ["norm", "--seq", "exp(k)", "--m", "1", "--N", "1000"],
    ["classify", "--seq", "exp(k)", "--space", "c0", "--m", "2", "--N", "100000"],
    ["dual", "--kind", "alpha", "--m", "2", "--seq", "exp(1/(k^4))"],
    ["lemma", "--seq", "exp(k)", "--N", "50000"],
    ["demo", "--which", "inclusion", "--m", "2"],
    # csv output, other kinds and spaces, errors
    ["classify", "--seq", "exp(1/k)", "--space", "linf", "--m", "1", "--format", "csv"],
    ["dual", "--kind", "gamma", "--seq", "exp(1/k^3)", "--N", "10000", "--format", "csv"],
    ["dual", "--kind", "beta", "--seq", "exp(2^(0-k))", "--N", "10000"],
    ["dual", "--kind", "alpha-alpha", "--m", "1", "--seq", "exp(k)", "--N", "10000"],
    ["demo", "--which", "algebra", "--m", "3", "--format", "csv"],
    ["lemma", "--seq", "exp(1/k)", "--N", "10000", "--format", "csv"],
    ["eval", "--seq", "exp(1/k)", "--range", "1..5", "--format", "csv"],
    ["diff", "--seq", "exp(k^2)", "--m", "2", "--range", "1..5", "--format", "csv"],
    ["norm", "--seq", "exp(k)", "--m", "1", "--N", "1000", "--format", "csv"],
    ["classify", "--seq", "exp(1/k)", "--space", "c", "--m", "0", "--N", "10000"],
    ["classify", "--seq", "exp(1/k)", "--space", "c0", "--m", "1", "--N", "10000"],
    ["eval", "--seq", "exp(k^"],
    ["eval", "--seq", "exp(q)"],
    # file buffers, read from the working directory
    ["dual", "--kind", "alpha", "--m", "1", "--seq", "values.txt", "--N", "1000"],
    ["dual", "--kind", "beta", "--seq", "logs.txt", "--logs", "--N", "1000"],
    ["classify", "--seq", "logs.txt", "--logs", "--space", "linf", "--m", "1", "--N", "1000"],
    # float row reads
    ["eval", "--seq", "exp(ln(k)/k)", "--range", "1..3000"],
    ["diff", "--seq", "exp(ln(k))", "--m", "3", "--range", "1..3000"],
    # window sums that pass float64 with infinite terms among them
    ["dual", "--kind", "alpha", "--m", "2", "--seq", "exp(1e300*k)", "--N", "900"],
    ["dual", "--kind", "beta", "--seq", "overflow.txt", "--logs", "--N", "900"],
    ["dual", "--kind", "gamma", "--seq", "overflow.txt", "--logs", "--N", "900"],
    # window sums over logs from 2^1005 down to subnormals
    ["dual", "--kind", "alpha", "--m", "1", "--seq", "wide.txt", "--logs", "--N", "900"],
    ["dual", "--kind", "beta", "--seq", "wide.txt", "--logs", "--N", "900"],
    # scanner and error paths
    ["eval", "--seq", "k+\u0663"],
    ["eval", "--seq", "2ek"],
    ["eval", "--seq", "1.e3"],
    ["diff", "--seq", "exp(k)", "--m", "61"],
    ["eval", "--seq", "bad.txt"],
    # a float power across the underflow fill: 3^-k rounds to zero from k = 679
    ["eval", "--seq", "exp(3^(0-k))", "--range", "660..700"],
]

#: ``log_values`` windows ``(start, count)`` across the underflow fill of
#: float powers, where p·log2 b passes -1074..-1080: at k = 1074..1080 for
#: 2^-k and 0.5^k, k = 143..148 for k^-150 and k = 41..43 for (1/k)^200.
FILL_WINDOWS = {
    "exp(2^(0-k))": ((1050, 60), (1, 3000)),
    "exp(0.5^k)": ((1060, 30), (1, 3000)),
    "exp(k^(0-150))": ((130, 30), (1, 3000)),
    "exp((1/k)^200)": ((35, 15), (1, 3000)),
}

#: ``log_values`` windows ``(start, count)`` that replay the checked
#: evaluator (k^400 overflows from k = 6, yet 1/(k^400) reads 0.0 there; a
#: zero divisor at k = 2), and windows across the last k with k^p below
#: 2^53, where ``k^p`` stops being a product of copies of k: k = 94 906 265
#: for p = 2, 208 063 for 3, 9741 for 4 and 1552 for 5.
EDGE_WINDOWS = {
    "exp(1/(k^400))": ((1, 16),),
    "exp(0-1/(k-2))": ((1, 4), (3, 16)),
    "exp(k^2)": ((94_906_250, 32),),
    "exp(k^3)": ((208_048, 32), (208_064, 16)),
    "exp(1/k^3)": ((208_048, 32),),
    "exp(k^4)": ((9726, 32),),
    "exp(1/k^4)": ((9726, 16), (9727, 16)),
    "exp(k^5)": ((1537, 32),),
    "exp(1/k^5)": ((1537, 16), (1538, 16)),
}

#: Expressions whose terms fault at different nodes, and the windows N of
#: their fault records: exp(exp(exp(exp(k)+exp(k)))) overflows its outer exp
#: from k = 2 and an inner one from k = 6; ln(ln(exp(0.5^k))) is negative
#: from k = 1 and takes ln of 0 from k = 53.  A read names its first failing
#: term with that term's innermost fault, so the whole window 1..2N and the
#: beta scan, which stops at its first failing piece, name the same term.
FAULT_EXPRESSIONS = ("exp(exp(exp(exp(k)+exp(k))))", "ln(ln(exp(0.5^k)))")
FAULT_WINDOWS = (4, 27)

#: Window of the exact-sum kernel records: its ends close no 2^14-term piece.
WIDE_WINDOW = (1 << 15) + 3

#: Window of the tail-spike records: logs k^-1.5, whose tails R_k ~ 2/sqrt(k)
#: are not summable, with amplitude/sqrt(N) taken from term N+1.
SPIKE_WINDOW = 1 << 15

#: Window of the boundary records (:func:`boundary_records`).
BOUNDARY_WINDOW = 1 << 12

#: The boundary grid: p = t/10 for these tenths t, from -3 to 5.
BOUNDARY_TENTHS = range(-30, 51)

#: The boundary probes, (name, m): a space, a dual kind, or ``remainder``
#: (the tail after term 0).
BOUNDARY_PROBES = (
    *((space, m) for space in ("linf", "c", "c0") for m in range(3)),
    ("alpha", 1), ("alpha", 2), ("alpha_alpha", 1), ("alpha_alpha", 2),
    ("beta", 1), ("gamma", 1), ("remainder", 0),
)

#: The boundary families, name -> (s, alternating): logs s*k^-p, or
#: s*(-1)^k*k^-p when alternating.
BOUNDARY_FAMILIES = {
    "k^-p": (1.0, False),
    "-3k^-p": (-3.0, False),
    "(-1)^k k^-p": (1.0, True),
    "-3(-1)^k k^-p": (-3.0, True),
}

#: Constant logs past the log magnitude limit 1e6 (family k^-p at p = 0).
BOUNDARY_CONSTANTS = (2e6, -3e6, 1e300)

#: Expressions seen to get a wrong verdict: (source, probe, m, member).
BOUNDARY_EXPRESSIONS = (
    # a limit probe's rise that halves at each doubling
    ("exp(1-1/k)", "c", 0, True),
    ("exp(1-1/k)", "c0", 1, True),
    ("exp(k/(k+1))", "c", 0, True),
    ("exp((5*k-3)/(k+3))", "c", 0, True),
    ("exp((3*k^2-k+3)/(k+5))", "c", 1, True),
    # every sample of a power-of-two window is even
    ("exp(1-(0-1)^k)", "c0", 0, False),
    ("exp(1-(0-1)^k)", "c", 0, False),
    ("exp((0-1)^k)", "c", 0, False),
    ("exp((0-1)^k)", "c0", 1, False),
    # mixed exponents
    ("exp(k^4+2^(0-k))", "c", 4, True),
    ("exp(k^2+ln(k))", "linf", 2, True),
    ("2*exp(k^2)", "linf", 2, True),
    # convergent first-order series and a constant past the magnitude limit
    ("exp(1/k^3)", "beta", 1, True),
    ("exp((0-1)^k/k^2)", "beta", 1, True),
    ("exp((0-1)^k/k)", "beta", 1, False),
    ("exp(2000000)", "linf", 0, True),
    ("exp(2000000)", "c", 0, True),
    ("exp(2000000)", "alpha_alpha", 1, True),
)

#: The digest's expected moves, one ``record-name<TAB>reason`` a line.
MOVES = Path(__file__).resolve().with_name("digest_moves.txt")

#: Indices of the point-read records, by label.
POINT_KS = {"1..300": range(1, 301), "1000": [1000], "5000": [5000], "77777": [77_777]}


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def report_line(name: str, make) -> str:
    """The digest of ``make()``'s JSON, or of the error it raises."""
    try:
        payload = make()
    except Exception as exc:  # an error is an output too
        payload = {"error": type(exc).__name__, "message": str(exc)}
    return f"{name} {digest(json.dumps(payload, sort_keys=True).encode())}"


def _pair(result) -> list:
    value, verdict = result
    return [value.log_value, verdict.to_dict()]


def library_records():
    for entry in catalog.catalog_entries():
        x, name = entry.seq, entry.name
        for space, m in sorted(entry.space_annotations):
            yield report_line(
                f"classify[{name}|{space}|{m}]",
                lambda: spaces.classify(x, space, m, N).to_dict(),
            )
        kinds = set(entry.dual_annotations) | {(k, 1) for k in duals.DUAL_KINDS}
        kinds |= {("alpha", 2), ("alpha", 3)}
        for kind, m in sorted(kinds):
            yield report_line(
                f"dual[{name}|{kind}|{m}]", lambda: duals.dual_test(x, kind, m, N).to_dict()
            )
        yield report_line(
            f"lemma[{name}]", lambda: spaces.lemma_equivalence_check(x, N).to_dict()
        )
        yield report_line(
            f"weighted_sup[{name}]", lambda: _pair(spaces.weighted_sup(x, 0, -1.0, N))
        )
        for n, window in ((0, 1000), (3, N), (16383, 50_000)):
            yield report_line(
                f"remainder[{name}|{n}|{window}]", lambda: _pair(gseq.remainder(x, n, window))
            )
        for n in (0, 1, 16384, 16385, 2 * N):
            yield report_line(
                f"gsum_partial[{name}|{n}]", lambda: gseq.gsum_partial(x, n).log_value
            )
    for m in range(1, 5):
        yield report_line(f"inclusion_demo[{m}]", lambda: spaces.inclusion_demo(m, N).to_dict())
    for m in (2, 3):
        yield report_line(
            f"algebra_counterexample[{m}]", lambda: spaces.algebra_counterexample(m, N).to_dict()
        )


def _points(seq, ks) -> list:
    out = []
    for k in ks:
        try:
            out.append(seq.log_at(k))
        except Exception as exc:
            out.append({"error": type(exc).__name__, "message": str(exc)})
    return out


def point_records():
    """``log_at`` of float views, read one index at a time."""
    bases = {src: gseq.seq_from_expr(src) for src in
             ("exp(ln(k))", "exp(ln(k)/k)", "exp(2^(0-k))", "exp(k^k)")}
    bases["buffer"] = gseq.seq_from_logs(np.random.default_rng(20261018).normal(0.0, 5.0, 80_000))
    for name, x in bases.items():
        for m in range(4):
            view = gdiff.delta_binomial(x, m)
            for label, ks in POINT_KS.items():
                yield report_line(f"log_at[{name}|{m}|{label}]", lambda: _points(view, ks))
    mixed = gseq.seq_oplus(gseq.seq_from_expr("exp(1/k)"), gseq.seq_from_expr("exp(ln(k)/k)"))
    for label, ks in POINT_KS.items():
        yield report_line(f"log_at[exp(1/k)+exp(ln(k)/k)|{label}]", lambda: _points(mixed, ks))


def switch_records():
    """Exact windows on both sides of ``RatFunc.values``' float64 / Python-int
    switch, which moves with the largest index read."""
    # 3k^2+3k+1 stays within 2^53 through k = 54 794 157
    cube = gdiff.delta_binomial(gseq.seq_from_expr("exp(k^3)"), 1)
    for start in (54_794_142, 54_794_143):
        yield report_line(
            f"log_values[delta1 exp(k^3)|{start}|16]", lambda: cube.log_values(start, 16).tolist()
        )
    # k^4+2k^3+k^2 stays within 2^53 through k = 9741
    inv = gdiff.delta_binomial(gseq.seq_from_expr("exp(1/k^2)"), 1)
    for last in (9741, 9742):
        ks = np.arange(last - 15, last + 1)
        yield report_line(
            f"log_points[delta1 exp(1/k^2)|{last - 15}..{last}]", lambda: inv.log_points(ks).tolist()
        )


def fill_records():
    """Float windows on both sides of the underflow fill of float powers,
    of an evaluator replay and of the 2^53 edge of integer powers."""
    for src, windows in {**FILL_WINDOWS, **EDGE_WINDOWS}.items():
        x = gseq.seq_from_expr(src)
        for start, count in windows:
            yield report_line(
                f"log_values[{src}|{start}|{count}]", lambda: x.log_values(start, count).tolist()
            )


def fault_records():
    """The whole-window read of terms 1..2N and the beta test at each of
    :data:`FAULT_WINDOWS` on each of :data:`FAULT_EXPRESSIONS`."""
    for src in FAULT_EXPRESSIONS:
        x = gseq.seq_from_expr(src)
        for n in FAULT_WINDOWS:
            yield report_line(f"log_values[{src}|1|{2 * n}]", lambda: x.log_values(1, 2 * n).tolist())
            yield report_line(f"beta[{src}|{n}]", lambda: duals.beta_dual_test(x, n).to_dict())


def scan_records():
    """The windowed reports at :data:`SCAN_WINDOWS` on every catalog entry,
    its single-end scans (``sup_gabs``, ``delta_norm`` at m = 0..2) at N and
    at :data:`SCAN_WINDOWS`, and float-duals' four N = 10^6 dual tests on
    the power buffers that its seeds 1 and 2 draw."""
    for entry in catalog.catalog_entries():
        x, name = entry.seq, entry.name
        for n in (N, *SCAN_WINDOWS):
            yield report_line(f"sup_gabs[{name}|{n}]", lambda: gseq.sup_gabs(x, n).log_value)
            for m in range(3):
                yield report_line(
                    f"delta_norm[{name}|{m}|{n}]", lambda: gdiff.delta_norm(x, m, n).log_value
                )
        for n in SCAN_WINDOWS:
            reports = {
                "alpha|2": lambda: duals.alpha_dual_test(x, 2, n).to_dict(),
                "alpha_alpha|1": lambda: duals.alpha_alpha_dual_test(x, 1, n).to_dict(),
                "beta": lambda: duals.beta_dual_test(x, n).to_dict(),
                "gamma": lambda: duals.gamma_dual_test(x, n).to_dict(),
                "linf|1": lambda: spaces.classify(x, "linf", 1, n).to_dict(),
                "lemma": lambda: spaces.lemma_equivalence_check(x, n).to_dict(),
                "remainder|16383": lambda: _pair(gseq.remainder(x, 16383, n)),
            }
            for label, make in reports.items():
                yield report_line(f"scan[{name}|{label}|{n}]", make)
    for seed in (1, 2):
        rng = random.Random(seed)  # drawn in the order of perfbench's float-duals deck
        for kind in duals.DUAL_KINDS:
            m = rng.randint(1, 3) if kind.startswith("alpha") else 1
            spec = answers.draw_power_buffer(rng, kind, m)
            x = gseq.seq_from_logs(power_buffer_logs(spec, BIG_WINDOW))
            yield report_line(
                f"power_buffer[{seed}|{kind}|{m}|{spec.p!r}|{spec.sign!r}]",
                lambda: duals.dual_test(x, kind, m, BIG_WINDOW).to_dict(),
            )


def spike_records():
    """The beta and gamma tests on the tail-spike buffers at :data:`SPIKE_WINDOW`."""
    n = SPIKE_WINDOW
    for amplitude in (2.0, 1.0):
        logs = np.arange(1, 2 * n + 1, dtype=np.float64) ** -1.5
        logs[n] -= amplitude / math.sqrt(n)
        x = gseq.seq_from_logs(logs)
        for kind in ("beta", "gamma"):
            yield report_line(
                f"tail_spike[{kind}|{amplitude!r}|{n}]",
                lambda: duals.dual_test(x, kind, 1, n).to_dict(),
            )


def wide_buffers(count: int) -> dict:
    """Log buffers of ``count`` terms whose window sums take the exact-sum
    kernel to its edges: terms of 2^1000 and more, subnormals, and spans like
    2^-k that reach across the whole exponent range."""
    rng = np.random.default_rng(20261019)
    k = np.arange(count)
    signs = rng.choice([-1.0, 1.0], size=count)
    big = np.ldexp(1.0 + rng.random(count), rng.integers(1000, 1007, size=count))
    tiny = rng.integers(1, 1 << 52, size=count) * 2.0**-1074
    spread = np.ldexp(rng.random(count), rng.integers(-1074, 960, size=count))
    return {
        "spread": gseq.seq_from_logs(spread * signs),
        "big_and_subnormal": gseq.seq_from_logs(np.where(k % 2 == 0, big, tiny) * signs),
        "halving": gseq.seq_from_logs(np.ldexp(1.1, -(k % 1100)) * (-1.0) ** k),
        "sparse": gseq.SparseLogSeq(
            {1: 2.0**1006, 2: -5e-324, 3: 2.0**-1000, 16384: -(2.0**1006), count - 1: 1.5}
        ),
    }


def kernel_records():
    """The window sums of :func:`wide_buffers` at :data:`WIDE_WINDOW`: the alpha
    and beta dual tests, ``gsum_partial``, ``remainder`` and ``delta_norm``."""
    n = WIDE_WINDOW
    for name, x in wide_buffers(2 * n).items():
        reports = {
            "alpha|1": lambda: duals.alpha_dual_test(x, 1, n).to_dict(),
            "alpha|2": lambda: duals.alpha_dual_test(x, 2, n).to_dict(),
            "beta": lambda: duals.beta_dual_test(x, n).to_dict(),
            "gsum_partial|16385": lambda: gseq.gsum_partial(x, 16385).log_value,
            f"gsum_partial|{2 * n}": lambda: gseq.gsum_partial(x, 2 * n).log_value,
            "remainder|16383": lambda: _pair(gseq.remainder(x, 16383, n)),
            "delta_norm|2": lambda: gdiff.delta_norm(x, 2, n).log_value,
        }
        for label, make in reports.items():
            yield report_line(f"wide[{name}|{label}|{n}]", make)


def p_series_member(probe: str, m: int, tenths: int, alternating: bool) -> bool:
    """Whether logs s*k^-p, or s*(-1)^k*k^-p when alternating, with s != 0
    and p = tenths/10, pass ``probe`` at order m: the p-series test on the
    weighted logs, on the beta and gamma tests' partial sums of k^(1-p) and
    tails R_k ~ k^(1-p) (k^-p when alternating), and on ``remainder``'s
    tail; and Delta^m k^-p ~ k^(-p-m), a constant at p = -m, or (-1)^k
    times about 2^m k^-p when alternating."""
    if probe == "alpha":
        return tenths > 10 * (m + 1)
    if probe == "alpha_alpha":
        return tenths + 10 * m >= 0
    if alternating:
        return {
            "linf": tenths >= 0, "c": tenths > 0, "c0": tenths > 0,
            "beta": tenths > 10, "gamma": tenths > 10, "remainder": tenths > 0,
        }[probe]
    return {
        "linf": tenths + 10 * m >= 0, "c": tenths + 10 * m >= 0, "c0": tenths + 10 * m > 0,
        "beta": tenths > 20, "gamma": tenths > 20, "remainder": tenths > 10,
    }[probe]


def boundary_logs(s: float, alternating: bool, tenths: int, n: int) -> np.ndarray:
    """The 2n + 2 logs of a boundary family at p = tenths/10."""
    ks = np.arange(1, 2 * n + 3, dtype=np.float64)
    logs = s * ks ** (-tenths / 10)
    if alternating:
        logs[::2] *= -1.0  # (-1)^k at k = 1, 3, 5, ...
    return logs


def probe_report(x, probe: str, m: int, n: int):
    """The report of one boundary probe at window n."""
    if probe == "remainder":
        return _pair(gseq.remainder(x, 0, n))
    if probe in spaces.SPACES:
        return spaces.classify(x, probe, m, n).to_dict()
    return duals.dual_test(x, probe, m, n).to_dict()


def boundary_cases():
    """``(name, make)`` of each boundary record: the probes of
    :data:`BOUNDARY_PROBES` at :data:`BOUNDARY_WINDOW` on each family of
    :data:`BOUNDARY_FAMILIES` over the p grid, on the constant logs of
    :data:`BOUNDARY_CONSTANTS`, and the queries of
    :data:`BOUNDARY_EXPRESSIONS`.  Each name ends in the p-series answer."""
    n = BOUNDARY_WINDOW

    def answer(member):
        return "member" if member else "not-member"

    cases = [(f"{name}|p={t / 10}", boundary_logs(s, alt, t, n), t, alt)
             for name, (s, alt) in BOUNDARY_FAMILIES.items() for t in BOUNDARY_TENTHS]
    cases += [(f"constant {c!r}", np.full(2 * n + 2, c), 0, False) for c in BOUNDARY_CONSTANTS]
    for label, logs, t, alt in cases:
        x = gseq.seq_from_logs(logs)
        for probe, m in BOUNDARY_PROBES:
            yield (f"boundary[{probe}|{m}|{label}|{answer(p_series_member(probe, m, t, alt))}]",
                   lambda x=x, probe=probe, m=m: probe_report(x, probe, m, n))
    for src, probe, m, member in BOUNDARY_EXPRESSIONS:
        yield (f"boundary[{probe}|{m}|{src}|{answer(member)}]",
               lambda src=src, probe=probe, m=m: probe_report(gseq.seq_from_expr(src), probe, m, n))


def boundary_records():
    """The digest line of each :func:`boundary_cases` record."""
    for name, make in boundary_cases():
        yield report_line(name, make)


#: How a boundary record is scored, in the order the score prints them.
OUTCOMES = ("right", "wrong", "inconclusive", "error")


def score_outcome(name: str, make) -> str:
    """One boundary record judged against its name's answer: the verdict
    ``finite`` says member, ``diverged`` not member; for ``remainder`` the
    verdict is the pair's second element."""
    try:
        result = make()
    except Exception:
        return "error"
    kind = (result[1] if isinstance(result, list) else result["verdict"])["kind"]
    if kind == "inconclusive":
        return kind
    return "right" if (kind == "finite") == name.endswith("|member]") else "wrong"


def score() -> None:
    """Print the right / wrong / inconclusive / error counts of the boundary
    records per probe and m, their totals, then each wrong and each error
    record as ``outcome name``."""
    counts, named = {}, []
    for name, make in boundary_cases():
        outcome = score_outcome(name, make)
        probe, m = name[len("boundary["):].split("|")[:2]
        counts.setdefault((probe, m), dict.fromkeys(OUTCOMES, 0))[outcome] += 1
        if outcome in ("wrong", "error"):
            named.append(f"{outcome} {name}")
    print(f"{'probe':<12} {'m':>2}" + "".join(f" {o:>12}" for o in OUTCOMES))
    for (probe, m), row in counts.items():
        print(f"{probe:<12} {m:>2}" + "".join(f" {row[o]:>12}" for o in OUTCOMES))
    total = {o: sum(row[o] for row in counts.values()) for o in OUTCOMES}
    print("total: " + ", ".join(f"{total[o]} {o}" for o in OUTCOMES), f"of {sum(total.values())} records")
    print(*named, sep="\n")


def read_score(path: Path) -> dict:
    """Record name -> ``wrong`` or ``error``, from a :func:`score` output."""
    named = {}
    for line in path.read_text().splitlines():
        outcome, _, name = line.partition(" ")
        if outcome in ("wrong", "error") and name.startswith("boundary["):
            named[name] = outcome
    return named


def compare_scores(before: Path, after: Path) -> int:
    """1 if a record is wrong or an error after but was not so before,
    unless :data:`MOVES` lists it; records mended are printed too."""
    base, head = read_score(before), read_score(after)
    listed = expected_moves()
    broken = [name for name, outcome in head.items() if base.get(name) != outcome]
    for name in broken:
        note = "" if name in listed else f", not listed in {MOVES.name}"
        print(f"{head[name]} after, {base.get(name, 'right or inconclusive')} before{note}: {name}")
    for name in sorted(base.keys() - head.keys()):
        print(f"no longer wrong or an error: {name}")
    print(f"{len(base)} wrong or error records before, {len(head)} after")
    return int(any(name not in listed for name in broken))


def process_line(name: str, argv: list, cwd: Path) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    res = subprocess.run(argv, cwd=cwd, env=env, capture_output=True)
    out = b"\0".join([res.stdout, res.stderr, str(res.returncode).encode()])
    return f"{name} {digest(out)}"


def process_records():
    with tempfile.TemporaryDirectory() as tmp:
        cwd = Path(tmp)
        ks = range(1, 2001)
        (cwd / "values.txt").write_text("".join(f"{1 + 1 / k**2!r}\n" for k in ks))
        (cwd / "logs.txt").write_text("".join(f"{(-1) ** k / k!r}\n" for k in ks))
        (cwd / "overflow.txt").write_text("1e308\n1e308\n-1e308\n" * 700)
        (cwd / "wide.txt").write_text(
            "".join(f"{(-1) ** k * 2.0 ** (1006 - k) if k % 7 else k * 5e-324!r}\n" for k in ks)
        )
        (cwd / "bad.txt").write_text("1.0\nnot-a-number\n")
        for argv in CLI_COMMANDS:
            name = "cli[" + " ".join(argv) + "]"
            yield process_line(name, [sys.executable, "-m", "geomseq", *argv], cwd)
        for demo in sorted((ROOT / "demos").glob("*.py")):
            yield process_line(f"demo[{demo.name}]", [sys.executable, str(demo)], cwd)


def read_digest(path: Path) -> dict:
    """Record name -> sha256 of a digest file; a name may hold spaces."""
    records = {}
    for line in path.read_text().splitlines():
        name, _, sha = line.rpartition(" ")
        if name in records:
            raise SystemExit(f"{path}: record {name!r} twice")
        records[name] = sha
    return records


def expected_moves() -> dict:
    """Record name -> reason, from :data:`MOVES`; ``#`` lines are comments."""
    moves = {}
    for line in MOVES.read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            name, _, reason = line.partition("\t")
            if not reason.strip():
                raise SystemExit(f"{MOVES.name}: no reason for {name!r}")
            moves[name] = reason
    return moves


def compare(before: Path, after: Path) -> int:
    """1 unless the records that differ are exactly the expected moves."""
    base, head = read_digest(before), read_digest(after)
    moved = {name for name in base.keys() | head.keys() if base.get(name) != head.get(name)}
    listed = set(expected_moves())
    for name in sorted(moved - listed):
        print(f"moved, not listed in {MOVES.name}: {name}")
    for name in sorted(listed - moved):
        print(f"listed in {MOVES.name}, did not move: {name}")
    print(f"{len(moved)} of {len(head)} records moved, {len(listed)} listed")
    return int(moved != listed)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("BEFORE", "AFTER"))
    parser.add_argument("--score", action="store_true", help="score the boundary records")
    parser.add_argument("--compare-scores", nargs=2, type=Path, metavar=("BEFORE", "AFTER"))
    args = parser.parse_args()
    if args.compare:
        sys.exit(compare(*args.compare))
    if args.compare_scores:
        sys.exit(compare_scores(*args.compare_scores))
    if args.score:
        return score()
    print(report_line("namespace", lambda: sorted(geomseq.__all__)), flush=True)
    for line in library_records():
        print(line, flush=True)
    for line in point_records():
        print(line, flush=True)
    for line in switch_records():
        print(line, flush=True)
    for line in fill_records():
        print(line, flush=True)
    for line in fault_records():
        print(line, flush=True)
    for line in scan_records():
        print(line, flush=True)
    for line in spike_records():
        print(line, flush=True)
    for line in kernel_records():
        print(line, flush=True)
    for line in boundary_records():
        print(line, flush=True)
    for line in process_records():
        print(line, flush=True)


if __name__ == "__main__":
    main()
