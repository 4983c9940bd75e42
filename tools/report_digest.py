"""Print a digest of every report, CLI output and demo output, one per line.

    python tools/report_digest.py > after.txt

Each line is a record name and the sha256 of what that record produced:
``json.dumps(report.to_dict(), sort_keys=True)`` for a library report, or a
CLI command's / demo's stdout, stderr and exit code; a point-read record
holds the ``log_at`` of each of its indices (or the error it raised), a
window record the ``log_values`` / ``log_points`` of one read, and
the ``namespace`` record the sorted ``geomseq.__all__``.  To check that a change
leaves every output byte-identical, run the script in a checkout of the
parent commit as well (copy it there if it is new) and ``diff`` the two
files.  The package is imported from the ``src/`` next to this script.
"""

import hashlib
import json
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
    # scanner and error paths
    ["eval", "--seq", "k+\u0663"],
    ["eval", "--seq", "2ek"],
    ["eval", "--seq", "1.e3"],
    ["diff", "--seq", "exp(k)", "--m", "61"],
    ["eval", "--seq", "bad.txt"],
]

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
        (cwd / "bad.txt").write_text("1.0\nnot-a-number\n")
        for argv in CLI_COMMANDS:
            name = "cli[" + " ".join(argv) + "]"
            yield process_line(name, [sys.executable, "-m", "geomseq", *argv], cwd)
        for demo in sorted((ROOT / "demos").glob("*.py")):
            yield process_line(f"demo[{demo.name}]", [sys.executable, str(demo)], cwd)


def main() -> None:
    print(report_line("namespace", lambda: sorted(geomseq.__all__)), flush=True)
    for line in library_records():
        print(line, flush=True)
    for line in point_records():
        print(line, flush=True)
    for line in switch_records():
        print(line, flush=True)
    for line in scan_records():
        print(line, flush=True)
    for line in process_records():
        print(line, flush=True)


if __name__ == "__main__":
    main()
