"""Each demo script runs to completion on its own; the difference-operator
tour prints exactly the values it always has."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# The pinned head of d_operator is the one view whose exact form lists head
# values; these lines difference it.
DIFFERENCE_OPERATOR_OUTPUT = """\
order 3 at k=5 : GNum(e^-6) == GNum(e^-6)
logs at k=1,10,1000: [-6.0, -6.0, -6.0]
order 4 at k=9999 : 0.0 (exact zero)
order 0 is x itself: True
pinned head: [1.0, 1.0, 1.3956124250860895]
norm of pinned image: 0.4166666666666667
sup of its difference: 0.4166666666666667
norm with leading terms: 2.0
"""


def run_demo(path: Path) -> subprocess.CompletedProcess:
    path_var = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(path)],
        capture_output=True,
        text=True,
        timeout=300,
        env=dict(os.environ, PYTHONPATH=path_var),
    )


def test_all_five_demos_are_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(path):
    proc = run_demo(path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_difference_operator_output_is_pinned():
    proc = run_demo(ROOT / "demos" / "03_difference_operator.py")
    assert proc.stdout == DIFFERENCE_OPERATOR_OUTPUT
