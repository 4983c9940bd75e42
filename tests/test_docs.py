"""The ``>>>`` examples of the README and the package docstring run as
written.  The README's sit in fenced ``python`` blocks, whose closing fence
would read as expected output, so each block is parsed on its own."""

import doctest
import re
from pathlib import Path

import geomseq

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_examples():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    parser, runner = doctest.DocTestParser(), doctest.DocTestRunner()
    for i, block in enumerate(blocks, 1):
        runner.run(parser.get_doctest(block, {}, f"README.md block {i}", str(README), 0))
    failed, attempted = runner.summarize(verbose=False)
    assert attempted == 7 and failed == 0


def test_package_docstring_examples():
    failed, attempted = doctest.testmod(geomseq)
    assert attempted == 3 and failed == 0
