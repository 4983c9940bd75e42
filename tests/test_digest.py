"""``tools/report_digest.py --compare``: a change passes only when the digest
records that differ are exactly those listed in ``tools/digest_moves.txt``."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "report_digest.py"


@pytest.fixture(scope="module")
def digest_tool():
    spec = importlib.util.spec_from_file_location("report_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_listed_move_has_a_reason(digest_tool):
    moves = digest_tool.expected_moves()
    assert all(reason.strip() for reason in moves.values())
    assert not any(name != name.strip() for name in moves)


@pytest.mark.parametrize(
    "listed, code",
    [
        (["cli[dual --kind beta]", "new[1]"], 0),
        (["cli[dual --kind beta]"], 1),  # new[1] was added unlisted
        (["cli[dual --kind beta]", "new[1]", "same[1]"], 1),  # same[1] did not move
        (["new[1]", "same[1]"], 1),
    ],
)
def test_compare_is_two_sided(digest_tool, tmp_path, monkeypatch, listed, code):
    before, after, moves = tmp_path / "before.txt", tmp_path / "after.txt", tmp_path / "moves.txt"
    before.write_text("same[1] aa\ncli[dual --kind beta] bb\n")
    after.write_text("same[1] aa\ncli[dual --kind beta] cc\nnew[1] dd\n")
    moves.write_text("# a comment\n" + "".join(f"{name}\tbecause\n" for name in listed))
    monkeypatch.setattr(digest_tool, "MOVES", moves)
    assert digest_tool.compare(before, after) == code
