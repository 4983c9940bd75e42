"""``tools/report_digest.py --compare``: a change passes only when the digest
records that differ are exactly those listed in ``tools/digest_moves.txt``.
``--score`` judges each boundary verdict against its record's name, and
``--compare-scores`` fails on a record newly wrong or an error, unlisted."""

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


@pytest.mark.parametrize(
    "name, result, outcome",
    [
        ("boundary[c|0|x|member]", {"verdict": {"kind": "finite"}}, "right"),
        ("boundary[c|0|x|not-member]", {"verdict": {"kind": "finite"}}, "wrong"),
        ("boundary[c|0|x|not-member]", {"verdict": {"kind": "diverged"}}, "right"),
        ("boundary[c|0|x|member]", {"verdict": {"kind": "inconclusive"}}, "inconclusive"),
        ("boundary[remainder|0|x|member]", [0.5, {"kind": "diverged"}], "wrong"),
        ("boundary[remainder|0|x|not-member]", [0.5, {"kind": "diverged"}], "right"),
    ],
)
def test_a_verdict_is_scored_against_its_name(digest_tool, name, result, outcome):
    assert digest_tool.score_outcome(name, lambda: result) == outcome


def test_an_error_scores_as_an_error(digest_tool):
    def fails():
        raise ValueError("no report")

    assert digest_tool.score_outcome("boundary[c|0|x|member]", fails) == "error"


@pytest.mark.parametrize(
    "listed, code",
    [
        ([], 1),  # boundary[b] went wrong unlisted
        (["boundary[b|0|x|member]"], 0),
        (["boundary[a|0|x|member]"], 1),  # a mend needs no listing
    ],
)
def test_compare_scores_fails_on_a_new_wrong_record(digest_tool, tmp_path, monkeypatch, listed, code):
    before, after, moves = tmp_path / "before.txt", tmp_path / "after.txt", tmp_path / "moves.txt"
    before.write_text("total: 1 right\nwrong boundary[a|0|x|member]\nerror boundary[c|0|x|member]\n")
    after.write_text("total: 1 right\nwrong boundary[b|0|x|member]\nerror boundary[c|0|x|member]\n")
    moves.write_text("".join(f"{name}\tbecause\n" for name in listed))
    monkeypatch.setattr(digest_tool, "MOVES", moves)
    assert digest_tool.compare_scores(before, after) == code
