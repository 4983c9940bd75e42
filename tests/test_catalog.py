"""The curated table is the harness's ground truth, so it gets checked both
ways: every annotation must reproduce through the classifiers, and the
table's own structure must stay sound."""

import pytest

from geomseq import VerdictKind, classify, dual_test
from geomseq.catalog import BASES, Annotation, catalog_entries

N = 100_000


def test_at_least_a_dozen_entries(catalog):
    assert len(catalog) >= 12


def test_names_are_unique(catalog):
    names = [e.name for e in catalog]
    assert len(set(names)) == len(names)


def test_every_annotation_carries_a_reason(catalog):
    for entry in catalog:
        for ann in list(entry.space_annotations.values()) + list(
            entry.dual_annotations.values()
        ):
            assert ann.basis in BASES
            assert ann.note


def test_oracle_annotations_name_their_oracle(catalog):
    for entry in catalog:
        for ann in entry.dual_annotations.values():
            if ann.basis == "oracle":
                assert "oracle" in ann.note, entry.name


def test_annotation_guard():
    with pytest.raises(ValueError):
        Annotation(True, "hearsay", "because")
    with pytest.raises(ValueError):
        Annotation(True, "oracle", "no source named")


def test_entries_rebuild_fresh():
    a = catalog_entries()
    b = catalog_entries()
    assert [e.name for e in a] == [e.name for e in b]
    assert a[0].seq is not b[0].seq


class TestReproduction:
    """Every annotated fact, replayed at the default window."""

    def test_space_annotations(self, catalog):
        for entry in catalog:
            for (space, m), ann in sorted(entry.space_annotations.items()):
                report = classify(entry.seq, space, m, N)
                assert report.verdict.kind is not VerdictKind.INCONCLUSIVE, (
                    entry.name,
                    space,
                    m,
                )
                assert report.member == ann.member, (entry.name, space, m, ann.note)

    def test_dual_annotations(self, catalog):
        for entry in catalog:
            for (kind, m), ann in sorted(entry.dual_annotations.items()):
                report = dual_test(entry.seq, kind, m, N)
                assert report.verdict.kind is not VerdictKind.INCONCLUSIVE, (
                    entry.name,
                    kind,
                    m,
                )
                assert report.member == ann.member, (entry.name, kind, m, ann.note)


class TestVerdictMonotonicity:
    def test_doubling_the_window_never_flips_a_resolved_kind(self, catalog):
        for entry in catalog:
            for (space, m), _ in sorted(entry.space_annotations.items()):
                small = classify(entry.seq, space, m, 50_000).verdict.kind
                large = classify(entry.seq, space, m, N).verdict.kind
                if small is VerdictKind.FINITE:
                    assert large is VerdictKind.FINITE, (entry.name, space, m)
                if small is VerdictKind.DIVERGED:
                    assert large is VerdictKind.DIVERGED, (entry.name, space, m)
