"""Exact prefix sums of one array, the reference the window-scan tests read
their N/2, N and 2N sums against."""

from __future__ import annotations

from typing import Iterable

import numpy as np

from geomseq.gseq import ExactSum


def exact_prefix_sums(vals: np.ndarray, ends: Iterable[int]) -> list[float]:
    """:meth:`ExactSum.read` of ``vals[:e]`` for nondecreasing ends e, in one
    pass; terms past the last end are not read."""
    acc, start, sums = ExactSum(), 0, []
    for end in ends:
        end = min(int(end), len(vals))
        acc.add(start, vals[start:end])
        start = max(start, end)
        sums.append(acc.read())
    return sums
