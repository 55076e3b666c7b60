"""Counts of geometry's candidate search, shared by the search pins of the tests."""

import contextlib

import pytest

from anisoweights import geometry


@contextlib.contextmanager
def counted_search():
    """Yield a dict that counts, while open, the _box_pairs calls, their
    batches and box candidates, and the candidates the segments gather."""
    counts = {"calls": 0, "gathered": 0, "batches": 0, "box": 0}
    segments, box_pairs = geometry._segments, geometry._box_pairs

    def counted_segments(*args):
        out = segments(*args)
        counts["gathered"] += int(out[2].sum())
        return out

    def counted_box_pairs(*args):
        counts["calls"] += 1
        for b, j in box_pairs(*args):
            counts["batches"] += 1
            counts["box"] += len(b)
            yield b, j

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "_segments", counted_segments)
        mp.setattr(geometry, "_box_pairs", counted_box_pairs)
        yield counts
