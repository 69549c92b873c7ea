"""How an aggregating node cuts its partial into slices.

The simulator's PartialAggregationTask forwards slice ``s`` as
``PartialAggregation.slice_rows(s)``; these tests pin that view.
"""

import numpy as np

from repro.repair.aggregate import PartialAggregation


def sliced(whole, rows, num_slices):
    """One contributor's whole rows, merged and read back per slice."""
    agg = PartialAggregation("r", ["cs-01"], own=None, rows=rows,
                             num_slices=num_slices)
    agg.merge_rows("cs-01", whole)
    return [agg.slice_rows(s) for s in range(num_slices)]


def test_slice_view_sizes_differ_by_at_most_one():
    buffers = {0: np.arange(10, dtype=np.uint8)}
    sizes = [s[0].size for s in sliced(buffers, 1, 3)]
    assert sum(sizes) == 10
    assert max(sizes) - min(sizes) <= 1


def test_slice_view_single_slice_is_identity():
    buffers = {1: np.arange(7, dtype=np.uint8)}
    (out,) = sliced(buffers, 2, 1)
    assert list(out) == [1]
    assert np.array_equal(out[1], buffers[1])
    assert out[1] is not buffers[1]  # the node's accumulator, not the input
