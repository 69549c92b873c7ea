"""One node's PPR aggregation, with no I/O and no clock (§6.2).

The per-node protocol: take the local scaled partial, XOR in each
child's partial, then forward the aggregate upstream or, at the repair
site, assemble the lost chunk.  With ``num_slices = S > 1`` each row is
cut into S slices by :func:`slice_bounds`, and a node forwards slice
``i`` as soon as every contributor has merged it (Li et al.'s repair
pipelining).

The simulator (:mod:`repro.fs.node`) drives :class:`PartialAggregation`
from disk, compute and flow events; the live chunk server
(:mod:`repro.live.chunkserver`) drives it from frames.
:mod:`repro.repair.executor` stays the independent oracle.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Set

import numpy as np

from repro.errors import CodingError, StreamError, WireFormatError


def slice_bounds(length: int, num_slices: int) -> "List[int]":
    """Byte offsets cutting a ``length``-byte row into ``num_slices``.

    Returns ``num_slices + 1`` monotone offsets starting at 0 and ending
    at ``length``; segment ``i`` is ``[bounds[i], bounds[i+1])``.  Slices
    differ in size by at most one byte, and rows shorter than the slice
    count simply yield empty tail segments — both ends of a stream must
    use this same rule, so it is part of the protocol (docs/PROTOCOL.md).
    """
    if num_slices < 1:
        raise WireFormatError(f"num_slices must be >= 1, got {num_slices}")
    return [length * i // num_slices for i in range(num_slices + 1)]


class PartialAggregation:
    """The aggregation state of one repair at one node.

    The contributors are the plan's ``children`` plus ``own`` (this node,
    when it holds a chunk).  Rows accumulate in one ``rows x row_len``
    matrix, so the finished matrix *is* the rebuilt chunk.  Every input
    is checked in full before any byte changes, and a rejected input
    leaves the state as it was.
    """

    def __init__(
        self,
        repair_id: str,
        children: "Sequence[str]",
        own: "Optional[str]",
        rows: int,
        num_slices: int = 1,
        row_len: int = 0,
    ):
        self.repair_id = repair_id
        self.children = frozenset(children)
        self.own = own
        self.contributors = self.children | (
            {own} if own is not None else set()
        )
        self.rows = rows
        self.num_slices = max(1, num_slices)
        self.row_len = 0
        self.bounds = slice_bounds(0, self.num_slices)
        self._acc = np.zeros((rows, 0), np.uint8)
        #: per slice: the contributors merged, and the rows written.
        self._merged: "List[Set[str]]" = [set() for _ in self.bounds[1:]]
        self._touched: "List[Set[int]]" = [set() for _ in self.bounds[1:]]
        self._ended: "Set[str]" = set()
        self._ready = 0 if self.contributors else self.num_slices
        if row_len:
            self.set_row_len(row_len)

    # -- inputs ----------------------------------------------------------
    def set_row_len(self, row_len: int) -> None:
        """Learn (or validate) the per-row byte length for this repair."""
        if row_len < 1:
            raise StreamError(f"bad row_len {row_len}")
        if self.row_len == 0:
            self.row_len = row_len
            self.bounds = slice_bounds(row_len, self.num_slices)
            self._acc = np.zeros((self.rows, row_len), np.uint8)
        elif self.row_len != row_len:
            raise StreamError(
                f"row_len mismatch for {self.repair_id}: "
                f"{self.row_len} != {row_len}"
            )

    def merge(
        self,
        contributor: str,
        slice_index: int,
        offset: int,
        buffers: "Mapping[int, np.ndarray]",
    ) -> "Optional[List[int]]":
        """XOR one segment into the rows at ``[offset, offset + len)``.

        Returns None for a duplicate (a retry; nothing changes), else the
        slice indices that just became ready: ``[]`` or ``[slice_index]``.
        """
        self._check(contributor, slice_index, buffers)
        merged = self._merged[slice_index]
        if contributor in merged:
            return None
        for segment in buffers.values():
            if offset < 0 or offset + segment.size > self.row_len:
                raise StreamError(
                    f"segment [{offset}, {offset + segment.size}) overruns "
                    f"row of {self.row_len} bytes"
                )
        for row, segment in buffers.items():
            view = self._acc[row, offset : offset + segment.size]
            np.bitwise_xor(view, segment, out=view)
        self._touched[slice_index].update(buffers)
        merged.add(contributor)
        if len(merged) < len(self.contributors):
            return []
        self._ready += 1
        return [slice_index]

    def merge_rows(
        self,
        contributor: str,
        whole: "Mapping[int, np.ndarray]",
        slice_index: "Optional[int]" = None,
    ) -> "Optional[List[int]]":
        """Merge slice ``slice_index`` of whole rows, or every slice when it
        is None, learning ``row_len`` from them.  Returns None when every
        slice was a duplicate, else the slices that just became ready."""
        self._check(contributor, slice_index, whole)
        sizes = sorted({buf.size for buf in whole.values()})
        if len(sizes) > 1:
            raise StreamError(f"rows of unequal length {sizes}")
        for size in sizes:
            self.set_row_len(size)
        ready: "Optional[List[int]]" = None
        for index in (
            range(self.num_slices) if slice_index is None else [slice_index]
        ):
            lo, hi = self.bounds[index], self.bounds[index + 1]
            got = self.merge(
                contributor, index, lo, {r: b[lo:hi] for r, b in whole.items()}
            )
            if got is not None:
                ready = (ready or []) + got
        return ready

    def end(self, child: str) -> bool:
        """Record a child's END (its subtree is in); False on a duplicate."""
        if child not in self.children:
            raise StreamError(f"{child} is not a child in {self.repair_id}")
        if child in self._ended:
            return False
        self._ended.add(child)
        return True

    # -- state -----------------------------------------------------------
    def is_ready(self, slice_index: int) -> bool:
        """Has every contributor merged slice ``slice_index``?"""
        return len(self._merged[slice_index]) == len(self.contributors)

    @property
    def complete(self) -> bool:
        """Every slice is ready and every child has sent its END."""
        return self._ready == self.num_slices and self._ended == self.children

    def missing(self, slice_index: "Optional[int]" = None) -> "List[str]":
        """Who still owes slice ``slice_index``, or anything at all."""
        if slice_index is not None:
            return sorted(self.contributors - self._merged[slice_index])
        owed = set(self.children - self._ended)
        if self.own is not None and any(
            self.own not in merged for merged in self._merged
        ):
            owed.add(self.own)
        return sorted(owed)

    def rows_in_slice(self, slice_index: int) -> int:
        """How many rows slice ``slice_index`` holds so far."""
        return len(self._touched[slice_index])

    def slice_rows(self, slice_index: int) -> "Dict[int, np.ndarray]":
        """Slice ``slice_index`` of every row it holds (views, no copy)."""
        lo, hi = self.bounds[slice_index], self.bounds[slice_index + 1]
        rows = sorted(self._touched[slice_index])
        return {row: self._acc[row, lo:hi] for row in rows}

    @property
    def partial(self) -> "Dict[int, np.ndarray]":
        """Every row written so far, whole (views, no copy)."""
        rows = sorted(set().union(*self._touched))
        return {row: self._acc[row] for row in rows}

    def assemble(self) -> np.ndarray:
        """The rebuilt chunk: the rows laid end to end (no copy)."""
        if not self.row_len or not any(self._touched):
            raise CodingError("cannot assemble from empty partials")
        return self._acc.reshape(-1)

    def _check(
        self,
        contributor: str,
        slice_index: "Optional[int]",
        rows: "Mapping[int, np.ndarray]",
    ) -> None:
        """Reject an input whose sender, slice or row keys are invalid."""
        if contributor not in self.contributors:
            raise StreamError(
                f"{contributor} is not a contributor in {self.repair_id}"
            )
        if slice_index is not None and not 0 <= slice_index < self.num_slices:
            raise StreamError(
                f"slice {slice_index} out of range for "
                f"{self.num_slices}-slice repair {self.repair_id}"
            )
        for row in rows:
            if not 0 <= row < self.rows:
                raise StreamError(
                    f"row {row} out of range for {self.rows}-row repair "
                    f"{self.repair_id}"
                )
