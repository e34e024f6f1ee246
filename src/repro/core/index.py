"""The shard engine: one complete moving-object index.

A :class:`MovingObjectIndex` is the system the paper evaluates: an R-tree on
a paged, buffered disk; a secondary object-ID hash index; the main-memory
summary structure (when the configured strategy uses it); and one of the
update strategies (TD, NAIVE, LBU, GBU).

It is not opened by callers.  ``open_index`` returns a
:class:`~repro.shard.index.ShardedIndex` — the one facade, which owns the
typed operation API, write-ahead logging, lock-scope prediction and
checkpoints — and a single index is a one-shard ``ShardedIndex`` whose shard
is a ``MovingObjectIndex``.  The per-tree harness (``run_experiment``, the
Figure 5–7 rows) drives the engine directly::

    index = MovingObjectIndex(IndexConfig(strategy="GBU"))
    index.load([(oid, Point(x, y)) for oid, (x, y) in enumerate(positions)])
    index.update(42, Point(0.30, 0.41))           # object 42 moved
    hits = index.range_query(Rect(0.2, 0.2, 0.4, 0.5))
    print(index.stats.as_dict())                  # disk I/O so far

The engine tracks each object's current position so callers only supply the
new position on update (the strategies internally need the old one to apply
the distance-threshold optimisation and to fall back to top-down deletion).

Every step a ``ShardedIndex`` asks of a shard is one method of this class,
named by attribute (``MovingObjectIndex.insert``); the shard executor
(:mod:`repro.shard.parallel`) calls it in-process or, under the process
backend, sends its name and arguments to the worker that owns the shard.
"""

from __future__ import annotations

import bisect
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.api.errors import DuplicateObjectError, UnknownObjectError
from repro.api.schema import read
from repro.api.results import QueryCursor
from repro.core.config import IndexConfig
from repro.cost.model import TreeShape
from repro.geometry import Point, Rect
from repro.rtree.bulk import bulk_load_str
from repro.rtree.node import Entry
from repro.rtree.tree import RTree
from repro.rtree.validation import validate_tree
from repro.secondary import ObjectHashIndex
from repro.storage import BufferPool, DiskManager, IOStatistics, PageLayout
from repro.storage.serialization import NodeCodec
from repro.summary import SummaryStructure
from repro.update import UpdateOutcome, make_strategy
from repro.update.base import BatchUpdate, UpdateStrategy
from repro.update.batch import BatchExecutor
from repro.update.factory import strategy_requires_parent_pointers


class MovingObjectIndex:
    """One shard: a complete moving-object index with an update strategy."""

    def __init__(self, config: Optional[IndexConfig] = None) -> None:
        self.config = config if config is not None else IndexConfig()
        self.stats = IOStatistics()
        self.layout = PageLayout(page_size=self.config.page_size)
        self.disk = DiskManager(page_size=self.config.page_size, stats=self.stats)
        # The buffer is sized after loading (it depends on the database size);
        # start unbuffered so that nothing is cached before the measured phase.
        self.buffer = BufferPool(
            self.disk,
            capacity=0,
            stats=self.stats,
            codec=NodeCodec(),
        )
        self.tree = RTree(
            self.buffer,
            layout=self.layout,
            store_parent_pointers=self.config.needs_parent_pointers,
        )
        self.hash_index = ObjectHashIndex.build_from_tree(self.tree, stats=self.stats)
        self.summary: Optional[SummaryStructure] = None
        if self.config.strategy == "GBU":
            self.summary = SummaryStructure.build_from_tree(self.tree)
        self.strategy: UpdateStrategy = make_strategy(
            self.config.strategy,
            self.tree,
            params=self.config.params,
            stats=self.stats,
            hash_index=self.hash_index,
            summary=self.summary,
            use_summary_for_queries=self.config.use_summary_for_queries,
        )
        self.strategy.install()  # idempotent: construction already wired the state
        self.batch = BatchExecutor(self.strategy, self.hash_index)
        #: The strategy currently live on this index.  ``config.strategy``
        #: stays the *initial* strategy; :meth:`set_strategy` moves this.
        self.active_strategy: str = self.config.strategy
        self._positions: Dict[int, Point] = {}

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    def load(self, objects: Iterable[Tuple[int, Point]], bulk: bool = True) -> None:
        """Load the initial set of objects.

        With ``bulk=True`` (default) the initial tree is STR-packed, the
        buffer pool is sized to ``buffer_percent`` of the resulting database,
        and the I/O counters are reset — loading is index construction, not
        part of any measured phase.  With ``bulk=False`` objects are inserted
        one by one through the normal top-down path.
        """
        objects = list(objects)
        if bulk:
            if self.tree.size != 0:
                raise ValueError("bulk loading requires an empty index")
            bulk_load_str(self.tree, objects)
        else:
            for oid, location in objects:
                self.tree.insert(oid, location)
        self._positions.update(objects)
        self.configure_buffer()
        self.reset_statistics()

    def configure_buffer(self, percent: Optional[float] = None) -> None:
        """(Re)size the buffer pool as a percentage of the current database size."""
        percent = self.config.buffer_percent if percent is None else percent
        self.set_buffer_capacity(
            BufferPool.capacity_for_percentage(percent, len(self.disk))
        )

    def set_buffer_capacity(self, capacity: int) -> None:
        """Install *capacity* frames as the buffer pool's size (clears the pool)."""
        self.buffer.clear()
        self.buffer.capacity = capacity

    def set_strategy(self, name: str) -> str:
        """Switch to update strategy *name* in place, without a rebuild.

        The old strategy's auxiliary state is released through its
        ``uninstall()`` hook (GBU detaches the summary observer, LBU stops
        parent-pointer maintenance) and the new strategy's is installed (LBU
        backfills leaf parent pointers in one tree sweep — those leaf writes
        are the switch's I/O cost; GBU builds a fresh summary from the live
        tree, uncharged like any bootstrap).  The tree keeps its
        construction-time leaf capacity throughout — the paper's one-slot
        parent-pointer charge models trees *built* for LBU.

        ``config.strategy`` remains the initial strategy; the live choice is
        :attr:`active_strategy`, which checkpoints round-trip.  Switching to
        the already-active strategy is a no-op.
        """
        key: str = read("config", {"strategy": name})["strategy"]
        if key == self.active_strategy:
            return key
        self.strategy.uninstall()
        self.summary = None
        if strategy_requires_parent_pointers(key):
            # The LBU constructor validates the flag, so it is raised before
            # the strategy exists; install() then backfills the pointers.
            self.tree.store_parent_pointers = True
        self.strategy = make_strategy(
            key,
            self.tree,
            params=self.config.params,
            stats=self.stats,
            hash_index=self.hash_index,
            use_summary_for_queries=self.config.use_summary_for_queries,
        )
        self.strategy.install()
        self.summary = getattr(self.strategy, "summary", None)
        self.batch.strategy = self.strategy
        self.active_strategy = key
        return key

    # ------------------------------------------------------------------
    # Data operations
    # ------------------------------------------------------------------
    def insert(self, oid: int, location: Point) -> None:
        """Insert a new object (:class:`DuplicateObjectError` when it exists)."""
        if oid in self._positions:
            raise DuplicateObjectError(oid)
        self.strategy.insert(oid, location)
        self._positions[oid] = location

    def update(self, oid: int, new_location: Point) -> UpdateOutcome:
        """Move an existing object to *new_location* using the configured strategy.

        Raises :class:`~repro.api.errors.UnknownObjectError` (a ``KeyError``)
        when the object is not indexed.
        """
        old_location = self._positions.get(oid)
        if old_location is None:
            raise UnknownObjectError(oid)
        outcome = self.strategy.update(oid, old_location, new_location)
        self._positions[oid] = new_location
        return outcome

    def delete(self, oid: int, strict: bool = True) -> bool:
        """Remove an object; ``True`` when it existed.

        Deleting an absent object raises
        :class:`~repro.api.errors.UnknownObjectError` unless ``strict=False``,
        which returns ``False`` instead.
        """
        location = self._positions.get(oid)
        if location is None:
            if strict:
                raise UnknownObjectError(oid)
            return False
        removed = self.strategy.delete(oid, location)
        del self._positions[oid]
        return removed

    def range_query(self, window: Rect) -> List[int]:
        """Object ids whose positions fall inside *window*."""
        return self.strategy.range_query(window)

    def stream_query(self, window: Rect) -> "QueryCursor[int]":
        """Streaming counterpart of :meth:`range_query` (same answer, same order)."""
        return QueryCursor(self.strategy.iter_range_query(window))

    def knn(self, point: Point, k: int) -> List[Tuple[float, int]]:
        """The *k* objects nearest to *point* as ``(distance, oid)`` pairs."""
        return self.tree.knn(point, k)

    def stream_knn(self, point: Point, k: int) -> "QueryCursor[Tuple[float, int]]":
        """Streaming counterpart of :meth:`knn`: pairs surface best-first."""
        return QueryCursor(self.tree.iter_knn(point, k))

    def knn_probe(
        self, point: Point, k: int, best: Sequence[Tuple[float, int]]
    ) -> List[Tuple[float, int]]:
        """One shard's step of the cross-shard best-first kNN.

        *best* is the running merged best list (the pruning radius): the
        shard's distance-ordered stream is consumed only while candidates
        can still enter the top *k*.  Returns the updated list, a new one
        (*best* is never mutated).
        """
        merged = list(best)
        for candidate in self.tree.iter_knn(point, k):
            if len(merged) >= k and candidate[0] > merged[-1][0]:
                break  # stream is distance-ordered: nothing closer follows
            bisect.insort(merged, candidate)
            del merged[k:]
        return merged

    def _execute_operation_stream(
        self, requests: Sequence[BatchUpdate]
    ) -> Tuple[int, int, int]:
        """Run one coalesced run of updates through the group-by-leaf executor.

        Positions are pre-committed first (the group passes never consult
        them).  Returns ``(groups, largest_group, residuals)``; the name is
        kept for the end-to-end benchmark's trace wrap list.
        """
        positions = self._positions
        for request in requests:
            positions[request.oid] = request.new_location
        return self.batch.execute(requests)

    def position_of(self, oid: int) -> Optional[Point]:
        """Last recorded position of *oid* (``None`` if absent)."""
        return self._positions.get(oid)

    # ------------------------------------------------------------------
    # Rebalance handoff and uncharged planning reads
    # ------------------------------------------------------------------
    def leaf_pages_of(self, oids: Sequence[int]) -> List[Optional[int]]:
        """Uncharged leaf-page lookups, one per oid (rebalance planning)."""
        return [self.hash_index.peek(oid) for oid in oids]

    def tree_shape(self) -> TreeShape:
        """Uncharged measure of the tree's shape (adaptive ranking)."""
        return TreeShape.from_tree(self.tree)

    def export_group(
        self, leaf_page: int, oids: Sequence[int], hint: Point
    ) -> Optional[List[Tuple[int, Rect]]]:
        """Source half of a rebalance leaf-group handoff.

        Removes *oids* from the leaf *leaf_page* with one CondenseTree pass
        (:meth:`~repro.rtree.tree.RTree.remove_group`) and returns their
        ``(oid, rect)`` entries.  When the leaf dissolved or a member left
        it since planning, nothing is mutated and the result is ``None``.
        """
        path = self.tree.find_path_to_leaf(leaf_page, Rect.from_point(hint))
        if path is None:
            return None
        try:
            moved = self.tree.remove_group(path, oids)
        except LookupError:
            return None  # a member left the (still existing) leaf
        for oid in oids:
            self._positions.pop(oid, None)
        return [(entry.child, entry.rect) for entry in moved]

    def import_group(
        self,
        entries: Sequence[Tuple[int, Rect]],
        positions: Sequence[Tuple[int, Point]],
    ) -> None:
        """Destination half of a rebalance handoff: bulk-insert the entries."""
        self.tree.insert_group([Entry(rect, oid) for oid, rect in entries])
        self._positions.update(positions)

    def __len__(self) -> int:
        return len(self._positions)

    def __contains__(self, oid: int) -> bool:
        return oid in self._positions

    # ------------------------------------------------------------------
    # Statistics and integrity
    # ------------------------------------------------------------------
    def reset_statistics(self) -> None:
        """Zero the shard's counters: page I/O and update outcomes."""
        self.stats.reset()

    def checkpoint_document(self) -> Dict[str, Any]:
        """The shard's checkpoint document (page images + config spec)."""
        from repro.core.persistence import _index_document

        return _index_document(self)

    def io_snapshot(self) -> IOStatistics:
        """A copy of the current counters (page I/O and update outcomes)."""
        return self.stats.snapshot()

    def total_physical_io(self) -> int:
        """Physical reads + writes + charged hash-index probes so far."""
        return self.stats.total_physical_io

    def refresh_summary(self) -> None:
        """Bulk-rebuild the summary structure from the live tree (GBU only).

        The observer protocol keeps the summary incrementally consistent, so
        this is a recovery/bulk-load hook, not part of normal operation.
        """
        if self.summary is not None:
            self.summary.rebuild_from_tree()

    def validate(self, check_min_fill: bool = False) -> Dict[str, int]:
        """Run the full structural validation; returns tree statistics."""
        report = validate_tree(
            self.tree, check_min_fill=check_min_fill, expected_size=len(self._positions)
        )
        hash_errors = self.hash_index.consistency_errors(self.tree)
        if hash_errors:
            raise AssertionError("; ".join(hash_errors))
        # The hash index matches the tree, so the position table (the owner
        # record) must name exactly its objects; keys views compare as sets.
        if self._positions.keys() != self.hash_index.object_ids():
            raise AssertionError(
                "position table and tree hold different objects: "
                f"{sorted(self._positions.keys() ^ self.hash_index.object_ids())}"
            )
        if self.summary is not None:
            summary_errors = self.summary.consistency_errors()
            if summary_errors:
                raise AssertionError("; ".join(summary_errors))
        return report
