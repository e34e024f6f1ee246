"""Unit tests for the batch execution machinery and its new primitives.

Covers the layers the batch engine crosses: the buffer pool's pin/unpin and
pure capacity sizing, the R-tree group primitives
(``remove_entries``/``add_entries``/``adjust_upward``), the executor's
coalescing/grouping/barrier behaviour and per-batch I/O snapshots, the
facade entry points, the summary structure's bulk refresh, and the workload
generator's batched stream mode.
"""

import random

import pytest

import repro.shard.index as shard_index_module
import repro.update.batch as batch_module
from repro.api import (
    KNN,
    Delete,
    Insert,
    InvalidOperationError,
    RangeQuery,
    UnknownObjectError,
    Update,
)
from repro.core import IndexConfig, MovingObjectIndex
from repro.geometry import Point, Rect
from repro.rtree.node import Entry
from repro.storage import BufferPool, DiskManager, IOStatistics
from repro.update import BatchUpdate, UpdateOutcome
from repro.update.batch import DeleteOp, coalesce_updates, parse_operation_stream
from repro.workload import WorkloadGenerator, WorkloadSpec

from tests.conftest import (
    SMALL_PAGE_SIZE,
    build_facade,
    build_index,
    chunks,
    make_points,
    update_batches,
)


class TestCapacityForPercentage:
    def test_pure_computation(self):
        assert BufferPool.capacity_for_percentage(1.0, 1000) == 10
        assert BufferPool.capacity_for_percentage(0.0, 1000) == 0
        assert BufferPool.capacity_for_percentage(10.0, 55) == 5

    def test_rounds_down_but_never_to_zero_when_requested(self):
        assert BufferPool.capacity_for_percentage(1.0, 50) == 1
        assert BufferPool.capacity_for_percentage(1.0, 0) == 0

    def test_rejects_negative_percentage(self):
        with pytest.raises(ValueError):
            BufferPool.capacity_for_percentage(-1.0, 100)

    def test_for_percentage_uses_the_same_rule(self, disk):
        pool = BufferPool(disk, capacity=BufferPool.capacity_for_percentage(2.0, 250))
        assert pool.capacity == 5

    def test_configure_buffer_matches_classmethod(self):
        index = build_index("TD", num_objects=300)
        index.configure_buffer(5.0)
        assert index.buffer.capacity == BufferPool.capacity_for_percentage(
            5.0, len(index.disk)
        )


class TestBufferPinning:
    def make_pool(self, capacity=2):
        stats = IOStatistics()
        disk = DiskManager(page_size=SMALL_PAGE_SIZE, stats=stats)
        pages = [disk.allocate_page() for _ in range(4)]
        for page in pages:
            disk.write_page(page, f"payload-{page}")
        return BufferPool(disk, capacity=capacity, stats=stats), pages

    def test_pinned_page_survives_eviction_pressure(self):
        pool, pages = self.make_pool(capacity=1)
        pool.read(pages[0])
        pool.pin(pages[0])
        pool.read(pages[1])  # would normally evict pages[0]
        assert pages[0] in pool.resident_pages()
        pool.unpin(pages[0])
        pool.read(pages[2])  # now pages[0] is evictable again
        assert pages[0] not in pool.resident_pages()

    def test_pool_may_run_over_capacity_while_pinned(self):
        pool, pages = self.make_pool(capacity=1)
        pool.read(pages[0])
        pool.pin(pages[0])
        pool.read(pages[1])
        assert len(pool) == 2  # over capacity, by design
        pool.unpin(pages[0])
        pool.read(pages[2])
        assert len(pool) <= 2

    def test_pins_nest(self):
        pool, pages = self.make_pool()
        pool.pin(pages[0])
        pool.pin(pages[0])
        pool.unpin(pages[0])
        assert pool.is_pinned(pages[0])
        pool.unpin(pages[0])
        assert not pool.is_pinned(pages[0])

    def test_unpin_of_unpinned_page_is_a_noop(self):
        pool, pages = self.make_pool()
        pool.unpin(pages[0])
        assert not pool.is_pinned(pages[0])


class TestTreeGroupPrimitives:
    def test_remove_and_add_entries_move_objects_between_leaves(self, populated_tree):
        tree = populated_tree
        leaves = list(tree.leaf_nodes())
        source = next(leaf for leaf in leaves if len(leaf.entries) >= 3)
        target = next(
            leaf
            for leaf in leaves
            if leaf.page_id != source.page_id
            and len(leaf.entries) + 2 <= tree.leaf_capacity
        )
        moved_ids = [entry.child for entry in source.entries[:2]]
        before = tree.size
        removed = tree.remove_entries(source, moved_ids)
        assert [entry.child for entry in removed] == moved_ids
        tree.add_entries(target, removed)
        assert tree.size == before  # moves are size-neutral
        assert all(target.find_entry(oid) is not None for oid in moved_ids)

    def test_remove_entries_is_atomic_on_missing_ids(self, populated_tree):
        tree = populated_tree
        leaf = next(iter(tree.leaf_nodes()))
        count = len(leaf.entries)
        present = leaf.entries[0].child
        with pytest.raises(LookupError):
            tree.remove_entries(leaf, [present, 10**9])
        assert len(leaf.entries) == count

    def test_add_entries_refuses_overflow(self, populated_tree):
        tree = populated_tree
        leaf = next(iter(tree.leaf_nodes()))
        room = tree.leaf_capacity - len(leaf.entries)
        extra = [
            Entry(Rect.from_point(Point(0.5, 0.5)), 10**6 + i) for i in range(room + 1)
        ]
        with pytest.raises(ValueError):
            tree.add_entries(leaf, extra)
        assert len(leaf.entries) + room == tree.leaf_capacity

    def test_adjust_upward_writes_parent_once_per_pass(self, populated_tree):
        tree = populated_tree
        root = tree.read_node(tree.root_page_id)
        assert not root.is_leaf
        parent_entry = root.entries[0]
        parent = tree.read_node(parent_entry.child)
        if parent.is_leaf:
            pytest.skip("tree too shallow for this check")
        child = tree.read_node(parent.entries[0].child)
        # Shrink the child to a single entry: its MBR tightens.
        child.entries = child.entries[:1]
        tree.write_node(child)
        writes_before = tree.disk.stats.logical_writes
        assert tree.adjust_upward(parent, [child]) is True
        assert tree.disk.stats.logical_writes == writes_before + 1
        refreshed = tree.read_node(parent.page_id)
        assert refreshed.find_entry(child.page_id).rect == child.effective_mbr()

    def test_adjust_upward_no_change_no_write(self, populated_tree):
        tree = populated_tree
        root = tree.read_node(tree.root_page_id)
        parent = tree.read_node(root.entries[0].child)
        if parent.is_leaf:
            pytest.skip("tree too shallow for this check")
        child = tree.read_node(parent.entries[0].child)
        parent.set_rect(child.page_id, child.effective_mbr())
        writes_before = tree.disk.stats.logical_writes
        assert tree.adjust_upward(parent, [child]) in (True, False)
        # A second pass over unchanged children must not write at all.
        writes_before = tree.disk.stats.logical_writes
        assert tree.adjust_upward(parent, [child]) is False
        assert tree.disk.stats.logical_writes == writes_before


class TestBatchExecutor:
    def test_coalesces_repeated_updates_of_one_object(self):
        index = build_facade("GBU", num_objects=200)
        final = Point(0.42, 0.42)
        result = index.execute_many([Update(5, Point(0.1, 0.1)), Update(5, Point(0.9, 0.9)), Update(5, final)])
        assert result.updates == 3
        assert result.coalesced == 2
        assert index.position_of(5) == final
        assert sorted(index.range_query(Rect.from_point(final)))[0:1] == [5]

    def test_execute_many_coalesces_a_run_once(self, monkeypatch):
        """The router coalesces each run; the shard's planner only buckets it."""
        index = build_facade("GBU", num_objects=200)
        calls = []
        real = batch_module.coalesce_updates

        def counted(updates):
            calls.append(1)
            return real(updates)

        monkeypatch.setattr(batch_module, "coalesce_updates", counted)
        monkeypatch.setattr(shard_index_module, "coalesce_updates", counted)
        result = index.execute_many(
            [Update(oid, Point(0.5, 0.5)) for oid in (1, 2, 1, 3)]
        )
        assert result.coalesced == 1 and calls == [1]
        index.validate()

    def test_groups_never_outnumber_touched_leaves(self):
        index = build_facade("GBU", num_objects=400)
        moves = []
        for oid in range(0, 200):
            position = index.position_of(oid)
            moves.append(Update(oid, Point(position.x, position.y)))  # no-op moves
        result = index.execute_many(moves)
        distinct_leaves = {index.shards[0].hash_index.peek(move.oid) for move in moves}
        assert result.groups <= len(distinct_leaves)
        assert result.residuals == 0
        assert result.largest_group >= 2

    def test_per_batch_io_snapshot_is_a_delta(self):
        index = build_facade("GBU", num_objects=300)
        first = index.execute_many([Update(oid, Point(0.5, 0.5)) for oid in range(20)])
        stats = index.shards[0].stats
        global_before = stats.snapshot()
        second = index.execute_many([Update(oid, Point(0.51, 0.51)) for oid in range(20)])
        assert second.io.logical_reads <= stats.logical_reads
        delta = stats.delta_since(global_before)
        assert second.io.physical_reads == delta.physical_reads
        assert second.io.logical_writes == delta.logical_writes
        assert first.io.total_physical_io >= 0

    def test_execute_many_rejects_unknown_update(self):
        index = build_facade("TD", num_objects=50)
        with pytest.raises(KeyError):
            index.execute_many([Update(10**9, Point(0.5, 0.5))])

    def test_rejected_batch_leaves_positions_untouched(self):
        """A parse error mid-stream must not desync the position map."""
        index = build_facade("TD", num_objects=50)
        before = index.position_of(1)
        with pytest.raises(KeyError):
            index.execute_many([Update(1, Point(0.77, 0.77)), Update(10**9, Point(0.5, 0.5))])
        assert index.position_of(1) == before
        with pytest.raises(ValueError):
            index.execute_many(
                [Update(1, Point(0.77, 0.77)), Insert(2, Point(0.1, 0.1))]
            )
        assert index.position_of(1) == before
        index.validate()

    def test_execute_many_insert_then_update_then_delete(self):
        index = build_facade("NAIVE", num_objects=60)
        size = len(index)
        result = index.execute_many(
            [
                Insert(900, Point(0.3, 0.3)),
                Update(900, Point(0.35, 0.35)),
                RangeQuery(Rect(0.3, 0.3, 0.4, 0.4)),
                Delete(900),
                RangeQuery(Rect(0.3, 0.3, 0.4, 0.4)),
            ]
        )
        assert result.inserts == 1
        assert result.deletes == 1
        assert 900 in result.queries[0]
        assert 900 not in result.queries[1]
        assert len(index) == size
        index.validate()

    def test_delete_of_absent_object_is_skipped(self):
        index = build_facade("TD", num_objects=40)
        result = index.execute_many([Delete(10**9)], strict=False)
        assert result.deletes == 0

    def test_outcome_counters_cover_batched_updates(self):
        index = build_facade("GBU", num_objects=300)
        spec = WorkloadSpec(
            num_objects=300, num_updates=400, num_queries=0, max_distance=0.02, seed=11
        )
        generator = WorkloadGenerator(spec)
        result = index.execute_many(
            [Update(oid, new) for oid, _old, new in generator.updates()]
        )
        applied = result.updates - result.coalesced
        strategy = index.shards[0].strategy
        assert sum(strategy.outcome_counts.values()) == applied
        # The batch's I/O delta carries the same counts (the index was fresh).
        assert result.io.extra == {
            outcome.value: count for outcome, count in strategy.outcome_counts.items() if count
        }
        assert strategy.outcome_counts[UpdateOutcome.IN_PLACE] > 0

    def test_batchupdate_namedtuple_shape(self):
        request = BatchUpdate(3, Point(0.1, 0.2), Point(0.3, 0.4))
        assert request.oid == 3
        assert request.new_location == Point(0.3, 0.4)


class TestParseOperationStream:
    """The facade's one stream grammar, driven directly."""

    def test_typed_ops_pass_through_and_mutations_gain_positions(self):
        positions = {1: Point(0.1, 0.1), 2: Point(0.2, 0.2)}
        insert = Insert(9, Point(0.9, 0.9))
        query = RangeQuery(Rect(0.0, 0.0, 0.5, 0.5))
        knn = KNN(Point(0.5, 0.5), 2)
        parsed = parse_operation_stream(
            [
                insert,
                Update(9, Point(0.8, 0.8)),
                query,
                Update(1, Point(0.3, 0.3)),
                knn,
                Delete(2),
            ],
            positions.get,
        )
        # Inserts and queries are executed as the very objects submitted.
        assert parsed[0] is insert
        assert parsed[2] is query
        assert parsed[4] is knn
        # An update's old position is read through the overlay: object 9's
        # is the position its insert earlier in the stream gave it.
        assert parsed[1] == BatchUpdate(9, Point(0.9, 0.9), Point(0.8, 0.8))
        assert parsed[3] == BatchUpdate(1, Point(0.1, 0.1), Point(0.3, 0.3))
        assert parsed[5] == DeleteOp(2, Point(0.2, 0.2))

    def test_absent_delete_is_dropped_leniently_and_raises_strictly(self):
        positions = {1: Point(0.1, 0.1)}
        parsed = parse_operation_stream(
            [Delete(1), Delete(1), Delete(7)], positions.get
        )
        # The second delete of 1 sees the first one's effect: nothing left.
        assert parsed == [DeleteOp(1, Point(0.1, 0.1))]
        with pytest.raises(UnknownObjectError):
            parse_operation_stream([Delete(7)], positions.get, strict_deletes=True)

    @pytest.mark.parametrize(
        "item",
        [("update", 1, Point(0.5, 0.5)), ["delete", 1], ("compact",), None],
        ids=["facade-tuple", "list", "unknown-kind", "none"],
    )
    def test_a_non_operation_is_rejected(self, item):
        positions = {1: Point(0.1, 0.1)}
        with pytest.raises(InvalidOperationError):
            parse_operation_stream(
                [Update(1, Point(0.2, 0.2)), item], positions.get
            )


class TestSummaryBulkRefresh:
    def test_rebuild_matches_incremental_maintenance(self):
        index = build_facade("GBU", num_objects=400)
        spec = WorkloadSpec(
            num_objects=400, num_updates=600, num_queries=0, max_distance=0.08, seed=2
        )
        generator = WorkloadGenerator(spec)
        index.execute_many([Update(oid, new) for oid, _old, new in generator.updates()])
        shard = index.shards[0]
        assert shard.summary.consistency_errors() == []
        index.refresh_summary()
        assert shard.summary.consistency_errors() == []
        assert shard.summary.root_page_id == shard.tree.root_page_id

    def test_rebuild_repairs_a_corrupted_summary(self):
        index = build_index("GBU", num_objects=300)
        index.summary.leaf_bits.set_fullness(10**6, True)  # stale garbage
        assert index.summary.consistency_errors() != []
        index.refresh_summary()
        assert index.summary.consistency_errors() == []

    def test_refresh_summary_is_a_noop_without_summary(self):
        index = build_index("TD", num_objects=50)
        index.refresh_summary()  # must not raise


class TestGeneratorBatchedStream:
    def test_batches_concatenate_to_the_sequential_stream(self):
        spec = WorkloadSpec(num_objects=100, num_updates=250, num_queries=0, seed=5)
        sequential = list(WorkloadGenerator(spec).updates())
        batches = list(update_batches(WorkloadGenerator(spec), 64))
        assert [len(batch) for batch in batches] == [64, 64, 64, 58]
        flattened = [request for batch in batches for request in batch]
        assert flattened == sequential

    def test_batch_size_must_be_positive(self):
        spec = WorkloadSpec(num_objects=10, num_updates=10, num_queries=0)
        with pytest.raises(ValueError):
            list(update_batches(WorkloadGenerator(spec), 0))

    def test_chunked_operation_stream_feeds_execute_many(self):
        """Chunks of the typed stream go straight into execute_many()."""
        spec = WorkloadSpec(
            num_objects=200, num_updates=300, num_queries=100, max_distance=0.05, seed=6
        )
        per_op = build_index("GBU", num_objects=200, seed=6)
        batched = build_facade("GBU", num_objects=200, seed=6)
        sequential_answers = []
        for op in WorkloadGenerator(spec).operations(250, 0.6):
            if isinstance(op, Update):
                per_op.update(op.oid, op.new_location)
            else:
                sequential_answers.append(sorted(per_op.range_query(op.window)))
        batch_answers = []
        for batch in chunks(WorkloadGenerator(spec).operations(250, 0.6), 40):
            result = batched.execute_many(batch)
            batch_answers.extend(sorted(answer) for answer in result.queries)
        assert batch_answers == sequential_answers
        per_op.validate()
        batched.validate()


class TestBatchPlan:
    def test_plan_buckets_a_coalesced_run_by_leaf(self):
        index = build_index("GBU", num_objects=200)
        a, b = 3, 4
        pos_a, pos_b = index.position_of(a), index.position_of(b)
        pending, requested, coalesced = coalesce_updates(
            [
                BatchUpdate(a, pos_a, Point(0.31, 0.31)),
                BatchUpdate(b, pos_b, Point(0.72, 0.72)),
                BatchUpdate(a, Point(0.31, 0.31), Point(0.33, 0.33)),
            ]
        )
        assert (requested, coalesced) == (3, 1)
        # Earliest old position, latest new position.
        assert pending[a] == BatchUpdate(a, pos_a, Point(0.33, 0.33))
        buckets = index.batch.plan(pending.values())
        members = [u for bucket in buckets.values() for u in bucket]
        assert sorted(members) == sorted(pending.values())
        # Every member is bucketed under its current leaf page.
        for leaf_page, bucket in buckets.items():
            for request in bucket:
                assert index.hash_index.peek(request.oid) == leaf_page

    def test_no_unindexed_object_reaches_the_plan(self):
        """An update of an object not indexed yet is turned away by the parser,
        lenient or not, so the planner only ever sees indexed objects."""
        index = build_facade("GBU", num_objects=50)
        size, io = len(index), index.io_snapshot().as_dict()
        with pytest.raises(UnknownObjectError):
            index.execute_many(
                [Update(900, Point(0.5, 0.5)), Insert(900, Point(0.2, 0.2))],
                strict=False,
            )
        assert len(index) == size and index.position_of(900) is None
        assert index.io_snapshot().as_dict() == io
        # Inserted first, the object is indexed by the time its run is planned.
        result = index.execute_many(
            [Insert(900, Point(0.2, 0.2)), Update(900, Point(0.5, 0.5))]
        )
        assert (result.inserts, result.updates) == (1, 1)
        assert 900 in index.range_query(Rect.from_point(Point(0.5, 0.5)))
        index.validate()

    def test_plan_charges_no_io(self):
        index = build_index("GBU", num_objects=200)
        updates = [
            BatchUpdate(oid, index.position_of(oid), Point(0.5, 0.5))
            for oid in range(50)
        ]
        before = index.io_snapshot()
        index.batch.plan(updates)
        delta = index.io_snapshot().delta_since(before)
        assert delta.total_physical_io == 0
        assert delta.logical_reads == 0


class GroupPassProbe:
    """A churned GBU index that records what each bucket's ladder asks the bit vector."""

    def __init__(self, objects=500, seed=7):
        self.rng = random.Random(seed)
        self.index = build_facade("GBU", num_objects=objects, buffer_percent=100.0)
        self.shard = self.index.shards[0]
        for _ in range(2 * objects):  # churn: full leaves, overlapping siblings
            oid = self.rng.randrange(objects)
            self.index.update(oid, _step(self.rng, self.index.position_of(oid), 0.08))
        bits = self.shard.summary.leaf_bits
        self.asked = []  # pages is_full was called with
        real_is_full = bits.is_full

        def is_full(page):
            self.asked.append(page)
            return real_is_full(page)

        bits.is_full = is_full
        self.passes = []  # (leaf page, is_full calls made by its local rungs)
        strategy = self.shard.strategy
        real_apply_group = strategy.apply_group

        def apply_group(leaf_page, group):
            before = len(self.asked)
            leaf_pass = real_apply_group(leaf_page, group)
            self.passes.append((leaf_page, self.asked[before:]))
            return leaf_pass

        strategy.apply_group = apply_group

    def bound_for(self, oid, target):
        """``(gate, covering, siblings)`` of a one-update group, read before it runs."""
        index = self.shard
        leaf_page = index.hash_index.peek(oid)
        parent_entry = index.summary.parent_entry_of_leaf(leaf_page)
        siblings = [p for p in parent_entry.child_page_ids if p != leaf_page]
        full = index.summary.leaf_bits._full
        gate = next(
            (at + 1 for at, page in enumerate(siblings) if not full[page]),
            len(siblings),
        )
        parent = index.tree.peek_node(parent_entry.page_id)
        covering = sum(
            1 for page in parent.contains_point_children(target) if page != leaf_page
        )
        return gate, covering, len(siblings)


def _step(rng, position, reach):
    return Point(
        min(1.0, max(0.0, position.x + rng.uniform(-reach, reach))),
        min(1.0, max(0.0, position.y + rng.uniform(-reach, reach))),
    )


class TestGroupPassWorkBound:
    """The one GBU ladder asks the bit vector only about siblings that can matter."""

    def test_group_absorbed_in_place_never_asks(self):
        probe = GroupPassProbe()
        index = probe.index
        moves = [
            Update(leaf.entry_at(0).child, leaf.effective_mbr().center())
            for leaf in probe.shard.tree.leaf_nodes()
        ]
        result = index.execute_many(moves)
        assert result.groups == len(moves) and result.residuals == 0
        assert probe.asked == []
        index.validate()

    def test_escaping_singleton_asks_gate_plus_covering_siblings(self):
        probe = GroupPassProbe()
        index = probe.index
        escaped = below_fanout = 0
        for _ in range(400):
            oid = probe.rng.randrange(500)
            target = _step(probe.rng, index.position_of(oid), 0.15)
            gate, covering, siblings = probe.bound_for(oid, target)
            probe.passes.clear()
            index.execute_many([Update(oid, target)])
            ((_leaf, asked),) = probe.passes
            if not asked:
                continue  # absorbed in place or by the ε-extension
            escaped += 1
            # The gate stops at the first sibling with room; after it only
            # the siblings whose entry covers the new position are asked.
            assert len(asked) <= gate + covering
            below_fanout += gate + covering < siblings
        assert escaped >= 50
        assert below_fanout >= 25  # the bound is tighter than a fan-out sweep
        index.validate()

    def test_executor_coalesces_a_run_once(self, monkeypatch):
        """The executor is handed a coalesced run and adds no second pass."""
        index = build_index("GBU", num_objects=200)
        calls = []
        real = batch_module.coalesce_updates
        monkeypatch.setattr(
            batch_module,
            "coalesce_updates",
            lambda updates: calls.append(1) or real(updates),
        )
        pending, _requested, _coalesced = real(
            BatchUpdate(oid, index.position_of(oid), Point(0.5, 0.5))
            for oid in (1, 2, 1, 3)
        )
        ops = list(pending.values())
        groups, largest_group, residuals = index.batch.execute(ops)
        assert groups >= 1 and 1 <= largest_group <= 3 and residuals == 0
        assert sum(map(len, index.batch.plan(ops).values())) == 3 and calls == []
