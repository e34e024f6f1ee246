"""The one physical representation reproduces the recorded object-layout results.

The paper's numbers are all I/O counts; how a node is laid out in memory and
what a simulated page holds must be invisible to them.  Before the
``Entry``-list node and the object page store were deleted, the workloads
below were run on them and their query answers, outcome counts, and logical
*and* physical I/O statistics recorded (``tests/golden_object_layout.py``).
The columnar node over binary pages must reproduce every one **exactly** —
for all four update strategies, on the per-operation path, the group-by-leaf
batch path, the concurrent engine path, and a mixed insert/delete stream.
"""

import random

import pytest

from repro.api import Delete, Insert, RangeQuery, Update
from repro.core import IndexConfig, MovingObjectIndex
from repro.geometry import Point, Rect
from repro.rtree.node import Entry, Node

from tests import golden_object_layout as golden

STRATEGIES = ("TD", "NAIVE", "LBU", "GBU")


def make_workload(objects=600, moves=1200, seed=97):
    rng = random.Random(seed)
    points = [(oid, Point(rng.random(), rng.random())) for oid in range(objects)]
    updates = [
        (rng.randrange(objects), Point(rng.random(), rng.random()))
        for _ in range(moves)
    ]
    windows = [
        Rect(x, y, x + 0.12, y + 0.15)
        for x, y in ((0.1, 0.2), (0.4, 0.5), (0.7, 0.1), (0.0, 0.8))
    ]
    return points, updates, windows


def build(strategy):
    return MovingObjectIndex(IndexConfig(strategy=strategy))


def io_tuple(index):
    io = index.io_snapshot()
    return (
        io.logical_reads,
        io.logical_writes,
        io.physical_reads,
        io.physical_writes,
    )


def outcome_values(index):
    """Non-zero outcome counts keyed by outcome name, as the fixtures store them."""
    return {
        outcome.value: count
        for outcome, count in index.strategy.outcome_counts.items()
        if count
    }


def run_per_op(index, points, updates, windows):
    index.load(points)
    for oid, location in updates:
        index.update(oid, location)
    answers = [sorted(index.range_query(window)) for window in windows]
    answers.append(index.knn(Point(0.5, 0.5), 10))
    index.validate()
    return answers, outcome_values(index), io_tuple(index)


def run_batch(index, points, updates, windows):
    index.load(points)
    index.execute_many([Update(oid, location) for oid, location in updates])
    answers = [sorted(index.range_query(window)) for window in windows]
    index.validate()
    return answers, outcome_values(index), io_tuple(index)


def run_engine(index, points, updates, windows):
    index.load(points)
    session = index.engine(num_clients=6)
    for position, (oid, location) in enumerate(updates):
        session.submit(position % 6, Update(oid, location))
    session.run()
    answers = [sorted(index.range_query(window)) for window in windows]
    index.validate()
    return answers, io_tuple(index)


class TestPerOperationGolden:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_reproduces_object_layout_results(self, strategy):
        answers, outcomes, io = run_per_op(build(strategy), *make_workload())
        assert answers == golden.PER_OP_ANSWERS
        assert (outcomes, io) == golden.PER_OP_RUNS[strategy]


class TestBatchGolden:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_group_by_leaf_path_reproduces_object_layout_results(self, strategy):
        answers, outcomes, io = run_batch(build(strategy), *make_workload(seed=131))
        assert answers == golden.BATCH_ANSWERS
        assert (outcomes, io) == golden.BATCH_RUNS[strategy]


class TestEngineGolden:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_concurrent_engine_path_reproduces_object_layout_results(self, strategy):
        workload = make_workload(objects=400, moves=600, seed=53)
        assert run_engine(build(strategy), *workload) == golden.ENGINE_RUNS[strategy]


class TestInsertDeleteGolden:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_mixed_stream_reproduces_object_layout_results(self, strategy):
        rng = random.Random(11)
        operations = []
        live = []
        for oid in range(300):
            operations.append(Insert(oid, Point(rng.random(), rng.random())))
            live.append(oid)
        for _ in range(200):
            kind = rng.random()
            if kind < 0.5 and live:
                operations.append(
                    Update(rng.choice(live), Point(rng.random(), rng.random()))
                )
            elif kind < 0.75 and len(live) > 50:
                operations.append(Delete(live.pop(rng.randrange(len(live)))))
            else:
                operations.append(RangeQuery(Rect(0.2, 0.2, 0.6, 0.6)))

        index = build(strategy)
        result = index.execute_many(operations, strict=False)
        index.validate()
        if strategy == "GBU":
            # Recorded in traversal order: the tree shape matches too.
            assert result.queries == golden.MIXED_QUERIES
        assert [sorted(hits) for hits in result.queries] == [
            sorted(hits) for hits in golden.MIXED_QUERIES
        ]
        assert sorted(index.range_query(Rect(0.0, 0.0, 1.0, 1.0))) == golden.MIXED_SURVIVORS
        assert io_tuple(index) == golden.MIXED_IO[strategy]


class TestNodeColumns:
    """Direct unit coverage of the columnar node's entry interface."""

    def leaf(self):
        node = Node(page_id=9, level=0)
        node.add_entry(Entry(Rect(0.1, 0.1, 0.2, 0.2), 101))
        node.add_entry(Entry(Rect(0.3, 0.3, 0.4, 0.4), 102))
        node.add_entry(Entry(Rect(0.5, 0.5, 0.6, 0.6), 103))
        return node

    def test_entries_read_out_are_immutable_values(self):
        node = self.leaf()
        assert [entry.child for entry in node.entries] == [101, 102, 103]
        for entry in (node.entries[1], node.find_entry(102), node.entry_at(1)):
            with pytest.raises(AttributeError):
                entry.rect = Rect(0.0, 0.0, 1.0, 1.0)
        assert node.entries[1].rect == Rect(0.3, 0.3, 0.4, 0.4)

    def test_set_rect_writes_the_slot_and_resets_the_memoised_mbr(self):
        node = self.leaf()
        assert node.mbr() == Rect(0.1, 0.1, 0.6, 0.6)  # memoised from here on
        assert node.set_rect(102, Rect(0.7, 0.7, 0.8, 0.8)) is True
        assert node.entries[1].rect == Rect(0.7, 0.7, 0.8, 0.8)
        assert node.mbr() == Rect(0.1, 0.1, 0.8, 0.8)
        assert node.set_rect(102, Rect(0.7, 0.7, 0.8, 0.8)) is False  # unchanged
        with pytest.raises(LookupError):
            node.set_rect(999, Rect(0.0, 0.0, 1.0, 1.0))

    def test_set_rect_finds_the_entry_after_other_removals(self):
        node = self.leaf()
        node.remove_entry(101)
        node.set_rect(103, Rect(0.9, 0.9, 0.95, 0.95))
        assert node.find_entry(103).rect == Rect(0.9, 0.9, 0.95, 0.95)
        assert node.find_entry(102).rect == Rect(0.3, 0.3, 0.4, 0.4)

    def test_remove_and_pop_keep_columns_aligned(self):
        node = self.leaf()
        removed = node.remove_entry(102)
        assert removed.child == 102 and removed.rect == Rect(0.3, 0.3, 0.4, 0.4)
        assert node.child_ids() == [101, 103]
        assert [entry.rect for entry in node.entries] == [
            Rect(0.1, 0.1, 0.2, 0.2),
            Rect(0.5, 0.5, 0.6, 0.6),
        ]
        assert node.remove_entry(999) is None

    def test_entries_setter_accepts_own_slice(self):
        node = self.leaf()
        node.entries = node.entries[:2]
        assert node.child_ids() == [101, 102]
        assert len(node) == 2 and len(node.coords) == 8

    def test_scan_methods_match_scalar_rect_predicates(self):
        entries = [
            Entry(Rect(0.1, 0.1, 0.4, 0.4), 1),
            Entry(Rect(0.35, 0.35, 0.7, 0.7), 2),
            Entry(Rect(0.8, 0.8, 0.9, 0.9), 3),
        ]
        node = Node(page_id=1, level=1, entries=entries)
        window = Rect(0.3, 0.3, 0.5, 0.5)
        point = Point(0.38, 0.38)
        target = Rect.from_point(point)
        assert node.intersecting_children(window) == [
            e.child for e in entries if e.rect.intersects(window)
        ]
        assert node.contains_point_children(point) == [
            e.child for e in entries if e.rect.contains_point(point)
        ]
        assert node.choose_subtree_child(target) == min(
            entries,
            key=lambda e: (e.rect.enlargement_to_include(target), e.rect.area()),
        ).child
        assert node.entry_distances(point) == [
            (e.rect.min_distance_to_point(point), e.child) for e in entries
        ]
        mbr = entries[0].rect.union(entries[1].rect).union(entries[2].rect)
        assert node.mbr() == mbr
        assert node.contained_entry_indices(*mbr.as_tuple()) == [0, 1, 2]
        assert node.contained_entry_indices(0.0, 0.0, 0.75, 0.75) == [0, 1]
