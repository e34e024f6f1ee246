"""Protocol-conformance suite of the typed operation API (v2).

On the one facade, a 4-shard :class:`ShardedIndex`, this suite pins the
central contract of the API redesign: for one seeded operation script, the
typed surface (``execute`` / ``execute_many``) and the direct method calls
produce byte-identical results — query and kNN answers, final positions, and
outcome counts — on the per-operation, batch and concurrent-engine paths, and
anything that is not a typed operation is turned away before any work runs.
It also covers the structured error taxonomy and the streaming cursors'
exhaustion behaviour.  A single index (``{"kind": "single"}``) is the
one-shard case, whose operations skip routing; ``TestOneShard`` holds that
direct route to the routed one.
"""

import os
import random
import sys

import pytest

import repro
from repro.api import (
    KNN,
    Delete,
    DuplicateObjectError,
    Insert,
    InvalidOperationError,
    NonFiniteCoordinateError,
    RangeQuery,
    UnknownObjectError,
    Update,
    index_spec,
    open_index,
)
from repro.geometry import Point, Rect
from repro.shard.index import ShardedIndex
from repro.storage import BufferPool
from repro.update import UpdateOutcome

from tests.conftest import SMALL_PAGE_SIZE, make_points

NUM_OBJECTS = 150


def build(strategy="GBU", shards=4, **config_overrides):
    config = {"strategy": strategy, "page_size": SMALL_PAGE_SIZE}
    config.update(config_overrides)
    return open_index({"shards": shards, "config": config})


def loaded(strategy="GBU", num_objects=NUM_OBJECTS, seed=17, **overrides):
    index = build(strategy=strategy, **overrides)
    index.load(make_points(num_objects, seed=seed))
    return index


def operation_script(seed=3, count=150, num_objects=NUM_OBJECTS):
    """A seeded mixed script of typed operations (valid by construction)."""
    rng = random.Random(seed)
    alive = sorted(range(num_objects))
    next_oid = 10_000
    ops = []
    for _ in range(count):
        roll = rng.random()
        if roll < 0.5 and alive:
            ops.append(Update(rng.choice(alive), Point(rng.random(), rng.random())))
        elif roll < 0.62:
            ops.append(Insert(next_oid, Point(rng.random(), rng.random())))
            alive.append(next_oid)
            next_oid += 1
        elif roll < 0.72 and alive:
            oid = alive.pop(rng.randrange(len(alive)))
            ops.append(Delete(oid))
        elif roll < 0.88:
            x, y = rng.random() * 0.7, rng.random() * 0.7
            ops.append(RangeQuery(Rect(x, y, x + 0.25, y + 0.25)))
        else:
            ops.append(KNN(Point(rng.random(), rng.random()), 5))
    return ops


def leaf_read_marks(index, window):
    """What a zero-buffer window query reads, from uncharged peeks.

    Returns ``(marks, total)``: one ``(reads, hits)`` pair per leaf holding
    a hit, in cursor order, where *reads* counts the nodes the query has
    read up to and including that leaf, and the reads of the whole query.
    TD descends the tree depth-first off a stack (children pushed in entry
    order, so popped last first); GBU's summary path answers the levels
    above 1 from the direct access table and reads only the level-1 nodes
    and leaves, in entry order.  Shards come in fan-out order.
    """
    marks, reads = [], 0
    for shard_id in index._query_shards(window):
        shard = index.shards[shard_id]
        tree = shard.tree
        summary_path = shard.config.strategy == "GBU" and tree.height > 1
        pending = [tree.root_page_id]
        while pending:
            node = tree.peek_node(pending.pop())
            if not summary_path or node.level <= 1:
                reads += 1
            children = [e.child for e in node.entries if e.rect.intersects(window)]
            if node.is_leaf:
                if children:
                    marks.append((reads, children))
            else:
                pending.extend(reversed(children) if summary_path else children)
    return marks, reads


def outcome_counts(index):
    """Per-outcome counters summed over the shards, migrations included."""
    totals = {outcome: 0 for outcome in UpdateOutcome}
    for shard in index.shards:
        for outcome, count in shard.strategy.outcome_counts.items():
            totals[outcome] += count
    totals[UpdateOutcome.MIGRATED] += index.migrations
    return totals


def final_positions(index, script):
    oids = {op.oid for op in script if hasattr(op, "oid")} | set(range(NUM_OBJECTS))
    return {oid: index.position_of(oid) for oid in sorted(oids)}


class TestPerOperationEquivalence:
    @pytest.mark.parametrize("strategy", ["TD", "GBU"])
    def test_typed_equals_direct(self, strategy):
        script = operation_script()
        typed = loaded(strategy=strategy)
        direct = loaded(strategy=strategy)

        typed_answers, direct_answers = [], []
        for op in script:
            result = typed.execute(op)
            if isinstance(op, (RangeQuery, KNN)):
                typed_answers.append(result.cursor().all())

            if isinstance(op, Update):
                direct.update(op.oid, op.new_location)
            elif isinstance(op, Insert):
                direct.insert(op.oid, op.location)
            elif isinstance(op, Delete):
                direct.delete(op.oid)
            elif isinstance(op, RangeQuery):
                direct_answers.append(direct.range_query(op.window))
            else:
                direct_answers.append(direct.knn(op.point, op.k))

        assert typed_answers == direct_answers
        assert final_positions(typed, script) == final_positions(direct, script)
        assert outcome_counts(typed) == outcome_counts(direct)
        typed.validate()
        direct.validate()


class TestBatchEquivalence:
    def test_batch_answers_match_per_operation_answers(self):
        script = operation_script(seed=11)
        batch = loaded()
        per_op = loaded()

        report = batch.execute_many(script)
        answers = []
        for op in script:
            result = per_op.execute(op)
            if isinstance(op, RangeQuery):
                # Range answers are sets: the two regimes may shape the tree
                # (and hence the traversal order) differently.
                answers.append(sorted(result.cursor().all()))
            elif isinstance(op, KNN):
                answers.append(result.cursor().all())  # (distance, oid) order
        batched_answers = []
        queries, neighbors = iter(report.queries), iter(report.neighbors)
        for op in script:
            if isinstance(op, RangeQuery):
                batched_answers.append(sorted(next(queries)))
            elif isinstance(op, KNN):
                batched_answers.append(next(neighbors))
        assert batched_answers == answers
        assert final_positions(batch, script) == final_positions(per_op, script)


class TestEngineEquivalence:
    def test_knn_operations_schedule_under_the_engine(self):
        index = loaded()
        session = index.engine(num_clients=2)
        session.submit(0, KNN(Point(0.5, 0.5), 3))
        session.submit(1, Update(0, Point(0.4, 0.4)))
        result = session.run()
        assert result.operations == 2
        assert result.kinds.get("knn") == 1


class TestErrorTaxonomyOnFacades:
    def test_update_unknown_object(self):
        index = loaded()
        with pytest.raises(UnknownObjectError):
            index.execute(Update(999_999, Point(0.5, 0.5)))
        with pytest.raises(KeyError):  # legacy-compatible
            index.update(999_999, Point(0.5, 0.5))

    def test_insert_duplicate_object(self):
        index = loaded()
        with pytest.raises(DuplicateObjectError):
            index.execute(Insert(0, Point(0.5, 0.5)))
        with pytest.raises(ValueError):  # legacy-compatible
            index.insert(0, Point(0.5, 0.5))

    def test_delete_missing_strict_and_lenient(self):
        index = loaded()
        with pytest.raises(UnknownObjectError):
            index.execute(Delete(999_999))
        lenient = index.execute(Delete(999_999), strict=False)
        assert lenient.error is None
        assert lenient.value is False
        assert index.delete(999_999, strict=False) is False

    @pytest.mark.parametrize("shards", [1, 4])
    def test_non_finite_coordinates_change_nothing(self, shards):
        index = loaded(shards=shards)
        nan, inf = float("nan"), float("inf")
        before = (len(index), final_positions(index, []), index.io_snapshot().as_dict())
        with pytest.raises(NonFiniteCoordinateError):
            index.execute(Update(3, Point(nan, 0.5)))
        with pytest.raises(NonFiniteCoordinateError):
            index.execute(Insert(99_999, Point(inf, 0.2)))
        with pytest.raises(NonFiniteCoordinateError):
            index.execute_many([Update(1, Point(0.8, 0.8)), Update(3, Point(0.5, -inf))])
        with pytest.raises(NonFiniteCoordinateError):
            index.update(3, Point(nan, 0.5))
        with pytest.raises(NonFiniteCoordinateError):
            index.insert(99_999, Point(inf, 0.2))
        with pytest.raises(NonFiniteCoordinateError):
            index.execute(RangeQuery(Rect(0.0, 0.0, nan, 1.0)))
        with pytest.raises(NonFiniteCoordinateError):
            index.execute(KNN(Point(0.5, inf), 3))
        assert (len(index), final_positions(index, []), index.io_snapshot().as_dict()) == before
        index.validate()

    def test_non_strict_execute_captures_errors(self):
        index = loaded()
        result = index.execute(Update(999_999, Point(0.5, 0.5)), strict=False)
        assert result.error is not None
        assert isinstance(result.error, UnknownObjectError)

    def test_unparseable_operations_always_raise(self):
        # There is no operation to attach a result to, so parse failures
        # raise even under strict=False.
        from repro.api import InvalidOperationError

        index = loaded()
        with pytest.raises(InvalidOperationError):
            index.execute(("compact",), strict=False)

    def test_strict_batch_delete_raises_before_executing(self):
        index = loaded()
        before = final_positions(index, [])
        with pytest.raises(UnknownObjectError):
            index.execute_many(
                [Update(0, Point(0.9, 0.9)), Delete(999_999)]
            )
        # Validation happens before execution: nothing moved.
        assert final_positions(index, []) == before
        # Non-strict, a delete of an absent object is a no-op.
        result = index.execute_many(
            [Update(0, Point(0.9, 0.9)), Delete(999_999)], strict=False
        )
        assert result.updates == 1
        assert index.position_of(0) == Point(0.9, 0.9)


class TestTypedDoor:
    """Only typed operations get in; anything else is turned away first."""

    TUPLE = ("update", 0, Point(0.9, 0.9))

    def test_execute_rejects_a_tuple(self):
        index = loaded()
        with pytest.raises(InvalidOperationError):
            index.execute(self.TUPLE)
        with pytest.raises(InvalidOperationError):
            index.execute(self.TUPLE, strict=False)
        assert index.position_of(0) != Point(0.9, 0.9)

    def test_execute_many_rejects_a_tuple_mid_stream(self):
        index = loaded()
        before = final_positions(index, [])
        io = index.io_snapshot().as_dict()
        stream = [Update(1, Point(0.8, 0.8)), self.TUPLE, RangeQuery(Rect(0, 0, 1, 1))]
        for strict in (True, False):
            with pytest.raises(InvalidOperationError):
                index.execute_many(stream, strict=strict)
        assert final_positions(index, []) == before
        assert index.io_snapshot().as_dict() == io

    def test_engine_paths_reject_a_tuple(self):
        index = loaded()
        session = index.engine(num_clients=2)
        with pytest.raises(InvalidOperationError):
            session.submit(0, Update(1, Point(0.8, 0.8)), self.TUPLE)
        assert session.pending() == 0
        with pytest.raises(InvalidOperationError):
            session.engine.run([Update(1, Point(0.8, 0.8)), self.TUPLE])
        with pytest.raises(InvalidOperationError):
            session.engine.run_streams([[Update(1, Point(0.8, 0.8))], [object()]])
        assert index.position_of(1) != Point(0.8, 0.8)

    def test_rejected_durable_batch_leaves_no_trace(self, tmp_path):
        index = open_index(
            {
                "shards": 4,
                "config": {"strategy": "GBU", "page_size": SMALL_PAGE_SIZE},
                "durability": {"dir": str(tmp_path / "wal")},
            }
        )
        index.load(make_points(NUM_OBJECTS, seed=17))
        index.execute_many([Update(2, Point(0.3, 0.3))])
        logs = sorted((tmp_path / "wal").glob("*.wal"))
        assert logs
        sizes = [log.stat().st_size for log in logs]
        before = final_positions(index, [])
        io = index.io_snapshot().as_dict()
        with pytest.raises(InvalidOperationError):
            index.execute_many(
                [Update(3, Point(0.7, 0.7)), Insert(10_000, Point(0.5, 0.5)), ("delete", 4)]
            )
        assert final_positions(index, []) == before
        assert index.io_snapshot().as_dict() == io
        assert sorted((tmp_path / "wal").glob("*.wal")) == logs
        assert [log.stat().st_size for log in logs] == sizes
        index.detach_durability()


class TestCursorsOnFacades:
    def test_stream_query_matches_range_query_and_exhausts(self):
        index = loaded()
        window = Rect(0.2, 0.2, 0.7, 0.7)
        expected = index.range_query(window)
        cursor = index.stream_query(window)
        head = cursor.fetch(5)
        tail = cursor.all()
        assert head + tail == expected
        with pytest.raises(StopIteration):
            next(cursor)

    def test_stream_knn_matches_knn(self):
        index = loaded()
        probe = Point(0.5, 0.5)
        expected = index.knn(probe, 7)
        cursor = index.stream_knn(probe, 7)
        assert cursor.fetch(3) == expected[:3]
        assert cursor.all() == expected[3:]
        assert cursor.fetch(1) == []

    def test_empty_window_cursor_is_born_exhausted_on_first_read(self):
        index = loaded()
        cursor = index.stream_query(Rect(5.0, 5.0, 6.0, 6.0))
        assert cursor.all() == []
        assert cursor.fetch(1) == []

    @pytest.mark.parametrize("strategy", ["TD", "GBU"])  # tree path, summary path
    @pytest.mark.parametrize("shards", [1, 4])
    def test_reads_after_each_fetch_end_at_the_leaf_of_the_last_hit(self, strategy, shards):
        # Zero buffer: every node access is physical, so laziness shows in
        # the counters exactly — nothing is read before the first fetch,
        # and no fetch reads past the leaf holding its hit.  The 4-shard
        # index pins laziness inside a shard, not only across shards.
        index = loaded(strategy=strategy, buffer_percent=0.0, shards=shards)
        window = Rect(0.1, 0.15, 0.75, 0.8)
        marks, total = leaf_read_marks(index, window)
        assert len(marks) > 3
        before = index.io_snapshot().total_physical_io
        cursor = index.stream_query(window)
        for reads, hits in marks:
            for oid in hits:
                assert cursor.fetch(1) == [oid]
                assert index.io_snapshot().total_physical_io - before == reads
        assert cursor.fetch(1) == []
        assert index.io_snapshot().total_physical_io - before == total

    @pytest.mark.parametrize("shards", [1, 4])
    def test_all_enters_fewer_frames_than_it_returns_hits(self, shards):
        # No generator resumes per hit: a leaf's hits come as one list that
        # the cursor flattens in C.  Default 1 KB pages, every page resident.
        index = open_index({"shards": shards, "config": {"buffer_percent": 100.0}})
        index.load(make_points(2_000))
        window = Rect(0.05, 0.05, 0.95, 0.95)
        expected = index.range_query(window)
        package = os.path.dirname(repro.__file__)
        frames = []

        def count(frame, event, _arg):
            if event == "call" and frame.f_code.co_filename.startswith(package):
                frames.append(frame.f_code.co_name)

        cursor = index.stream_query(window)
        sys.setprofile(count)
        try:
            hits = cursor.all()
        finally:
            sys.setprofile(None)
        assert hits == expected
        assert 0 < len(frames) < len(hits)

    def test_streaming_knn_defers_io_until_consumption(self):
        # One shard: the kNN stream stays lazy (several shards merge first).
        index = loaded(strategy="TD", buffer_percent=0.0, shards=1)
        stats = index.shards[0].stats
        before = stats.total_physical_io
        cursor = index.stream_knn(Point(0.5, 0.5), NUM_OBJECTS)
        assert stats.total_physical_io == before
        cursor.fetch(1)
        partial_io = stats.total_physical_io - before
        assert partial_io > 0
        snapshot = stats.total_physical_io
        index.knn(Point(0.5, 0.5), NUM_OBJECTS)
        full_cost = stats.total_physical_io - snapshot
        assert partial_io < full_cost


class TestProtocolSurface:
    def test_sharded_buffer_split_preserves_the_aggregate_capacity(self):
        index = loaded(num_objects=400)
        index.configure_buffer(5.0)
        total_pages = sum(len(shard.disk) for shard in index.shards)
        expected = BufferPool.capacity_for_percentage(5.0, total_pages)
        nonempty = sum(1 for shard in index.shards if len(shard.disk) > 0)
        # Minimum-frame rule: every non-empty shard gets at least one frame;
        # the aggregate is exact whenever the capacity covers the minimums,
        # and runs over by the deficit otherwise (documented tie-break).
        assert sum(shard.buffer.capacity for shard in index.shards) == max(
            expected, nonempty
        )
        assert all(
            shard.buffer.capacity >= 1
            for shard in index.shards
            if len(shard.disk) > 0
        )
        # Proportionality: a shard holding more pages never gets less buffer.
        pairs = sorted(
            (len(shard.disk), shard.buffer.capacity) for shard in index.shards
        )
        for (small_pages, small_cap), (big_pages, big_cap) in zip(pairs, pairs[1:]):
            if big_pages > small_pages:
                assert big_cap >= small_cap

    def test_engine_defaults_flow_from_the_spec(self):
        index = open_index(
            {
                "kind": "single",
                "config": {"page_size": SMALL_PAGE_SIZE},
                "engine": {"num_clients": 5, "time_per_io": 0.02},
            }
        )
        session = index.engine()
        assert session.num_clients == 5
        assert session.engine.scheduler.time_per_io == 0.02
        # Explicit arguments still win over the spec defaults.
        assert index.engine(num_clients=2).num_clients == 2


class TestOneShard:
    """A single index is one shard: its direct route (no routing, no
    commands) does exactly what the routed path does on the same shard."""

    @staticmethod
    def run(index, script):
        answers = []
        for op in script:
            result = index.execute(op)
            if isinstance(op, (RangeQuery, KNN)):
                answers.append(result.cursor().all())
        return answers, final_positions(index, script), outcome_counts(index)

    @pytest.mark.parametrize("strategy", ["TD", "NAIVE", "LBU", "GBU"])
    def test_direct_route_matches_the_routed_path(self, strategy):
        script = operation_script(seed=5)
        direct = loaded(strategy=strategy, shards=1)
        routed = loaded(strategy=strategy, shards=1)
        assert direct._solo is direct.shards[0]
        routed._solo = None  # what a controller or a worker backend turns off
        assert self.run(direct, script) == self.run(routed, script)
        assert direct.io_snapshot().as_dict() == routed.io_snapshot().as_dict()
        direct.validate()
        routed.validate()

    @pytest.mark.parametrize("strategy", ["TD", "NAIVE", "LBU", "GBU"])
    def test_kind_single_spec_round_trips(self, strategy):
        spec = {"kind": "single", "config": {"strategy": strategy}}
        index = open_index(spec)
        assert isinstance(index, ShardedIndex) and index.num_shards == 1
        saved = index_spec(index)
        assert saved["kind"] == "single" and "partitioner" not in saved
        assert saved["config"]["strategy"] == strategy
        assert index_spec(open_index(saved)) == saved
        # A one-cell index with a maintenance section is still kind single.
        with_section = index_spec(open_index({"shards": 1, "rebalance": {}}))
        assert with_section["kind"] == "single" and "rebalance" in with_section
