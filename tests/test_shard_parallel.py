"""Tests for the parallel shard-execution backends (``repro.shard.parallel``).

The equivalence suite (``tests/test_shard_equivalence.py``) proves that
serial and process execution compute identical answers and I/O counters;
this file covers the backend machinery itself: lifecycle,
spec/checkpoint round-trips, detach state sync, the engine guard, rebalancing between workers, the
serial executor's round trips counted through a recording fake, what an
attach is allowed to cost, and what a dead or hung worker turns into.
"""

import functools
import json
import multiprocessing
import os
import signal
import time

import pytest

from repro.api import RangeQuery, Update, index_spec, open_index
from repro.api.errors import OperationError, WorkerFailedError
from repro.core import IndexConfig, MovingObjectIndex, persistence
from repro.core.persistence import load_index, save_index
from repro.geometry import Point, Rect
from repro.shard import BACKENDS, GridPartitioner, ShardedIndex
from repro.shard import parallel as shard_parallel
from repro.workload import WorkloadGenerator, WorkloadSpec

from tests.conftest import SMALL_PAGE_SIZE, make_points

SPEC = WorkloadSpec(
    num_objects=200, num_updates=300, num_queries=6, seed=5, max_distance=0.08
)

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="no 'fork' start method on this platform",
)


def build_sharded(strategy="GBU", shards=4):
    config = IndexConfig(strategy=strategy, page_size=SMALL_PAGE_SIZE)
    index = ShardedIndex(config, partitioner=GridPartitioner.for_shards(shards))
    generator = WorkloadGenerator(SPEC)
    index.load(generator.initial_objects())
    return index, generator


class TestBackendLifecycle:
    def test_backend_names_are_the_public_contract(self):
        assert BACKENDS == ("serial", "process")

    def test_serial_is_the_default_and_a_no_op(self):
        index, _ = build_sharded()
        assert index.parallel_spec is None
        index.set_parallel("serial")
        assert index.parallel_spec is None
        index.detach_parallel()  # harmless when nothing is attached

    def test_unknown_backend_is_rejected(self):
        index, _ = build_sharded()
        with pytest.raises(ValueError):
            index.set_parallel("gpu")

    def test_the_deleted_thread_executor_is_an_unknown_backend(self):
        index, _ = build_sharded()
        with pytest.raises(ValueError, match="unknown parallel backend"):
            index.set_parallel("thread")
        with pytest.raises(ValueError, match=r"parallel\.backend must be one of"):
            open_index({"kind": "sharded", "shards": 2, "parallel": {"backend": "thread"}})

    def test_worker_count_is_clamped_to_the_shard_count(self):
        index, _ = build_sharded(shards=4)
        index.set_parallel("process", workers=64)
        assert index.parallel_spec == {"backend": "process", "workers": 4}
        index.detach_parallel()

    def test_reattach_replaces_the_backend(self):
        index, generator = build_sharded()
        index.set_parallel("process", workers=1)
        assert "process[1]" in index.describe()
        index.set_parallel("process", workers=2)
        assert "process[2]" in index.describe()
        for oid, _old, new in generator.updates(40):
            index.update(oid, new)
        index.detach_parallel()
        assert index.parallel_spec is None
        index.validate()

    def test_detach_syncs_worker_state_back(self):
        index, generator = build_sharded()
        serial_index, serial_generator = build_sharded()
        index.set_parallel("process", workers=2)
        for (oid, _o, new), (soid, _so, snew) in zip(
            generator.updates(), serial_generator.updates()
        ):
            index.update(oid, new)
            serial_index.update(soid, snew)
        # The buffer split reads the disk sizes the workers report: each
        # shard gets the share the serial executor gives it.
        index.configure_buffer(30.0)
        serial_index.configure_buffer(30.0)
        shares = [shard.buffer.capacity for shard in serial_index.shards]
        assert len(set(shares)) > 1  # disk sizes differ, so the split shows
        assert [shard.buffer.capacity for shard in index.shards] == shares
        # The I/O contract holds while the backend is attached; detach
        # restores the trees and the exact counters but (documented) brings
        # the buffers back cold, so the snapshot is taken first.
        attached_io = index.io_snapshot().as_dict()
        assert attached_io == serial_index.io_snapshot().as_dict()
        index.detach_parallel()
        # After detach the local shards are authoritative again: the synced
        # counters, answers and positions all match an index that never
        # left serial.
        assert index.io_snapshot().as_dict() == attached_io
        window = Rect(0.2, 0.2, 0.7, 0.7)
        assert sorted(index.range_query(window)) == sorted(
            serial_index.range_query(window)
        )
        assert {oid: index.position_of(oid) for oid in range(SPEC.num_objects)} == {
            oid: serial_index.position_of(oid) for oid in range(SPEC.num_objects)
        }
        index.validate()

    def test_load_reattaches_with_the_start_method_it_was_given(self):
        if "spawn" not in multiprocessing.get_all_start_methods():
            pytest.skip("no 'spawn' start method on this platform")
        config = IndexConfig(strategy="GBU", page_size=SMALL_PAGE_SIZE)
        index = ShardedIndex(config, partitioner=GridPartitioner.for_shards(4))
        index.set_parallel("process", workers=1, start_method="spawn")
        first = index._backend
        try:
            index.load(WorkloadGenerator(SPEC).initial_objects())
            # load() detaches, loads locally and re-attaches: a new backend,
            # started the way the old one was.  The spec keeps its two keys.
            assert index._backend is not first
            assert index._backend.start_method == "spawn"
            assert index.parallel_spec == {"backend": "process", "workers": 1}
            assert len(index.range_query(Rect(0.0, 0.0, 1.0, 1.0))) == SPEC.num_objects
        finally:
            index.detach_parallel()

    @needs_fork
    def test_fork_is_the_default_start_method_where_it_exists(self):
        index, _ = build_sharded()
        index.set_parallel("process", workers=2)
        try:
            assert index._backend.start_method == "fork"
        finally:
            index.detach_parallel()

    def test_engine_is_refused_under_process_backend(self):
        index, generator = build_sharded()
        session = index.engine(num_clients=2)  # opened while serial
        index.set_parallel("process", workers=2)
        with pytest.raises(RuntimeError, match="detach"):
            index.engine()
        # A session opened before the attach would predict its lock scopes
        # from coordinator trees nothing writes any more: it refuses too.
        updates = [Update(oid, new) for oid, _old, new in generator.updates(200)]
        before = {oid: index.position_of(oid) for oid in range(SPEC.num_objects)}
        engine = session.engine
        for run in (engine.run, engine.run_batch, lambda ops: engine.run_streams([ops])):
            with pytest.raises(RuntimeError, match="detach"):
                run(updates)
        assert {oid: index.position_of(oid) for oid in range(SPEC.num_objects)} == before
        index.detach_parallel()
        index.engine(num_clients=2)  # serial again: engine works
        assert engine.run(updates).operations == len(updates)

    def test_single_index_runs_on_one_worker(self):
        # A single index is one shard, so it can move into one worker: the
        # answers match the serial twin and the state comes back on detach.
        twins = [
            ShardedIndex(IndexConfig(page_size=SMALL_PAGE_SIZE), num_shards=1)
            for _ in range(2)
        ]
        for twin in twins:
            twin.load(make_points(200, seed=4))
        single, serial = twins
        single.set_parallel("process")
        assert single.parallel_spec == {"backend": "process", "workers": 1}
        for index in twins:
            index.update(3, Point(0.5, 0.5))
        window = Rect(0.2, 0.2, 0.7, 0.7)
        assert single.range_query(window) == serial.range_query(window)
        assert single.knn(Point(0.5, 0.5), 5) == serial.knn(Point(0.5, 0.5), 5)
        single.detach_parallel()
        assert single.position_of(3) == Point(0.5, 0.5)
        single.validate()


class TestSpecAndCheckpointRoundTrip:
    def test_spec_round_trips_the_parallel_section(self):
        index = open_index(
            {
                "config": {"strategy": "LBU"},
                "shards": 4,
                "parallel": {"backend": "process", "workers": 2},
            }
        )
        try:
            assert index.parallel_spec == {"backend": "process", "workers": 2}
            spec = index_spec(index)
            assert spec["parallel"] == {"backend": "process", "workers": 2}
            rebuilt = open_index(spec)
            try:
                assert index_spec(rebuilt) == spec
            finally:
                rebuilt.detach_parallel()
        finally:
            index.detach_parallel()

    def test_serial_override_clears_a_saved_parallel_choice(self):
        saved = {"shards": 2, "parallel": {"backend": "process"}}
        index = open_index(saved, parallel={"backend": "serial"})
        assert index.num_shards == 2
        assert index.parallel_spec is None
        assert "parallel" not in index_spec(index)

    def test_single_index_spec_round_trips_on_one_worker(self):
        # A single index is one shard, so the shorthand takes a parallel
        # section like the live object does: open on one worker, take the
        # spec, reopen.
        index = open_index(
            {"kind": "single", "parallel": {"backend": "process", "workers": 1}}
        )
        try:
            assert index.num_shards == 1
            assert index.parallel_spec == {"backend": "process", "workers": 1}
            index.load(make_points(50, seed=2))
            spec = index_spec(index)
            assert spec["kind"] == "single" and "partitioner" not in spec
            assert spec["parallel"] == {"backend": "process", "workers": 1}
            rebuilt = open_index(spec)
            try:
                assert rebuilt.num_shards == 1
                assert index_spec(rebuilt) == spec
            finally:
                rebuilt.detach_parallel()
        finally:
            index.detach_parallel()

    def test_checkpoint_round_trips_with_live_workers(self, tmp_path):
        index, generator = build_sharded()
        index.set_parallel("process", workers=2)
        for oid, _old, new in generator.updates(120):
            index.update(oid, new)
        window = Rect(0.1, 0.1, 0.8, 0.8)
        expected = sorted(index.range_query(window))
        path = tmp_path / "checkpoint.json"
        # save_index checkpoints the worker-owned trees in place — the
        # backend stays attached and keeps serving afterwards.
        save_index(index, path)
        assert sorted(index.range_query(window)) == expected
        restored = load_index(path)
        try:
            assert restored.parallel_spec == {"backend": "process", "workers": 2}
            assert sorted(restored.range_query(window)) == expected
            assert {
                oid: restored.position_of(oid) for oid in range(SPEC.num_objects)
            } == {oid: index.position_of(oid) for oid in range(SPEC.num_objects)}
            restored.validate()
        finally:
            restored.detach_parallel()
            index.detach_parallel()
        index.validate()

    def test_checkpoint_that_recorded_the_thread_executor_loads_serial(self, tmp_path):
        index, generator = build_sharded()
        for oid, _old, new in generator.updates(60):
            index.update(oid, new)
        path = tmp_path / "checkpoint.json"
        save_index(index, path)
        document = json.loads(path.read_text())
        document["parallel"] = {"backend": "thread", "workers": 2}
        path.write_text(json.dumps(document))
        restored = load_index(path)
        assert restored.parallel_spec is None
        assert restored.describe().endswith("parallel=serial")
        assert {
            oid: restored.position_of(oid) for oid in range(SPEC.num_objects)
        } == {oid: index.position_of(oid) for oid in range(SPEC.num_objects)}
        restored.validate()


class TestRemoteRebalance:
    def test_forced_rebalance_migrates_between_workers(self):
        # A deliberately skewed population: every object in shard 0's cell.
        config = IndexConfig(strategy="GBU", page_size=SMALL_PAGE_SIZE)
        index = ShardedIndex(config, partitioner=GridPartitioner(2, 2))
        import random

        rng = random.Random(17)
        index.load(
            [
                (oid, Point(rng.random() * 0.5, rng.random() * 0.5))
                for oid in range(160)
            ]
        )
        serial = ShardedIndex(config, partitioner=GridPartitioner(2, 2))
        rng = random.Random(17)
        serial.load(
            [
                (oid, Point(rng.random() * 0.5, rng.random() * 0.5))
                for oid in range(160)
            ]
        )
        index.set_parallel("process", workers=2)
        report = index.rebalance(force=True)
        serial_report = serial.rebalance(force=True)
        assert report.triggered
        assert report.moves == serial_report.moves > 0
        # One plan, run one way under both executors: the same trees.
        assert index.migrations == serial.migrations > 0
        assert index.shard_populations() == serial.shard_populations()
        assert index.io_snapshot() == serial.io_snapshot()
        assert index.shard_documents() == serial.shard_documents()
        window = Rect(0.0, 0.0, 1.0, 1.0)
        assert sorted(index.range_query(window)) == sorted(
            serial.range_query(window)
        )
        index.detach_parallel()
        index.validate()
        serial.validate()


class RecordingBackend(shard_parallel.ShardBackend):
    """The in-process executor, logging every round trip it is asked for.

    One entry per ``run``/``dispatch`` call: the ``(shard, method name)``
    pairs it carried — what a process backend would put on its pipes.
    """

    def __init__(self, sharded):
        super().__init__(sharded)
        self.round_trips = []

    def run(self, shard_id, method, *args):
        self.round_trips.append([(shard_id, method.__name__)])
        return super().run(shard_id, method, *args)

    def dispatch(self, per_shard):
        self.round_trips.append(
            [(sid, m.__name__) for sid, calls in per_shard.items() for m, _a in calls]
        )
        return super().dispatch(per_shard)


class TestRecordedRoundTrips:
    """The serial path's round trips, counted: the baseline a change that
    folds migrations into the flush message or pipelines kNN probes must
    bring *down*."""

    @pytest.fixture
    def recorded(self):
        index, generator = build_sharded()
        index._backend = recorder = RecordingBackend(index)
        return index, generator, recorder

    def test_batch_tick_with_range_barriers(self, recorded):
        index, generator, recorder = recorded
        updates = [Update(oid, new) for oid, _old, new in generator.updates(245)]
        windows = list(generator.queries())[:5]
        ops = []
        for segment, window in enumerate(windows):
            ops.extend(updates[segment * 41 : (segment + 1) * 41])
            ops.append(RangeQuery(window))
        ops.extend(updates[5 * 41 :])
        result = index.execute_many(ops)
        kinds = [sorted({kind for _sid, kind in trip}) for trip in recorder.round_trips]
        migrations = sum(1 for trip in kinds if trip == ["delete"])
        assert migrations == result.migrations == 14
        assert kinds.count(["insert"]) == migrations
        # One batch step per barrier segment.
        assert kinds.count(["_execute_operation_stream"]) == 6
        assert kinds.count(["range_query"]) == 5  # one per barrier, all its shards
        assert len(recorder.round_trips) == 6 + 5 + 2 * migrations
        assert sum(len(trip) for trip in recorder.round_trips) == 58
        for trip in recorder.round_trips:
            shard_ids = [sid for sid, _kind in trip]
            assert len(shard_ids) == len(set(shard_ids))  # one call per shard

    def test_range_query_is_one_round_trip(self, recorded):
        index, _generator, recorder = recorded
        window = Rect(0.3, 0.3, 0.7, 0.7)
        index.range_query(window)
        assert recorder.round_trips == [[(sid, "range_query") for sid in range(4)]]

    def test_knn_probes_visited_shards_only(self, recorded):
        index, _generator, recorder = recorded
        point = Point(0.1, 0.1)
        best = index.knn(point, 5)
        assert recorder.round_trips == [[(0, "knn_probe")]]
        radius = best[-1][0]
        for shard_id in range(1, 4):
            bound = index.shards[shard_id].tree.root_mbr()
            assert bound.min_distance_to_point(point) > radius  # pruned
        recorder.round_trips.clear()
        index.knn(Point(0.5, 0.5), 5)
        assert [trip[0][1] for trip in recorder.round_trips] == ["knn_probe"] * 4


class TestStreamingUnderBackend:
    def test_stream_query_matches_range_query(self):
        index, generator = build_sharded()
        index.set_parallel("process", workers=2)
        for oid, _old, new in generator.updates(60):
            index.update(oid, new)
        for window in generator.queries():
            assert sorted(index.stream_query(window)) == sorted(
                index.range_query(window)
            )
        index.detach_parallel()


class TestAttachWorkBound:
    """What a fork attach is *not allowed* to do, so that a silent fall-back
    to checkpoint hydration fails a test and not just a benchmark."""

    @needs_fork
    def test_fork_attach_restores_no_document(self, monkeypatch):
        # The forked workers inherit these patches.  A document may be encoded
        # only worker-side and restored only coordinator-side — the way back
        # at detach, which really crosses a pipe; an attach that did either
        # the other way round (today's spawn path) raises, in the coordinator
        # directly or as a failed worker hydration.
        coordinator = os.getpid()
        index_document = persistence._index_document
        restore_index = persistence._restore_index

        def document_in_a_worker_only(shard):
            assert os.getpid() != coordinator, "fork attach encoded a document"
            return index_document(shard)

        def restore_in_the_coordinator_only(document):
            assert os.getpid() == coordinator, "fork attach restored a document"
            return restore_index(document)

        index, generator = build_sharded()
        serial, serial_generator = build_sharded()
        with monkeypatch.context() as patch:
            patch.setattr(persistence, "_index_document", document_in_a_worker_only)
            patch.setattr(persistence, "_restore_index", restore_in_the_coordinator_only)
            index.set_parallel("process", workers=2)
            for (oid, _o, new), (soid, _so, snew) in zip(
                generator.updates(80), serial_generator.updates(80)
            ):
                assert index.update(oid, new) == serial.update(soid, snew)
            for window in generator.queries():
                assert index.range_query(window) == serial.range_query(window)
            assert index.knn(Point(0.4, 0.6), 5) == serial.knn(Point(0.4, 0.6), 5)
            assert index.io_snapshot().as_dict() == serial.io_snapshot().as_dict()
            index.detach_parallel()
        index.validate()


class TestWorkerFailureSurface:
    WINDOW = Rect(0.0, 0.0, 1.0, 1.0)  # fans out to every shard, every worker

    @pytest.fixture
    def attached(self):
        index, generator = build_sharded()
        index.set_parallel("process", workers=2)
        backend = index._backend
        yield index, generator, backend
        # Whatever the test did, no worker of this backend may outlive it.
        for process in backend._processes:
            if process.is_alive():
                process.kill()
            process.join(timeout=5.0)

    def assert_backend_is_gone(self, index):
        """The failed backend keeps failing, detaches fast, leaves no child."""
        with pytest.raises(WorkerFailedError):
            index.knn(Point(0.5, 0.5), 3)
        started = time.perf_counter()
        with pytest.raises(WorkerFailedError):
            index.detach_parallel()
        assert time.perf_counter() - started < 1.0
        assert multiprocessing.active_children() == []
        # Still attached, still failed: never the stale mirror shards as if
        # they were current.
        with pytest.raises(WorkerFailedError):
            index.range_query(self.WINDOW)

    def test_worker_errors_are_typed_and_leave_the_backend_serving(self, attached):
        index, _generator, _backend = attached
        assert issubclass(WorkerFailedError, OperationError)
        with pytest.raises(WorkerFailedError, match="worker 0 failed") as raised:
            # An update for an object the worker has never seen violates
            # the routed-call contract and surfaces as a worker error.
            index._backend.run(0, MovingObjectIndex.update, 999_999, Point(0, 0))
        assert isinstance(raised.value, RuntimeError)
        # The worker is alive and in step: only that call failed.
        assert len(index.range_query(self.WINDOW)) == SPEC.num_objects
        index.detach_parallel()
        index.validate()

    def test_killed_worker_is_a_typed_failure(self, attached):
        index, generator, backend = attached
        updates = [Update(oid, new) for oid, _old, new in generator.updates(120)]
        index.execute_many(updates[:60])
        os.kill(backend._processes[0].pid, signal.SIGKILL)
        started = time.perf_counter()
        with pytest.raises(WorkerFailedError, match="worker 0 died during"):
            index.execute_many(updates[60:])
        assert time.perf_counter() - started < shard_parallel.DISPATCH_DEADLINE_S / 10
        self.assert_backend_is_gone(index)

    def test_hung_worker_times_out(self, attached, monkeypatch):
        index, _generator, backend = attached
        monkeypatch.setattr(shard_parallel, "DISPATCH_DEADLINE_S", 0.3)
        os.kill(backend._processes[1].pid, signal.SIGSTOP)
        started = time.perf_counter()
        with pytest.raises(
            WorkerFailedError, match=r"worker 1 timed out \(0\.3 s\) during range_query"
        ):
            index.range_query(self.WINDOW)
        assert time.perf_counter() - started < 3.0
        self.assert_backend_is_gone(index)

    @needs_fork
    def test_worker_dying_mid_apply_batch(self, monkeypatch):
        sentinel = 7
        batch_step = MovingObjectIndex._execute_operation_stream

        @functools.wraps(batch_step)  # keeps the name the call crosses the pipe as
        def dies_on_sentinel(shard, requests):
            if any(request.oid == sentinel for request in requests):
                os._exit(1)
            return batch_step(shard, requests)

        index, generator = build_sharded()
        # Patched before the attach: the forked workers inherit it.
        monkeypatch.setattr(
            MovingObjectIndex, "_execute_operation_stream", dies_on_sentinel
        )
        index.set_parallel("process", workers=2)
        batch = [
            Update(oid, new) for oid, _old, new in generator.updates(60) if oid != sentinel
        ]
        index.execute_many(batch)
        here = index.position_of(sentinel)
        started = time.perf_counter()
        with pytest.raises(
            WorkerFailedError, match=r"died during \S*_execute_operation_stream"
        ):
            # A nudge inside the object's own shard: it rides a batch step.
            index.execute_many(batch[:5] + [Update(sentinel, Point(here.x + 1e-9, here.y))])
        assert time.perf_counter() - started < shard_parallel.DISPATCH_DEADLINE_S / 10
        self.assert_backend_is_gone(index)
