"""Equivalence suite: a sharded index behaves exactly like a single index.

The satellite acceptance criterion of the sharding PR: ``ShardedIndex`` at
1, 2 and 8 shards returns identical range/kNN/update outcomes to a single
``MovingObjectIndex`` on the same seeded workload — including objects whose
updates cross shard boundaries and migrate.  "Identical" is at facade
granularity: the same object→position map, the same query answers, the same
kNN lists; the shard trees may differ in shape from the single tree, exactly
as two update orders may shape one tree differently.
"""

import multiprocessing

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import Update
from repro.core import IndexConfig, MovingObjectIndex
from repro.geometry import Point, Rect
from repro.shard import GridPartitioner, ShardedIndex
from repro.workload import WorkloadGenerator, WorkloadSpec

from tests.conftest import SMALL_PAGE_SIZE, update_batches

SHARD_COUNTS = (1, 2, 8)

#: Both ways a process-backend worker comes to own its shards: ``fork``
#: adopts the live shard objects, ``spawn`` restores their checkpoint
#: documents.  Each must match the serial run bit for bit.
START_METHODS = [
    pytest.param(
        method,
        marks=pytest.mark.skipif(
            method not in multiprocessing.get_all_start_methods(),
            reason=f"no {method!r} start method on this platform",
        ),
    )
    for method in ("fork", "spawn")
]

SPEC = WorkloadSpec(
    num_objects=900,
    num_updates=1500,
    num_queries=25,
    seed=3,
    max_distance=0.06,  # fast movement: plenty of boundary crossings
)


def shard_outcome_counts(sharded):
    """Per-shard update-outcome counters as the coordinator sees them."""
    return [
        (dict(shard.strategy.outcome_counts), shard.strategy.update_count)
        for shard in sharded.shards
    ]


def run_workload(index, spec=SPEC):
    """Drive the seeded workload through any facade; return its outcomes."""
    generator = WorkloadGenerator(spec)
    index.load(generator.initial_objects())
    for oid, _old, new in generator.updates():
        index.update(oid, new)
    queries = [sorted(index.range_query(window)) for window in generator.queries()]
    knn = [
        index.knn(Point(x, y), 9)
        for x, y in ((0.25, 0.25), (0.5, 0.5), (0.75, 0.75), (0.05, 0.95))
    ]
    positions = {oid: index.position_of(oid) for oid in range(spec.num_objects)}
    index.validate()
    return queries, knn, positions


@pytest.mark.parametrize("strategy", ["TD", "GBU"])
class TestPerOperationEquivalence:
    def test_sharded_matches_single_index(self, strategy):
        config = IndexConfig(strategy=strategy, page_size=SMALL_PAGE_SIZE)
        expected = run_workload(MovingObjectIndex(config))
        for num_shards in SHARD_COUNTS:
            sharded = ShardedIndex(
                config, partitioner=GridPartitioner.for_shards(num_shards)
            )
            actual = run_workload(sharded)
            assert actual == expected, f"{strategy} diverged at {num_shards} shards"
            if num_shards > 1:
                # the workload genuinely exercised cross-shard migration
                assert sharded.migrations > 0

    def test_directory_matches_partitioner_after_migrations(self, strategy):
        config = IndexConfig(strategy=strategy, page_size=SMALL_PAGE_SIZE)
        sharded = ShardedIndex(config, partitioner=GridPartitioner.for_shards(8))
        run_workload(sharded)
        for oid in range(SPEC.num_objects):
            shard_id = sharded.shard_for(oid)
            assert shard_id == sharded.partitioner.shard_of(sharded.position_of(oid))


class TestBatchEquivalence:
    def test_execute_many_matches_single_index_batches(self):
        config = IndexConfig(strategy="GBU", page_size=SMALL_PAGE_SIZE)

        def run_batched(index, batched=True):
            generator = WorkloadGenerator(SPEC)
            index.load(generator.initial_objects())
            for batch in update_batches(generator, 250):
                if batched:
                    index.execute_many(Update(oid, new) for oid, _old, new in batch)
                else:  # the oracle: one engine, update by update
                    for oid, _old, new in batch:
                        index.update(oid, new)
            queries = [
                sorted(index.range_query(window)) for window in generator.queries()
            ]
            positions = {
                oid: index.position_of(oid) for oid in range(SPEC.num_objects)
            }
            index.validate()
            return queries, positions

        expected = run_batched(MovingObjectIndex(config), batched=False)
        for num_shards in SHARD_COUNTS:
            sharded = ShardedIndex(
                config, partitioner=GridPartitioner.for_shards(num_shards)
            )
            assert run_batched(sharded) == expected

    def test_engine_batches_commit_identical_final_positions(self):
        config = IndexConfig(strategy="GBU", page_size=SMALL_PAGE_SIZE)

        def run_engine_batch(index, engine=True):
            generator = WorkloadGenerator(SPEC)
            index.load(generator.initial_objects())
            updates = [Update(oid, new) for oid, _old, new in generator.updates(600)]
            if engine:
                index.engine(num_clients=8).engine.run_batch(updates)
            else:  # the oracle: one engine, update by update
                for update in updates:
                    index.update(update.oid, update.new_location)
            index.validate()
            return {oid: index.position_of(oid) for oid in range(SPEC.num_objects)}

        expected = run_engine_batch(MovingObjectIndex(config), engine=False)
        for num_shards in SHARD_COUNTS:
            sharded = ShardedIndex(
                config, partitioner=GridPartitioner.for_shards(num_shards)
            )
            assert run_engine_batch(sharded) == expected


class TestCrossShardKNNTies:
    """Equidistant candidates straddling shard boundaries keep the facade order."""

    @staticmethod
    def tie_objects():
        # Four candidates exactly 0.25 from the centre (the coordinates are
        # powers of two, so the distances are bit-identical floats), plus
        # equidistant diagonal candidates and filler points farther out.
        objects = [
            (11, Point(0.25, 0.5)),   # west  -> shard 2 of a 2x2 grid
            (3, Point(0.75, 0.5)),    # east  -> shard 3
            (7, Point(0.5, 0.25)),    # south -> shard 1
            (5, Point(0.5, 0.75)),    # north -> shard 3
            (20, Point(0.25, 0.25)),  # diagonals: all at the same distance
            (21, Point(0.75, 0.75)),
            (22, Point(0.25, 0.75)),
            (23, Point(0.75, 0.25)),
        ]
        filler = 100
        for bx, by in ((0.02, 0.02), (0.82, 0.02), (0.02, 0.82), (0.82, 0.82)):
            for i in range(3):
                for j in range(3):
                    objects.append(
                        (filler, Point(bx + 0.03 * i, by + 0.03 * j))
                    )
                    filler += 1
        return objects

    def test_constructed_tie_case_matches_single_index(self):
        config = IndexConfig(strategy="TD", page_size=SMALL_PAGE_SIZE)
        objects = self.tie_objects()
        single = MovingObjectIndex(config)
        single.load(objects)
        sharded = ShardedIndex(config, partitioner=GridPartitioner(2, 2))
        sharded.load(objects)
        centre = Point(0.5, 0.5)
        for k in (1, 2, 3, 4, 5, 6, 8, 12, len(objects)):
            expected = single.knn(centre, k)
            assert sharded.knn(centre, k) == expected, f"tie order broke at k={k}"
        # The tie group really is a tie: the first four distances are equal
        # and the oids surface in ascending order.
        top = single.knn(centre, 4)
        assert len({distance for distance, _oid in top}) == 1
        assert [oid for _d, oid in top] == sorted(oid for _d, oid in top)

    def test_ties_survive_boundary_crossing_updates(self):
        config = IndexConfig(strategy="TD", page_size=SMALL_PAGE_SIZE)
        objects = self.tie_objects()
        single = MovingObjectIndex(config)
        single.load(objects)
        sharded = ShardedIndex(config, partitioner=GridPartitioner(2, 2))
        sharded.load(objects)
        # Swap two tie members across the vertical boundary (a migration in
        # the sharded index) and move a filler onto the tie circle.
        moves = [
            (11, Point(0.75, 0.5)),
            (3, Point(0.25, 0.5)),
            (100, Point(0.5, 0.75)),
        ]
        for oid, destination in moves:
            single.update(oid, destination)
            sharded.update(oid, destination)
        assert sharded.migrations > 0
        centre = Point(0.5, 0.5)
        for k in (2, 4, 5, 9):
            assert sharded.knn(centre, k) == single.knn(centre, k)


class TestKNNBoundaryProperty:
    """Property test: kNN equivalence under movement near shard boundaries."""

    #: Coordinates biased onto and around the 2x2 grid boundaries at 0.5.
    coordinate = st.sampled_from(
        [0.0, 0.25, 0.49, 0.499, 0.5, 0.501, 0.51, 0.75, 1.0]
    ) | st.floats(min_value=0.0, max_value=1.0, allow_nan=False, width=32)

    @given(
        positions=st.lists(
            st.tuples(coordinate, coordinate), min_size=4, max_size=24
        ),
        moves=st.lists(
            st.tuples(st.integers(min_value=0, max_value=23),
                      st.tuples(coordinate, coordinate)),
            max_size=8,
        ),
        k=st.integers(min_value=1, max_value=8),
    )
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_sharded_knn_equals_single_after_boundary_movement(
        self, positions, moves, k
    ):
        config = IndexConfig(strategy="TD", page_size=SMALL_PAGE_SIZE)
        objects = [(oid, Point(x, y)) for oid, (x, y) in enumerate(positions)]
        single = MovingObjectIndex(config)
        single.load(objects)
        sharded = ShardedIndex(config, partitioner=GridPartitioner(2, 2))
        sharded.load(objects)
        for oid, (x, y) in moves:
            if oid >= len(objects):
                continue
            single.update(oid, Point(x, y))
            sharded.update(oid, Point(x, y))
        for query in (Point(0.5, 0.5), Point(0.499, 0.501), Point(0.1, 0.9)):
            assert sharded.knn(query, k) == single.knn(query, k)


class TestExecutionBackendEquivalence:
    """serial == process: the backends change *where* shard work runs,
    never *what* it computes — answers, positions, update outcomes and
    every I/O counter must match the serial path exactly.
    """

    #: Fast movement over a 2x2 grid: the stream is migration-heavy, so the
    #: cross-shard delete+insert handoff runs under every backend.
    BACKEND_SPEC = WorkloadSpec(
        num_objects=400,
        num_updates=900,
        num_queries=12,
        seed=11,
        max_distance=0.09,
    )

    #: Worker counts per start method.  The shard→worker mapping does not
    #: depend on the start method, so ``spawn`` — a fresh interpreter per
    #: worker, ≈0.2 s each — runs one of them.
    LEGS = {"fork": (2, 4), "spawn": (2,)}

    def run_with_backend(self, strategy, backend, workers=None, start_method=None):
        config = IndexConfig(strategy=strategy, page_size=SMALL_PAGE_SIZE)
        sharded = ShardedIndex(config, partitioner=GridPartitioner(2, 2))
        generator = WorkloadGenerator(self.BACKEND_SPEC)
        sharded.load(generator.initial_objects())
        if backend != "serial":
            sharded.set_parallel(
                backend=backend, workers=workers, start_method=start_method
            )
        outcomes = [
            sharded.update(oid, new).name for oid, _old, new in generator.updates()
        ]
        queries = [sorted(sharded.range_query(w)) for w in generator.queries()]
        knn = [
            sharded.knn(Point(x, y), 7)
            for x, y in ((0.5, 0.5), (0.26, 0.74), (0.97, 0.03))
        ]
        positions = {
            oid: sharded.position_of(oid)
            for oid in range(self.BACKEND_SPEC.num_objects)
        }
        io = sharded.io_snapshot().as_dict()
        shard_io = [shard.stats.as_dict() for shard in sharded.shards]
        outcome_counts = shard_outcome_counts(sharded)
        migrations = sharded.migrations
        if backend != "serial":
            sharded.detach_parallel()
        sharded.validate()
        return {
            "outcomes": outcomes,
            "queries": queries,
            "knn": knn,
            "positions": positions,
            "io": io,
            "shard_io": shard_io,
            "outcome_counts": outcome_counts,
            "outcome_counts_detached": shard_outcome_counts(sharded),
            "migrations": migrations,
        }

    @pytest.mark.parametrize("start_method", START_METHODS)
    @pytest.mark.parametrize("strategy", ["TD", "NAIVE", "LBU", "GBU"])
    def test_process_matches_serial(self, strategy, start_method):
        expected = self.run_with_backend(strategy, "serial")
        assert expected["migrations"] > 0  # the stream really migrates
        for workers in self.LEGS[start_method]:
            actual = self.run_with_backend(strategy, "process", workers, start_method)
            assert actual == expected, (
                f"{strategy}: process[{workers}] ({start_method}) "
                "diverged from serial"
            )

    @pytest.mark.parametrize("start_method", START_METHODS)
    def test_batched_updates_match_serial_under_process_backend(self, start_method):
        config = IndexConfig(strategy="GBU", page_size=SMALL_PAGE_SIZE)

        def run(backend):
            sharded = ShardedIndex(config, partitioner=GridPartitioner(2, 2))
            generator = WorkloadGenerator(self.BACKEND_SPEC)
            sharded.load(generator.initial_objects())
            if backend != "serial":
                sharded.set_parallel(backend=backend, start_method=start_method)
            for batch in update_batches(generator, 150):
                sharded.execute_many(Update(oid, new) for oid, _old, new in batch)
            result = (
                [sorted(sharded.range_query(w)) for w in generator.queries()],
                {
                    oid: sharded.position_of(oid)
                    for oid in range(self.BACKEND_SPEC.num_objects)
                },
                sharded.io_snapshot().as_dict(),
                [shard.stats.as_dict() for shard in sharded.shards],
                shard_outcome_counts(sharded),
            )
            if backend != "serial":
                sharded.detach_parallel()
            sharded.validate()
            return result

        assert run("process") == run("serial")
