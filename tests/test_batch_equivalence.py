"""Batch/sequential equivalence of the group-by-leaf execution engine.

The batch engine's contract (see :mod:`repro.update.batch`) is that a batch
produces the same index contents — the same answers to every query, and a
structurally valid tree — as applying its operations one at a time.  These
property-style tests check that contract for every strategy, across
distributions, batch sizes, and batch orderings:

* applying the same update stream per-op and batched yields identical
  ``range_query`` answers everywhere and both indexes pass ``validate()``;
* a *shuffled* batch (over distinct objects, so per-object order is moot)
  still matches the sequentially-applied original order;
* queries embedded in a batch act as barriers and observe exactly the
  positions a sequential execution would.
"""

import random

import pytest

from repro.api import Delete, Insert, RangeQuery, Update
from repro.geometry import Point, Rect
from repro.workload import WorkloadGenerator, WorkloadSpec

from tests.conftest import build_index


STRATEGIES = ["TD", "NAIVE", "LBU", "GBU"]


def probe_windows(count=40, seed=5):
    rng = random.Random(seed)
    windows = []
    for _ in range(count):
        cx, cy, side = rng.random(), rng.random(), rng.uniform(0.0, 0.25)
        windows.append(
            Rect(
                max(0.0, cx - side),
                max(0.0, cy - side),
                min(1.0, cx + side),
                min(1.0, cy + side),
            )
        )
    windows.append(Rect.unit())
    return windows


def assert_equivalent(baseline, batched, seed=5):
    for window in probe_windows(seed=seed):
        assert sorted(baseline.range_query(window)) == sorted(
            batched.range_query(window)
        )
    baseline.validate()
    batched.validate()
    assert len(baseline) == len(batched)


class TestBatchMatchesSequential:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("distribution", ["uniform", "gaussian"])
    def test_same_stream_batched_or_not(self, strategy, distribution):
        """Identical streams, one applied per-op and one batched (dups allowed)."""
        spec = WorkloadSpec(
            num_objects=300,
            num_updates=900,
            num_queries=0,
            distribution=distribution,
            max_distance=0.05,
            seed=23,
        )
        baseline = build_index(strategy, num_objects=300, seed=23)
        batched = build_index(strategy, num_objects=300, seed=23)
        gen_a, gen_b = WorkloadGenerator(spec), WorkloadGenerator(spec)
        for oid, _old, new in gen_a.updates():
            baseline.update(oid, new)
        for chunk in gen_b.update_batches(150):
            batched.execute_many([Update(oid, new) for oid, _old, new in chunk])
        assert_equivalent(baseline, batched)
        for oid in range(300):
            assert baseline.position_of(oid) == batched.position_of(oid)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_shuffled_batch_matches_sequential(self, strategy):
        """A shuffled batch over distinct objects matches the ordered per-op run."""
        rng = random.Random(41)
        baseline = build_index(strategy, num_objects=350, seed=31)
        batched = build_index(strategy, num_objects=350, seed=31)
        for round_seed in (1, 2, 3):
            oids = rng.sample(range(350), 140)
            moves = []
            for oid in oids:
                position = baseline.position_of(oid)
                step = 0.12 if oid % 5 == 0 else 0.02  # mix locals and escapees
                new = Point(
                    min(1.0, max(0.0, position.x + rng.uniform(-step, step))),
                    min(1.0, max(0.0, position.y + rng.uniform(-step, step))),
                )
                moves.append((oid, new))
            for oid, new in moves:
                baseline.update(oid, new)
            shuffled = list(moves)
            rng.shuffle(shuffled)
            batched.execute_many([Update(oid, new) for oid, new in shuffled])
            assert_equivalent(baseline, batched, seed=round_seed)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_queries_inside_a_batch_are_barriers(self, strategy):
        """A query in a mixed batch sees every operation that precedes it."""
        spec = WorkloadSpec(
            num_objects=250,
            num_updates=600,
            num_queries=0,
            max_distance=0.06,
            seed=7,
        )
        baseline = build_index(strategy, num_objects=250, seed=7)
        batched = build_index(strategy, num_objects=250, seed=7)
        gen_a, gen_b = WorkloadGenerator(spec), WorkloadGenerator(spec)

        sequential_answers = []
        ops = []
        window = Rect(0.2, 0.2, 0.7, 0.7)
        for position, (oid, _old, new) in enumerate(gen_a.updates()):
            baseline.update(oid, new)
            if position % 97 == 0:
                sequential_answers.append(sorted(baseline.range_query(window)))
        for position, (oid, _old, new) in enumerate(gen_b.updates()):
            ops.append(Update(oid, new))
            if position % 97 == 0:
                ops.append(RangeQuery(window))
        result = batched.execute_many(ops)

        assert [sorted(answer) for answer in result.queries] == sequential_answers
        assert_equivalent(baseline, batched)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_inserts_and_deletes_flush_pending_updates(self, strategy):
        baseline = build_index(strategy, num_objects=200, seed=19)
        batched = build_index(strategy, num_objects=200, seed=19)
        rng = random.Random(19)
        ops = []
        next_oid = 200
        for _ in range(300):
            roll = rng.random()
            if roll < 0.7:
                oid = rng.randrange(200)
                if baseline.position_of(oid) is None:
                    continue
                new = Point(rng.random(), rng.random())
                ops.append(Update(oid, new))
            elif roll < 0.85:
                ops.append(Insert(next_oid, Point(rng.random(), rng.random())))
                next_oid += 1
            else:
                oid = rng.randrange(200)
                ops.append(Delete(oid))
        for op in ops:
            if isinstance(op, Update):
                if baseline.position_of(op.oid) is not None:
                    baseline.update(op.oid, op.new_location)
            elif isinstance(op, Insert):
                baseline.insert(op.oid, op.location)
            else:
                baseline.delete(op.oid, strict=False)
        # The batch facade mirrors the same skip-absent rule for deletes and
        # raises for updates of absent objects, so filter identically.
        filtered = []
        alive = {oid for oid in range(200)} | set()
        for op in ops:
            if isinstance(op, Update) and op.oid not in alive:
                continue
            if isinstance(op, Insert):
                alive.add(op.oid)
            if isinstance(op, Delete):
                alive.discard(op.oid)
            filtered.append(op)
        batched.execute_many(filtered, strict=False)
        assert_equivalent(baseline, batched)


class TestBatchCostAdvantage:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_batch_needs_fewer_physical_reads(self, strategy):
        """Group-by-leaf execution beats the per-op loop on physical reads."""
        spec = WorkloadSpec(
            num_objects=600,
            num_updates=1500,
            num_queries=0,
            distribution="gaussian",
            max_distance=0.03,
            seed=3,
        )
        per_op = build_index(strategy, num_objects=600, seed=3)
        batched = build_index(strategy, num_objects=600, seed=3)
        gen_a, gen_b = WorkloadGenerator(spec), WorkloadGenerator(spec)
        for oid, _old, new in gen_a.updates():
            per_op.update(oid, new)
        for chunk in gen_b.update_batches(500):
            batched.execute_many([Update(oid, new) for oid, _old, new in chunk])
        assert batched.stats.physical_reads < per_op.stats.physical_reads
        assert_equivalent(per_op, batched)
