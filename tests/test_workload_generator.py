"""Tests for the GSTD-style workload generator and its spec."""

import pytest

from repro.api import Update
from repro.geometry import Rect
from repro.workload import WorkloadGenerator, WorkloadSpec


class TestSpec:
    def test_defaults_are_sane(self):
        spec = WorkloadSpec()
        assert spec.num_objects > 0
        assert spec.distribution == "uniform"
        assert spec.max_distance == pytest.approx(0.03)
        assert spec.query_max_side == pytest.approx(0.1)

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            WorkloadSpec(num_objects=0)
        with pytest.raises(ValueError):
            WorkloadSpec(num_updates=-1)
        with pytest.raises(ValueError):
            WorkloadSpec(max_distance=-0.1)
        with pytest.raises(ValueError):
            WorkloadSpec(distribution="zipf")

    def test_with_overrides(self):
        spec = WorkloadSpec().with_overrides(num_updates=123, distribution="gaussian")
        assert spec.num_updates == 123
        assert spec.distribution == "gaussian"

    def test_describe_mentions_core_numbers(self):
        text = WorkloadSpec(num_objects=1000, num_updates=2000).describe()
        assert "objects=1000" in text and "updates=2000" in text


class TestGenerator:
    def test_initial_objects_match_spec(self):
        spec = WorkloadSpec(num_objects=200, seed=3)
        generator = WorkloadGenerator(spec)
        objects = generator.initial_objects()
        assert len(objects) == 200
        assert [oid for oid, _ in objects] == list(range(200))

    def test_generator_is_reproducible(self):
        spec = WorkloadSpec(num_objects=100, num_updates=300, seed=9)
        first = list(WorkloadGenerator(spec).updates())
        second = list(WorkloadGenerator(spec).updates())
        assert first == second

    def test_update_stream_is_consistent_with_positions(self):
        spec = WorkloadSpec(num_objects=100, num_updates=400, seed=5)
        generator = WorkloadGenerator(spec)
        positions = dict(generator.initial_objects())
        for oid, old, new in generator.updates():
            assert positions[oid] == old
            positions[oid] = new
            assert generator.current_position(oid) == new

    def test_updates_move_at_most_max_distance_per_axis(self):
        spec = WorkloadSpec(num_objects=50, num_updates=500, seed=2, max_distance=0.02)
        generator = WorkloadGenerator(spec)
        for _oid, old, new in generator.updates():
            assert abs(new.x - old.x) <= 0.02 + 1e-12
            assert abs(new.y - old.y) <= 0.02 + 1e-12

    def test_query_stream_counts_and_bounds(self):
        spec = WorkloadSpec(num_objects=10, num_queries=80, seed=4, query_max_side=0.05)
        generator = WorkloadGenerator(spec)
        windows = list(generator.queries())
        assert len(windows) == 80
        for window in windows:
            assert Rect.unit().contains_rect(window)
            assert window.width <= 0.05 + 1e-12

    def test_explicit_counts_override_spec(self):
        spec = WorkloadSpec(num_objects=50, num_updates=10, num_queries=10, seed=1)
        generator = WorkloadGenerator(spec)
        assert len(list(generator.updates(25))) == 25
        assert len(list(generator.queries(7))) == 7

    def test_distribution_is_honoured(self):
        spec = WorkloadSpec(num_objects=1000, distribution="skewed", seed=6)
        positions = [p for _, p in WorkloadGenerator(spec).initial_objects()]
        near_origin = sum(1 for p in positions if p.x < 0.3 and p.y < 0.3)
        assert near_origin / len(positions) > 0.35  # ~0.09 for uniform data


class TestMixedOperations:
    def test_update_fraction_zero_yields_only_queries(self):
        generator = WorkloadGenerator(WorkloadSpec(num_objects=50, seed=1))
        kinds = {op.kind for op in generator.operations(100, update_fraction=0.0)}
        assert kinds == {"query"}

    def test_update_fraction_one_yields_only_updates(self):
        generator = WorkloadGenerator(WorkloadSpec(num_objects=50, seed=1))
        kinds = {op.kind for op in generator.operations(100, update_fraction=1.0)}
        assert kinds == {"update"}

    def test_mixed_fraction_roughly_respected(self):
        generator = WorkloadGenerator(WorkloadSpec(num_objects=50, seed=1))
        operations = list(generator.operations(1000, update_fraction=0.25))
        updates = sum(1 for op in operations if isinstance(op, Update))
        assert 0.15 < updates / len(operations) < 0.35

    def test_invalid_fraction_rejected(self):
        generator = WorkloadGenerator(WorkloadSpec(num_objects=10, seed=1))
        with pytest.raises(ValueError):
            list(generator.operations(10, update_fraction=1.5))

    def test_total_operation_count(self):
        generator = WorkloadGenerator(WorkloadSpec(num_objects=20, seed=8))
        assert len(list(generator.operations(64, update_fraction=0.5))) == 64


class TestClientStreams:
    def test_rejects_nonpositive_client_count(self):
        generator = WorkloadGenerator(WorkloadSpec(num_objects=50, seed=1))
        with pytest.raises(ValueError):
            generator.client_streams(0, 10, 0.5)

    def test_streams_partition_the_mixed_stream(self):
        spec = WorkloadSpec(num_objects=100, num_updates=0, num_queries=0, seed=4)
        shared = list(WorkloadGenerator(spec).operations(30, 0.5))
        streams = WorkloadGenerator(spec).client_streams(7, 30, 0.5)
        assert len(streams) == 7
        dealt = []
        for position in range(30):
            dealt.append(streams[position % 7][position // 7])
        assert dealt == shared
