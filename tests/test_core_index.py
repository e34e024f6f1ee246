"""Tests for the :class:`repro.core.index.MovingObjectIndex` facade."""

import random

import pytest

from repro.api import UnknownObjectError
from repro.core import IndexConfig, MovingObjectIndex
from repro.geometry import Point, Rect
from repro.update import UpdateOutcome

from tests.conftest import SMALL_PAGE_SIZE, make_points


def fresh_index(strategy="GBU", **overrides):
    return MovingObjectIndex(IndexConfig(strategy=strategy, page_size=SMALL_PAGE_SIZE, **overrides))


class TestLoading:
    def test_bulk_load_populates_index(self):
        index = fresh_index()
        index.load(make_points(300))
        assert len(index) == 300
        assert index.validate()["objects"] == 300

    def test_bulk_load_resets_io_counters(self):
        index = fresh_index()
        index.load(make_points(300))
        assert index.stats.total_physical_io == 0

    def test_incremental_load(self):
        index = fresh_index()
        index.load(make_points(150), bulk=False)
        assert len(index) == 150
        index.validate()

    def test_bulk_load_twice_rejected(self):
        index = fresh_index()
        index.load(make_points(50))
        with pytest.raises(ValueError):
            index.load(make_points(50))

    def test_buffer_sized_from_database(self):
        index = fresh_index(buffer_percent=10.0)
        index.load(make_points(500))
        assert index.buffer.capacity >= 1
        unbuffered = fresh_index(buffer_percent=0.0)
        unbuffered.load(make_points(500))
        assert unbuffered.buffer.capacity == 0

    def test_configure_buffer_can_be_resized_later(self):
        index = fresh_index(buffer_percent=0.0)
        index.load(make_points(400))
        index.configure_buffer(percent=5.0)
        assert index.buffer.capacity >= 1


class TestDataOperations:
    def test_insert_update_delete_roundtrip(self):
        index = fresh_index()
        index.load(make_points(100))
        index.insert(1_000, Point(0.5, 0.5))
        assert 1_000 in index
        index.update(1_000, Point(0.6, 0.6))
        assert index.position_of(1_000) == Point(0.6, 0.6)
        assert index.delete(1_000)
        assert 1_000 not in index
        with pytest.raises(UnknownObjectError):
            index.delete(1_000)
        assert not index.delete(1_000, strict=False)

    def test_inserting_duplicate_oid_rejected(self):
        index = fresh_index()
        index.load(make_points(10))
        with pytest.raises(ValueError):
            index.insert(3, Point(0.9, 0.9))

    def test_updating_unknown_oid_rejected(self):
        index = fresh_index()
        index.load(make_points(10))
        with pytest.raises(KeyError):
            index.update(999, Point(0.5, 0.5))

    def test_update_returns_outcome(self):
        index = fresh_index()
        index.load(make_points(200))
        outcome = index.update(5, Point(0.99, 0.01))
        assert isinstance(outcome, UpdateOutcome)

    def test_range_query_and_knn(self):
        index = fresh_index()
        points = make_points(300)
        index.load(points)
        window = Rect(0.2, 0.2, 0.5, 0.6)
        expected = sorted(oid for oid, p in points if window.contains_point(p))
        assert sorted(index.range_query(window)) == expected
        nearest = index.knn(Point(0.5, 0.5), 5)
        assert len(nearest) == 5
        assert nearest == sorted(nearest)

    def test_position_of_unknown_object_is_none(self):
        index = fresh_index()
        index.load(make_points(10))
        assert index.position_of(404) is None


class TestStatisticsAndIntegrity:
    def test_io_snapshot_is_a_copy(self):
        index = fresh_index()
        index.load(make_points(200))
        index.update(0, Point(0.4, 0.4))
        snapshot = index.io_snapshot()
        index.update(1, Point(0.6, 0.6))
        assert index.stats.total_physical_io >= snapshot.total_physical_io

    def test_reset_statistics_clears_io_and_outcomes(self):
        index = fresh_index()
        index.load(make_points(200))
        index.update(0, Point(0.4, 0.4))
        index.reset_statistics()
        assert index.stats.total_physical_io == 0
        assert index.stats.extra == {}
        assert sum(index.strategy.outcome_counts.values()) == 0

    def test_validate_detects_hash_corruption(self):
        index = fresh_index()
        index.load(make_points(100))
        index.hash_index._leaf_of[0] = 999_999
        with pytest.raises(AssertionError):
            index.validate()

    def test_every_strategy_facade_round_trips(self):
        for strategy in ("TD", "NAIVE", "LBU", "GBU"):
            index = fresh_index(strategy=strategy)
            index.load(make_points(150, seed=9))
            rng = random.Random(1)
            for _ in range(200):
                index.update(rng.randrange(150), Point(rng.random(), rng.random()))
            index.validate()

    def test_summary_only_built_for_gbu(self):
        assert fresh_index(strategy="GBU").summary is not None
        assert fresh_index(strategy="TD").summary is None
        assert fresh_index(strategy="LBU").summary is None

    @pytest.mark.parametrize("strategy", ["NAIVE", "LBU", "GBU"])
    def test_bottom_up_update_charges_one_hash_probe(self, strategy):
        # Section 4.2 charges every hash probe as one I/O.
        index = fresh_index(strategy=strategy)
        index.load(make_points(100))
        index.update(0, Point(0.2, 0.2))
        assert index.stats.hash_index_reads == 1


class TestKnnEdgeCases:
    """Facade-level kNN edge cases: empty tree, k > population, ties."""

    def test_knn_on_empty_index(self):
        index = fresh_index()
        assert index.knn(Point(0.5, 0.5), 3) == []

    def test_knn_with_nonpositive_k(self):
        index = fresh_index()
        index.load(make_points(50))
        assert index.knn(Point(0.5, 0.5), 0) == []
        assert index.knn(Point(0.5, 0.5), -2) == []

    def test_knn_k_larger_than_population_returns_everything(self):
        index = fresh_index()
        points = make_points(40)
        index.load(points)
        nearest = index.knn(Point(0.5, 0.5), 1_000)
        assert len(nearest) == 40
        assert {oid for _dist, oid in nearest} == {oid for oid, _p in points}
        distances = [dist for dist, _oid in nearest]
        assert distances == sorted(distances)

    def test_knn_equidistant_tie_breaking_is_deterministic(self):
        """Four candidates at the identical distance: the k cut must be the
        same set, in the same order, on every run (ties break by oid)."""
        index = fresh_index()
        corners = [
            (0, Point(0.4, 0.4)),
            (1, Point(0.6, 0.4)),
            (2, Point(0.4, 0.6)),
            (3, Point(0.6, 0.6)),
            (4, Point(0.9, 0.9)),  # strictly farther
        ]
        index.load(corners)
        first = index.knn(Point(0.5, 0.5), 2)
        second = index.knn(Point(0.5, 0.5), 2)
        assert first == second
        assert [oid for _dist, oid in first] == [0, 1]
        assert first[0][0] == pytest.approx(first[1][0])

    def test_knn_after_updates_reflects_new_positions(self):
        index = fresh_index()
        index.load(make_points(60))
        index.update(7, Point(0.501, 0.501))
        nearest = index.knn(Point(0.5, 0.5), 1)
        assert nearest[0][1] == 7
