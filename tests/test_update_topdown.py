"""Tests for the TD (top-down) baseline strategy."""

import random

from repro.core import IndexConfig, MovingObjectIndex
from repro.geometry import Point, Rect
from repro.update import UpdateOutcome, outcome_fractions

from tests.conftest import SMALL_PAGE_SIZE, build_index, make_points


class TestTopDownUpdates:
    def test_every_update_is_top_down(self):
        index = build_index("TD")
        rng = random.Random(3)
        for oid in range(50):
            index.update(oid, Point(rng.random(), rng.random()))
        assert index.strategy.outcome_counts[UpdateOutcome.TOP_DOWN] == 50
        assert outcome_fractions(index.stats) == {"top_down": 1.0}

    def test_update_moves_the_object(self):
        index = build_index("TD", num_objects=100)
        index.update(3, Point(0.111, 0.222))
        assert 3 in index.range_query(Rect(0.11, 0.22, 0.112, 0.223))
        assert index.position_of(3) == Point(0.111, 0.222)

    def test_index_remains_valid_after_many_updates(self):
        index = build_index("TD", num_objects=300)
        rng = random.Random(5)
        for _ in range(600):
            oid = rng.randrange(300)
            index.update(oid, Point(rng.random(), rng.random()))
        index.validate()

    def test_queries_match_brute_force_after_updates(self):
        index = build_index("TD", num_objects=200)
        rng = random.Random(6)
        positions = {oid: index.position_of(oid) for oid in range(200)}
        for _ in range(400):
            oid = rng.randrange(200)
            new = Point(rng.random(), rng.random())
            index.update(oid, new)
            positions[oid] = new
        window = Rect(0.25, 0.25, 0.75, 0.75)
        expected = sorted(o for o, p in positions.items() if window.contains_point(p))
        assert sorted(index.range_query(window)) == expected

    def test_top_down_does_not_use_the_hash_index(self):
        index = build_index("TD", num_objects=150)
        before = index.stats.hash_index_reads
        rng = random.Random(7)
        for oid in range(50):
            index.update(oid, Point(rng.random(), rng.random()))
        assert index.stats.hash_index_reads == before

    def test_update_costs_two_descents(self):
        """A TD update must read at least ~2x the tree height."""
        index = build_index("TD", num_objects=600, buffer_percent=0.0)
        height = index.tree.height
        before = index.stats.physical_reads
        index.update(0, Point(0.5, 0.5))
        reads = index.stats.physical_reads - before
        assert reads >= 2 * height - 1
