"""Tests for the naive bottom-up strategy (Section 3.1 strawman)."""

import random

from repro.geometry import Point
from repro.update import UpdateOutcome, outcome_fractions

from tests.conftest import build_index


class TestNaiveBottomUp:
    def test_small_move_stays_in_place(self):
        index = build_index("NAIVE", num_objects=300)
        oid = 7
        position = index.position_of(oid)
        nudge = Point(
            min(1.0, position.x + 1e-6), min(1.0, position.y + 1e-6)
        )
        outcome = index.update(oid, nudge)
        assert outcome == UpdateOutcome.IN_PLACE

    def test_long_move_falls_back_to_top_down(self):
        index = build_index("NAIVE", num_objects=300)
        oid = 7
        position = index.position_of(oid)
        far = Point(1.0 - position.x, 1.0 - position.y)  # opposite corner region
        outcome = index.update(oid, far)
        assert outcome == UpdateOutcome.TOP_DOWN

    def test_in_place_update_costs_three_ios(self):
        """Hash probe + leaf read + leaf write (the paper's Case 1)."""
        index = build_index("NAIVE", num_objects=300, buffer_percent=0.0)
        oid = 11
        # Move the object to the centre of its own leaf MBR: guaranteed to be
        # an in-place update regardless of where the object sits in the leaf.
        leaf_page = index.hash_index.peek(oid)
        target = index.tree.peek_node(leaf_page).mbr().center()
        before = index.stats.total_physical_io
        outcome = index.update(oid, target)
        assert outcome == UpdateOutcome.IN_PLACE
        assert index.stats.total_physical_io - before == 3

    def test_mixed_workload_keeps_index_correct(self):
        index = build_index("NAIVE", num_objects=250)
        rng = random.Random(4)
        positions = {oid: index.position_of(oid) for oid in range(250)}
        for _ in range(500):
            oid = rng.randrange(250)
            step = rng.choice([0.001, 0.2])
            new = Point(
                min(1.0, max(0.0, positions[oid].x + rng.uniform(-step, step))),
                min(1.0, max(0.0, positions[oid].y + rng.uniform(-step, step))),
            )
            index.update(oid, new)
            positions[oid] = new
        index.validate()
        from repro.geometry import Rect

        window = Rect(0.3, 0.3, 0.6, 0.6)
        expected = sorted(o for o, p in positions.items() if window.contains_point(p))
        assert sorted(index.range_query(window)) == expected

    def test_fallback_fraction_grows_with_move_distance(self):
        """The defining observation of Section 3.1: fast movement defeats the
        naive strategy."""
        slow = build_index("NAIVE", num_objects=400, seed=3)
        fast = build_index("NAIVE", num_objects=400, seed=3)
        rng_slow, rng_fast = random.Random(1), random.Random(1)
        for _ in range(400):
            oid = rng_slow.randrange(400)
            p = slow.position_of(oid)
            slow.update(oid, Point(
                min(1, max(0, p.x + rng_slow.uniform(-0.002, 0.002))),
                min(1, max(0, p.y + rng_slow.uniform(-0.002, 0.002))),
            ))
            oid = rng_fast.randrange(400)
            p = fast.position_of(oid)
            fast.update(oid, Point(
                min(1, max(0, p.x + rng_fast.uniform(-0.2, 0.2))),
                min(1, max(0, p.y + rng_fast.uniform(-0.2, 0.2))),
            ))
        top_down = [outcome_fractions(index.stats).get("top_down", 0.0) for index in (fast, slow)]
        assert top_down[0] > top_down[1]
