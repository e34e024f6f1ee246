"""Unit tests for the quadratic node split."""

import random

import pytest

from repro.geometry import Point, Rect, union_all
from repro.rtree import Entry, QuadraticSplit


def point_entries(coordinates):
    return [Entry(Rect.from_point(Point(x, y)), oid) for oid, (x, y) in enumerate(coordinates)]


def random_entries(count, seed=3):
    rng = random.Random(seed)
    return point_entries([(rng.random(), rng.random()) for _ in range(count)])


def random_rect_entries(count, seed):
    rng = random.Random(seed)
    entries = []
    for oid in range(count):
        x, y = rng.random(), rng.random()
        rect = Rect(x, y, x + rng.uniform(0.0, 0.2), y + rng.uniform(0.0, 0.2))
        entries.append(Entry(rect, oid))
    return entries


def pick_seeds(entries):
    """The split's seed pair, from bounds and areas computed as it does."""
    bounds = [entry.rect.as_tuple() for entry in entries]
    areas = [(b[2] - b[0]) * (b[3] - b[1]) for b in bounds]
    return QuadraticSplit._pick_seeds_from_bounds(bounds, areas)


def overlap_area(a, b):
    """Area of the overlap of two rectangles (zero if disjoint)."""
    width = min(a.xmax, b.xmax) - max(a.xmin, b.xmin)
    height = min(a.ymax, b.ymax) - max(a.ymin, b.ymin)
    return max(width, 0.0) * max(height, 0.0)


def reference_quadratic_split(entries, min_entries):
    """Guttman's quadratic split written directly over Rect methods."""
    worst, seeds = -1.0, (0, 1)
    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            a, b = entries[i].rect, entries[j].rect
            waste = a.union(b).area() - a.area() - b.area()
            if waste > worst:
                worst, seeds = waste, (i, j)
    group_a, group_b = [entries[seeds[0]]], [entries[seeds[1]]]
    mbr_a, mbr_b = entries[seeds[0]].rect, entries[seeds[1]].rect
    remaining = [e for k, e in enumerate(entries) if k not in seeds]
    while remaining:
        if len(group_a) + len(remaining) == min_entries:
            group_a.extend(remaining)
            break
        if len(group_b) + len(remaining) == min_entries:
            group_b.extend(remaining)
            break
        best, best_difference = 0, -1.0
        for k, entry in enumerate(remaining):
            difference = abs(
                mbr_a.enlargement_to_include(entry.rect)
                - mbr_b.enlargement_to_include(entry.rect)
            )
            if difference > best_difference:
                best, best_difference = k, difference
        entry = remaining.pop(best)
        d1 = mbr_a.enlargement_to_include(entry.rect)
        d2 = mbr_b.enlargement_to_include(entry.rect)
        if d1 != d2:
            choose_a = d1 < d2
        elif mbr_a.area() != mbr_b.area():
            choose_a = mbr_a.area() < mbr_b.area()
        else:
            choose_a = len(group_a) <= len(group_b)
        if choose_a:
            group_a.append(entry)
            mbr_a = mbr_a.union(entry.rect)
        else:
            group_b.append(entry)
            mbr_b = mbr_b.union(entry.rect)
    return group_a, group_b


@pytest.mark.parametrize("strategy", [QuadraticSplit()], ids=lambda s: s.name)
class TestSplitContracts:
    """Invariants the split must satisfy."""

    def test_groups_partition_the_entries(self, strategy):
        entries = random_entries(20)
        group_a, group_b = strategy.split(entries, min_entries=4)
        combined = sorted(entry.child for entry in group_a + group_b)
        assert combined == sorted(entry.child for entry in entries)

    def test_both_groups_meet_minimum_fill(self, strategy):
        entries = random_entries(25)
        group_a, group_b = strategy.split(entries, min_entries=8)
        assert len(group_a) >= 8
        assert len(group_b) >= 8

    def test_groups_are_disjoint(self, strategy):
        entries = random_entries(16)
        group_a, group_b = strategy.split(entries, min_entries=4)
        assert not ({e.child for e in group_a} & {e.child for e in group_b})

    def test_split_of_identical_rectangles(self, strategy):
        entries = point_entries([(0.5, 0.5)] * 10)
        group_a, group_b = strategy.split(entries, min_entries=3)
        assert len(group_a) + len(group_b) == 10
        assert len(group_a) >= 3 and len(group_b) >= 3

    def test_split_rejects_too_few_entries(self, strategy):
        with pytest.raises(ValueError):
            strategy.split(point_entries([(0.1, 0.1)]), min_entries=1)

    def test_split_rejects_unsatisfiable_minimum(self, strategy):
        with pytest.raises(ValueError):
            strategy.split(random_entries(5), min_entries=3)

    def test_split_rejects_zero_minimum(self, strategy):
        with pytest.raises(ValueError):
            strategy.split(random_entries(6), min_entries=0)

    def test_split_separates_two_clusters(self, strategy):
        """Entries forming two well-separated clusters should not be mixed
        so badly that the two group MBRs cover each other entirely."""
        cluster_a = [(0.1 + 0.01 * i, 0.1) for i in range(6)]
        cluster_b = [(0.9 - 0.01 * i, 0.9) for i in range(6)]
        entries = point_entries(cluster_a + cluster_b)
        group_a, group_b = strategy.split(entries, min_entries=4)
        mbr_a = union_all(e.rect for e in group_a)
        mbr_b = union_all(e.rect for e in group_b)
        # The overlap between the two group MBRs must be smaller than either
        # MBR (i.e. the split actually separated something).
        assert overlap_area(mbr_a, mbr_b) < max(mbr_a.area(), mbr_b.area()) + 1e-9


class TestQuadraticSeeds:
    def test_seeds_are_the_most_wasteful_pair(self):
        entries = point_entries([(0.0, 0.0), (1.0, 1.0), (0.5, 0.5), (0.49, 0.51)])
        seed_a, seed_b = pick_seeds(entries)
        assert {seed_a, seed_b} == {0, 1}


class TestQuadraticAssignment:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_split_matches_the_rect_based_algorithm(self, seed):
        entries = random_rect_entries(30, seed)
        group_a, group_b = QuadraticSplit().split(entries, min_entries=12)
        expected_a, expected_b = reference_quadratic_split(entries, 12)
        assert [e.child for e in group_a] == [e.child for e in expected_a]
        assert [e.child for e in group_b] == [e.child for e in expected_b]

    def test_group_needing_every_remaining_entry_takes_them_all(self):
        # Seeds are the two far corners; every other entry sits next to the
        # first one, yet the second group must still reach the minimum.
        near_origin = [(0.01 * i, 0.01 * i) for i in range(1, 8)]
        entries = point_entries([(0.0, 0.0), (1.0, 1.0)] + near_origin)
        group_a, group_b = QuadraticSplit().split(entries, min_entries=4)
        assert sorted(len(group) for group in (group_a, group_b)) == [4, 5]
        far_group = group_a if any(e.child == 1 for e in group_a) else group_b
        assert len(far_group) == 4
