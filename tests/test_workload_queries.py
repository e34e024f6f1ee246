"""Tests for the query-window workload."""

import pytest

from repro.geometry import Rect
from repro.workload import QueryWorkload


class TestQueryWindows:
    def test_windows_lie_inside_the_unit_square(self):
        workload = QueryWorkload(max_side=0.1, seed=1)
        for window in workload.iter_windows(500):
            assert Rect.unit().contains_rect(window)

    def test_window_side_bounded_by_max_side(self):
        workload = QueryWorkload(max_side=0.1, seed=2)
        for window in workload.iter_windows(500):
            assert window.width <= 0.1 + 1e-12
            assert window.height <= 0.1 + 1e-12

    def test_min_side_respected_away_from_borders(self):
        workload = QueryWorkload(max_side=0.2, min_side=0.1, seed=3)
        for window in workload.iter_windows(300):
            # Clipping at the data-space border may shrink a window, so the
            # lower bound is only guaranteed for windows away from the border.
            if 0.2 < window.center().x < 0.8 and 0.2 < window.center().y < 0.8:
                assert window.width >= 0.1 - 1e-12
                assert window.height >= 0.1 - 1e-12

    def test_same_seed_same_windows(self):
        same = [list(QueryWorkload(seed=7).iter_windows(20)) for _ in range(2)]
        assert same[0] == same[1]

    def test_different_seeds_differ(self):
        first, second = (list(QueryWorkload(seed=seed).iter_windows(20)) for seed in (1, 2))
        assert first != second

    def test_invalid_sides_rejected(self):
        with pytest.raises(ValueError):
            QueryWorkload(max_side=-0.1)
        with pytest.raises(ValueError):
            QueryWorkload(max_side=0.1, min_side=0.2)

    def test_iter_windows_counts(self):
        workload = QueryWorkload(seed=5)
        assert len(list(workload.iter_windows(37))) == 37

    def test_centres_spread_over_the_space(self):
        workload = QueryWorkload(max_side=0.05, seed=9)
        centres = [window.center() for window in workload.iter_windows(2000)]
        quadrants = {(c.x > 0.5, c.y > 0.5) for c in centres}
        assert len(quadrants) == 4
