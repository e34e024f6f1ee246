"""Tests for the movement model."""

import math
import random

import pytest

from repro.geometry import Point, Rect
from repro.workload import MovementModel


class TestBoundedMovement:
    def test_step_never_exceeds_max_distance_per_axis(self):
        model = MovementModel(max_distance=0.05, seed=3)
        position = Point(0.5, 0.5)
        for _ in range(500):
            new = model.next_position(1, position)
            assert abs(new.x - position.x) <= 0.05 + 1e-12
            assert abs(new.y - position.y) <= 0.05 + 1e-12
            position = new

    def test_positions_stay_in_unit_square(self):
        model = MovementModel(max_distance=0.3, seed=4)
        position = Point(0.01, 0.99)
        for _ in range(300):
            position = model.next_position(2, position)
            assert Rect.unit().contains_point(position)

    def test_zero_distance_means_stationary(self):
        model = MovementModel(max_distance=0.0, seed=5)
        assert model.next_position(1, Point(0.4, 0.6)) == Point(0.4, 0.6)

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            MovementModel(max_distance=-0.1)

    def test_same_seed_same_trajectory(self):
        a = MovementModel(max_distance=0.05, seed=11)
        b = MovementModel(max_distance=0.05, seed=11)
        pa = pb = Point(0.5, 0.5)
        for _ in range(50):
            pa = a.next_position(1, pa)
            pb = b.next_position(1, pb)
            assert pa == pb

    def test_larger_max_distance_moves_objects_further(self):
        slow = MovementModel(max_distance=0.01, seed=6)
        fast = MovementModel(max_distance=0.2, seed=6)
        start = Point(0.5, 0.5)
        slow_total = sum(
            start.distance_to(slow.next_position(i, start)) for i in range(200)
        )
        fast_total = sum(
            start.distance_to(fast.next_position(i, start)) for i in range(200)
        )
        assert fast_total > slow_total


class TestTrendingObjects:
    def test_invalid_fractions_rejected(self):
        with pytest.raises(ValueError):
            MovementModel(trend_fraction=1.5)
        with pytest.raises(ValueError):
            MovementModel(trend_strength=-0.1)

    def test_trending_objects_drift_consistently(self):
        model = MovementModel(max_distance=0.02, seed=9, trend_fraction=1.0, trend_strength=1.0)
        position = Point(0.5, 0.5)
        positions = [position]
        for _ in range(30):
            position = model.next_position(7, position)
            positions.append(position)
        # With full trend strength the displacement direction is fixed, so the
        # net displacement should be close to the sum of step lengths.
        net = positions[0].distance_to(positions[-1])
        assert net > 0.02 * 30 * 0.5 or net > 0.3  # allow clamping at the border

    def test_non_trending_random_walk_wanders_less_far(self):
        trending = MovementModel(max_distance=0.02, seed=10, trend_fraction=1.0, trend_strength=1.0)
        wandering = MovementModel(max_distance=0.02, seed=10, trend_fraction=0.0)
        start = Point(0.5, 0.5)
        p_trend = p_wander = start
        for _ in range(100):
            p_trend = trending.next_position(3, p_trend)
            p_wander = wandering.next_position(3, p_wander)
        assert start.distance_to(p_trend) >= start.distance_to(p_wander)
