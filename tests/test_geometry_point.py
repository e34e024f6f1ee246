"""Unit tests for :class:`repro.geometry.point.Point`."""

import math

import pytest

from repro.geometry import Point


class TestConstruction:
    def test_coordinates_are_stored_as_floats(self):
        point = Point(1, 2)
        assert isinstance(point.x, float)
        assert isinstance(point.y, float)
        assert point.x == 1.0
        assert point.y == 2.0

    def test_point_is_immutable(self):
        point = Point(0.1, 0.2)
        with pytest.raises(AttributeError):
            point.x = 0.5

    def test_iteration_yields_x_then_y(self):
        assert list(Point(0.3, 0.7)) == [0.3, 0.7]

    def test_as_tuple(self):
        assert Point(0.25, 0.75).as_tuple() == (0.25, 0.75)

    def test_repr_contains_coordinates(self):
        text = repr(Point(0.125, 0.5))
        assert "0.125" in text and "0.5" in text


class TestEqualityAndHashing:
    def test_equal_points_are_equal_and_hash_alike(self):
        assert Point(0.1, 0.2) == Point(0.1, 0.2)
        assert hash(Point(0.1, 0.2)) == hash(Point(0.1, 0.2))

    def test_different_points_are_not_equal(self):
        assert Point(0.1, 0.2) != Point(0.2, 0.1)

    def test_comparison_with_other_types_is_not_implemented(self):
        assert Point(0.0, 0.0) != (0.0, 0.0)

    def test_points_usable_as_dict_keys(self):
        table = {Point(0.5, 0.5): "center"}
        assert table[Point(0.5, 0.5)] == "center"


class TestDistances:
    def test_euclidean_distance(self):
        assert Point(0.0, 0.0).distance_to(Point(3.0, 4.0)) == pytest.approx(5.0)

    def test_distance_is_symmetric(self):
        a, b = Point(0.1, 0.9), Point(0.7, 0.3)
        assert a.distance_to(b) == pytest.approx(b.distance_to(a))

    def test_distance_to_self_is_zero(self):
        point = Point(0.42, 0.42)
        assert point.distance_to(point) == 0.0

    def test_max_distance_within_unit_square(self):
        assert Point(0.0, 0.0).distance_to(Point(1.0, 1.0)) == pytest.approx(math.sqrt(2.0))


class TestTransformations:
    def test_translated_moves_by_offsets(self):
        assert Point(0.1, 0.2).translated(0.3, -0.1) == Point(0.4, 0.1)

    def test_translated_returns_new_object(self):
        original = Point(0.1, 0.2)
        moved = original.translated(0.1, 0.1)
        assert original == Point(0.1, 0.2)
        assert moved is not original

    def test_clamped_restricts_to_unit_square_by_default(self):
        assert Point(-0.5, 1.5).clamped() == Point(0.0, 1.0)

    def test_clamped_with_custom_bounds(self):
        assert Point(0.05, 0.95).clamped(lo=0.1, hi=0.9) == Point(0.1, 0.9)

    def test_clamped_keeps_interior_points_unchanged(self):
        assert Point(0.5, 0.5).clamped() == Point(0.5, 0.5)
