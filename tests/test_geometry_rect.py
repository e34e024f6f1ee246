"""Unit tests for :class:`repro.geometry.rect.Rect`."""

import copy
import pickle

import pytest

from repro.geometry import Point, Rect, union_all
from repro.geometry.rect import rects_from_sequence


class TestConstruction:
    def test_invalid_extents_rejected(self):
        with pytest.raises(ValueError):
            Rect(0.5, 0.0, 0.4, 1.0)
        with pytest.raises(ValueError):
            Rect(0.0, 0.6, 1.0, 0.5)

    def test_degenerate_rectangle_allowed(self):
        rect = Rect(0.3, 0.3, 0.3, 0.3)
        assert rect.area() == 0.0

    def test_from_point(self):
        rect = Rect.from_point(Point(0.2, 0.8))
        assert rect.as_tuple() == (0.2, 0.8, 0.2, 0.8)

    def test_from_points_orders_coordinates(self):
        rect = Rect.from_points(Point(0.8, 0.1), Point(0.2, 0.9))
        assert rect.as_tuple() == (0.2, 0.1, 0.8, 0.9)

    def test_from_center(self):
        rect = Rect.from_center(Point(0.5, 0.5), 0.2, 0.4)
        assert rect.as_tuple() == pytest.approx((0.4, 0.3, 0.6, 0.7))

    def test_from_center_rejects_negative_extent(self):
        with pytest.raises(ValueError):
            Rect.from_center(Point(0.5, 0.5), -0.1, 0.1)

    def test_unit_square(self):
        assert Rect.unit().as_tuple() == (0.0, 0.0, 1.0, 1.0)

    def test_immutability(self):
        rect = Rect(0, 0, 1, 1)
        with pytest.raises(AttributeError):
            rect.xmin = -1.0

    def test_constructor_coerces_ints_to_floats(self):
        rect = Rect(0, 1, 2, 3)
        assert all(type(value) is float for value in rect.as_tuple())
        assert rect == Rect(0.0, 1.0, 2.0, 3.0)

    def test_rects_from_sequence(self):
        assert rects_from_sequence([0.1, 0.2, 0.3, 0.4]) == Rect(0.1, 0.2, 0.3, 0.4)

    def test_rects_from_sequence_wrong_length(self):
        with pytest.raises(ValueError):
            rects_from_sequence([0.1, 0.2, 0.3])


def _built_every_way():
    """A value from every construction path: validated, unchecked, and Point."""
    base = Rect(0.2, 0.3, 0.4, 0.5)
    return [
        base,
        Rect.from_point(Point(0.5, 0.25)),
        base.union(Rect(0.1, 0.1, 0.2, 0.2)),
        base.extended_towards(Point(0.45, 0.1), 0.02),
        base.expanded(0.05, bound=Rect.unit()),
        union_all([base, Rect(0.6, 0.6, 0.7, 0.7)]),
        Point(0.1, 0.9),
    ]


class TestValueSemantics:
    """Every way a Rect or Point is built yields the same immutable value."""

    @pytest.mark.parametrize("value", _built_every_way(), ids=repr)
    def test_fields_can_be_neither_assigned_nor_deleted(self, value):
        assert not hasattr(value, "__dict__")
        for name in type(value).__slots__:
            with pytest.raises(AttributeError):
                setattr(value, name, 0.0)
            with pytest.raises(AttributeError):
                delattr(value, name)
            assert type(getattr(value, name)) is float
        with pytest.raises(AttributeError):
            value.other = 1

    @pytest.mark.parametrize("value", _built_every_way(), ids=repr)
    def test_pickle_and_copies_round_trip(self, value):
        for clone in (
            pickle.loads(pickle.dumps(value)),
            copy.copy(value),
            copy.deepcopy(value),
        ):
            assert type(clone) is type(value)
            assert clone == value and hash(clone) == hash(value)
            assert tuple(clone) == tuple(value)

    def test_unchecked_results_equal_the_validated_constructor(self):
        for value in _built_every_way()[:-1]:
            validated = Rect(*value.as_tuple())
            assert value == validated and hash(value) == hash(validated)
            assert value != value.as_tuple()  # no equality across types


class TestMeasures:
    def test_area_and_margin(self):
        rect = Rect(0.0, 0.0, 0.4, 0.25)
        assert rect.area() == pytest.approx(0.1)
        assert rect.margin() == pytest.approx(0.65)

    def test_width_height_center(self):
        rect = Rect(0.1, 0.2, 0.5, 0.8)
        assert rect.width == pytest.approx(0.4)
        assert rect.height == pytest.approx(0.6)
        assert rect.center() == Point(0.3, 0.5)


class TestPredicates:
    def test_contains_point_inside_and_boundary(self):
        rect = Rect(0.2, 0.2, 0.6, 0.6)
        assert rect.contains_point(Point(0.4, 0.4))
        assert rect.contains_point(Point(0.2, 0.6))  # boundary counts
        assert not rect.contains_point(Point(0.61, 0.4))

    def test_contains_rect(self):
        outer = Rect(0.0, 0.0, 1.0, 1.0)
        inner = Rect(0.2, 0.2, 0.4, 0.4)
        assert outer.contains_rect(inner)
        assert not inner.contains_rect(outer)
        assert outer.contains_rect(outer)

    def test_intersects_overlap_and_touch(self):
        a = Rect(0.0, 0.0, 0.5, 0.5)
        assert a.intersects(Rect(0.4, 0.4, 0.8, 0.8))
        assert a.intersects(Rect(0.5, 0.0, 0.9, 0.5))  # edge touch counts
        assert not a.intersects(Rect(0.51, 0.51, 0.9, 0.9))

    def test_intersection_region(self):
        a = Rect(0.0, 0.0, 0.5, 0.5)
        b = Rect(0.25, 0.25, 1.0, 1.0)
        assert a.intersection(b) == Rect(0.25, 0.25, 0.5, 0.5)
        assert a.intersection(Rect(0.6, 0.6, 0.9, 0.9)) is None

    def test_overlap_area(self):
        a = Rect(0.0, 0.0, 0.5, 0.5)
        b = Rect(0.25, 0.25, 0.75, 0.75)
        assert a.overlap_area(b) == pytest.approx(0.0625)
        assert a.overlap_area(Rect(0.6, 0.6, 0.7, 0.7)) == 0.0


class TestCombination:
    def test_union(self):
        a = Rect(0.0, 0.0, 0.3, 0.3)
        b = Rect(0.5, 0.6, 0.7, 0.9)
        assert a.union(b) == Rect(0.0, 0.0, 0.7, 0.9)

    def test_union_point(self):
        rect = Rect(0.2, 0.2, 0.4, 0.4)
        assert rect.union_point(Point(0.9, 0.1)) == Rect(0.2, 0.1, 0.9, 0.4)

    def test_union_all(self):
        rects = [Rect(0.1, 0.1, 0.2, 0.2), Rect(0.5, 0.0, 0.6, 0.3), Rect(0.0, 0.4, 0.1, 0.9)]
        assert union_all(rects) == Rect(0.0, 0.0, 0.6, 0.9)

    def test_union_all_empty_raises(self):
        with pytest.raises(ValueError):
            union_all([])

    def test_enlargement_to_include(self):
        rect = Rect(0.0, 0.0, 0.5, 0.5)
        assert rect.enlargement_to_include(Rect(0.2, 0.2, 0.4, 0.4)) == 0.0
        assert rect.enlargement_to_include(Rect(0.0, 0.0, 1.0, 0.5)) == pytest.approx(0.25)

    def test_enlargement_to_include_point(self):
        rect = Rect(0.0, 0.0, 0.5, 0.5)
        assert rect.enlargement_to_include_point(Point(1.0, 0.5)) == pytest.approx(0.25)

    def test_min_distance_to_point(self):
        rect = Rect(0.0, 0.0, 1.0, 1.0)
        assert rect.min_distance_to_point(Point(0.5, 0.5)) == 0.0
        assert rect.min_distance_to_point(Point(1.0, 2.0)) == pytest.approx(1.0)
        assert rect.min_distance_to_point(Point(4.0, 5.0)) == pytest.approx(5.0)


class TestDirectionalExtension:
    """``iExtendMBR`` (Algorithm 4) behaviour."""

    def test_extends_only_towards_target(self):
        rect = Rect(0.4, 0.4, 0.6, 0.6)
        target = Point(0.65, 0.5)  # moved east, within epsilon
        extended = rect.extended_towards(target, epsilon=0.1)
        assert extended == Rect(0.4, 0.4, 0.65, 0.6)

    def test_extension_limited_by_epsilon(self):
        rect = Rect(0.4, 0.4, 0.6, 0.6)
        target = Point(0.9, 0.5)  # farther than epsilon allows
        extended = rect.extended_towards(target, epsilon=0.1)
        assert extended == Rect(0.4, 0.4, 0.7, 0.6)
        assert not extended.contains_point(target)

    def test_extension_limited_by_parent_bound(self):
        rect = Rect(0.4, 0.4, 0.6, 0.6)
        bound = Rect(0.0, 0.0, 0.62, 1.0)
        extended = rect.extended_towards(Point(0.7, 0.5), epsilon=0.2, bound=bound)
        assert extended.xmax == pytest.approx(0.62)

    def test_northeast_move_extends_two_sides(self):
        rect = Rect(0.4, 0.4, 0.6, 0.6)
        extended = rect.extended_towards(Point(0.62, 0.63), epsilon=0.1)
        assert extended == Rect(0.4, 0.4, 0.62, 0.63)

    def test_move_west_and_south(self):
        rect = Rect(0.4, 0.4, 0.6, 0.6)
        extended = rect.extended_towards(Point(0.35, 0.32), epsilon=0.1)
        assert extended == Rect(0.35, 0.32, 0.6, 0.6)

    def test_point_inside_leaves_rect_unchanged(self):
        rect = Rect(0.4, 0.4, 0.6, 0.6)
        assert rect.extended_towards(Point(0.5, 0.5), epsilon=0.1) == rect

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError):
            Rect(0, 0, 1, 1).extended_towards(Point(2, 2), epsilon=-0.1)


class TestExpansion:
    """LBU-style all-direction expansion."""

    def test_expanded_grows_all_sides(self):
        rect = Rect(0.4, 0.4, 0.6, 0.6)
        assert rect.expanded(0.05).as_tuple() == pytest.approx((0.35, 0.35, 0.65, 0.65))

    def test_expanded_clipped_to_bound(self):
        rect = Rect(0.4, 0.4, 0.6, 0.6)
        bound = Rect(0.38, 0.0, 1.0, 0.62)
        expanded = rect.expanded(0.05, bound=bound)
        assert expanded.as_tuple() == pytest.approx((0.38, 0.35, 0.65, 0.62))

    def test_expanded_negative_epsilon_rejected(self):
        with pytest.raises(ValueError):
            Rect(0, 0, 1, 1).expanded(-0.01)

    def test_expanded_zero_epsilon_is_identity(self):
        rect = Rect(0.1, 0.2, 0.3, 0.4)
        assert rect.expanded(0.0) == rect
