"""Property-based tests (hypothesis) for the geometric primitives.

The R-tree's correctness leans entirely on a handful of geometric identities
(union monotonicity, containment transitivity, the bounded-extension
guarantees of Algorithm 4); these properties are exercised over random
rectangles and points.
"""

import math

from hypothesis import given, strategies as st

from repro.geometry import Point, Rect, union_all

coordinates = st.floats(min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False)


@st.composite
def points(draw):
    return Point(draw(coordinates), draw(coordinates))


@st.composite
def rects(draw):
    x1, x2 = sorted((draw(coordinates), draw(coordinates)))
    y1, y2 = sorted((draw(coordinates), draw(coordinates)))
    return Rect(x1, y1, x2, y2)


epsilons = st.floats(min_value=0.0, max_value=0.5, allow_nan=False, allow_infinity=False)


class TestUnionProperties:
    @given(rects(), rects())
    def test_union_contains_both_operands(self, a, b):
        union = a.union(b)
        assert union.contains_rect(a)
        assert union.contains_rect(b)

    @given(rects(), rects())
    def test_union_is_commutative(self, a, b):
        assert a.union(b) == b.union(a)

    @given(rects())
    def test_union_with_self_is_identity(self, rect):
        assert rect.union(rect) == rect

    @given(rects(), rects(), rects())
    def test_union_all_matches_pairwise_union(self, a, b, c):
        assert union_all([a, b, c]) == a.union(b).union(c)

    @given(rects(), rects())
    def test_enlargement_is_non_negative(self, a, b):
        assert a.enlargement_to_include(b) >= -1e-12


class TestContainmentAndOverlapProperties:
    @given(rects(), rects())
    def test_containment_implies_intersection(self, a, b):
        if a.contains_rect(b):
            assert a.intersects(b)

    @given(rects(), rects())
    def test_intersection_is_symmetric(self, a, b):
        assert a.intersects(b) == b.intersects(a)

    @given(rects(), points())
    def test_min_distance_zero_iff_contained(self, rect, point):
        distance = rect.min_distance_to_point(point)
        if rect.contains_point(point):
            assert distance == 0.0
        else:
            # Squaring a sub-normal gap can underflow to exactly zero, so the
            # strict inequality is only asserted for numerically meaningful
            # separations.
            gap_x = max(rect.xmin - point.x, 0.0, point.x - rect.xmax)
            gap_y = max(rect.ymin - point.y, 0.0, point.y - rect.ymax)
            if max(gap_x, gap_y) > 1e-100:
                assert distance > 0.0
            else:
                assert distance >= 0.0


class TestDirectionalExtensionProperties:
    """Algorithm 4 invariants."""

    @given(rects(), points(), epsilons)
    def test_extension_contains_original(self, rect, target, epsilon):
        extended = rect.extended_towards(target, epsilon)
        assert extended.contains_rect(rect)

    @given(rects(), points(), epsilons)
    def test_extension_bounded_by_epsilon_per_side(self, rect, target, epsilon):
        extended = rect.extended_towards(target, epsilon)
        assert rect.xmin - extended.xmin <= epsilon + 1e-12
        assert extended.xmax - rect.xmax <= epsilon + 1e-12
        assert rect.ymin - extended.ymin <= epsilon + 1e-12
        assert extended.ymax - rect.ymax <= epsilon + 1e-12

    @given(rects(), points(), epsilons, rects())
    def test_extension_never_escapes_bound_that_contains_rect(self, rect, target, epsilon, other):
        bound = other.union(rect)  # guarantee the bound covers the rectangle
        extended = rect.extended_towards(target, epsilon, bound=bound)
        assert bound.contains_rect(extended)

    @given(rects(), points(), epsilons)
    def test_extension_never_overshoots_target(self, rect, target, epsilon):
        """Extension goes only as far as needed: the extended side never
        passes the target coordinate (the 'only enough to bound the object'
        clause of Section 3.2.1)."""
        extended = rect.extended_towards(target, epsilon)
        if target.x > rect.xmax:
            assert extended.xmax <= max(rect.xmax, target.x) + 1e-12
        if target.x < rect.xmin:
            assert extended.xmin >= min(rect.xmin, target.x) - 1e-12
        if target.y > rect.ymax:
            assert extended.ymax <= max(rect.ymax, target.y) + 1e-12
        if target.y < rect.ymin:
            assert extended.ymin >= min(rect.ymin, target.y) - 1e-12

    @given(rects(), points())
    def test_large_epsilon_extension_reaches_target(self, rect, target):
        extended = rect.extended_towards(target, epsilon=2.0)
        assert extended.contains_point(target)


class TestExpansionProperties:
    """LBU's all-direction expansion invariants."""

    @given(rects(), epsilons)
    def test_expanded_contains_original(self, rect, epsilon):
        assert rect.expanded(epsilon).contains_rect(rect)

    @given(rects(), epsilons)
    def test_expanded_area_grows_monotonically(self, rect, epsilon):
        assert rect.expanded(epsilon).area() >= rect.area() - 1e-12

    @given(rects(), epsilons, rects())
    def test_expanded_respects_bound_containing_rect(self, rect, epsilon, other):
        bound = other.union(rect)
        assert bound.contains_rect(rect.expanded(epsilon, bound=bound))


class TestPointProperties:
    @given(points(), points())
    def test_distance_symmetry(self, a, b):
        assert math.isclose(a.distance_to(b), b.distance_to(a), rel_tol=1e-12)

    @given(points(), points(), points())
    def test_triangle_inequality(self, a, b, c):
        assert a.distance_to(c) <= a.distance_to(b) + b.distance_to(c) + 1e-9

    @given(points())
    def test_clamped_point_is_inside_unit_square(self, point):
        clamped = point.clamped()
        assert Rect.unit().contains_point(clamped)
