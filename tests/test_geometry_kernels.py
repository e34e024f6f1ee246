"""Property tests: the batch kernels agree exactly with the scalar Rect ops.

The packed node layout answers every geometric question through
:mod:`repro.geometry.kernels` instead of per-entry :class:`Rect` calls, so
layout equivalence rests on one contract: **each kernel reproduces the scalar
predicate exactly** — same floats, same booleans, same tie-breaks.  These
properties drive random rectangle buffers (including
degenerate point-rects and exactly-touching edges, the cases the moving-point
workload hits constantly) through every kernel and compare against a scalar
reference loop.
"""

from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry import Point, Rect, kernels, union_all

# Mix plain floats with ones snapped to a coarse grid so exact ties and
# exactly-touching edges occur often instead of almost never.
_fine = st.floats(min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False)
_coarse = st.integers(min_value=0, max_value=8).map(lambda n: n / 8.0)
coordinates = st.one_of(_fine, _coarse)
# Query points well outside the data square, negatives included.
_wide = st.one_of(
    coordinates,
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
)


@st.composite
def rect_tuples(draw):
    x1, x2 = sorted((draw(coordinates), draw(coordinates)))
    y1, y2 = sorted((draw(coordinates), draw(coordinates)))
    return (x1, y1, x2, y2)


@st.composite
def coord_buffers(draw, min_rects=1, max_rects=12):
    count = draw(st.integers(min_value=min_rects, max_value=max_rects))
    buffer = array("d")
    for _ in range(count):
        buffer.extend(draw(rect_tuples()))
    return buffer


def rects_of(coords):
    return [Rect(*coords[base : base + 4]) for base in range(0, len(coords), 4)]


class TestBackendSelection:
    def test_python_is_the_backend(self):
        assert kernels.set_backend("python") == "python"

    @pytest.mark.parametrize("name", ["numpy", "fortran"])
    def test_any_other_backend_rejected(self, name):
        with pytest.raises(ValueError):
            kernels.set_backend(name)


class TestUnionBounds:
    @settings(max_examples=150)
    @given(coord_buffers())
    def test_matches_union_all(self, coords):
        expected = union_all(rects_of(coords)).as_tuple()
        assert kernels.union_bounds(coords) == expected

    def test_empty_buffer_rejected(self):
        with pytest.raises(ValueError):
            kernels.union_bounds(array("d"))

    def test_union_rect_is_exact(self):
        coords = array("d", [0.1, 0.2, 0.3, 0.4, 0.25, 0.1, 0.9, 0.35])
        assert kernels.union_rect(coords) == Rect(0.1, 0.1, 0.9, 0.4)


class TestIntersectsMany:
    # The property against Rect.intersects is TestGatherVariants', whose
    # buffers are richer in points and window-touching rectangles.

    def test_touching_edge_counts_as_intersection(self):
        coords = array("d", [0.0, 0.0, 0.5, 0.5])
        assert kernels.intersects_many(coords, 0.5, 0.5, 1.0, 1.0) == [0]
        assert kernels.intersects_many(coords, 0.5 + 1e-12, 0.5, 1.0, 1.0) == []

    def test_degenerate_point_rects(self):
        coords = array("d", [0.25, 0.25, 0.25, 0.25, 0.75, 0.75, 0.75, 0.75])
        assert kernels.intersects_many(coords, 0.0, 0.0, 0.5, 0.5) == [0]
        assert kernels.intersects_many(coords, 0.25, 0.25, 0.75, 0.75) == [0, 1]


@st.composite
def windows_and_buffers(draw):
    """A window and a buffer rich in points and rectangles touching the window.

    ``intersects_ids`` reads an entry's far corner only when its near one is
    left of (below) the window, so the cases that matter are sides lying
    exactly on the window's edges and degenerate rectangles.
    """
    window = draw(rect_tuples())
    wx0, wy0, wx1, wy1 = window
    buffer = array("d")
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        x0, y0, x1, y1 = draw(rect_tuples())
        shape = draw(st.integers(min_value=0, max_value=5))  # 0: as drawn
        if shape == 1:
            x1, y1 = x0, y0  # a point
        elif shape == 2:
            x0, x1 = min(x0, wx0), wx0  # right side on the window's left edge
        elif shape == 3:
            x0, x1 = wx1, max(x1, wx1)  # left side on the window's right edge
        elif shape == 4:
            y0, y1 = min(y0, wy0), wy0
        elif shape == 5:
            y0, y1 = wy1, max(y1, wy1)
        buffer.extend((x0, y0, x1, y1))
    return window, buffer


class TestGatherVariants:
    """The *_ids kernels return ``ids[i]`` for exactly the matching entries."""

    @settings(max_examples=150)
    @given(windows_and_buffers())
    def test_intersects_ids_matches_scalar_intersects(self, case):
        window, coords = case
        ids = array("I", range(100, 100 + len(coords) // 4))
        expected = [
            ids[i] for i, rect in enumerate(rects_of(coords)) if rect.intersects(Rect(*window))
        ]
        assert kernels.intersects_ids(coords, ids, *window) == expected
        assert kernels.intersects_many(coords, *window) == [i - 100 for i in expected]

    @settings(max_examples=150)
    @given(coord_buffers(), coordinates, coordinates)
    def test_contains_point_ids_matches_index_variant(self, coords, x, y):
        ids = array("I", range(100, 100 + len(coords) // 4))
        expected = [ids[i] for i in kernels.contains_point_many(coords, x, y)]
        assert kernels.contains_point_ids(coords, ids, x, y) == expected


class TestContainedInMany:
    @settings(max_examples=150)
    @given(coord_buffers(), rect_tuples())
    def test_matches_scalar_contains_rect(self, coords, window):
        container = Rect(*window)
        expected = [
            index
            for index, rect in enumerate(rects_of(coords))
            if container.contains_rect(rect)
        ]
        assert kernels.contained_in_many(coords, *window) == expected

    def test_boundary_touch_is_contained(self):
        coords = array("d", [0.0, 0.0, 0.5, 0.5, 0.0, 0.0, 0.5 + 1e-12, 0.5])
        assert kernels.contained_in_many(coords, 0.0, 0.0, 0.5, 0.5) == [0]
        assert kernels.contained_in_many(coords, 0.0, 0.0, 1.0, 1.0) == [0, 1]


class TestContainsPointMany:
    @settings(max_examples=150)
    @given(coord_buffers(), coordinates, coordinates)
    def test_matches_scalar_contains_point(self, coords, x, y):
        expected = [
            index
            for index, rect in enumerate(rects_of(coords))
            if rect.contains_point(Point(x, y))
        ]
        assert kernels.contains_point_many(coords, x, y) == expected

    def test_boundary_is_inclusive(self):
        coords = array("d", [0.0, 0.0, 0.5, 0.5])
        assert kernels.contains_point_many(coords, 0.5, 0.0) == [0]
        assert kernels.contains_point_many(coords, 0.5, 0.5) == [0]

    def test_point_rect_contains_only_itself(self):
        coords = array("d", [0.3, 0.7, 0.3, 0.7])
        assert kernels.contains_point_many(coords, 0.3, 0.7) == [0]
        assert kernels.contains_point_many(coords, 0.3, 0.7 + 1e-12) == []


class TestEnlargement:
    @settings(max_examples=150)
    @given(coord_buffers(), rect_tuples())
    def test_matches_scalar_enlargement_exactly(self, coords, query):
        query_rect = Rect(*query)
        # Bit-exact, not approximate: the kernel mirrors the scalar
        # operation order, so == must hold for every float.
        expected = [
            rect.enlargement_to_include(query_rect) for rect in rects_of(coords)
        ]
        assert kernels.enlargement_many(coords, *query) == expected

    @settings(max_examples=150)
    @given(coord_buffers(), rect_tuples())
    def test_argmin_matches_sequential_first_wins_scan(self, coords, query):
        query_rect = Rect(*query)
        best_index = 0
        best_enlargement = float("inf")
        best_area = float("inf")
        for index, rect in enumerate(rects_of(coords)):
            enlargement = rect.enlargement_to_include(query_rect)
            area = rect.area()
            if enlargement < best_enlargement or (
                enlargement == best_enlargement and area < best_area
            ):
                best_index = index
                best_enlargement = enlargement
                best_area = area
        assert kernels.argmin_enlargement(coords, *query) == best_index

    def test_tie_broken_by_first_index(self):
        # Two identical rects already containing the query: zero enlargement,
        # equal area — the first one must win, like the sequential scan.
        coords = array("d", [0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0])
        assert kernels.argmin_enlargement(coords, 0.4, 0.4, 0.6, 0.6) == 0

    def test_empty_buffer_rejected(self):
        with pytest.raises(ValueError):
            kernels.argmin_enlargement(array("d"), 0.0, 0.0, 1.0, 1.0)


class TestMinDistanceMany:
    @settings(max_examples=150)
    @given(coord_buffers(), coordinates, coordinates)
    def test_matches_scalar_distance_exactly(self, coords, x, y):
        point = Point(x, y)
        expected = [rect.min_distance_to_point(point) for rect in rects_of(coords)]
        assert kernels.min_distance_many(coords, x, y) == expected

    def test_zero_inside_and_on_boundary(self):
        coords = array("d", [0.0, 0.0, 1.0, 1.0])
        assert kernels.min_distance_many(coords, 0.5, 0.5) == [0.0]
        assert kernels.min_distance_many(coords, 1.0, 0.5) == [0.0]

    @settings(max_examples=150)
    @given(coord_buffers(), _wide, _wide)
    def test_bit_exact_for_points_far_outside_the_unit_square(self, coords, x, y):
        # ``==`` cannot tell 0.0 from -0.0; the contract is the same *bits*.
        point = Point(x, y)
        expected = _bits(rect.min_distance_to_point(point) for rect in rects_of(coords))
        assert _bits(kernels.min_distance_many(coords, x, y)) == expected

    def test_bit_exact_in_every_region_of_the_clamp(self):
        # One proper rectangle, a vertical and a horizontal segment, and a
        # point-rect (the moving-object case), probed from the nine regions
        # a rectangle cuts the plane into: inside, on each edge, at each
        # corner, and strictly beyond each side and corner.
        coords = array(
            "d",
            [0.25, 0.375, 0.75, 0.625]
            + [0.5, 0.125, 0.5, 0.875]
            + [0.125, 0.5, 0.875, 0.5]
            + [0.1, 0.7000000123456789, 0.1, 0.7000000123456789],
        )
        rects = rects_of(coords)
        xs = sorted({v for r in rects for v in (r.xmin, r.xmax)} | {-0.3, 0.3, 0.6, 1.3})
        ys = sorted({v for r in rects for v in (r.ymin, r.ymax)} | {-0.3, 0.45, 0.55, 1.3})
        for x in xs:
            for y in ys:
                point = Point(x, y)
                expected = _bits(r.min_distance_to_point(point) for r in rects)
                actual = _bits(kernels.min_distance_many(coords, x, y))
                assert actual == expected, f"at ({x}, {y})"

    def test_empty_buffer_yields_no_distances(self):
        assert kernels.min_distance_many(array("d"), 0.5, 0.5) == []


def _bits(values):
    """Exact representation of each float (tells 0.0 from -0.0)."""
    return [float(value).hex() for value in values]
