"""Property-based tests for the quadratic split.

The split is the only place where the R-tree redistributes entries, so its
correctness (partitioning, minimum fill) is load-bearing for every structural
invariant of the tree.
"""

from hypothesis import given, settings, strategies as st

from repro.geometry import Point, Rect, union_all
from repro.rtree import Entry, QuadraticSplit

coordinate = st.floats(min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False)


@st.composite
def entry_lists(draw, min_size=4, max_size=24):
    count = draw(st.integers(min_value=min_size, max_value=max_size))
    entries = []
    for oid in range(count):
        x = draw(coordinate)
        y = draw(coordinate)
        entries.append(Entry(Rect.from_point(Point(x, y)), oid))
    return entries


@st.composite
def split_cases(draw):
    entries = draw(entry_lists())
    min_entries = draw(st.integers(min_value=1, max_value=len(entries) // 2))
    return entries, min_entries


SPLIT = QuadraticSplit()


@settings(max_examples=60, deadline=None)
@given(split_cases())
def test_split_partitions_entries(case):
    entries, min_entries = case
    original_ids = sorted(entry.child for entry in entries)
    group_a, group_b = SPLIT.split(list(entries), min_entries)
    assert sorted(e.child for e in group_a + group_b) == original_ids


@settings(max_examples=60, deadline=None)
@given(split_cases())
def test_split_respects_minimum_fill(case):
    entries, min_entries = case
    group_a, group_b = SPLIT.split(list(entries), min_entries)
    assert len(group_a) >= min_entries
    assert len(group_b) >= min_entries


@settings(max_examples=60, deadline=None)
@given(split_cases())
def test_group_mbrs_cover_their_entries(case):
    entries, min_entries = case
    for group in SPLIT.split(list(entries), min_entries):
        mbr = union_all(entry.rect for entry in group)
        for entry in group:
            assert mbr.contains_rect(entry.rect)


@settings(max_examples=60, deadline=None)
@given(split_cases())
def test_union_of_group_mbrs_equals_original_mbr(case):
    entries, min_entries = case
    original = union_all(entry.rect for entry in entries)
    group_a, group_b = SPLIT.split(list(entries), min_entries)
    combined = union_all(e.rect for e in group_a).union(union_all(e.rect for e in group_b))
    assert combined == original


@settings(max_examples=60, deadline=None)
@given(split_cases())
def test_split_does_not_mutate_input_entries(case):
    entries, min_entries = case
    rect_snapshot = [entry.rect for entry in entries]
    child_snapshot = [entry.child for entry in entries]
    SPLIT.split(list(entries), min_entries)
    assert [entry.rect for entry in entries] == rect_snapshot
    assert [entry.child for entry in entries] == child_snapshot
