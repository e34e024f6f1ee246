"""The node MBR as maintained state: always the bound of the columns, rarely swept.

:meth:`repro.rtree.node.Node.mbr` is a memo the node's write methods adjust
by the rectangle that came or went, the page codec persists in the page
header, and a decoded node starts from.  Four things are checked here:

* **memo ≡ sweep** (Hypothesis) — along random sequences of every write
  method and codec round trips, ``node.mbr()`` equals a fresh
  ``kernels.union_bounds`` over the columns, with coordinates drawn from a
  coarse grid so that moves onto, along and off the boundary and degenerate
  (point) rectangles are the common case, and with the memo left unknown for
  stretches of writes.
* **the covered scan** — ``Node.intersecting_children`` returns every id
  without a kernel scan when the memo lies inside the window; with the memo
  set, unknown, dropped by a boundary departure, and on a leaf with ε-slack
  it answers what the per-entry ``Rect.intersects`` answers.
* **the work bound** — counting ``kernels.union_bounds`` calls: an in-place
  update of an interior point on a freshly decoded leaf sweeps nothing, and
  a seeded GBU stream at a 1 % pool stays under 0.3 sweeps per update (it
  was 1.9 while every write reset the memo and every decode started without
  one) — so a silent fall back to "reset on every write" fails here instead
  of in a benchmark.
* **nothing else moved** — ``IOStatistics`` and the answers digest of that
  stream equal ``STREAM_GOLDEN``, recorded at commit bbde488 before the MBR
  became page data (recorded measurements: do not regenerate them from the
  current code).
"""

import hashlib
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import IndexConfig, MovingObjectIndex
from repro.geometry import Point, Rect, kernels
from repro.rtree.node import Entry, Node
from repro.storage.serialization import NodeCodec
from repro.update import UpdateOutcome

# ---------------------------------------------------------------------------
# memo ≡ sweep
# ---------------------------------------------------------------------------
# A coarse grid makes boundary ties likely; free floats keep the general case.
grid = st.sampled_from([0.0, 0.125, 0.25, 0.5, 0.75, 1.0])
coordinate = st.one_of(grid, st.floats(min_value=0.0, max_value=1.0, allow_nan=False))


@st.composite
def rects(draw):
    x0, x1 = sorted((draw(coordinate), draw(coordinate)))
    y0, y1 = sorted((draw(coordinate), draw(coordinate)))
    if draw(st.booleans()):
        return Rect(x0, y0, x0, y0)  # a moving point
    return Rect(x0, y0, x1, y1)


pick = st.integers(min_value=0, max_value=10_000)
operations = st.lists(
    st.tuples(
        st.one_of(
            st.tuples(st.just("add"), rects()),
            st.tuples(st.just("set"), pick, rects()),
            st.tuples(st.sampled_from(["discard", "remove", "pop"]), pick),
            st.tuples(st.just("assign"), st.lists(rects(), max_size=6)),
            st.tuples(st.just("codec")),
        ),
        st.booleans(),  # ask for the MBR after this write, or leave the memo be
    ),
    max_size=40,
)


#: Inside the coordinate square, so a stale memo would wrongly cover it.
HALF_WINDOW = Rect(0.25, 0.25, 0.75, 0.75)


def assert_memo_is_the_sweep(node, model):
    assert node.entries == model
    # Before mbr(): the covered-node shortcut reads the memo as it stands.
    assert node.intersecting_children(HALF_WINDOW) == kernels.intersects_ids(
        node.coords, node.children, *HALF_WINDOW.as_tuple()
    )
    if model:
        assert node.mbr().as_tuple() == kernels.union_bounds(node.coords)
    else:
        with pytest.raises(ValueError):
            node.mbr()


@settings(max_examples=200, deadline=None)
@given(initial=st.lists(rects(), max_size=6), ops=operations)
def test_mbr_memo_equals_a_fresh_sweep(initial, ops):
    codec = NodeCodec()
    model = [Entry(rect, child) for child, rect in enumerate(initial)]
    next_child = len(model)
    node = Node(page_id=1, level=0, entries=model)
    for op, check in ops:
        kind = op[0]
        if kind == "add":
            entry = Entry(op[1], next_child)
            next_child += 1
            node.add_entry(entry)
            model.append(entry)
        elif kind == "assign":
            model = [Entry(rect, next_child + i) for i, rect in enumerate(op[1])]
            next_child += len(model)
            node.entries = model
        elif kind == "codec":
            node = codec.decode(node.page_id, codec.encode(node))
        elif model:
            index = op[1] % len(model)
            child = model[index].child
            if kind == "set":
                changed = node.set_rect(child, op[2])
                assert changed == (model[index].rect != op[2])
                model[index] = Entry(op[2], child)
            elif kind == "discard":
                assert node.discard_entry(child)
                del model[index]
            elif kind == "remove":
                assert node.remove_entry(child) == model.pop(index)
            else:
                assert node.pop_entry_at(index) == model.pop(index)
        if check:
            assert_memo_is_the_sweep(node, model)
    assert_memo_is_the_sweep(node, model)


# ---------------------------------------------------------------------------
# Which writes keep the memo, which drop it
# ---------------------------------------------------------------------------
class SweepCounter:
    """Counts ``kernels.union_bounds`` calls while installed."""

    def __init__(self, monkeypatch):
        self.calls = 0
        original = kernels.union_bounds

        def counting(coords):
            self.calls += 1
            return original(coords)

        monkeypatch.setattr(kernels, "union_bounds", counting)


def square_leaf():
    """Corner points of the unit square's middle, plus one interior point (id 9)."""
    points = {1: (0.2, 0.2), 2: (0.8, 0.2), 3: (0.8, 0.8), 4: (0.2, 0.8), 9: (0.5, 0.5)}
    node = Node(
        page_id=1,
        level=0,
        entries=[Entry(Rect.from_point(Point(x, y)), oid) for oid, (x, y) in points.items()],
    )
    assert node.mbr() == Rect(0.2, 0.2, 0.8, 0.8)
    return node


class TestDeltaRules:
    def test_interior_moves_arrivals_and_departures_never_sweep(self, monkeypatch):
        node = square_leaf()
        sweeps = SweepCounter(monkeypatch)
        assert node.set_rect(9, Rect.from_point(Point(0.3, 0.7)))  # inside → inside
        assert node.mbr() == Rect(0.2, 0.2, 0.8, 0.8)
        assert node.set_rect(9, Rect.from_point(Point(0.2, 0.6)))  # onto the boundary
        assert node.mbr() == Rect(0.2, 0.2, 0.8, 0.8)
        assert node.set_rect(9, Rect.from_point(Point(0.2, 0.4)))  # along it
        assert node.mbr() == Rect(0.2, 0.2, 0.8, 0.8)
        assert node.set_rect(9, Rect.from_point(Point(0.1, 0.4)))  # sticking out
        assert node.mbr() == Rect(0.1, 0.2, 0.8, 0.8)
        node.add_entry(Entry(Rect(0.4, 0.4, 0.9, 0.5), 10))  # arrival sticking out
        assert node.mbr() == Rect(0.1, 0.2, 0.9, 0.8)
        node.add_entry(Entry(Rect.from_point(Point(0.5, 0.5)), 11))  # arrival inside
        assert node.discard_entry(11)  # departure from the interior
        assert node.mbr() == Rect(0.1, 0.2, 0.9, 0.8)
        assert sweeps.calls == 0

    def test_leaving_the_boundary_costs_one_lazy_sweep(self, monkeypatch):
        node = square_leaf()
        sweeps = SweepCounter(monkeypatch)
        # (0.2, 0.2) holds xmin together with id 4 and ymin with id 2:
        # the bound does not move, but only a sweep can tell.
        assert node.set_rect(1, Rect.from_point(Point(0.5, 0.6)))
        assert node.set_rect(9, Rect.from_point(Point(0.4, 0.4)))
        assert sweeps.calls == 0  # lazy: nobody asked yet
        assert node.mbr() == Rect(0.2, 0.2, 0.8, 0.8)
        assert node.mbr() == Rect(0.2, 0.2, 0.8, 0.8)
        assert sweeps.calls == 1
        assert node.discard_entry(3)  # held xmax and ymax
        assert node.mbr() == Rect(0.2, 0.2, 0.8, 0.8)
        assert sweeps.calls == 2

    def test_first_entry_of_an_empty_node_is_the_bound(self, monkeypatch):
        node = Node(page_id=1, level=0)
        sweeps = SweepCounter(monkeypatch)
        node.add_entry(Entry(Rect(0.1, 0.2, 0.3, 0.4), 1))
        assert node.mbr() == Rect(0.1, 0.2, 0.3, 0.4)
        assert node.discard_entry(1)
        with pytest.raises(ValueError):
            node.mbr()
        assert sweeps.calls == 1  # the empty node's mbr() is the sweep that raises


class TestCoveredScan:
    """``intersecting_children`` answers like the kernel scan in every memo
    state, and skips the scan only when the memo lies inside the window."""

    WINDOWS = (
        Rect(0.0, 0.0, 1.0, 1.0),  # covers everything
        Rect(0.2, 0.2, 0.8, 0.8),  # exactly the square's bound
        Rect(0.1, 0.1, 0.5, 0.9),  # partial
        Rect(0.85, 0.0, 1.0, 1.0),  # misses the square
    )

    @staticmethod
    def scans(monkeypatch):
        calls = []
        original = kernels.intersects_ids

        def counting(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(kernels, "intersects_ids", counting)
        return calls

    def assert_agrees(self, node):
        for window in self.WINDOWS:
            expected = [
                entry.child for entry in node.entries if entry.rect.intersects(window)
            ]
            assert node.intersecting_children(window) == expected

    def test_memo_set(self, monkeypatch):
        node = square_leaf()
        calls = self.scans(monkeypatch)
        self.assert_agrees(node)
        assert len(calls) == 2  # the two covering windows skip the scan

    def test_memo_unknown(self, monkeypatch):
        node = Node(page_id=1, level=0, entries=square_leaf().entries)
        assert node._mbr is None
        calls = self.scans(monkeypatch)
        self.assert_agrees(node)
        assert len(calls) == len(self.WINDOWS) and node._mbr is None  # no rebuild

    def test_after_a_boundary_departure(self, monkeypatch):
        node = square_leaf()
        assert node.set_rect(3, Rect.from_point(Point(0.5, 0.6)))  # held xmax, ymax
        assert node._mbr is None
        self.assert_agrees(node)
        assert node.mbr() == Rect(0.2, 0.2, 0.8, 0.8)
        calls = self.scans(monkeypatch)
        self.assert_agrees(node)
        assert len(calls) == 2

    def test_leaf_with_epsilon_slack(self):
        leaf = square_leaf()
        leaf.stored_mbr = Rect(0.15, 0.15, 0.85, 0.85)
        parent = Node(page_id=2, level=1, entries=[Entry(leaf.stored_mbr, leaf.page_id)])
        assert parent.mbr() == leaf.stored_mbr
        self.assert_agrees(leaf)
        self.assert_agrees(parent)
        assert parent.intersecting_children(Rect(0.82, 0.82, 0.9, 0.9)) == [leaf.page_id]
        assert leaf.intersecting_children(Rect(0.82, 0.82, 0.9, 0.9)) == []


# ---------------------------------------------------------------------------
# The work bound, and nothing else moved
# ---------------------------------------------------------------------------
STREAM_OBJECTS = 20_000
STREAM_UPDATES = 3_000
STREAM_PROBES = 20
MAX_DISTANCE = 0.03  # paper Table 1

#: Recorded at commit bbde488 (see the module docstring).
STREAM_GOLDEN = (
    {
        "physical_reads": 5982,
        "physical_writes": 4703,
        "logical_reads": 6432,
        "logical_writes": 4849,
        "buffer_hits": 450,
        "dirty_evictions": 4703,
        "hash_index_reads": 2996,
        "over_capacity_peak": 0,
        "total_physical_io": 13681,
    },
    "49707acd1038b76b3fb3f7154693e0139a37298a59f6e994f7ef74c93c9a913d",
    {"in_place": 1592, "extended": 313, "sibling_shift": 818, "ascended": 273, "top_down": 4},
)


def _moved(rng, old):
    distance = rng.random() * MAX_DISTANCE
    angle = rng.random() * 2.0 * math.pi
    return Point(
        min(1.0, max(0.0, old.x + distance * math.cos(angle))),
        min(1.0, max(0.0, old.y + distance * math.sin(angle))),
    )


def stream_index():
    """GBU at a 1 % pool, loaded; returns the index and the stream's generator."""
    rng = random.Random(16)
    index = MovingObjectIndex(IndexConfig(strategy="GBU", buffer_percent=1.0))
    index.load([(oid, Point(rng.random(), rng.random())) for oid in range(STREAM_OBJECTS)])
    index.reset_statistics()
    return index, rng


def run_updates(index, rng):
    for _ in range(STREAM_UPDATES):
        oid = rng.randrange(STREAM_OBJECTS)
        index.update(oid, _moved(rng, index.position_of(oid)))


def stream_results(index, rng):
    """``(IOStatistics.as_dict(), answers digest, outcome counts)`` after probing."""
    digest = hashlib.sha256()
    for _ in range(STREAM_PROBES):
        x, y = rng.random() * 0.9, rng.random() * 0.9
        digest.update(repr(sorted(index.range_query(Rect(x, y, x + 0.1, y + 0.1)))).encode())
        digest.update(repr(index.knn(Point(x, y), 5)).encode())
    outcomes = {
        outcome.value: count for outcome, count in index.strategy.outcome_counts.items() if count
    }
    return index.stats.as_dict(), digest.hexdigest(), outcomes


class TestWorkBound:
    def test_in_place_update_on_a_freshly_decoded_leaf_sweeps_nothing(
        self, monkeypatch
    ):
        rng = random.Random(4)
        index = MovingObjectIndex(IndexConfig(strategy="GBU", buffer_percent=1.0))
        index.load([(oid, Point(rng.random(), rng.random())) for oid in range(2_000)])
        interior = []
        for leaf in index.tree.leaf_nodes():
            mbr = leaf.mbr()
            for entry in leaf.entries:
                x, y = entry.rect.xmin, entry.rect.ymin
                if mbr.xmin < x < mbr.xmax and mbr.ymin < y < mbr.ymax:
                    interior.append((entry.child, mbr.center()))
                    break
        assert len(interior) >= 20
        sweeps = SweepCounter(monkeypatch)
        for oid, target in interior:
            index.buffer.clear()  # the leaf comes back from its page image
            decodes = index.stats.physical_reads
            assert index.update(oid, target) is UpdateOutcome.IN_PLACE
            assert index.stats.physical_reads == decodes + 1
            index.buffer.flush()  # and its new image needs no sweep either
        assert sweeps.calls == 0
        monkeypatch.undo()
        index.validate()

    def test_stream_stays_under_the_sweep_bound_and_moves_nothing_else(
        self, monkeypatch
    ):
        index, rng = stream_index()
        sweeps = SweepCounter(monkeypatch)
        run_updates(index, rng)
        monkeypatch.undo()
        assert sweeps.calls <= 0.3 * STREAM_UPDATES
        assert stream_results(index, rng) == STREAM_GOLDEN
        index.validate()
