"""Delta-maintained hash index and summary: equal to a rebuild, and bounded in work.

A node-write event reports what entered the node since its last write
(:attr:`repro.rtree.node.Node.arrived`), and the two observers spend work
proportional to that.  Two things no answer-level test can see are checked
here:

* **delta ≡ rebuild** — along one seeded mixed stream (insert / update /
  delete / ``execute_many`` / ``set_strategy`` hot swaps / checkpoint→restore)
  the live ``_leaf_of`` map equals the map rebuilt from the leaves *exactly*
  (no stale extra ids) and the live summary equals a freshly
  ``rebuild_from_tree()``-ed one field by field; the summary's maintenance
  counters equal the values whole-node re-registration produced for the same
  stream (``MAINTENANCE_GOLDEN``, recorded at commit 9f244ce before the
  observers became delta-driven — recorded measurements, do not regenerate
  them from the current code).  Re-recorded once, on purpose, at the commit
  after 39075e6, when the batch path began running each strategy's one
  ladder: the stream's batch steps are buckets of that ladder, so
  the summary sees different MBR updates after step 150; every other step,
  and every per-operation step, is unchanged.
* **the work bound** — with counting dictionaries behind ``_leaf_of`` and
  ``_parent_of``, an in-place update or an ε-extension writes no key, a
  sibling shift writes one key per object that changed leaf, an MBR-only
  parent write assigns no ``_parent_of`` key, and a split still registers
  both halves — so a silent fall back to whole-node registration fails here
  instead of in a benchmark.
"""

import random

import pytest

from repro.api import Update
from repro.core import IndexConfig, MovingObjectIndex
from repro.core.persistence import load_index, save_index
from repro.shard import ShardedIndex
from repro.geometry import Point, Rect
from repro.summary import SummaryStructure
from repro.update import UpdateOutcome

from tests.conftest import SMALL_PAGE_SIZE

STRATEGIES = ("TD", "NAIVE", "LBU", "GBU")
BUFFER_PERCENTS = (0.0, 1.0, 100.0)
STEPS = 600
CHECK_EVERY = 25

_DETOUR_OFF = [None] * 5
_DETOUR_DONE = [None] * 13
#: ``(mbr_updates, entry_insertions, entry_removals)`` at every check of the
#: stream (``None`` while the live strategy keeps no summary), per starting
#: strategy.  The values did not depend on the buffer size.
MAINTENANCE_GOLDEN = {
    "TD": _DETOUR_OFF
    + [(0, 11, 0), (5, 11, 0), (9, 11, 0), (15, 11, 0), (18, 11, 0), (28, 11, 0)]
    + _DETOUR_DONE,
    "NAIVE": _DETOUR_OFF
    + [(0, 11, 0), (5, 11, 0), (9, 11, 0), (16, 11, 0), (17, 11, 0), (32, 11, 0)]
    + _DETOUR_DONE,
    "LBU": _DETOUR_OFF
    + [(0, 11, 0), (7, 11, 0), (13, 11, 0), (19, 11, 0), (23, 11, 0), (35, 11, 0)]
    + _DETOUR_DONE,
    "GBU": [(7, 14, 0), (9, 14, 0), (10, 14, 0), (28, 14, 3), (32, 14, 3)]
    + [None] * 6  # the LBU detour keeps no summary
    + [(0, 11, 0), (9, 11, 0), (11, 11, 0), (21, 11, 0), (26, 11, 0), (31, 11, 0)]
    # restored from the checkpoint: the counters restart
    + [(0, 11, 0), (13, 11, 0), (20, 11, 0), (28, 11, 1), (32, 11, 1), (33, 11, 1), (42, 11, 1)],
}


# ----------------------------------------------------------------------
# Comparing with a rebuild
# ----------------------------------------------------------------------
def summary_state(summary):
    """Every field of the summary, in a shape two instances can be compared by."""
    table = summary.table
    for pages in table._by_level.values():
        assert len(pages) == len(set(pages)), "a page is listed twice under one level"
    return {
        "entries": {
            page_id: (entry.level, entry.mbr, list(entry.child_page_ids))
            for page_id, entry in table._entries.items()
        },
        "parent_of": dict(table._parent_of),
        "by_level": {level: set(pages) for level, pages in table._by_level.items()},
        "leaf_bits": dict(summary.leaf_bits._full),
        "root": (summary.root_page_id, summary.height),
    }


def assert_equals_rebuild(index):
    rebuilt_leaf_of = {
        oid: leaf.page_id
        for leaf in index.tree.leaf_nodes()
        for oid in leaf.child_ids()
    }
    assert dict(index.hash_index._leaf_of) == rebuilt_leaf_of
    if index.summary is not None:
        fresh = SummaryStructure(index.tree)
        fresh.rebuild_from_tree()
        assert summary_state(index.summary) == summary_state(fresh)


# ----------------------------------------------------------------------
# The stream
# ----------------------------------------------------------------------
def _moved(rng, point):
    """A new position: mostly a small or medium step, sometimes a jump."""
    roll = rng.random()
    if roll < 0.8:
        step = 0.002 if roll < 0.4 else 0.04
        return Point(
            min(1.0, max(0.0, point.x + rng.uniform(-step, step))),
            min(1.0, max(0.0, point.y + rng.uniform(-step, step))),
        )
    return Point(rng.random(), rng.random())


def run_stream(strategy, buffer_percent, checkpoint_path):
    """Drive the mixed stream, comparing with a rebuild every ``CHECK_EVERY`` steps.

    Returns the maintenance counters observed at each check.
    """
    rng = random.Random(1503)
    index = ShardedIndex(
        IndexConfig(
            strategy=strategy, page_size=SMALL_PAGE_SIZE, buffer_percent=buffer_percent
        ),
        num_shards=1,
    )
    positions = {oid: Point(rng.random(), rng.random()) for oid in range(500)}
    index.load(list(positions.items()))
    next_oid = len(positions)
    detour = "LBU" if strategy == "GBU" else "GBU"
    counters = []
    for step in range(1, STEPS + 1):
        if step == 150:
            index.set_strategy(detour)
        elif step == 300:
            index.set_strategy(strategy)
        elif step == 450:
            save_index(index, checkpoint_path)
            index = load_index(checkpoint_path)

        roll = rng.random()
        if roll < 0.70:
            oid = rng.choice(sorted(positions))
            positions[oid] = _moved(rng, positions[oid])
            index.update(oid, positions[oid])
        elif roll < 0.80:
            positions[next_oid] = Point(rng.random(), rng.random())
            index.insert(next_oid, positions[next_oid])
            next_oid += 1
        elif roll < 0.90:
            # Deletes drain one neighbourhood at a time, so leaves underflow
            # and CondenseTree dissolves nodes (the `_parent_of` clean-up).
            hot = Point(0.1 + 0.2 * (step // 100), 0.5)
            oid = min(positions, key=lambda o: (positions[o].distance_to(hot), o))
            del positions[oid]
            index.delete(oid)
        else:
            batch = []
            for oid in rng.sample(sorted(positions), 15):
                positions[oid] = _moved(rng, positions[oid])
                batch.append(Update(oid, positions[oid]))
            index.execute_many(batch)

        if step % CHECK_EVERY == 0:
            assert_equals_rebuild(index.shards[0])
            summary = index.shards[0].summary
            counters.append(
                None
                if summary is None
                else tuple(summary.maintenance_counters().values())
            )
    index.validate()
    assert {oid: index.position_of(oid) for oid in positions} == positions
    return counters


class TestDeltaEqualsRebuild:
    @pytest.mark.parametrize("buffer_percent", BUFFER_PERCENTS)
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_mixed_stream(self, strategy, buffer_percent, tmp_path):
        counters = run_stream(strategy, buffer_percent, tmp_path / "checkpoint.json")
        assert counters == MAINTENANCE_GOLDEN[strategy]


# ----------------------------------------------------------------------
# The work bound
# ----------------------------------------------------------------------
class CountingDict(dict):
    """A dictionary that counts the keys assigned or deleted through it."""

    writes = 0

    def __setitem__(self, key, value):
        self.writes += 1
        super().__setitem__(key, value)

    def __delitem__(self, key):
        self.writes += 1
        super().__delitem__(key)

    def update(self, pairs):
        pairs = list(pairs)
        self.writes += len(pairs)
        super().update(pairs)

    def pop(self, key, *default):
        self.writes += key in self
        return super().pop(key, *default)


class WorkBoundIndex:
    """A loaded GBU index whose ``_leaf_of`` and ``_parent_of`` count their writes."""

    def __init__(self, seed=5, objects=500):
        rng = random.Random(seed)
        self.index = MovingObjectIndex(
            IndexConfig(strategy="GBU", page_size=SMALL_PAGE_SIZE, buffer_percent=100.0)
        )
        self.index.load(
            [(oid, Point(rng.random(), rng.random())) for oid in range(objects)]
        )
        # STR tiles are disjoint; some churn makes leaf MBRs overlap, which is
        # what gives a sibling shift objects to piggyback.
        for _ in range(2 * objects):
            self.index.update(rng.randrange(objects), Point(rng.random(), rng.random()))
        self.leaf_of = CountingDict(self.index.hash_index._leaf_of)
        self.index.hash_index._leaf_of = self.leaf_of
        self.parent_of = CountingDict(self.index.summary.table._parent_of)
        self.index.summary.table._parent_of = self.parent_of

    def leaves(self):
        """The leaves, detached from the frames the updates will mutate."""
        return [
            (leaf.page_id, leaf.effective_mbr(), leaf.entries)
            for leaf in self.index.tree.leaf_nodes()
        ]

    def leaf_sizes(self):
        return {leaf.page_id: len(leaf) for leaf in self.index.tree.leaf_nodes()}

    def counted_update(self, oid, location):
        """Run one update; return ``(outcome, _leaf_of writes, _parent_of writes)``."""
        self.leaf_of.writes = self.parent_of.writes = 0
        outcome = self.index.update(oid, location)
        return outcome, self.leaf_of.writes, self.parent_of.writes


class TestWorkBound:
    def test_in_place_update_writes_no_key(self):
        bound = WorkBoundIndex()
        seen = 0
        for _page, mbr, entries in bound.leaves():
            outcome, leaf_writes, parent_writes = bound.counted_update(
                entries[0].child, mbr.center()
            )
            if outcome is UpdateOutcome.IN_PLACE:
                seen += 1
                assert (leaf_writes, parent_writes) == (0, 0)
        assert seen >= 20
        bound.index.validate()

    def test_extension_writes_no_key(self):
        bound = WorkBoundIndex()
        epsilon = bound.index.config.params.epsilon
        seen = 0
        for _page, mbr, entries in bound.leaves():
            # The rightmost object steps just outside its leaf: a slow mover,
            # so iExtendMBR is tried first and enlarges the parent's entry.
            entry = max(entries, key=lambda e: e.rect.xmax)
            target = Point(mbr.xmax + epsilon / 2, entry.rect.ymin)
            if target.x > 1.0:
                continue
            outcome, leaf_writes, parent_writes = bound.counted_update(
                entry.child, target
            )
            if outcome is UpdateOutcome.EXTENDED:
                seen += 1
                assert (leaf_writes, parent_writes) == (0, 0)
        assert seen >= 5
        bound.index.validate()

    def test_mbr_only_parent_write_assigns_no_parent_key(self):
        bound = WorkBoundIndex()
        tree, table = bound.index.tree, bound.index.summary.table
        parent = tree.read_node(next(table.entries_at_level(1)).page_id)
        first = parent.entry_at(0)
        grown = first.rect.union(Rect(-1.0, -1.0, -0.5, -0.5))
        children_before = list(table.get(parent.page_id).child_page_ids)
        updates_before = table.mbr_updates
        bound.parent_of.writes = 0

        assert parent.set_rect(first.child, grown)
        tree.write_node(parent)

        assert bound.parent_of.writes == 0
        entry = table.get(parent.page_id)
        assert entry.mbr == parent.mbr() and entry.mbr.contains_rect(grown)
        assert entry.child_page_ids == children_before
        assert table.mbr_updates == updates_before + 1

    def test_sibling_shift_writes_one_key_per_object_that_changed_leaf(self):
        bound = WorkBoundIndex()
        index = bound.index
        rng = random.Random(3)
        seen = piggybacked = 0
        for _ in range(1500):
            oid = rng.randrange(500)
            sizes = bound.leaf_sizes()
            outcome, leaf_writes, parent_writes = bound.counted_update(
                oid, _moved(rng, index.position_of(oid))
            )
            if outcome is UpdateOutcome.SIBLING_SHIFT:
                seen += 1
                new_leaf = index.hash_index.peek(oid)
                moved = bound.leaf_sizes()[new_leaf] - sizes[new_leaf]
                assert moved >= 1
                piggybacked += moved - 1
                assert (leaf_writes, parent_writes) == (moved, 0)
        assert seen >= 10
        assert piggybacked > 0
        index.validate()

    def test_split_registers_both_halves(self):
        bound = WorkBoundIndex()
        tree = bound.index.tree
        rng = random.Random(9)
        for oid in range(10_000, 10_200):
            leaves_before = bound.leaf_sizes()
            bound.leaf_of.writes = bound.parent_of.writes = 0
            bound.index.insert(
                oid, Point(0.5 + rng.uniform(-0.01, 0.01), 0.5 + rng.uniform(-0.01, 0.01))
            )
            created = set(bound.leaf_sizes()) - set(leaves_before)
            if created:
                break
        (sibling_page,) = created
        sibling = tree.peek_node(sibling_page)
        assert oid in bound.leaf_of
        # Both halves were announced whole (one of them holds the new object),
        # and the sibling hangs under a parent in the direct access table.
        assert bound.leaf_of.writes == tree.leaf_capacity + 1
        assert all(bound.leaf_of[child] == sibling_page for child in sibling.child_ids())
        assert bound.parent_of[sibling_page] == bound.index.summary.table.parent_of(
            sibling_page
        ).page_id
        assert bound.parent_of.writes > 0
        bound.index.validate()
