"""Tests for GBU — the Generalized Bottom-Up Update (Algorithm 2)."""

import random

import pytest

from repro.geometry import Point, Rect
from repro.update import UpdateOutcome, outcome_fractions

from tests.conftest import build_index


def drive(index, num_updates, step_choices, seed=1):
    """Apply random bounded moves and return the evolving position table."""
    rng = random.Random(seed)
    count = len(index)
    positions = {oid: index.position_of(oid) for oid in range(count)}
    for _ in range(num_updates):
        oid = rng.randrange(count)
        step = rng.choice(step_choices)
        new = Point(
            min(1, max(0, positions[oid].x + rng.uniform(-step, step))),
            min(1, max(0, positions[oid].y + rng.uniform(-step, step))),
        )
        index.update(oid, new)
        positions[oid] = new
    return positions


class TestUpdateOutcomes:
    def test_tiny_move_is_in_place(self):
        index = build_index("GBU", num_objects=300)
        oid = 9
        p = index.position_of(oid)
        assert index.update(oid, Point(min(1, p.x + 1e-9), p.y)) == UpdateOutcome.IN_PLACE

    def test_all_outcome_classes_occur_under_mixed_movement(self):
        index = build_index("GBU", num_objects=500, seed=2)
        drive(index, 1500, step_choices=[0.002, 0.03, 0.15], seed=3)
        counts = index.strategy.outcome_counts
        assert counts[UpdateOutcome.IN_PLACE] > 0
        assert counts[UpdateOutcome.EXTENDED] > 0
        assert counts[UpdateOutcome.SIBLING_SHIFT] > 0
        assert counts[UpdateOutcome.ASCENDED] > 0

    def test_gbu_rarely_falls_back_to_top_down(self):
        """GBU's whole point: almost every update is handled bottom-up."""
        index = build_index("GBU", num_objects=500, seed=2)
        drive(index, 1000, step_choices=[0.01, 0.05], seed=5)
        assert outcome_fractions(index.stats).get("top_down", 0.0) < 0.05

    def test_move_outside_root_mbr_goes_top_down(self):
        index = build_index("GBU", num_objects=300)
        root_mbr = index.summary.root_mbr()
        # Build a point guaranteed to lie outside the current root MBR (the
        # data is strictly inside the unit square, so nudging past its corner
        # works whenever the MBR is not the full square).
        outside = Point(root_mbr.xmax + 0.5, root_mbr.ymax + 0.5)
        outcome = index.strategy.update(17, index.position_of(17), outside)
        assert outcome == UpdateOutcome.TOP_DOWN

    def test_level_threshold_zero_disables_ascent(self):
        index = build_index("GBU", num_objects=400)
        index.strategy.params = index.strategy.params.with_overrides(level_threshold=0)
        drive(index, 800, step_choices=[0.05, 0.2], seed=7)
        assert index.strategy.outcome_counts[UpdateOutcome.ASCENDED] == 0

    def test_distance_threshold_prefers_sibling_for_fast_movers(self):
        fast_biased = build_index("GBU", num_objects=400, seed=8)
        extend_biased = build_index("GBU", num_objects=400, seed=8)
        fast_biased.strategy.params = fast_biased.strategy.params.with_overrides(
            distance_threshold=0.0  # every move counts as fast -> sibling first
        )
        extend_biased.strategy.params = extend_biased.strategy.params.with_overrides(
            distance_threshold=3.0,  # never fast -> extension first
            epsilon=0.05,
        )
        for index, seed in ((fast_biased, 4), (extend_biased, 4)):
            drive(index, 600, step_choices=[0.02], seed=seed)
        fast_counts = fast_biased.strategy.outcome_counts
        extend_counts = extend_biased.strategy.outcome_counts
        assert fast_counts[UpdateOutcome.SIBLING_SHIFT] >= extend_counts[UpdateOutcome.SIBLING_SHIFT]
        assert extend_counts[UpdateOutcome.EXTENDED] >= fast_counts[UpdateOutcome.EXTENDED]

    def test_epsilon_zero_disables_extension(self):
        index = build_index("GBU", num_objects=400)
        index.strategy.params = index.strategy.params.with_overrides(epsilon=0.0)
        drive(index, 600, step_choices=[0.03], seed=9)
        assert index.strategy.outcome_counts[UpdateOutcome.EXTENDED] == 0


class TestCorrectnessUnderLoad:
    def test_structure_hash_summary_and_queries_stay_correct(self):
        index = build_index("GBU", num_objects=500, seed=4)
        positions = drive(index, 2000, step_choices=[0.005, 0.05, 0.3], seed=11)
        index.validate()  # tree + hash index + summary consistency
        for window in (Rect(0.1, 0.1, 0.45, 0.5), Rect(0.5, 0.2, 0.95, 0.9), Rect.unit()):
            expected = sorted(o for o, p in positions.items() if window.contains_point(p))
            assert sorted(index.range_query(window)) == expected

    def test_objects_never_lost_even_with_teleporting_moves(self):
        index = build_index("GBU", num_objects=300, seed=12)
        rng = random.Random(14)
        for _ in range(900):
            index.update(rng.randrange(300), Point(rng.random(), rng.random()))
        assert sorted(index.range_query(Rect.unit())) == list(range(300))
        index.validate()

    def test_gbu_updates_cheaper_than_td_for_local_moves(self):
        gbu = build_index("GBU", num_objects=400, seed=6, buffer_percent=0.0)
        td = build_index("TD", num_objects=400, seed=6, buffer_percent=0.0)
        for index, seed in ((gbu, 2), (td, 2)):
            drive(index, 600, step_choices=[0.01], seed=seed)
        assert gbu.stats.total_physical_io < td.stats.total_physical_io

    def test_gbu_queries_not_worse_than_plain_td_queries(self):
        """With a small epsilon GBU's index quality must not lag TD's."""
        gbu = build_index("GBU", num_objects=400, seed=6, buffer_percent=0.0)
        td = build_index("TD", num_objects=400, seed=6, buffer_percent=0.0)
        for index, seed in ((gbu, 2), (td, 2)):
            drive(index, 800, step_choices=[0.02], seed=seed)
        windows = []
        rng = random.Random(20)
        for _ in range(60):
            cx, cy, s = rng.random(), rng.random(), rng.uniform(0, 0.2)
            windows.append(Rect(max(0, cx - s), max(0, cy - s), min(1, cx + s), min(1, cy + s)))
        gbu_before = gbu.stats.total_physical_io
        td_before = td.stats.total_physical_io
        for window in windows:
            gbu.range_query(window)
            td.range_query(window)
        gbu_cost = gbu.stats.total_physical_io - gbu_before
        td_cost = td.stats.total_physical_io - td_before
        assert gbu_cost <= td_cost * 1.1  # on par or better, generous margin

    def test_in_place_update_costs_three_ios(self):
        index = build_index("GBU", num_objects=300, buffer_percent=0.0)
        oid = 21
        p = index.position_of(oid)
        before = index.stats.total_physical_io
        outcome = index.update(oid, Point(min(1, p.x + 1e-9), p.y))
        assert outcome == UpdateOutcome.IN_PLACE
        assert index.stats.total_physical_io - before == 3

    def test_summary_queries_can_be_disabled(self):
        index = build_index("GBU", num_objects=300, use_summary_for_queries=False)
        window = Rect(0.2, 0.2, 0.7, 0.7)
        assert sorted(index.range_query(window)) == sorted(index.tree.range_query(window))


class TestPiggybacking:
    def test_piggybacking_moves_extra_objects(self):
        with_piggyback = build_index("GBU", num_objects=500, seed=15)
        without_piggyback = build_index("GBU", num_objects=500, seed=15)
        without_piggyback.strategy.params = (
            without_piggyback.strategy.params.with_overrides(piggyback=False)
        )
        for index, seed in ((with_piggyback, 3), (without_piggyback, 3)):
            drive(index, 1000, step_choices=[0.05], seed=seed)
        # Piggybacking redistributes objects, so the number of sibling shifts
        # recorded is the same, but the resulting leaf population differs;
        # verify both stay correct and the piggybacking run did move objects
        # (observable through identical query answers and valid structures).
        with_piggyback.validate()
        without_piggyback.validate()
        window = Rect(0.25, 0.25, 0.75, 0.75)
        assert sorted(with_piggyback.range_query(window)) == sorted(
            without_piggyback.range_query(window)
        )


class TestShiftLockScope:
    """The predicted DGL scope of a sibling shift out of a leaf one entry
    above minimum fill covers every page the executed update touches."""

    @staticmethod
    def shift_case(tree, summary):
        """A leaf, a non-full sibling under the same parent, and a target
        inside the sibling's MBR and no other child's."""
        for parent, _ in tree.iter_nodes():
            if parent.level != 1:
                continue
            children = {page: tree.peek_node(page) for page in parent.child_ids()}
            for sibling_page, sibling in children.items():
                if summary.leaf_bits.is_full(sibling_page):
                    continue
                target = sibling.mbr().center()
                covering = [p for p, c in children.items() if c.mbr().contains_point(target)]
                if covering != [sibling_page]:
                    continue
                leaf_page = next(p for p in children if p != sibling_page)
                return leaf_page, sibling_page, target
        raise AssertionError("no shift case in the tree")

    def test_shift_from_a_leaf_one_above_minimum_fill(self):
        from repro.concurrency.dgl import as_pairs
        from repro.concurrency.locks import LockMode
        from repro.update import TuningParameters

        from tests.conftest import recorded_accesses

        # ε large enough that the directional extension would also cover the
        # move, D = 0 so the shift is tried first: the sibling is in the
        # scope only because removing the object leaves the leaf at minimum.
        index = build_index(
            "GBU", params=TuningParameters(epsilon=0.5, distance_threshold=0.0)
        )
        tree = index.tree
        leaf_page, sibling_page, target = self.shift_case(tree, index.summary)
        # Trim the leaf to exactly one entry above minimum fill.
        while len(tree.peek_node(leaf_page)) > tree.min_leaf_entries + 1:
            index.delete(tree.peek_node(leaf_page).child_ids()[-1])
        assert len(tree.peek_node(leaf_page)) == tree.min_leaf_entries + 1
        oid = tree.peek_node(leaf_page).child_ids()[0]

        scope = as_pairs(
            index.strategy.lock_scope(oid, index.position_of(oid), target)
        )
        assert (sibling_page, LockMode.EXCLUSIVE) in scope
        with recorded_accesses(index.buffer) as accesses:
            outcome = index.update(oid, target)
        assert outcome is UpdateOutcome.SIBLING_SHIFT
        assert {page for _kind, page in accesses} <= {granule for granule, _mode in scope}
        index.validate()


def _reach(index, want, seed=1, budget=300):
    """Run updates until one comes back as *want*; return its predicted
    scope granules and the pages it touched (``recorded_accesses``)."""
    from repro.concurrency.dgl import as_pairs

    from tests.conftest import recorded_accesses

    tree, rng = index.tree, random.Random(seed)
    oids = list(range(len(index)))
    rng.shuffle(oids)
    # Objects in the emptiest leaves first: a leaf at minimum fill cannot
    # give an object up, which is where GBU falls back to top-down.
    oids.sort(key=lambda oid: len(tree.peek_node(index.hash_index.peek(oid))))
    for oid in oids[:budget]:
        old = index.position_of(oid)
        if want is UpdateOutcome.IN_PLACE:
            new = old
        elif want is UpdateOutcome.EXTENDED:
            mbr = tree.peek_node(index.hash_index.peek(oid)).mbr()
            new = Point(min(mbr.xmax + 0.001, 1.0), old.y)
        else:
            new = Point(rng.random(), rng.random())
        scope = as_pairs(index.strategy.lock_scope(oid, old, new))
        with recorded_accesses(index.buffer) as accesses:
            outcome = index.update(oid, new)
        if outcome is want:
            return {granule for granule, _mode in scope}, accesses
    pytest.fail(f"no update came back {want.name} in {budget} tries")


def _scope_gap(reason):
    return pytest.mark.xfail(raises=AssertionError, strict=True, reason=reason)


_READS_UNLOCKED_INTERNALS = (
    "the re-insert descent reads internal nodes the scope does not name"
)


class TestLockScopeCoverage:
    """Every page an executed update touches lies inside the DGL scope its
    strategy predicted for it, for each outcome the strategy can reach."""

    @pytest.mark.parametrize(
        "strategy, want",
        [
            ("LBU", UpdateOutcome.IN_PLACE),
            ("LBU", UpdateOutcome.EXTENDED),
            pytest.param(
                "LBU", UpdateOutcome.TOP_DOWN, marks=_scope_gap(_READS_UNLOCKED_INTERNALS)
            ),
            ("GBU", UpdateOutcome.IN_PLACE),
            ("GBU", UpdateOutcome.EXTENDED),
            pytest.param(
                "GBU", UpdateOutcome.ASCENDED, marks=_scope_gap(_READS_UNLOCKED_INTERNALS)
            ),
            pytest.param(
                "GBU",
                UpdateOutcome.TOP_DOWN,
                marks=_scope_gap(
                    "the delete's underflow re-inserts a leaf's survivors into "
                    "leaves and parents the scope does not name, and writes them"
                ),
            ),
        ],
        ids=lambda value: getattr(value, "name", value),
    )
    def test_executed_pages_lie_inside_the_predicted_scope(self, strategy, want):
        index = build_index(strategy)
        granules, accesses = _reach(index, want)
        assert {page for _kind, page in accesses} <= granules
        index.validate()
