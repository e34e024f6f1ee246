"""GBU — Generalized Bottom-Up Update (Algorithm 2).

GBU keeps the R-tree structure untouched and drives every decision from the
main-memory summary structure (Section 3.2):

* the **root check** and the **parent MBR bound** come from the direct access
  table, not from disk;
* the **directional ε-extension** (``iExtendMBR``, Algorithm 4) enlarges the
  leaf MBR only towards the object's movement and only as far as needed;
* **sibling shifting** consults the leaf bit vector so full siblings are
  skipped without reading them, and *piggybacks* other objects of the source
  leaf that also fit in the chosen sibling, tightening the source MBR;
* when neither works, **FindParent** (Algorithm 3) locates — entirely in
  memory — the lowest ancestor whose MBR covers the new position (bounded by
  the level threshold ℓ) and the object is re-inserted below it;
* a **distance threshold** D decides whether extension or shifting is
  attempted first (fast movers shift first).

Only when the new position falls outside the root MBR, or when removing the
object would underflow its leaf, does GBU hand the update to the traditional
top-down machinery.

The algorithm is written once, over a leaf bucket of n ≥ 1 requests (one
update is the bucket of one): the bucket shares the leaf read, the in-place
sweep and one running-MBR extension; each member that escapes them takes the
rest of the ladder in turn.

GBU also answers window queries through the summary structure
(:func:`repro.summary.query.summary_guided_range_query`).
"""

from __future__ import annotations

from functools import partial
from typing import AbstractSet, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.concurrency.dgl import TREE_GRANULE, GranuleLockRequest
from repro.concurrency.locks import LockMode
from repro.geometry import Point, Rect
from repro.rtree.node import Entry, Node
from repro.rtree.tree import RTree
from repro.secondary import ObjectHashIndex
from repro.storage.stats import IOStatistics
from repro.summary import (
    SummaryStructure,
    iter_summary_guided_range_query,
    summary_guided_range_query,
)
from repro.summary.direct_access import DirectAccessEntry
from repro.update.base import (
    Escalation,
    LeafPass,
    Request,
    UpdateOutcome,
    UpdateStrategy,
)
from repro.update.params import TuningParameters

#: The most source-leaf objects one sibling shift piggybacks into the sibling.
MAX_PIGGYBACK_OBJECTS = 8


class GeneralizedBottomUpUpdate(UpdateStrategy):
    """Algorithm 2 of the paper, with the Section 3.2.1 optimisations."""

    name = "GBU"

    def __init__(
        self,
        tree: RTree,
        hash_index: ObjectHashIndex,
        summary: SummaryStructure,
        params: Optional[TuningParameters] = None,
        stats: Optional[IOStatistics] = None,
        use_summary_for_queries: bool = True,
    ) -> None:
        super().__init__(tree, stats=stats)
        self.hash_index = hash_index
        self.summary = summary
        self.params = params if params is not None else TuningParameters.paper_defaults()
        self.use_summary_for_queries = use_summary_for_queries

    # ------------------------------------------------------------------
    # Lifecycle (hot swap)
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Attach the summary structure to the live tree.

        ``SummaryStructure.build_from_tree`` already rebuilds and registers
        the summary when the factory created it, so the common paths find it
        attached and do nothing.  A summary handed in detached (a restored
        checkpoint, a re-install after uninstall) is rebuilt from the live
        tree before registering — it must reflect the tree as of *now*.
        """
        if self.summary not in self.tree.observers:
            self.summary.rebuild_from_tree()
            self.tree.register_observer(self.summary)

    def uninstall(self) -> None:
        """Detach the summary observer; the structure is dropped with the strategy."""
        self.tree.unregister_observer(self.summary)

    # ------------------------------------------------------------------
    # Queries (summary-assisted, Section 3.2)
    # ------------------------------------------------------------------
    def range_query(self, window: Rect) -> List[int]:
        if self.use_summary_for_queries:
            return summary_guided_range_query(self.tree, self.summary, window)
        return self.tree.range_query(window)

    def iter_range_query(self, window: Rect) -> Iterator[List[int]]:
        if self.use_summary_for_queries:
            return iter_summary_guided_range_query(self.tree, self.summary, window)
        return self.tree.iter_range_query(window)

    # ------------------------------------------------------------------
    # Algorithm 2 over one leaf bucket
    # ------------------------------------------------------------------
    def apply_group(self, leaf_page_id: int, group: Sequence[Request]) -> LeafPass:
        """Root check → in place → (iExtendMBR | sibling shift, ordered by D) → ascent.

        Each member in turn: a new position outside the root MBR (direct
        access table) makes the tree grow, so the member goes top-down
        without the leaf being read for it; inside the leaf's MBR it moves in
        place; otherwise the distance threshold D orders the directional
        extension of the leaf's running MBR (bounded by the parent entry) and
        a sibling shift (bit vector asked on demand, piggybacking that never
        takes a pending member); failing both, the object leaves its leaf
        bottom-up and is re-inserted below its FindParent ancestor once the
        leaf is released — or top-down when leaving would underflow the leaf,
        a repair that may dissolve the leaf, so the members after it are left
        unsettled.  Each node is read and written once per bucket (the parent
        and siblings are *held*); the parent's entry for the leaf is widened
        once, after the extensions.
        """
        outcomes: List[UpdateOutcome] = []
        escalations: List[Escalation] = []
        unsettled: Sequence[Request] = ()
        root_mbr = self.summary.root_mbr()
        leaf: Optional[Node] = None
        # Set up when the first member escapes the leaf MBR: the leaf's
        # parent entry; the parent and siblings read once per bucket (held —
        # later members reuse the node an earlier one changed, never a second
        # copy of the page) and those to write after the leaf (changed, in
        # first-change order); and the later members still pending.
        parent_entry: Optional[DirectAccessEntry] = None
        held: Dict[int, Node] = {}
        changed: Dict[int, Node] = {}
        pending: Optional[Set[int]] = None
        reached = 0
        dirty = extended = False
        for position, request in enumerate(group):
            oid, old_location, new_location = request
            if pending:
                pending.discard(oid)
            if root_mbr is not None and not root_mbr.contains_point(new_location):
                escalations.append(partial(self._top_down_update, *request))
                continue
            reached += 1
            if leaf is None:
                leaf = self.tree.read_node(leaf_page_id)
            if not leaf.has_child(oid):
                escalations.append(partial(self._top_down_update, *request))
                continue
            if leaf.effective_mbr().contains_point(new_location):
                leaf.set_point(oid, new_location)
                dirty = True
                outcomes.append(UpdateOutcome.IN_PLACE)
                continue

            if pending is None:
                parent_entry = self.summary.parent_entry_of_leaf(leaf_page_id)
                later = group[position + 1 :]
                pending = {member[0] for member in later} if later else set()
            if old_location.distance_to(new_location) > self.params.distance_threshold:
                outcome = self._shift(
                    leaf, request, parent_entry, held, changed, pending
                ) or self._extend(leaf, oid, new_location, parent_entry)
            else:
                outcome = self._extend(
                    leaf, oid, new_location, parent_entry
                ) or self._shift(leaf, request, parent_entry, held, changed, pending)
            if outcome is UpdateOutcome.EXTENDED:
                dirty = extended = True
                outcomes.append(outcome)
            elif outcome is not None:
                dirty = True
                outcomes.append(outcome)
            elif len(leaf) - 1 < self.tree.min_leaf_entries:
                escalations.append(partial(self._top_down_update, *request))
                unsettled = group[position + 1 :]
                break
            else:
                leaf.discard_entry(oid)
                self.tree.size -= 1  # the re-insert counts the object again
                dirty = True
                escalations.append(partial(self._ascend, leaf_page_id, oid, new_location))

        # One hash probe per member that reached the leaf.
        self.stats.hash_index_reads += reached
        if dirty:
            self.tree.write_node(leaf)
        for node in changed.values():
            self.tree.write_node(node)
        slack = leaf.stored_mbr if extended else None
        if slack is not None and parent_entry is not None:
            # The leaf MBR lives in the parent's entry: it must be enlarged
            # too so that queries descending through the parent reach the
            # objects.  (A later shift's tightening already voided the slack.)
            parent = self.tree.read_node(parent_entry.page_id)
            if parent.widen(leaf_page_id, slack):
                self.tree.write_node(parent)
        return outcomes, escalations, list(unsettled)

    # ------------------------------------------------------------------
    # iExtendMBR (Algorithm 4)
    # ------------------------------------------------------------------
    def _extend(
        self,
        leaf: Node,
        oid: int,
        location: Point,
        parent_entry: Optional[DirectAccessEntry],
    ) -> Optional[UpdateOutcome]:
        """Directionally extend the leaf's running MBR to cover *location*."""
        extended = leaf.effective_mbr().extended_towards(
            location,
            self.params.epsilon,
            bound=parent_entry.mbr if parent_entry is not None else None,
        )
        if not extended.contains_point(location):
            return None
        leaf.set_point(oid, location)
        leaf.stored_mbr = extended
        return UpdateOutcome.EXTENDED

    # ------------------------------------------------------------------
    # Sibling shift with piggybacking (Section 3.2.1, optimisation 4)
    # ------------------------------------------------------------------
    def _shift(
        self,
        leaf: Node,
        request: Request,
        parent_entry: Optional[DirectAccessEntry],
        held: Dict[int, Node],
        changed: Dict[int, Node],
        pending: AbstractSet[int],
    ) -> Optional[UpdateOutcome]:
        """Move the object to a suitable sibling leaf; return the outcome or ``None``.

        The sibling, and the parent when the leaf's entry is tightened, are
        left in *changed* to be written after the leaf.
        """
        if parent_entry is None:
            return None
        # Removing the object must not underflow the leaf.
        if len(leaf) - 1 < self.tree.min_leaf_entries:
            return None

        # The bit vector identifies non-full siblings without disk access, but
        # the sibling MBRs live in the parent node, which has to be read —
        # unless no sibling has room at all.  Fullness is then tested only
        # on the siblings whose MBR covers the new position.
        is_full = self.summary.leaf_bits.is_full
        leaf_page = leaf.page_id
        for page in parent_entry.child_page_ids:
            if page != leaf_page and not is_full(page):
                break
        else:
            return None

        oid, _old_location, new_location = request
        parent_node = held.get(parent_entry.page_id)
        if parent_node is None:
            parent_node = held[parent_entry.page_id] = self.tree.read_node(
                parent_entry.page_id
            )
        chosen_page: Optional[int] = None
        for page in parent_node.contains_point_children(new_location):
            if page != leaf_page and not is_full(page):
                chosen_page = page
                break
        if chosen_page is None:
            return None

        sibling = held.get(chosen_page)
        if sibling is None:
            sibling = held[chosen_page] = self.tree.read_node(chosen_page)
        if sibling.is_full(self.tree.leaf_capacity):
            # The bit vector can be momentarily conservative the other way
            # only; a full sibling here means another update (or an earlier
            # member of the bucket, whose write is pending) filled it first.
            return None

        removed = leaf.discard_entry(oid)
        assert removed
        sibling.add_entry(Entry(Rect.from_point(new_location), oid))

        # Piggyback other objects of the source leaf that also fit in the
        # sibling's MBR, redistributing objects between the two leaves.
        if self.params.piggyback:
            self._piggyback(leaf, sibling, pending)

        changed[chosen_page] = sibling
        # Tighten the source leaf's MBR in the parent to reduce overlap.  That
        # voids any ε-slack; clear it before the leaf write so the page image
        # matches.
        if (
            len(leaf) > 0
            and parent_node.has_child(leaf_page)
            and parent_node.set_rect(leaf_page, leaf.mbr())
        ):
            leaf.stored_mbr = None
            changed[parent_node.page_id] = parent_node
        return UpdateOutcome.SIBLING_SHIFT

    def _piggyback(self, source: Node, sibling: Node, pending: AbstractSet[int]) -> None:
        """Move further objects from *source* into *sibling* when they fit.

        Objects are eligible when their position lies inside the sibling's
        current MBR (so the sibling MBR does not grow), the sibling has spare
        capacity, and the source stays above its minimum fill with room to
        spare for the *pending* members of the bucket — those still to be
        settled, which stay put themselves.
        """
        # The containment test never changes as entries move (the sibling MBR
        # is fixed and moves only shrink the source), so a single batch scan
        # of the pristine source finds every eligible entry; the move budget
        # caps how many of them (in entry order) actually transfer.
        budget = min(
            MAX_PIGGYBACK_OBJECTS,
            self.tree.leaf_capacity - len(sibling),
            len(source) - self.tree.min_leaf_entries - len(pending),
        )
        if budget <= 0:
            return
        sxmin, symin, sxmax, symax = sibling.mbr().as_tuple()
        eligible = source.contained_entry_indices(sxmin, symin, sxmax, symax)
        if pending:
            children = source.children
            eligible = [index for index in eligible if children[index] not in pending]
        # Each pop shifts the remaining (ascending) indices left by one.
        for moved, index in enumerate(eligible[:budget]):
            sibling.add_entry(source.pop_entry_at(index - moved))

    # ------------------------------------------------------------------
    # FindParent ascent (Algorithm 3)
    # ------------------------------------------------------------------
    def _anchor(
        self, leaf_page_id: int, location: Point
    ) -> Tuple[Optional[int], List[int]]:
        """FindParent within the level threshold: ``(ancestor, path above it)``.

        ``(None, [])`` when the threshold forbids any ascent (ℓ = 0, the
        paper's "optimal localized bottom-up" reduction) or no ancestor
        within it covers *location*.
        """
        level_threshold = self.params.level_threshold
        if level_threshold is None:
            level_threshold = max(self.tree.height - 1, 0)
        if level_threshold < 1:
            return None, []
        return self.summary.find_parent(
            leaf_page_id, location, level_threshold=level_threshold
        )

    def _ascend(self, leaf_page_id: int, oid: int, location: Point) -> UpdateOutcome:
        """Re-insert an object its leaf let go below the lowest covering ancestor.

        Without one (or after an earlier escalation dissolved the leaf) the
        insert descends from the root — still cheaper than the top-down
        update, which also pays the FindLeaf descent.
        """
        ancestor_page, ancestor_path = self._anchor(leaf_page_id, location)
        ascended = ancestor_page is not None
        if ancestor_page is None:
            ancestor_page, ancestor_path = self.tree.root_page_id, []
        self.tree.insert_at_subtree(
            oid, location, anchor_page_id=ancestor_page, ancestor_path=ancestor_path
        )
        return UpdateOutcome.ASCENDED if ascended else UpdateOutcome.TOP_DOWN

    def _insert_new(self, request: Request) -> UpdateOutcome:
        # The root check comes before the hash-index probe.
        root_mbr = self.summary.root_mbr()
        if root_mbr is not None and not root_mbr.contains_point(request[2]):
            return self._top_down_update(*request)
        return super()._insert_new(request)

    # ------------------------------------------------------------------
    # Lock-scope prediction (concurrency engine)
    # ------------------------------------------------------------------
    def _scope(
        self, leaf_page_id: Optional[int], request: Request
    ) -> List[GranuleLockRequest]:
        """Algorithm 2's ladder replayed over uncharged peeks and the summary.

        The scope of the first class that will fire: the leaf granule always,
        the parent granule with intent when its entry is adjusted, candidate
        siblings exclusively for a shift, and the ancestor path with intent
        plus the re-insert target for an ascent — the same property that
        makes GBU's updates cheap makes its lock scopes predictable.
        """
        oid, old_location, new_location = request
        root_mbr = self.summary.root_mbr()
        if root_mbr is None or not root_mbr.contains_point(new_location):
            return self._top_down_scope(request)
        if leaf_page_id is None:
            return self.insert_lock_scope(new_location)
        leaf = self.tree.peek_node(leaf_page_id)
        if not leaf.has_child(oid):
            return self._top_down_scope(request)

        requests = [GranuleLockRequest(leaf_page_id, LockMode.EXCLUSIVE)]
        tree_intention = GranuleLockRequest(TREE_GRANULE, LockMode.INTENTION_EXCLUSIVE)
        if leaf.effective_mbr().contains_point(new_location):
            requests.append(tree_intention)
            return requests

        parent_entry = self.summary.parent_entry_of_leaf(leaf_page_id)
        if parent_entry is not None:
            requests.append(
                GranuleLockRequest(parent_entry.page_id, LockMode.INTENTION_EXCLUSIVE)
            )
        extend_ok = (
            leaf.effective_mbr()
            .extended_towards(
                new_location,
                self.params.epsilon,
                bound=parent_entry.mbr if parent_entry is not None else None,
            )
            .contains_point(new_location)
        )
        can_remove = len(leaf) - 1 >= self.tree.min_leaf_entries
        shift_candidates: List[int] = []
        if parent_entry is not None and can_remove:
            parent_node = self.tree.peek_node(parent_entry.page_id)
            is_full = self.summary.leaf_bits.is_full
            shift_candidates = [
                page
                for page in parent_node.contains_point_children(new_location)
                if page != leaf_page_id and not is_full(page)
            ]
        fast_mover = (
            old_location.distance_to(new_location) > self.params.distance_threshold
        )
        if shift_candidates and (fast_mover or not extend_ok):
            requests.extend(
                GranuleLockRequest(page, LockMode.EXCLUSIVE)
                for page in shift_candidates
            )
        elif extend_ok:
            pass  # leaf X + parent intent cover the directional extension
        else:
            # Neither local class applies: ascend (or repair top-down).
            if not can_remove:
                return self._top_down_scope(request)
            requests.extend(self._ascent_lock_scope(leaf_page_id, new_location))
        requests.append(tree_intention)
        return requests

    def _ascent_lock_scope(
        self, leaf_page: int, new_location: Point
    ) -> List[GranuleLockRequest]:
        """Granules of a FindParent ascent: the path with intent, the target X."""
        ancestor_page, ancestor_path = self._anchor(leaf_page, new_location)
        if ancestor_page is None:
            ancestor_page, ancestor_path = self.tree.root_page_id, []
        requests = [
            GranuleLockRequest(page, LockMode.INTENTION_EXCLUSIVE)
            for page in list(ancestor_path) + [ancestor_page]
        ]
        target = self.tree.predict_insert_leaf(
            Rect.from_point(new_location), start_page_id=ancestor_page
        )
        requests.append(GranuleLockRequest(target, LockMode.EXCLUSIVE))
        return requests
