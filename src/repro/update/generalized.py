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

GBU also answers window queries through the summary structure
(:func:`repro.summary.query.summary_guided_range_query`).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.concurrency.dgl import TREE_GRANULE, GranuleLockRequest, merge_requests
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
from repro.update.base import BatchUpdate, UpdateOutcome, UpdateStrategy
from repro.update.params import TuningParameters


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

    def iter_range_query(self, window: Rect) -> Iterator[int]:
        if self.use_summary_for_queries:
            return iter_summary_guided_range_query(self.tree, self.summary, window)
        return self.tree.iter_range_query(window)

    # ------------------------------------------------------------------
    # Algorithm 2
    # ------------------------------------------------------------------
    def _update(self, oid: int, old_location: Point, new_location: Point) -> UpdateOutcome:
        # Root check: if the new location falls outside the root MBR the tree
        # has to grow, which is inherently a global reorganisation.
        root_mbr = self.summary.root_mbr()
        if root_mbr is not None and not root_mbr.contains_point(new_location):
            return self._top_down_update(oid, old_location, new_location)

        # Locate the leaf through the secondary object-ID index.
        leaf_page = self.hash_index.lookup(oid)
        if leaf_page is None:
            self.tree.insert(oid, new_location)
            return UpdateOutcome.INSERTED_NEW
        leaf = self.tree.read_node(leaf_page)
        if not leaf.has_child(oid):
            return self._top_down_update(oid, old_location, new_location)

        # In place: the new location lies within the leaf MBR.
        if leaf.effective_mbr().contains_point(new_location):
            leaf.set_rect(oid, Rect.from_point(new_location))
            self.tree.write_node(leaf)
            return UpdateOutcome.IN_PLACE

        parent_entry = self.summary.parent_entry_of_leaf(leaf_page)
        parent_mbr = parent_entry.mbr if parent_entry is not None else None

        # Distance threshold D: fast movers try a sibling before extending.
        distance_moved = old_location.distance_to(new_location)
        fast_mover = distance_moved > self.params.distance_threshold

        attempts = ("sibling", "extend") if fast_mover else ("extend", "sibling")
        for attempt in attempts:
            if attempt == "extend":
                outcome = self._try_extend(leaf, oid, new_location, parent_mbr, parent_entry)
            else:
                outcome = self._try_sibling_shift(leaf, oid, new_location, parent_entry)
            if outcome is not None:
                return outcome

        # Neither a local extension nor a sibling shift worked: ascend.
        return self._ascend_and_reinsert(leaf, oid, old_location, new_location)

    # ------------------------------------------------------------------
    # Batch execution (group-by-leaf)
    # ------------------------------------------------------------------
    def apply_group(
        self, leaf_page_id: int, group: Sequence[BatchUpdate]
    ) -> List[BatchUpdate]:
        """Group pass: every summary-guided class at group granularity.

        Mirrors Algorithm 2 but executes each class once per *group* instead
        of once per update:

        1. the shared in-place sweep (one leaf read for the whole group);
        2. **batched iExtendMBR** — the directional extension grows a single
           running MBR towards each escaping position, bounded by the parent
           MBR taken from the direct access table, so k extensions cost the
           same leaf write as one;
        3. **batched sibling shifting** — escapees are routed to non-full
           siblings (bit vector, no disk probe), each chosen sibling is read
           and written once regardless of how many objects it absorbs
           (:meth:`RTree.add_entries` / :meth:`RTree.remove_entries`).  The
           bit vector is asked on demand, as the paper keeps it in memory
           for: first only until one sibling with room is found (no such
           sibling, no parent read), then about the siblings whose entry
           covers a new position — a group absorbed by steps 1–2 never asks;
        4. one deferred ancestor-MBR pass (:meth:`RTree.adjust_upward`)
           refreshes the parent's entries for the leaf and every touched
           sibling with a single parent write.

        Piggybacking is not attempted here: the group pass already moves
        every movable object of the leaf in bulk, which is the same
        redistribution piggybacking approximates one update at a time.
        Updates that none of the classes absorb (root-MBR escapes, underflow
        hazards, ascents) are returned as residuals for the per-operation
        path.
        """
        leaf = self.tree.read_node(leaf_page_id)
        residuals, dirty = self._apply_in_place(leaf, group)

        parent_entry = self.summary.parent_entry_of_leaf(leaf_page_id)
        parent_mbr = parent_entry.mbr if parent_entry is not None else None
        parent_node: Optional[Node] = None
        touched: List[Node] = [leaf]
        needs_adjust = False  # in-place-only groups never touch the parent

        # 2. Batched directional extension.
        if residuals and len(leaf):
            running = leaf.effective_mbr()
            still: List[BatchUpdate] = []
            extended = False
            for request in residuals:
                if not leaf.has_child(request.oid):
                    still.append(request)
                    continue
                candidate = running.extended_towards(
                    request.new_location, self.params.epsilon, bound=parent_mbr
                )
                if candidate.contains_point(request.new_location):
                    leaf.set_rect(request.oid, Rect.from_point(request.new_location))
                    running = candidate
                    extended = True
                    self.record_outcome(UpdateOutcome.EXTENDED)
                else:
                    still.append(request)
            if extended:
                leaf.stored_mbr = running
                dirty = True
                needs_adjust = True
            residuals = still

        # 3. Batched sibling shifting (bit vector plans, one read per sibling).
        # The parent is read only when some sibling has room at all; which
        # ones is asked later, of the siblings covering a new position.
        if residuals and parent_entry is not None:
            is_full = self.summary.leaf_bits.is_full
            if any(
                page != leaf_page_id and not is_full(page)
                for page in parent_entry.child_page_ids
            ):
                parent_node = self.tree.read_node(parent_entry.page_id)
                residuals, shifted = self._shift_group(leaf, parent_node, residuals)
                dirty = dirty or bool(shifted)
                needs_adjust = needs_adjust or bool(shifted)
                touched.extend(shifted)

        if dirty:
            self.tree.write_node(leaf)

        # 4. One deferred ancestor-MBR adjustment pass (only when an
        # extension or shift actually changed an effective MBR: a purely
        # in-place group must not pay parent I/O the per-op path never pays).
        if needs_adjust and parent_entry is not None:
            if parent_node is None:
                parent_node = self.tree.read_node(parent_entry.page_id)
            self.tree.adjust_upward(
                parent_node,
                touched,
                ancestor_path=self.summary.path_from_root(parent_entry.page_id),
            )

        self._charge_batch_probes(len(group) - len(residuals))
        return residuals

    def _shift_group(
        self,
        leaf: Node,
        parent_node: Node,
        requests: Sequence[BatchUpdate],
    ) -> Tuple[List[BatchUpdate], List[Node]]:
        """Move as many *requests* as possible into sibling leaves in bulk.

        Returns ``(residuals, touched_siblings)``.  Each chosen sibling is
        read once, receives every object routed to it with one
        :meth:`RTree.add_entries`, and is written once.  The source leaf is
        never drained below its minimum fill, and sibling MBRs never grow:
        objects are routed only to siblings whose parent entry already
        contains the new position.  The bit vector is asked about those
        siblings only (the short-circuit :meth:`_try_sibling_shift` uses);
        it cannot change under the plan, because nothing is written until
        every request is routed.
        """
        removable = len(leaf) - self.tree.min_leaf_entries
        is_full = self.summary.leaf_bits.is_full
        siblings: Dict[int, Node] = {}
        planned: Dict[int, int] = {}  # sibling page -> objects routed so far
        moves: Dict[int, List[BatchUpdate]] = {}
        residuals: List[BatchUpdate] = []
        for request in requests:
            if removable <= 0 or not leaf.has_child(request.oid):
                residuals.append(request)
                continue
            target: Optional[int] = None
            for page in parent_node.contains_point_children(request.new_location):
                if page == leaf.page_id:
                    continue
                if page not in siblings:
                    if is_full(page):
                        continue
                    siblings[page] = self.tree.read_node(page)
                    planned[page] = 0
                room = self.tree.leaf_capacity - len(siblings[page])
                if planned[page] < room:
                    target = page
                    break
            if target is None:
                residuals.append(request)
                continue
            moves.setdefault(target, []).append(request)
            planned[target] += 1
            removable -= 1

        touched: List[Node] = []
        for page, routed in moves.items():
            sibling = siblings[page]
            self.tree.remove_entries(leaf, [r.oid for r in routed])
            self.tree.add_entries(
                sibling,
                [Entry(Rect.from_point(r.new_location), r.oid) for r in routed],
            )
            self.tree.write_node(sibling)
            touched.append(sibling)
            for _ in routed:
                self.record_outcome(UpdateOutcome.SIBLING_SHIFT)
        return residuals, touched

    # ------------------------------------------------------------------
    # Lock-scope prediction (concurrency engine)
    # ------------------------------------------------------------------
    def lock_scope(
        self, oid: int, old_location: Point, new_location: Point
    ) -> List[GranuleLockRequest]:
        """Predict Algorithm 2's footprint entirely from the summary structure.

        The decision ladder is replayed in memory (root check, in-place
        containment, iExtendMBR feasibility, bit-vector sibling candidates,
        FindParent ascent) and the scope of the first class that will fire
        is returned: the leaf granule always, the parent granule with intent
        when its entry is adjusted, candidate sibling granules exclusively
        for a shift, and the ancestor path with intent plus the re-insert
        target for an ascent.  Nothing here reads a page with charged I/O —
        the same property that makes GBU's updates cheap makes its lock
        scopes predictable.
        """
        root_mbr = self.summary.root_mbr()
        if root_mbr is None or not root_mbr.contains_point(new_location):
            return super().lock_scope(oid, old_location, new_location)
        leaf_page = self.hash_index.peek(oid)
        if leaf_page is None:
            return self.insert_lock_scope(new_location)
        leaf = self.tree.peek_node(leaf_page)
        if not leaf.has_child(oid):
            return super().lock_scope(oid, old_location, new_location)

        requests = [GranuleLockRequest(leaf_page, LockMode.EXCLUSIVE)]
        tree_intention = GranuleLockRequest(
            TREE_GRANULE, LockMode.INTENTION_EXCLUSIVE
        )
        if len(leaf) and leaf.effective_mbr().contains_point(new_location):
            requests.append(tree_intention)
            return merge_requests(requests)

        parent_entry = self.summary.parent_entry_of_leaf(leaf_page)
        parent_mbr = parent_entry.mbr if parent_entry is not None else None
        if parent_entry is not None:
            requests.append(
                GranuleLockRequest(parent_entry.page_id, LockMode.INTENTION_EXCLUSIVE)
            )

        extend_ok = False
        if len(leaf):
            candidate = leaf.effective_mbr().extended_towards(
                new_location, self.params.epsilon, bound=parent_mbr
            )
            extend_ok = candidate.contains_point(new_location)

        can_remove = len(leaf) - 1 >= self.tree.min_leaf_entries
        shift_candidates: List[int] = []
        if parent_entry is not None and can_remove:
            parent_node = self.tree.peek_node(parent_entry.page_id)
            is_full = self.summary.leaf_bits.is_full
            eligible = {
                page
                for page in parent_entry.child_page_ids
                if page != leaf_page and not is_full(page)
            }
            shift_candidates = [
                page
                for page in parent_node.contains_point_children(new_location)
                if page in eligible
            ]

        fast_mover = (
            old_location.distance_to(new_location) > self.params.distance_threshold
        )
        shift_first = fast_mover and shift_candidates
        if shift_first or (not extend_ok and shift_candidates):
            requests.extend(
                GranuleLockRequest(page, LockMode.EXCLUSIVE)
                for page in shift_candidates
            )
        elif extend_ok:
            pass  # leaf X + parent intent cover the directional extension
        else:
            # Neither local class applies: ascend (or repair top-down).
            if not can_remove:
                return super().lock_scope(oid, old_location, new_location)
            requests.extend(self._ascent_lock_scope(leaf_page, new_location))
        requests.append(tree_intention)
        return merge_requests(requests)

    def _ascent_lock_scope(
        self, leaf_page: int, new_location: Point
    ) -> List[GranuleLockRequest]:
        """Granules of a FindParent ascent: the path with intent, the target X."""
        level_threshold = self.params.level_threshold
        if level_threshold is None:
            level_threshold = max(self.tree.height - 1, 0)
        if level_threshold < 1:
            ancestor_page, ancestor_path = None, []
        else:
            ancestor_page, ancestor_path = self.summary.find_parent(
                leaf_page, new_location, level_threshold=level_threshold
            )
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

    def group_lock_scope(
        self, leaf_page_id: int, group: Sequence[BatchUpdate]
    ) -> List[GranuleLockRequest]:
        """Leaf X, parent intent, plus shift-candidate siblings for escapees.

        The batched sibling-shift stage routes members whose new position
        escapes the leaf into non-full siblings, so those sibling granules
        are part of the group's footprint; the bit vector and the direct
        access table supply them without disk probes, exactly as in the
        per-operation path.
        """
        requests = super().group_lock_scope(leaf_page_id, group)
        if not self.tree.disk.contains(leaf_page_id):
            # Planned leaf dissolved before this group was dispatched; the
            # members will be re-routed at execution time.
            return requests
        parent_entry = self.summary.parent_entry_of_leaf(leaf_page_id)
        if parent_entry is None:
            return merge_requests(requests)
        requests.append(
            GranuleLockRequest(parent_entry.page_id, LockMode.INTENTION_EXCLUSIVE)
        )
        leaf = self.tree.peek_node(leaf_page_id)
        leaf_mbr = leaf.effective_mbr() if len(leaf) else None
        escaping = [
            request.new_location
            for request in group
            if leaf_mbr is None or not leaf_mbr.contains_point(request.new_location)
        ]
        if escaping:
            parent_node = self.tree.peek_node(parent_entry.page_id)
            is_full = self.summary.leaf_bits.is_full
            eligible = {
                page
                for page in parent_entry.child_page_ids
                if page != leaf_page_id and not is_full(page)
            }
            covering: set = set()
            for location in escaping:
                covering.update(parent_node.contains_point_children(location))
            requests.extend(
                GranuleLockRequest(page, LockMode.EXCLUSIVE)
                for page in parent_node.child_ids()
                if page in eligible and page in covering
            )
        return merge_requests(requests)

    # ------------------------------------------------------------------
    # iExtendMBR (Algorithm 4)
    # ------------------------------------------------------------------
    def _try_extend(
        self,
        leaf: Node,
        oid: int,
        new_location: Point,
        parent_mbr: Optional[Rect],
        parent_entry,
    ) -> Optional[UpdateOutcome]:
        """Directionally extend the leaf MBR; return the outcome or ``None``."""
        current_mbr = leaf.effective_mbr()
        extended = current_mbr.extended_towards(
            new_location, self.params.epsilon, bound=parent_mbr
        )
        if not extended.contains_point(new_location):
            return None

        leaf.set_rect(oid, Rect.from_point(new_location))
        leaf.stored_mbr = extended
        self.tree.write_node(leaf)

        # The leaf MBR lives in the parent's entry: it must be enlarged too so
        # that queries descending through the parent still reach the object.
        if parent_entry is not None:
            parent_node = self.tree.read_node(parent_entry.page_id)
            child_entry = parent_node.find_entry(leaf.page_id)
            if child_entry is not None and parent_node.set_rect(
                leaf.page_id, child_entry.rect.union(extended)
            ):
                self.tree.write_node(parent_node)
        return UpdateOutcome.EXTENDED

    # ------------------------------------------------------------------
    # Sibling shift with piggybacking (Section 3.2.1, optimisation 4)
    # ------------------------------------------------------------------
    def _try_sibling_shift(
        self,
        leaf: Node,
        oid: int,
        new_location: Point,
        parent_entry,
    ) -> Optional[UpdateOutcome]:
        """Move the object to a suitable sibling leaf; return the outcome or ``None``."""
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
        if not any(
            page != leaf_page and not is_full(page)
            for page in parent_entry.child_page_ids
        ):
            return None

        parent_node = self.tree.read_node(parent_entry.page_id)
        chosen_page: Optional[int] = None
        for page in parent_node.contains_point_children(new_location):
            if page != leaf_page and not is_full(page):
                chosen_page = page
                break
        if chosen_page is None:
            return None

        sibling = self.tree.read_node(chosen_page)
        if sibling.is_full(self.tree.leaf_capacity):
            # The bit vector can be momentarily conservative the other way
            # only; a full sibling here means another update filled it first.
            return None

        removed = leaf.discard_entry(oid)
        assert removed
        sibling.add_entry(Entry(Rect.from_point(new_location), oid))

        # Piggyback other objects of the source leaf that also fit in the
        # sibling's MBR, redistributing objects between the two leaves.
        if self.params.piggyback:
            self._piggyback(leaf, sibling)

        # Tighten the source leaf's MBR in the parent to reduce overlap.  That
        # voids any ε-slack; clear it before the leaf write so the page image
        # matches.
        tightened = (
            len(leaf) > 0
            and parent_node.has_child(leaf.page_id)
            and parent_node.set_rect(leaf.page_id, leaf.mbr())
        )
        if tightened:
            leaf.stored_mbr = None
        self.tree.write_node(leaf)
        self.tree.write_node(sibling)
        if tightened:
            self.tree.write_node(parent_node)
        return UpdateOutcome.SIBLING_SHIFT

    def _piggyback(self, source: Node, sibling: Node) -> None:
        """Move further objects from *source* into *sibling* when they fit.

        Objects are eligible when their position lies inside the sibling's
        current MBR (so the sibling MBR does not grow), the sibling has spare
        capacity, and the source stays above its minimum fill.
        """
        # The containment test never changes as entries move (the sibling MBR
        # is fixed and moves only shrink the source), so a single batch scan
        # of the pristine source finds every eligible entry; the move budget
        # caps how many of them (in entry order) actually transfer.
        budget = min(
            self.params.max_piggyback_objects,
            self.tree.leaf_capacity - len(sibling),
            len(source) - self.tree.min_leaf_entries,
        )
        if budget <= 0:
            return
        sxmin, symin, sxmax, symax = sibling.mbr().as_tuple()
        eligible = source.contained_entry_indices(sxmin, symin, sxmax, symax)
        # Each pop shifts the remaining (ascending) indices left by one.
        for moved, index in enumerate(eligible[:budget]):
            sibling.add_entry(source.pop_entry_at(index - moved))

    # ------------------------------------------------------------------
    # FindParent ascent (Algorithm 3)
    # ------------------------------------------------------------------
    def _ascend_and_reinsert(
        self, leaf: Node, oid: int, old_location: Point, new_location: Point
    ) -> UpdateOutcome:
        """Delete bottom-up and re-insert below the lowest covering ancestor.

        When the level threshold forbids any ascent (ℓ = 0, the paper's
        "optimal localized bottom-up" reduction) or no ancestor within the
        threshold covers the new position, the object is still deleted
        bottom-up and then re-inserted with a standard top-down insert from
        the root — the bottom-up deletion is what distinguishes this from the
        full top-down update, which additionally pays the FindLeaf descent.
        """
        level_threshold = self.params.level_threshold
        if level_threshold is None:
            level_threshold = max(self.tree.height - 1, 0)

        # Removing the object must not underflow the leaf (Algorithm 2 issues
        # a top-down update in that case).
        if len(leaf) - 1 < self.tree.min_leaf_entries:
            return self._top_down_update(oid, old_location, new_location)

        if level_threshold < 1:
            ancestor_page, ancestor_path = None, []
        else:
            ancestor_page, ancestor_path = self.summary.find_parent(
                leaf.page_id, new_location, level_threshold=level_threshold
            )

        ascended = ancestor_page is not None
        if ancestor_page is None:
            # Global re-insert: start the insert descent at the root.
            ancestor_page, ancestor_path = self.tree.root_page_id, []

        removed = leaf.discard_entry(oid)
        assert removed
        self.tree.write_node(leaf)
        self.tree.size -= 1  # insert_at_subtree() below counts the object again

        self.tree.insert_at_subtree(
            oid, new_location, anchor_page_id=ancestor_page, ancestor_path=ancestor_path
        )
        return UpdateOutcome.ASCENDED if ascended else UpdateOutcome.TOP_DOWN
