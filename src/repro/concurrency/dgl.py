"""Dynamic Granular Locking (DGL) protocol layer.

DGL (Chakrabarti & Mehrotra, ICDE 1998) provides phantom-safe concurrent
access to R-trees by locking *granules* instead of latching whole subtrees:
the lockable granules are the leaf-level MBRs plus "external" granules that
cover the parts of the data space not covered by any leaf.  A search locks
every granule overlapping its window in shared mode; an insert or delete
locks the granules that (will) contain the affected entry in exclusive mode.

The paper's Section 3.2.2 observes that bottom-up updates fit the same
protocol: a bottom-up update acquires exclusive locks on the leaf granules it
touches (the object's leaf, possibly a sibling, possibly the parent when an
MBR is adjusted), and a concurrent top-down operation acquiring locks on all
overlapping granules will meet those locks, preserving consistency.  The
entries of the summary structure are protected the same way (the paper
attaches three lock bits to each direct-access-table entry; here the summary
granule shares the lock id of the node it summarises, which is equivalent).

:class:`DGLProtocol` turns a recorded operation — which pages it read and
wrote — into the list of granule lock requests the operation would issue.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Sequence, Set, Tuple

from repro.concurrency.locks import LockMode, strongest_mode

#: The identifier of the single external granule.  A finer decomposition of
#: the uncovered space is possible, but one external granule is the
#: conservative choice and only penalises operations that insert outside all
#: leaf MBRs — which are exactly the operations the paper expects to be rare
#: and expensive.
EXTERNAL_GRANULE = "external"

#: The coarse whole-tree granule used for intention tagging: operations take
#: IS/IX here on their way down, mirroring DGL's lightweight marking of the
#: path, and it is what makes a hypothetical tree-wide operation (e.g. a
#: rebuild) conflict with everything.
TREE_GRANULE = "tree"


@dataclass(frozen=True)
class GranuleLockRequest:
    """One granule to lock and the mode to lock it in."""

    granule: object
    mode: LockMode


@dataclass
class DGLProtocol:
    """Maps recorded page accesses to DGL granule lock requests.

    Parameters
    ----------
    leaf_pages:
        The set of page ids that are currently leaf pages; only these are
        lockable granules (internal nodes are not locked under DGL — that is
        the point of granular locking).
    lock_internal_as_intention:
        When ``True``, internal pages touched by an operation contribute
        intention locks on the *tree granule* (a single coarse resource).
        This models the lightweight intention tagging DGL performs on its
        way down; it only matters for fairness accounting, not for
        correctness of the simulation, and is enabled by default.
    """

    leaf_pages: Set[int] = field(default_factory=set)
    lock_internal_as_intention: bool = True

    TREE_GRANULE = TREE_GRANULE

    # ------------------------------------------------------------------
    # Granule bookkeeping
    # ------------------------------------------------------------------
    def register_leaf(self, page_id: int) -> None:
        self.leaf_pages.add(page_id)

    def forget_leaf(self, page_id: int) -> None:
        self.leaf_pages.discard(page_id)

    def is_leaf_granule(self, page_id: int) -> bool:
        return page_id in self.leaf_pages

    # ------------------------------------------------------------------
    # Lock-request derivation
    # ------------------------------------------------------------------
    def requests_for_update(
        self,
        pages_read: Iterable[int],
        pages_written: Iterable[int],
    ) -> List[GranuleLockRequest]:
        """Lock requests for an update operation.

        Leaf pages written are locked exclusively; leaf pages only read are
        locked shared (an update reads sibling leaves it decides not to use).
        If the update wrote no existing leaf (it created a brand-new leaf or
        went through the external region) the external granule is locked
        exclusively, which is DGL's phantom protection for inserts into
        uncovered space.
        """
        written = {page for page in pages_written if page in self.leaf_pages}
        read_only = {
            page
            for page in pages_read
            if page in self.leaf_pages and page not in written
        }
        requests = [GranuleLockRequest(page, LockMode.EXCLUSIVE) for page in sorted(written)]
        requests.extend(
            GranuleLockRequest(page, LockMode.SHARED) for page in sorted(read_only)
        )
        if not written:
            requests.append(GranuleLockRequest(EXTERNAL_GRANULE, LockMode.EXCLUSIVE))
        if self.lock_internal_as_intention:
            requests.append(
                GranuleLockRequest(self.TREE_GRANULE, LockMode.INTENTION_EXCLUSIVE)
            )
        return requests

    def requests_for_query(self, pages_read: Iterable[int]) -> List[GranuleLockRequest]:
        """Lock requests for a window query: shared locks on every leaf read."""
        leaves = {page for page in pages_read if page in self.leaf_pages}
        requests = [GranuleLockRequest(page, LockMode.SHARED) for page in sorted(leaves)]
        if self.lock_internal_as_intention:
            requests.append(
                GranuleLockRequest(self.TREE_GRANULE, LockMode.INTENTION_SHARED)
            )
        return requests

    # ------------------------------------------------------------------
    @staticmethod
    def as_pairs(requests: Sequence[GranuleLockRequest]) -> List[Tuple[object, LockMode]]:
        """Convert requests to the ``(resource, mode)`` pairs the lock manager takes."""
        return [(request.granule, request.mode) for request in requests]


def namespace_pairs(
    pairs: Sequence[Tuple[object, "LockMode"]], namespace: object
) -> List[Tuple[object, "LockMode"]]:
    """Qualify every granule with *namespace*.

    A sharded index namespaces each shard's granules with the shard id, so
    page ``17`` of shard 0 and page ``17`` of shard 3 — and likewise the two
    shards' tree and external granules — are distinct lockable resources.
    This is what makes operations on different shards conflict-free under a
    single scheduler, while a migration that names granules from two shards
    still locks both atomically.
    """
    return [((namespace, granule), mode) for granule, mode in pairs]


def merge_requests(requests: Iterable[GranuleLockRequest]) -> List[GranuleLockRequest]:
    """Collapse duplicate granules to a single request in the strongest mode.

    Lock-scope predictions are assembled from several independent clauses
    (the object's leaf, shift candidates, the insert target, ...) that can
    name the same granule more than once; the lock manager would tolerate
    the duplicates, but a canonical merged set keeps scope sizes meaningful
    for contention accounting.  Order of first appearance is preserved, so
    merged scopes are deterministic.
    """
    merged: "dict[object, LockMode]" = {}
    for request in requests:
        held = merged.get(request.granule)
        merged[request.granule] = (
            request.mode if held is None else strongest_mode(held, request.mode)
        )
    return [GranuleLockRequest(granule, mode) for granule, mode in merged.items()]
