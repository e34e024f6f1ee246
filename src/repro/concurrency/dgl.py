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

The lock sets are *predicted*, not observed: each update strategy's
``lock_scope`` hooks name the granules an operation may touch before it
runs, as :class:`GranuleLockRequest` pairs — the ``(resource, mode)`` pairs
the lock manager takes — and the online engine
(:mod:`repro.concurrency.engine`) acquires them all-or-nothing.  This module
holds the granule identities, the request pair and the two rewrites a
scope gets: duplicates merged, and granules namespaced by shard.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, NamedTuple, Sequence

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


class GranuleLockRequest(NamedTuple):
    """One granule to lock and the mode to lock it in: a lock-manager pair."""

    granule: Hashable
    mode: LockMode


def namespace_pairs(
    pairs: Sequence[GranuleLockRequest], namespace: Hashable
) -> List[GranuleLockRequest]:
    """Qualify every granule with *namespace*.

    A sharded index namespaces each shard's granules with the shard id, so
    page ``17`` of shard 0 and page ``17`` of shard 3 — and likewise the two
    shards' tree and external granules — are distinct lockable resources.
    This is what makes operations on different shards conflict-free under a
    single scheduler, while a migration that names granules from two shards
    still locks both atomically.
    """
    return [
        GranuleLockRequest((namespace, granule), mode) for granule, mode in pairs
    ]


def merge_requests(requests: Iterable[GranuleLockRequest]) -> List[GranuleLockRequest]:
    """Collapse duplicate granules to a single request in the strongest mode.

    Lock-scope predictions are assembled from several independent clauses
    (the object's leaf, shift candidates, the insert target, ...) that can
    name the same granule more than once; the lock manager would tolerate
    the duplicates, but a canonical merged set keeps scope sizes meaningful
    for contention accounting.  Order of first appearance is preserved, so
    merged scopes are deterministic.
    """
    merged: Dict[Hashable, LockMode] = {}
    for request in requests:
        held = merged.get(request.granule)
        merged[request.granule] = (
            request.mode if held is None else strongest_mode(held, request.mode)
        )
    return [GranuleLockRequest(granule, mode) for granule, mode in merged.items()]
