"""TD — the traditional top-down update (the paper's baseline).

"A traditional R-tree update first carries out a top-down search for the
leaf node with the index entry of the object, deletes the entry, and then
executes another and separate top-down search for the optimal location in
which to insert the entry for the new object" (Section 3).

The strategy therefore costs two descents per update: the delete descent may
follow several partial paths because sibling MBRs overlap, and both the
delete and the insert may trigger node splits and re-insertion of entries.
It never reads the leaf first, so its per-operation update and lock scope
stay top-down.

Under the batch engine TD inherits the base group pass: updates grouped on
one leaf are carried out in place with a single leaf read/write, and only
the escapees pay the two traversals — the batch planner locates leaves
through the facade's in-memory hash index without charging probes, since
per-operation TD never pays for secondary-index access.
"""

from __future__ import annotations

from typing import List

from repro.concurrency.dgl import GranuleLockRequest, merge_requests
from repro.geometry import Point
from repro.update.base import UpdateOutcome, UpdateStrategy


class TopDownUpdate(UpdateStrategy):
    """Delete top-down, then insert top-down."""

    name = "TD"

    def _update(self, oid: int, old_location: Point, new_location: Point) -> UpdateOutcome:
        return self._top_down_update(oid, old_location, new_location)

    def lock_scope(
        self, oid: int, old_location: Point, new_location: Point
    ) -> List[GranuleLockRequest]:
        return merge_requests(
            self._top_down_scope((oid, old_location, new_location))
        )
