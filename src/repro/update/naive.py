"""The naive bottom-up strategy from the start of Section 3.1.

"An initial bottom-up approach is to access the leaf of an object's entry
directly. ... If the new extent of the object does not exceed the MBR of its
leaf node, then the update is carried out immediately.  Otherwise, a top-down
update is issued."

The paper reports that on one million uniformly distributed points this
simple strategy leaves about 82 % of the updates top-down, which motivates
both the ε-enlargement/sibling ideas of LBU and ultimately GBU.  The strategy
is included so that observation can be reproduced (see
the ``naive_fallback`` figure).

Its ladder — in place, or top-down — is the base ladder of
:class:`~repro.update.base.UpdateStrategy`, for one update or a leaf bucket
of many, and so is its lock-scope ladder.
"""

from __future__ import annotations

from typing import Optional

from repro.rtree.tree import RTree
from repro.secondary import ObjectHashIndex
from repro.storage.stats import IOStatistics
from repro.update.base import UpdateStrategy


class NaiveBottomUpUpdate(UpdateStrategy):
    """Update in place when the leaf MBR already covers the new position."""

    name = "NAIVE"

    def __init__(
        self,
        tree: RTree,
        hash_index: ObjectHashIndex,
        stats: Optional[IOStatistics] = None,
    ) -> None:
        super().__init__(tree, stats=stats)
        self.hash_index = hash_index
