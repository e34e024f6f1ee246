"""Multi-granularity lock manager.

A small but complete lock manager supporting the classic multi-granularity
modes (IS, IX, S, X), a standard compatibility matrix and all-or-nothing
acquisition of a whole lock set.  It is deliberately free of threads: callers (the
DGL protocol layer and the discrete-event operation scheduler) decide *when*
a waiting request is retried, which keeps scheduled runs deterministic.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from typing import Dict, Hashable, List, Optional, Tuple


class LockMode(enum.Enum):
    """Lock modes in increasing order of strength (IS < IX < S < X)."""

    INTENTION_SHARED = "IS"
    INTENTION_EXCLUSIVE = "IX"
    SHARED = "S"
    EXCLUSIVE = "X"


#: Compatibility matrix: ``_COMPATIBLE[(held, requested)]`` is True when a
#: lock held in mode *held* allows another transaction to acquire *requested*.
_COMPATIBLE: Dict[Tuple[LockMode, LockMode], bool] = {}


def _fill_compatibility() -> None:
    IS, IX, S, X = (
        LockMode.INTENTION_SHARED,
        LockMode.INTENTION_EXCLUSIVE,
        LockMode.SHARED,
        LockMode.EXCLUSIVE,
    )
    table = {
        (IS, IS): True, (IS, IX): True, (IS, S): True, (IS, X): False,
        (IX, IS): True, (IX, IX): True, (IX, S): False, (IX, X): False,
        (S, IS): True, (S, IX): False, (S, S): True, (S, X): False,
        (X, IS): False, (X, IX): False, (X, S): False, (X, X): False,
    }
    _COMPATIBLE.update(table)


_fill_compatibility()


def compatible(held: LockMode, requested: LockMode) -> bool:
    """``True`` when *requested* can be granted alongside a lock held in *held*."""
    return _COMPATIBLE[(held, requested)]


class LockManager:
    """Tracks lock grants per resource.

    Resources are arbitrary hashable identifiers (the DGL layer uses granule
    ids).  Owners are arbitrary hashable identifiers (client ids in the
    scheduler).  The manager is re-entrant: an owner holding a resource in
    some mode may upgrade it, and repeated requests for the same or weaker
    mode are no-ops.
    """

    def __init__(self) -> None:
        # resource -> owner -> mode
        self._grants: Dict[Hashable, Dict[Hashable, LockMode]] = defaultdict(dict)
        self.grant_count = 0
        self.wait_count = 0

    # ------------------------------------------------------------------
    def can_grant(self, resource: Hashable, owner: Hashable, mode: LockMode) -> bool:
        """Check whether *owner* could acquire *resource* in *mode* right now."""
        for other_owner, held_mode in self._grants[resource].items():
            if other_owner == owner:
                continue
            if not compatible(held_mode, mode):
                return False
        return True

    def try_acquire_all(
        self, requests: List[Tuple[Hashable, LockMode]], owner: Hashable
    ) -> bool:
        """Atomically acquire every lock in *requests* or none of them.

        All-or-nothing acquisition is how the scheduler avoids having to
        model deadlock detection: an operation either gets its full lock set
        and runs, or it waits and retries when another operation releases.
        """
        for resource, mode in requests:
            held = self._grants[resource].get(owner)
            if held is not None and _stronger_or_equal(held, mode):
                continue
            if not self.can_grant(resource, owner, mode):
                self.wait_count += 1
                return False
        for resource, mode in requests:
            held = self._grants[resource].get(owner)
            self._grants[resource][owner] = _strongest(held, mode)
            self.grant_count += 1
        return True

    def release_all(self, owner: Hashable) -> None:
        """Release every lock held by *owner*."""
        for resource in list(self._grants):
            grants = self._grants[resource]
            if owner in grants:
                del grants[owner]
            if not grants:
                del self._grants[resource]

    # ------------------------------------------------------------------
    def holders(self, resource: Hashable) -> Dict[Hashable, LockMode]:
        """Current holders of *resource* and their modes (copy)."""
        return dict(self._grants.get(resource, {}))


def _stronger_or_equal(held: LockMode, requested: LockMode) -> bool:
    order = {
        LockMode.INTENTION_SHARED: 0,
        LockMode.INTENTION_EXCLUSIVE: 1,
        LockMode.SHARED: 2,
        LockMode.EXCLUSIVE: 3,
    }
    # S and IX are incomparable in general; treating S >= IX would wrongly
    # allow a writer to proceed under a shared lock, so only X dominates S,
    # and only X/IX dominate IX.
    if held == requested:
        return True
    if held == LockMode.EXCLUSIVE:
        return True
    if held == LockMode.SHARED and requested == LockMode.INTENTION_SHARED:
        return True
    if held == LockMode.INTENTION_EXCLUSIVE and requested == LockMode.INTENTION_SHARED:
        return True
    return order[held] >= order[requested] and (held, requested) not in {
        (LockMode.SHARED, LockMode.INTENTION_EXCLUSIVE),
    }


def strongest_mode(held: LockMode, requested: LockMode) -> LockMode:
    """The weakest mode that dominates both arguments (public helper)."""
    return _strongest(held, requested)


def _strongest(held: Optional[LockMode], requested: LockMode) -> LockMode:
    if held is None:
        return requested
    if _stronger_or_equal(held, requested):
        return held
    if _stronger_or_equal(requested, held):
        return requested
    # S + IX (or vice versa) combine to X-equivalent strength; granting X is
    # the conservative upgrade.
    return LockMode.EXCLUSIVE
