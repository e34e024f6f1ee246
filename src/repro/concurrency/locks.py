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
from typing import Dict, Hashable, Sequence, Tuple


class LockMode(enum.Enum):
    """Lock modes: IS < IX < X and IS < S < X; IX and S join to X."""

    INTENTION_SHARED = "IS"
    INTENTION_EXCLUSIVE = "IX"
    SHARED = "S"
    EXCLUSIVE = "X"


IS, IX, S, X = (
    LockMode.INTENTION_SHARED,
    LockMode.INTENTION_EXCLUSIVE,
    LockMode.SHARED,
    LockMode.EXCLUSIVE,
)

#: The mode lattice, one cell per ``(held, requested)`` pair: their *join*
#: (the weakest mode that dominates both; S and IX are incomparable and join
#: to X, the conservative upgrade) and whether *requested* can be granted to
#: another owner alongside *held*.
_LATTICE: Dict[Tuple[LockMode, LockMode], Tuple[LockMode, bool]] = {
    (IS, IS): (IS, True), (IS, IX): (IX, True), (IS, S): (S, True), (IS, X): (X, False),
    (IX, IS): (IX, True), (IX, IX): (IX, True), (IX, S): (X, False), (IX, X): (X, False),
    (S, IS): (S, True), (S, IX): (X, False), (S, S): (S, True), (S, X): (X, False),
    (X, IS): (X, False), (X, IX): (X, False), (X, S): (X, False), (X, X): (X, False),
}


def compatible(held: LockMode, requested: LockMode) -> bool:
    """``True`` when *requested* can be granted alongside a lock held in *held*."""
    return _LATTICE[held, requested][1]


def strongest_mode(held: LockMode, requested: LockMode) -> LockMode:
    """The weakest mode that dominates both arguments (their join)."""
    return _LATTICE[held, requested][0]


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
        self, requests: Sequence[Tuple[Hashable, LockMode]], owner: Hashable
    ) -> bool:
        """Atomically acquire every lock in *requests* or none of them.

        All-or-nothing acquisition is how the scheduler avoids having to
        model deadlock detection: an operation either gets its full lock set
        and runs, or it waits and retries when another operation releases.
        """
        for resource, mode in requests:
            held = self._grants[resource].get(owner)
            if held is not None and _LATTICE[held, mode][0] is held:
                continue  # already held in a mode that dominates *mode*
            if not self.can_grant(resource, owner, mode):
                return False
        for resource, mode in requests:
            grants = self._grants[resource]
            held = grants.get(owner)
            grants[owner] = mode if held is None else _LATTICE[held, mode][0]
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

