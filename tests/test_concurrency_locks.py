"""Tests for the multi-granularity lock manager."""

from repro.concurrency import LockManager, LockMode
from repro.concurrency.locks import compatible, strongest_mode


S = LockMode.SHARED
X = LockMode.EXCLUSIVE
IS = LockMode.INTENTION_SHARED
IX = LockMode.INTENTION_EXCLUSIVE

#: The whole mode lattice, pinned: one row per held mode, one column per
#: requested mode, both in IS, IX, S, X order.
ORDER = (IS, IX, S, X)
JOIN = {
    IS: (IS, IX, S, X),
    IX: (IX, IX, X, X),
    S: (S, X, S, X),
    X: (X, X, X, X),
}
COMPATIBLE = {
    IS: (True, True, True, False),
    IX: (True, True, False, False),
    S: (True, False, True, False),
    X: (False, False, False, False),
}


def acquire(manager, resource, owner, mode):
    """One lock through the all-or-nothing entry point."""
    return manager.try_acquire_all([(resource, mode)], owner)


def locks_of(manager, owner, resources=("leaf1", "leaf2", "tree")):
    return {resource for resource in resources if owner in manager.holders(resource)}


class TestCompatibilityMatrix:
    def test_shared_locks_are_compatible(self):
        assert compatible(S, S)

    def test_exclusive_conflicts_with_everything(self):
        for mode in (IS, IX, S, X):
            assert not compatible(X, mode)
            assert not compatible(mode, X) or mode is None

    def test_intention_modes_are_compatible_with_each_other(self):
        assert compatible(IS, IX)
        assert compatible(IX, IS)
        assert compatible(IX, IX)

    def test_shared_conflicts_with_intention_exclusive(self):
        assert not compatible(S, IX)
        assert not compatible(IX, S)

    def test_matrix_is_symmetric(self):
        for held in LockMode:
            for requested in LockMode:
                assert compatible(held, requested) == compatible(requested, held)

    def test_intention_shared_conflicts_only_with_exclusive(self):
        assert [mode for mode in LockMode if not compatible(IS, mode)] == [X]


class TestStrongestMode:
    def test_result_dominates_both_modes_whatever_the_order(self):
        """The merged mode blocks whatever either input blocks, and both
        tables match the pinned lattice cell for cell."""
        for a in LockMode:
            for b in LockMode:
                merged = strongest_mode(a, b)
                assert merged is JOIN[a][ORDER.index(b)]
                assert compatible(a, b) is COMPATIBLE[a][ORDER.index(b)]
                assert merged == strongest_mode(b, a)
                for other in LockMode:
                    if not compatible(a, other) or not compatible(b, other):
                        assert not compatible(merged, other)


class TestAcquisition:
    def test_acquire_grants_free_resource(self):
        manager = LockManager()
        assert acquire(manager, "leaf1", "a", X)
        assert manager.holders("leaf1") == {"a": X}

    def test_conflicting_request_is_denied(self):
        manager = LockManager()
        acquire(manager, "leaf1", "a", X)
        assert not acquire(manager, "leaf1", "b", S)

    def test_compatible_requests_coexist(self):
        manager = LockManager()
        assert acquire(manager, "leaf1", "a", S)
        assert acquire(manager, "leaf1", "b", S)
        assert set(manager.holders("leaf1")) == {"a", "b"}

    def test_reacquisition_by_same_owner_is_noop(self):
        manager = LockManager()
        assert acquire(manager, "leaf1", "a", X)
        assert acquire(manager, "leaf1", "a", X)
        assert acquire(manager, "leaf1", "a", S)  # weaker request under X

    def test_upgrade_from_shared_to_exclusive_when_alone(self):
        manager = LockManager()
        acquire(manager, "leaf1", "a", S)
        assert acquire(manager, "leaf1", "a", X)
        assert manager.holders("leaf1")["a"] == X

    def test_shared_plus_intention_exclusive_upgrades_to_exclusive(self):
        manager = LockManager()
        acquire(manager, "tree", "a", S)
        assert acquire(manager, "tree", "a", IX)
        assert manager.holders("tree") == {"a": X}
        assert not acquire(manager, "tree", "b", IS)

    def test_can_grant_ignores_the_owners_own_locks(self):
        manager = LockManager()
        acquire(manager, "leaf1", "a", X)
        assert manager.can_grant("leaf1", "a", S)
        assert not manager.can_grant("leaf1", "b", IS)

    def test_upgrade_blocked_by_other_shared_holder(self):
        manager = LockManager()
        acquire(manager, "leaf1", "a", S)
        acquire(manager, "leaf1", "b", S)
        assert not acquire(manager, "leaf1", "a", X)


class TestAllOrNothing:
    def test_acquire_all_succeeds_atomically(self):
        manager = LockManager()
        requests = [("leaf1", X), ("leaf2", S), ("tree", IX)]
        assert manager.try_acquire_all(requests, owner="a")
        assert locks_of(manager, "a") == {"leaf1", "leaf2", "tree"}

    def test_acquire_all_fails_without_partial_grants(self):
        manager = LockManager()
        acquire(manager, "leaf2", "other", X)
        requests = [("leaf1", X), ("leaf2", X)]
        assert not manager.try_acquire_all(requests, owner="a")
        assert locks_of(manager, "a") == set()

    def test_acquire_all_allows_already_held_resources(self):
        manager = LockManager()
        acquire(manager, "leaf1", "a", X)
        assert manager.try_acquire_all([("leaf1", S), ("leaf2", S)], owner="a")


class TestRelease:
    def test_release_all_frees_resources(self):
        manager = LockManager()
        manager.try_acquire_all([("leaf1", X), ("leaf2", X)], owner="a")
        manager.release_all("a")
        assert acquire(manager, "leaf1", "b", X)
        assert acquire(manager, "leaf2", "b", X)
        assert manager.holders("leaf1") == manager.holders("leaf2") == {"b": X}

    def test_release_of_unknown_owner_is_silent(self):
        LockManager().release_all("ghost")
