"""Tests for the DGL protocol layer."""

import pytest

from repro.concurrency import LockManager, LockMode
from repro.concurrency.dgl import (
    EXTERNAL_GRANULE,
    TREE_GRANULE,
    GranuleLockRequest,
    merge_requests,
    namespace_pairs,
)
from repro.geometry import Point, Rect

from tests.conftest import build_index

S, X = LockMode.SHARED, LockMode.EXCLUSIVE
IS, IX = LockMode.INTENTION_SHARED, LockMode.INTENTION_EXCLUSIVE


def update_scope(leaf):
    """A bottom-up update's scope: X on its leaf, IX on the tree granule."""
    return [GranuleLockRequest(leaf, X), GranuleLockRequest(TREE_GRANULE, IX)]


def query_scope(*leaves):
    """A window query's scope: S on every leaf it reads, IS on the tree."""
    return [GranuleLockRequest(leaf, S) for leaf in leaves] + [
        GranuleLockRequest(TREE_GRANULE, IS)
    ]


def modes(requests):
    return {request.granule: request.mode for request in requests}


@pytest.fixture(scope="module")
def index():
    """A loaded GBU index; the tests only read its predicted scopes."""
    return build_index("GBU", num_objects=300)


class TestUpdateRequests:
    """The scopes an update strategy predicts for the granules it writes."""

    def test_written_leaves_locked_exclusively(self, index):
        oid = 7
        position = index.position_of(oid)
        leaf_page = index.hash_index.peek(oid)
        scope = modes(index.strategy.lock_scope(oid, position, position))
        assert scope[leaf_page] == X
        internal = [node.page_id for node, _ in index.tree.iter_nodes() if not node.is_leaf]
        assert internal and not set(internal) & set(scope)  # not leaf granules

    def test_written_leaf_not_also_locked_shared(self):
        merged = merge_requests([GranuleLockRequest(1, S), GranuleLockRequest(1, X)])
        assert merged == [(1, X)]

    def test_update_without_leaf_writes_locks_external_granule(self, index):
        """A move out of every leaf region grows the covered space: DGL's
        phantom protection locks the external granule."""
        oid = 7
        scope = index.strategy.lock_scope(oid, index.position_of(oid), Point(3.0, 3.0))
        assert modes(scope)[EXTERNAL_GRANULE] == X

    def test_update_with_leaf_writes_does_not_lock_external(self, index):
        oid = 7
        position = index.position_of(oid)
        assert EXTERNAL_GRANULE not in modes(index.strategy.lock_scope(oid, position, position))
        assert EXTERNAL_GRANULE not in modes(index.strategy.insert_lock_scope(position))

    def test_tree_granule_gets_intention_exclusive(self, index):
        oid = 7
        for new in (index.position_of(oid), Point(0.9, 0.1), Point(3.0, 3.0)):
            scope = modes(index.strategy.lock_scope(oid, index.position_of(oid), new))
            assert scope[TREE_GRANULE] == IX


class TestQueryRequests:
    def test_query_locks_leaves_shared(self, index):
        window = Rect(0.3, 0.3, 0.5, 0.5)
        scope = modes(index.strategy.query_lock_scope(window))
        leaves = set(index.tree.predict_visited_leaves(window))
        assert leaves and set(scope) == leaves | {TREE_GRANULE}
        assert all(scope[leaf] == S for leaf in leaves)

    def test_query_gets_intention_shared_on_tree_granule(self, index):
        scope = modes(index.strategy.query_lock_scope(Rect(0.0, 0.0, 1.0, 1.0)))
        assert scope[TREE_GRANULE] == IS

    def test_requests_are_lock_manager_pairs(self):
        assert query_scope(1) == [(1, S), (TREE_GRANULE, IS)]


class TestMergeRequests:
    def test_order_of_first_appearance_is_kept(self):
        requests = query_scope(3, 1) + update_scope(1) + [GranuleLockRequest(2, S)]
        assert [request.granule for request in merge_requests(requests)] == [
            3,
            1,
            TREE_GRANULE,
            2,
        ]

    def test_shared_and_intention_exclusive_merge_to_exclusive(self):
        """Neither S nor IX dominates the other, so the merge takes X."""
        merged = merge_requests([GranuleLockRequest(TREE_GRANULE, S), *update_scope(1)])
        assert modes(merged) == {TREE_GRANULE: X, 1: X}


class TestNamespaces:
    def test_same_granule_in_two_namespaces_does_not_conflict(self):
        manager = LockManager()
        assert manager.try_acquire_all(namespace_pairs(update_scope(17), 0), "a")
        assert manager.try_acquire_all(namespace_pairs(update_scope(17), 3), "b")
        assert not manager.try_acquire_all(namespace_pairs(query_scope(17), 3), "c")

    def test_a_scope_spanning_two_namespaces_locks_both(self):
        manager = LockManager()
        pairs = namespace_pairs(update_scope(5), 0) + namespace_pairs(update_scope(5), 1)
        assert manager.try_acquire_all(pairs, "migration")
        for namespace in (0, 1):
            assert manager.holders((namespace, 5)) == {"migration": X}


class TestCompatibilityScenarios:
    def test_bottom_up_update_conflicts_with_query_on_same_leaf(self):
        """The consistency argument of Section 3.2.2: a query's shared lock
        on a leaf granule and an update's exclusive lock collide."""
        manager = LockManager()
        assert manager.try_acquire_all(update_scope(1), owner="updater")
        assert not manager.try_acquire_all(query_scope(1, 2), owner="reader")

    def test_operations_on_disjoint_leaves_do_not_conflict(self):
        manager = LockManager()
        assert manager.try_acquire_all(update_scope(1), owner="a")
        assert manager.try_acquire_all(update_scope(2), owner="b")
