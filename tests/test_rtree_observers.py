"""Tests for the tree observer mechanism."""

from repro.geometry import Point, Rect
from repro.rtree import RTree, TreeObserver
from repro.rtree.node import Entry, Node
from repro.rtree.observers import ObserverList
from repro.storage import BufferPool, DiskManager, IOStatistics, PageLayout
from repro.storage.serialization import NodeCodec

from tests.conftest import SMALL_PAGE_SIZE, make_points


class RecordingObserver(TreeObserver):
    def __init__(self):
        self.created = []
        self.written = []
        self.arrivals = []  # (page id, membership delta) per write event
        self.deleted = []
        self.root_changes = []
        self.removed_objects = []

    def on_node_created(self, node):
        self.created.append(node.page_id)

    def on_node_written(self, node):
        self.written.append(node.page_id)
        delta = node.arrived
        self.arrivals.append((node.page_id, None if delta is None else list(delta)))

    def on_node_deleted(self, node):
        self.deleted.append(node.page_id)

    def on_root_changed(self, root_page_id, height):
        self.root_changes.append((root_page_id, height))

    def on_object_removed(self, oid):
        self.removed_objects.append(oid)


def make_tree(codec=None, capacity=0):
    stats = IOStatistics()
    disk = DiskManager(page_size=SMALL_PAGE_SIZE, stats=stats)
    return RTree(
        BufferPool(disk, capacity, stats, codec=codec),
        layout=PageLayout(page_size=SMALL_PAGE_SIZE),
    )


def point_entry(oid, x, y):
    return Entry(Rect.from_point(Point(x, y)), oid)


class TestObserverEvents:
    def test_writes_are_reported(self):
        tree = make_tree()
        observer = RecordingObserver()
        tree.register_observer(observer)
        tree.insert(1, Point(0.5, 0.5))
        assert tree.root_page_id in observer.written

    def test_root_change_reported_on_growth(self):
        tree = make_tree()
        observer = RecordingObserver()
        tree.register_observer(observer)
        for oid, point in make_points(tree.leaf_capacity + 1):
            tree.insert(oid, point)
        assert observer.root_changes
        last_root, last_height = observer.root_changes[-1]
        assert last_root == tree.root_page_id
        assert last_height == tree.height == 2

    def test_node_creation_reported_on_split(self):
        tree = make_tree()
        observer = RecordingObserver()
        tree.register_observer(observer)
        for oid, point in make_points(tree.leaf_capacity + 1):
            tree.insert(oid, point)
        # The split creates at least the sibling leaf and the new root.
        assert len(observer.created) >= 2

    def test_object_removal_reported_on_delete(self):
        tree = make_tree()
        observer = RecordingObserver()
        tree.register_observer(observer)
        tree.insert(5, Point(0.2, 0.2))
        tree.delete(5, Point(0.2, 0.2))
        assert observer.removed_objects == [5]

    def test_node_deletion_reported_when_nodes_dissolve(self):
        tree = make_tree()
        observer = RecordingObserver()
        tree.register_observer(observer)
        points = make_points(200)
        for oid, point in points:
            tree.insert(oid, point)
        for oid, point in points:
            tree.delete(oid, point)
        assert observer.deleted  # underflowing nodes were dissolved

    def test_unregistered_observer_stops_receiving_events(self):
        tree = make_tree()
        observer = RecordingObserver()
        tree.register_observer(observer)
        tree.insert(1, Point(0.1, 0.1))
        seen = len(observer.written)
        tree.unregister_observer(observer)
        tree.insert(2, Point(0.2, 0.2))
        assert len(observer.written) == seen

    def test_observer_registration_is_idempotent(self):
        tree = make_tree()
        observer = RecordingObserver()
        tree.register_observer(observer)
        tree.register_observer(observer)
        tree.insert(1, Point(0.3, 0.3))
        # Each write event is delivered once, not twice.
        assert observer.written.count(tree.root_page_id) == observer.written.count(
            tree.root_page_id
        )
        assert len(tree.observers) == 1


class TestWriteEventDelta:
    """The write event reports what entered the node since its last write."""

    def test_written_node_reports_its_arrivals(self):
        tree = make_tree()
        observer = RecordingObserver()
        tree.register_observer(observer)
        tree.insert(1, Point(0.5, 0.5))
        tree.insert(2, Point(0.6, 0.6))
        root = tree.root_page_id
        assert observer.arrivals == [(root, [1]), (root, [2])]

    def test_second_write_without_a_change_reports_none(self):
        tree = make_tree()
        tree.insert(1, Point(0.5, 0.5))
        observer = RecordingObserver()
        tree.register_observer(observer)
        root = tree.read_node(tree.root_page_id)
        tree.write_node(root)
        # Moving an entry's rectangle is not a membership change.
        assert root.set_rect(1, Rect.from_point(Point(0.7, 0.7)))
        tree.write_node(root)
        assert observer.arrivals == [(root.page_id, None), (root.page_id, None)]

    def test_departures_alone_report_an_empty_delta(self):
        tree = make_tree()
        tree.insert(1, Point(0.5, 0.5))
        tree.insert(2, Point(0.6, 0.6))
        observer = RecordingObserver()
        tree.register_observer(observer)
        tree.delete(1, Point(0.5, 0.5))
        assert observer.arrivals == [(tree.root_page_id, [])]

    def test_delta_restarts_after_every_write(self):
        for codec, capacity in ((None, 0), (NodeCodec(), 0), (NodeCodec(), 8)):
            tree = make_tree(codec, capacity)
            tree.insert(1, Point(0.5, 0.5))
            assert tree.read_node(tree.root_page_id).arrived is None

    def test_decoded_node_starts_clean(self):
        codec = NodeCodec()
        node = Node(7, 0, [point_entry(1, 0.1, 0.1)])
        node.add_entry(point_entry(2, 0.2, 0.2))
        assert node.arrived == [1, 2]
        decoded = codec.decode(7, codec.encode(node))
        assert decoded.child_ids() == [1, 2]
        assert decoded.arrived is None
        assert codec.encode(decoded) == codec.encode(node)  # never in the image

    def test_setter_and_constructor_report_everything(self):
        node = Node(7, 0)
        assert node.arrived == []
        node.arrived = None  # as after a write
        node.entries = [point_entry(oid, 0.1 * oid, 0.5) for oid in (3, 4, 5)]
        assert node.arrived == [3, 4, 5]
        assert Node(8, 0, node.entries).arrived == [3, 4, 5]

    def test_an_id_that_came_and_went_never_arrived(self):
        node = Node(7, 0, [point_entry(oid, 0.1 * oid, 0.5) for oid in (3, 4, 5)])
        node.arrived = None  # as after a write
        node.add_entry(point_entry(6, 0.6, 0.5))
        node.add_entry(point_entry(7, 0.7, 0.5))
        assert node.discard_entry(6)
        assert node.remove_entry(3) == point_entry(3, 0.1 * 3, 0.5)
        assert node.arrived == [7]
        node.pop_entry_at(node.child_ids().index(7))
        assert node.arrived == []

    def test_split_announces_both_halves(self):
        tree = make_tree()
        observer = RecordingObserver()
        tree.register_observer(observer)
        for oid, point in make_points(tree.leaf_capacity + 1):
            tree.insert(oid, point)
        announced = {}
        for page_id, delta in observer.arrivals[-3:]:  # two halves, then the new root
            announced[page_id] = delta
        leaves = {leaf.page_id: sorted(leaf.child_ids()) for leaf in tree.leaf_nodes()}
        assert len(leaves) == 2
        for page_id, oids in leaves.items():
            assert sorted(announced[page_id]) == oids
        assert sorted(announced[tree.root_page_id]) == sorted(leaves)


class TestObserverList:
    def test_len_and_iteration(self):
        observers = ObserverList()
        first, second = RecordingObserver(), RecordingObserver()
        observers.register(first)
        observers.register(second)
        assert len(observers) == 2
        assert list(observers) == [first, second]

    def test_unregister_missing_observer_is_silent(self):
        observers = ObserverList()
        observers.unregister(RecordingObserver())  # must not raise

    def test_base_observer_handlers_are_noops(self):
        # The base class must be safely subclassable with partial overrides.
        observer = TreeObserver()
        observer.on_root_changed(1, 1)
        observer.on_object_removed(2)
