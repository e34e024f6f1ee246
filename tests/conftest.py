"""Shared pytest fixtures.

The fixtures build small instances of every layer of the stack — a paged
disk, a buffered R-tree, loaded indexes for each update strategy — so
individual test modules can focus on behaviour instead of wiring.  All
randomness is seeded; tests are deterministic.
"""

from __future__ import annotations

import random
from contextlib import contextmanager

import pytest

from repro.core import IndexConfig, MovingObjectIndex
from repro.shard import ShardedIndex
from repro.geometry import Point
from repro.rtree import RTree
from repro.storage import BufferPool, DiskManager, IOStatistics, PageLayout
from repro.workload import WorkloadGenerator, WorkloadSpec


# A page layout small enough that trees of a few hundred objects have
# multiple levels, which is what most structural tests need.
SMALL_PAGE_SIZE = 256


@pytest.fixture
def stats() -> IOStatistics:
    return IOStatistics()


@pytest.fixture
def disk(stats: IOStatistics) -> DiskManager:
    return DiskManager(page_size=SMALL_PAGE_SIZE, stats=stats)


@pytest.fixture
def unbuffered(disk: DiskManager, stats: IOStatistics) -> BufferPool:
    return BufferPool(disk, capacity=0, stats=stats)


@pytest.fixture
def small_layout() -> PageLayout:
    return PageLayout(page_size=SMALL_PAGE_SIZE)


@pytest.fixture
def empty_tree(unbuffered: BufferPool, small_layout: PageLayout) -> RTree:
    return RTree(unbuffered, layout=small_layout)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20030915)  # VLDB 2003 conference date


@contextmanager
def recorded_accesses(pool: BufferPool):
    """Record every logical access made to *pool* inside the ``with`` block.

    Yields the list the accesses are appended to, as ``("read" | "write",
    page_id)`` tuples.  The recorder shadows the pool *instance's* ``read``
    and ``write`` with wrappers around its class's (whatever the class makes
    of them) and restores what it shadowed on exit.  A recorder opened inside
    another takes over until it closes, so each log holds only the accesses
    made while it was the innermost one.
    """
    log = []
    shadowed = {name: vars(pool)[name] for name in ("read", "write") if name in vars(pool)}
    cls = type(pool)

    def logged_read(page_id):
        log.append(("read", page_id))
        return cls.read(pool, page_id)

    def logged_write(page_id, payload):
        log.append(("write", page_id))
        cls.write(pool, page_id, payload)

    pool.read, pool.write = logged_read, logged_write
    try:
        yield log
    finally:
        del pool.read, pool.write
        vars(pool).update(shadowed)


def chunks(items, batch_size: int):
    """Yield *items* in lists of *batch_size* (the last one may be shorter)."""
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    batch = []
    for item in items:
        batch.append(item)
        if len(batch) == batch_size:
            yield batch
            batch = []
    if batch:
        yield batch


def update_batches(generator: WorkloadGenerator, batch_size: int, count=None):
    """*generator*'s update stream chopped into lists of *batch_size*.

    The batches concatenate to exactly the sequence ``generator.updates``
    would produce from the same generator state, so per-operation and
    batched runs of one spec consume identical workloads.
    """
    return chunks(generator.updates(count), batch_size)


def make_points(count: int, seed: int = 7) -> list:
    generator = random.Random(seed)
    return [(oid, Point(generator.random(), generator.random())) for oid in range(count)]


@pytest.fixture
def populated_tree(empty_tree: RTree) -> RTree:
    """A tree with 400 uniformly distributed points inserted one by one."""
    for oid, point in make_points(400):
        empty_tree.insert(oid, point)
    return empty_tree


def build_index(strategy: str, num_objects: int = 600, seed: int = 11, **config_overrides):
    """Build and load a MovingObjectIndex for the given strategy."""
    config = IndexConfig(strategy=strategy, page_size=SMALL_PAGE_SIZE, **config_overrides)
    index = MovingObjectIndex(config)
    index.load(make_points(num_objects, seed=seed))
    return index


def build_facade(strategy: str, num_objects: int = 600, seed: int = 11, **config_overrides):
    """:func:`build_index`'s index behind the facade: a loaded one-shard
    ``ShardedIndex``, what ``open_index({"kind": "single"})`` builds."""
    config = IndexConfig(strategy=strategy, page_size=SMALL_PAGE_SIZE, **config_overrides)
    index = ShardedIndex(config, num_shards=1)
    index.load(make_points(num_objects, seed=seed))
    return index


@pytest.fixture(params=["TD", "NAIVE", "LBU", "GBU"])
def any_strategy_index(request) -> MovingObjectIndex:
    """A loaded index, parameterised over every update strategy."""
    return build_index(request.param)


@pytest.fixture
def gbu_index() -> MovingObjectIndex:
    return build_index("GBU")


@pytest.fixture
def workload_generator() -> WorkloadGenerator:
    spec = WorkloadSpec(num_objects=300, num_updates=600, num_queries=50, seed=5)
    return WorkloadGenerator(spec)
