#!/usr/bin/env python
"""Quickstart: index moving objects and keep them fresh with bottom-up updates.

This example uses the typed operation API (v2): the index is opened from one
declarative spec, operations are first-class values (``Update``,
``RangeQuery``, ``KNN``), query results stream through cursors, and batches
return structured reports — while the engine underneath is the paper's
generalized bottom-up update strategy (GBU), measured in disk I/O exactly as
the paper's evaluation measures it.

Run with::

    python examples/quickstart.py
"""

import random

import repro
from repro import Point, Rect
from repro.api import KNN, RangeQuery, Update

SPEC = {
    # The defaults follow the paper: 1 KB pages, a buffer sized at 1 % of
    # the database, GBU updates with epsilon 0.003.
    "kind": "single",
    "config": {"strategy": "GBU"},
}


def main() -> None:
    rng = random.Random(42)

    # 1. Open the index from its declarative spec (JSON-round-trippable;
    #    the same dict a persistence checkpoint embeds).
    index = repro.open_index(SPEC)

    # 2. Load an initial population of objects (e.g. vehicles reporting GPS
    #    positions inside a city modelled as the unit square).
    objects = [(oid, Point(rng.random(), rng.random())) for oid in range(5_000)]
    index.load(objects)
    print("loaded:", index.describe())
    print("spec  :", repro.index_spec(index))

    # 3. Stream position updates as typed operations.  Each object drifts a
    #    small random step — the locality the bottom-up strategy exploits.
    num_updates = 20_000
    for _ in range(num_updates):
        oid = rng.randrange(5_000)
        position = index.position_of(oid)
        index.execute(
            Update(
                oid,
                Point(
                    min(1.0, max(0.0, position.x + rng.uniform(-0.02, 0.02))),
                    min(1.0, max(0.0, position.y + rng.uniform(-0.02, 0.02))),
                ),
            )
        )

    update_io = index.io_snapshot().total_physical_io
    print(f"updates: {num_updates}, avg disk I/O per update: {update_io / num_updates:.2f}")
    # A single index is one shard; its engine carries the strategy counters.
    print("update outcome mix:", index.shards[0].strategy.outcome_fractions())

    # 4. Query the fresh index.  Results arrive through streaming cursors:
    #    the tree traversal advances only as far as the caller reads.
    snapshot = index.io_snapshot()
    windows = [
        Rect(0.10, 0.10, 0.20, 0.20),
        Rect(0.45, 0.45, 0.55, 0.55),
        Rect(0.80, 0.05, 0.95, 0.25),
    ]
    for window in windows:
        cursor = index.execute(RangeQuery(window)).cursor()
        print(f"objects in {window}: {len(cursor.all())}")
    query_io = index.io_snapshot().delta_since(snapshot).total_physical_io
    print(f"avg disk I/O per query: {query_io / len(windows):.2f}")

    # 5. Nearest neighbours of a point of interest — consume only what you
    #    need: the first hit costs the I/O of one descent, not of k.
    cursor = index.execute(KNN(Point(0.5, 0.5), 5)).cursor()
    closest = cursor.fetch(1)[0]
    print(f"closest to the centre: object {closest[1]} at distance {closest[0]:.4f}")
    print("rest of the top 5:", [oid for _, oid in cursor])

    # 6. Batches: a mixed typed stream executes group-by-leaf and reports
    #    what it did and what it cost.
    report = index.execute_many(
        [Update(oid, Point(rng.random(), rng.random())) for oid in range(0, 200, 2)]
        + [RangeQuery(Rect(0.2, 0.2, 0.4, 0.5))]
    )
    print("batch  :", report.describe())

    # 7. The index can verify its own structural invariants at any time.
    print("validation:", index.validate())


if __name__ == "__main__":
    main()
