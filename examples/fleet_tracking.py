#!/usr/bin/env python
"""Fleet tracking: the motivating scenario of the paper's introduction.

A delivery fleet of vehicles streams position samples into the database.
Dispatchers continuously ask two kinds of questions:

* "which vehicles are inside this district right now?" (window queries), and
* "which vehicles are closest to this pickup request?" (kNN queries).

The update volume dwarfs the query volume, which is exactly the workload the
bottom-up update strategy targets.  This example simulates a working day in
rounds: every round each vehicle reports a new position (vehicles follow
roads, so their movement has direction/trend), then the dispatcher runs its
queries.  At the end the script compares the disk I/O of the traditional
top-down update approach (TD) with the generalized bottom-up approach (GBU)
on the identical stream.

Run with::

    python examples/fleet_tracking.py
"""

import random

import repro
from repro import Point, Rect
from repro.api import KNN, RangeQuery, Update
from repro.update import outcome_fractions
from repro.workload import MovementModel

FLEET_SIZE = 3_000
ROUNDS = 8
DISTRICTS = [
    Rect(0.05, 0.05, 0.25, 0.25),   # harbour
    Rect(0.40, 0.40, 0.60, 0.60),   # centre
    Rect(0.70, 0.10, 0.95, 0.35),   # airport
    Rect(0.10, 0.70, 0.35, 0.95),   # industrial park
]
PICKUP_HOTSPOTS = [Point(0.5, 0.5), Point(0.15, 0.15), Point(0.82, 0.22)]


def simulate(strategy: str, seed: int = 7) -> dict:
    """Run the full day for one update strategy; return its cost summary."""
    rng = random.Random(seed)
    index = repro.open_index({"config": {"strategy": strategy}})

    # Initial fleet positions: vehicles start clustered around two depots.
    depots = [Point(0.2, 0.2), Point(0.75, 0.7)]
    fleet = []
    for vehicle in range(FLEET_SIZE):
        depot = depots[vehicle % len(depots)]
        fleet.append(
            (
                vehicle,
                Point(
                    min(1, max(0, depot.x + rng.gauss(0, 0.05))),
                    min(1, max(0, depot.y + rng.gauss(0, 0.05))),
                ),
            )
        )
    index.load(fleet)

    # Vehicles move with a persistent heading (roads), re-drawn occasionally.
    movement = MovementModel(
        max_distance=0.02, seed=seed + 1, trend_fraction=0.7, trend_strength=0.8
    )

    update_count = 0
    query_count = 0
    district_counts = {i: 0 for i in range(len(DISTRICTS))}

    for _round in range(ROUNDS):
        # --- every vehicle reports a new position (typed operations) -------
        for vehicle in range(FLEET_SIZE):
            new_position = movement.next_position(vehicle, index.position_of(vehicle))
            index.execute(Update(vehicle, new_position))
            update_count += 1

        # --- dispatcher queries (streaming cursors) ------------------------
        for district_id, district in enumerate(DISTRICTS):
            cursor = index.execute(RangeQuery(district)).cursor()
            district_counts[district_id] = len(cursor.all())
            query_count += 1
        for hotspot in PICKUP_HOTSPOTS:
            # Dispatch needs the closest free vehicle first; the cursor only
            # pays for what the dispatcher actually reads.
            index.execute(KNN(hotspot, 3)).cursor().fetch(1)
            query_count += 1

    index.validate()
    return {
        "strategy": strategy,
        "updates": update_count,
        "queries": query_count,
        "avg_io_per_operation": index.io_snapshot().total_physical_io
        / (update_count + query_count),
        "update_outcomes": outcome_fractions(index.io_snapshot()),
        "district_counts": district_counts,
    }


def main() -> None:
    print(f"fleet of {FLEET_SIZE} vehicles, {ROUNDS} reporting rounds\n")
    results = [simulate("TD"), simulate("GBU")]
    for result in results:
        print(f"strategy {result['strategy']}:")
        print(f"  updates processed : {result['updates']}")
        print(f"  queries processed : {result['queries']}")
        print(f"  avg disk I/O / op : {result['avg_io_per_operation']:.2f}")
        if result["update_outcomes"]:
            mix = ", ".join(f"{k}={v:.1%}" for k, v in sorted(result["update_outcomes"].items()))
            print(f"  update outcome mix: {mix}")
        print(f"  vehicles per district (last round): {result['district_counts']}")
        print()
    td, gbu = results
    speedup = td["avg_io_per_operation"] / gbu["avg_io_per_operation"]
    print(f"GBU performs {speedup:.2f}x less disk I/O per operation than TD on this workload.")


if __name__ == "__main__":
    main()
