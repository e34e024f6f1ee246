"""Batch vs per-operation update throughput, for all four strategies.

This benchmark quantifies the group-by-leaf batch engine
(:mod:`repro.update.batch`): the same Gaussian update workload is applied
once through the per-operation ``MovingObjectIndex.update`` loop and once
through ``MovingObjectIndex.update_many``, and the physical page I/O and
wall-clock throughput are compared.  The batch run must perform **strictly
fewer physical page reads** for every strategy — grouping k co-located
updates onto one leaf read/write is the whole point — while producing the
same query answers (checked here with a post-run probe and ``validate()``).

Run directly::

    PYTHONPATH=src python benchmarks/bench_batch_throughput.py \
        [--objects N] [--updates N] [--batch-size N] [--distribution gaussian]

or through pytest::

    PYTHONPATH=src python -m pytest benchmarks/bench_batch_throughput.py -q
"""

from __future__ import annotations

import argparse
import random
import time
from pathlib import Path

from repro.core import IndexConfig, MovingObjectIndex
from repro.geometry import Rect
from repro.workload import WorkloadGenerator, WorkloadSpec

STRATEGIES = ["TD", "NAIVE", "LBU", "GBU"]
REPORT_PATH = Path(__file__).parent / "reports" / "batch_vs_per_op.txt"


def build_spec(objects: int, updates: int, distribution: str, seed: int) -> WorkloadSpec:
    return WorkloadSpec(
        num_objects=objects,
        num_updates=updates,
        num_queries=0,
        distribution=distribution,
        max_distance=0.03,
        seed=seed,
    )


def run_strategy(strategy: str, spec: WorkloadSpec, batch_size: int) -> dict:
    """Apply the identical workload per-op and batched; return both cost rows."""
    per_op = MovingObjectIndex(IndexConfig(strategy=strategy))
    batched = MovingObjectIndex(IndexConfig(strategy=strategy))
    gen_a, gen_b = WorkloadGenerator(spec), WorkloadGenerator(spec)
    per_op.load(gen_a.initial_objects())
    batched.load(gen_b.initial_objects())

    started = time.perf_counter()
    for oid, _old, new in gen_a.updates():
        per_op.update(oid, new)
    per_op_seconds = time.perf_counter() - started

    started = time.perf_counter()
    batch_results = [
        batched.update_many([(oid, new) for oid, _old, new in chunk])
        for chunk in gen_b.update_batches(batch_size)
    ]
    batch_seconds = time.perf_counter() - started

    # Equivalence probe: identical answers, valid structures.
    rng = random.Random(spec.seed)
    for _ in range(25):
        cx, cy, side = rng.random(), rng.random(), rng.uniform(0.0, 0.2)
        window = Rect(
            max(0.0, cx - side),
            max(0.0, cy - side),
            min(1.0, cx + side),
            min(1.0, cy + side),
        )
        assert sorted(per_op.range_query(window)) == sorted(batched.range_query(window))
    per_op.validate()
    batched.validate()

    return {
        "strategy": strategy,
        "per_op_reads": per_op.stats.physical_reads,
        "per_op_writes": per_op.stats.physical_writes,
        "per_op_io": per_op.stats.total_physical_io,
        "per_op_seconds": per_op_seconds,
        "batch_reads": batched.stats.physical_reads,
        "batch_writes": batched.stats.physical_writes,
        "batch_io": batched.stats.total_physical_io,
        "batch_seconds": batch_seconds,
        "groups": sum(result.groups for result in batch_results),
        "residuals": sum(result.residuals for result in batch_results),
        "coalesced": sum(result.coalesced for result in batch_results),
        "updates": spec.num_updates,
    }


def render(rows: list, spec: WorkloadSpec, batch_size: int) -> str:
    lines = [
        "Batch vs per-op update execution "
        f"({spec.num_updates} {spec.distribution} updates on {spec.num_objects} "
        f"objects, batch_size={batch_size})",
        "io/upd is the paper's metric (physical reads + writes + charged hash "
        "probes per update);",
        "io_gain is the disk-bound speedup it implies; cpu is wall-clock on the "
        "simulated (in-memory) disk.",
        f"{'strategy':<9} {'perop_reads':>12} {'batch_reads':>12} {'read_save':>10} "
        f"{'perop_io/u':>11} {'batch_io/u':>11} {'io_gain':>8} {'cpu':>6} "
        f"{'groups':>7} {'resid':>6}",
    ]
    for row in rows:
        saving = 1.0 - row["batch_reads"] / max(row["per_op_reads"], 1)
        per_op_io = row["per_op_io"] / row["updates"]
        batch_io = row["batch_io"] / row["updates"]
        cpu_gain = row["per_op_seconds"] / row["batch_seconds"]
        lines.append(
            f"{row['strategy']:<9} {row['per_op_reads']:>12} {row['batch_reads']:>12} "
            f"{saving:>9.1%} {per_op_io:>11.2f} {batch_io:>11.2f} "
            f"{per_op_io / batch_io:>7.2f}x {cpu_gain:>5.2f}x "
            f"{row['groups']:>7} {row['residuals']:>6}"
        )
    return "\n".join(lines)


def run(
    objects: int = 10_000,
    updates: int = 10_000,
    batch_size: int = 2_500,
    distribution: str = "gaussian",
    seed: int = 1,
) -> list:
    spec = build_spec(objects, updates, distribution, seed)
    rows = [run_strategy(strategy, spec, batch_size) for strategy in STRATEGIES]
    report = render(rows, spec, batch_size)
    REPORT_PATH.parent.mkdir(exist_ok=True)
    REPORT_PATH.write_text(report + "\n", encoding="utf-8")
    print(report)
    for row in rows:
        assert row["batch_reads"] < row["per_op_reads"], (
            f"{row['strategy']}: batch execution must perform strictly fewer "
            f"physical reads ({row['batch_reads']} vs {row['per_op_reads']})"
        )
    return rows


def test_batch_beats_per_op_on_physical_reads():
    """Acceptance check at the issue's scale: 10k Gaussian updates."""
    run()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--objects", type=int, default=10_000)
    parser.add_argument("--updates", type=int, default=10_000)
    parser.add_argument("--batch-size", type=int, default=2_500)
    parser.add_argument("--distribution", default="gaussian")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    run(args.objects, args.updates, args.batch_size, args.distribution, args.seed)


if __name__ == "__main__":
    main()
