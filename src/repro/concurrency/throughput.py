"""End-to-end throughput experiment (Figure 8), on the online engine.

The experiment measures operations per second for a mixed workload of window
queries and updates under DGL locking with many concurrent clients, for each
update strategy.  Operations are **executed online**: virtual clients draw
from the generator's mixed stream, every operation predicts its granule lock
scope through the strategy's ``lock_scope()`` hook, acquires the locks, runs
for real against the index on a deterministic logical clock, and blocks on
conflict — see :mod:`repro.concurrency.engine`.  Throughput is the number of
operations divided by the resulting makespan.

This replaces the earlier two-phase record-then-replay pipeline, in which
every operation was executed once single-threaded and its trace replayed:
there, interleavings could never affect outcomes, the batch engine was
invisible to the concurrency layer, and the lock sets were observations
rather than predictions.  With the engine, the same scheduler serves single
operations, batches and multi-client streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.concurrency.engine import OnlineOperationEngine
from repro.concurrency.scheduler import ScheduleResult

if TYPE_CHECKING:  # avoid import cycles; both arrive as arguments
    from repro.shard.index import ShardedIndex
    from repro.workload.generator import WorkloadGenerator


@dataclass
class ThroughputExperiment:
    """Configuration of one throughput measurement."""

    num_operations: int = 2_000
    update_fraction: float = 0.5
    num_clients: int = 50
    time_per_io: float = 0.01
    cpu_time_per_op: float = 0.001

    def __post_init__(self) -> None:
        if self.num_operations <= 0:
            raise ValueError("num_operations must be positive")
        if not 0.0 <= self.update_fraction <= 1.0:
            raise ValueError("update_fraction must be in [0, 1]")


def run_throughput(
    index: "ShardedIndex",
    generator: "WorkloadGenerator",
    experiment: Optional[ThroughputExperiment] = None,
) -> ScheduleResult:
    """Execute the mixed stream on *index* online, over N virtual clients."""
    experiment = experiment if experiment is not None else ThroughputExperiment()
    engine = OnlineOperationEngine(
        index,
        num_clients=experiment.num_clients,
        time_per_io=experiment.time_per_io,
        cpu_time_per_op=experiment.cpu_time_per_op,
    )
    return engine.run(
        generator.operations(experiment.num_operations, experiment.update_fraction)
    )
