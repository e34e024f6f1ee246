"""Experiment runner.

One *experiment point* is: build an index with a given
:class:`~repro.core.config.IndexConfig`, load the initial objects of a
:class:`~repro.workload.spec.WorkloadSpec`, run the update stream, then run
the query stream, measuring disk I/O and CPU time per phase — exactly the
procedure of Section 5 ("the number of queries is fixed ... which are
executed on the R-tree obtained after all the updates").

:func:`run_experiment` executes one point; :func:`run_figure_point` is a
convenience that builds both the config and the workload from keyword
overrides, used by the per-figure definitions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.config import IndexConfig
from repro.core.index import MovingObjectIndex
from repro.storage.stats import IOStatistics
from repro.workload.generator import WorkloadGenerator
from repro.workload.spec import WorkloadSpec


@dataclass
class PhaseMetrics:
    """I/O and CPU measurements of one phase (updates or queries)."""

    operations: int
    physical_io: int
    cpu_seconds: float
    details: Dict[str, float] = field(default_factory=dict)

    @property
    def avg_io(self) -> float:
        if self.operations == 0:
            return 0.0
        return self.physical_io / self.operations


@dataclass
class ExperimentResult:
    """Everything measured for one (config, workload) point."""

    config: IndexConfig
    spec: WorkloadSpec
    update_phase: PhaseMetrics
    query_phase: PhaseMetrics
    outcome_fractions: Dict[str, float]
    tree_stats: Dict[str, int]
    summary_size_ratio: Optional[float] = None
    final_stats: Optional[IOStatistics] = None

    @property
    def avg_update_io(self) -> float:
        return self.update_phase.avg_io

    @property
    def avg_query_io(self) -> float:
        return self.query_phase.avg_io


def run_experiment(
    config: IndexConfig,
    spec: WorkloadSpec,
    validate: bool = False,
    query_result_sink: Optional[List[int]] = None,
) -> ExperimentResult:
    """Run one experiment point and return its measurements.

    Parameters
    ----------
    config, spec:
        The index configuration and the workload to run.
    validate:
        Run the full structural validation after the update phase (used by
        integration tests; disabled for timing runs because validation walks
        the whole tree).
    query_result_sink:
        When provided, the number of results of every query is appended —
        lets tests check that different strategies return identical answers.
    """
    generator = WorkloadGenerator(spec)
    index = MovingObjectIndex(config)
    index.load(generator.initial_objects())

    # ------------------------------------------------------------- updates --
    update_start_io = index.stats.snapshot()
    cpu_start = time.process_time()
    for oid, _old, new in generator.updates():
        index.update(oid, new)
    update_cpu = time.process_time() - cpu_start
    update_io = index.stats.delta_since(update_start_io)

    if validate:
        index.validate()

    # -------------------------------------------------------------- queries --
    query_start_io = index.stats.snapshot()
    cpu_start = time.process_time()
    for window in generator.queries():
        results = index.range_query(window)
        if query_result_sink is not None:
            query_result_sink.append(len(results))
    query_cpu = time.process_time() - cpu_start
    query_io = index.stats.delta_since(query_start_io)

    update_phase = PhaseMetrics(
        operations=spec.num_updates,
        physical_io=update_io.total(),
        cpu_seconds=update_cpu,
        details={
            "physical_reads": update_io.physical_reads,
            "physical_writes": update_io.physical_writes,
            "hash_reads": update_io.hash_index_reads,
            "buffer_hit_ratio": update_io.hit_ratio,
        },
    )
    query_phase = PhaseMetrics(
        operations=spec.num_queries,
        physical_io=query_io.total(),
        cpu_seconds=query_cpu,
        details={
            "physical_reads": query_io.physical_reads,
            "physical_writes": query_io.physical_writes,
            "buffer_hit_ratio": query_io.hit_ratio,
        },
    )

    summary_ratio = None
    if index.summary is not None:
        summary_ratio = index.summary.size_ratio_to_tree()

    return ExperimentResult(
        config=config,
        spec=spec,
        update_phase=update_phase,
        query_phase=query_phase,
        outcome_fractions=index.strategy.outcome_fractions(),
        tree_stats=index.tree.node_count() | {"height": index.tree.height},
        summary_size_ratio=summary_ratio,
        final_stats=index.stats.snapshot(),
    )


def run_figure_point(
    strategy: str,
    spec: WorkloadSpec,
    config_overrides: Optional[Dict] = None,
    param_overrides: Optional[Dict] = None,
    validate: bool = False,
) -> ExperimentResult:
    """Run one strategy on one workload with config/parameter overrides.

    ``config_overrides`` are fields of :class:`IndexConfig`;
    ``param_overrides`` are fields of the nested
    :class:`~repro.update.params.TuningParameters`.
    """
    config = IndexConfig(strategy=strategy)
    if param_overrides:
        config = config.with_overrides(params=config.params.with_overrides(**param_overrides))
    if config_overrides:
        config = config.with_overrides(**config_overrides)
    return run_experiment(config, spec, validate=validate)
