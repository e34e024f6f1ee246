"""The paper's figures as one table.

Every figure or table of the evaluation is one row of the table at the end of
this module (a :class:`FigureDefinition`): its key, title, paper reference, x
label, the runner that produces its :class:`~repro.bench.metrics.MetricRow`
series, and the paper-shape predicate those rows must satisfy.  Ten rows are
sweeps of :func:`~repro.bench.experiment.run_figure_point` over one axis and
share one runner, :class:`Sweep`; the engine figures and Table 1 keep their
own.

Two gates hold the table.  ``FIGURES.json`` at the repository root records
every row's non-timing columns at scale 0.05, seed 1, and the tier-1 suite
regenerates and compares them (``tests/test_bench_figures.py``);
``benchmarks/bench_figures.py`` runs every row at bench scale and calls its
predicate, which needs workloads larger than the recorded ones.

Scaling
-------
The paper runs 1-10 million objects and 1-10 million updates; this harness
defaults to a few thousand of each so the full suite completes in minutes on
a laptop (see DESIGN.md, "Substitutions").  Every definition accepts a
``scale`` multiplier: ``scale=1.0`` is the quick default, larger values grow
both the object count and the update/query counts proportionally, preserving
the density and update-pressure ratios that drive the paper's trends.

``rtree-bottomup-bench --list`` prints the table: every key, paper reference
and title.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

from repro.api.builder import open_index
from repro.api.operations import Operation, RangeQuery, Update
from repro.bench.experiment import ExperimentResult, run_figure_point
from repro.bench.metrics import MetricRow
from repro.bench.metrics import pivot_by_strategy as _pivot
from repro.concurrency.throughput import ThroughputExperiment, run_throughput
from repro.core.config import IndexConfig
from repro.core.index import MovingObjectIndex
from repro.cost.model import BottomUpCostModel, TopDownCostModel, TreeShape
from repro.geometry import Point, Rect
from repro.workload.generator import WorkloadGenerator
from repro.workload.spec import WorkloadSpec

#: Strategies compared in most figures, in the paper's order.
DEFAULT_STRATEGIES = ("TD", "LBU", "GBU")

#: Workload seed of a run that names none.
DEFAULT_SEED = 1

#: Page size used by the I/O experiments.  The paper uses 1024-byte pages on
#: a one-million-object index, which yields a height-5 tree whose leaf MBRs
#: are small compared to the distances objects move.  At the scaled-down
#: object counts of this harness, 1024-byte pages would make leaves so large
#: that almost every update stays inside its leaf, flattening the differences
#: the figures are about.  256-byte pages restore the paper's tree height
#: (5), its movement-to-leaf-extent ratio and its ~80 % naive fallback rate
#: (see EXPERIMENTS.md, "Scaling substitutions").
BENCH_PAGE_SIZE = 256

#: Table 1 of the paper: parameters and the values used (defaults in bold in
#: the paper are listed first here).
TABLE1_PARAMETERS: Dict[str, Sequence] = {
    "epsilon": (0.003, 0.0, 0.007, 0.015, 0.03),
    "distance_threshold": (0.03, 0.0, 0.3, 3.0),
    "level_threshold": ("height-1", 0, 1, 2, 3),
    "data_distribution": ("Uniform", "Gaussian", "Skewed"),
    "buffer_percent": (1, 0, 3, 5, 10),
    "max_distance_moved": (0.03, 0.003, 0.015, 0.06, 0.1, 0.15),
    "num_updates_millions_paper": (1, 2, 3, 5, 7, 10),
    "database_size_millions_paper": (1, 2, 5, 10),
    "page_size_bytes": (1024,),
    "queries_paper": (1_000_000,),
}

Rows = Sequence[MetricRow]


@dataclass
class FigureDefinition:
    """One row of the figure table: a runnable figure and its paper shape."""

    key: str
    title: str
    paper_reference: str
    x_label: str
    runner: Callable[[float, int], List[MetricRow]]
    #: Raises ``AssertionError`` unless the rows have the paper's shape.
    check: Callable[[Rows], None]
    notes: str = ""
    expected_shape: str = ""

    def run(self, scale: float = 1.0, seed: Optional[int] = None) -> List[MetricRow]:
        """Execute the experiment at the given scale; returns the metric rows."""
        if scale <= 0:
            raise ValueError("scale must be positive")
        return self.runner(scale, DEFAULT_SEED if seed is None else seed)


# ---------------------------------------------------------------------------
# The shared sweep runner
# ---------------------------------------------------------------------------

def _base_spec(scale: float, seed: int) -> WorkloadSpec:
    """The default workload at the given scale (uniform, default parameters)."""
    return WorkloadSpec(
        num_objects=max(500, int(4_000 * scale)),
        num_updates=max(500, int(8_000 * scale)),
        num_queries=max(100, int(400 * scale)),
        seed=seed,
    )


class Series(NamedTuple):
    """One line of a sweep: its label, strategy and fixed overrides."""

    label: str
    strategy: str
    params: Mapping[str, object] = {}
    config: Mapping[str, object] = {}


def _plain(*strategies: str) -> Tuple[Series, ...]:
    return tuple(Series(strategy, strategy) for strategy in strategies)


_DEFAULT_SERIES = _plain(*DEFAULT_STRATEGIES)


#: The MetricRow columns a sweep point can report, read off its result.
_POINT_COLUMNS: Dict[str, Callable[[ExperimentResult], float]] = {
    "avg_update_io": lambda result: result.avg_update_io,
    "avg_query_io": lambda result: result.avg_query_io,
    "update_cpu_seconds": lambda result: result.update_phase.cpu_seconds,
    "query_cpu_seconds": lambda result: result.query_phase.cpu_seconds,
}


@dataclass(frozen=True)
class Sweep:
    """:func:`run_figure_point` for every x value and every series.

    Each x value overrides the field *name* (default: *x_label*) of the
    workload spec, the index config or the tuning parameters, as *target*
    says; *values* may be a function of the base spec, for the axes that
    grow with the scale.  A sweep without a target has one point per
    series, whose x value is the series label.
    """

    x_label: str
    series: Sequence[Series]
    target: str = ""
    values: Union[Sequence, Callable[[WorkloadSpec], Sequence]] = ()
    name: str = ""
    columns: Sequence[str] = tuple(_POINT_COLUMNS)
    outcomes: Sequence[str] = ("top_down",)

    def __call__(self, scale: float, seed: int) -> List[MetricRow]:
        base = _base_spec(scale, seed)
        name = self.name or self.x_label
        values = self.values(base) if callable(self.values) else self.values
        rows: List[MetricRow] = []
        for x in values or (None,):
            spec = base.with_overrides(**{name: x}) if self.target == "spec" else base
            for series in self.series:
                params = dict(series.params)
                config = {"page_size": BENCH_PAGE_SIZE, **series.config}
                if self.target == "params":
                    params[name] = x
                elif self.target == "config":
                    config[name] = x
                result = run_figure_point(
                    series.strategy, spec, config_overrides=config, param_overrides=params
                )
                rows.append(
                    MetricRow(
                        x_label=self.x_label,
                        x_value=series.label if x is None else x,
                        strategy=series.label,
                        **{column: _POINT_COLUMNS[column](result) for column in self.columns},
                        extras={
                            f"{outcome}_fraction": result.outcome_fractions.get(outcome, 0.0)
                            for outcome in self.outcomes
                        },
                    )
                )
        return rows


def _flat(pivot: Dict[object, Dict[str, float]], strategy: str) -> bool:
    """The strategy's value is the same at every x."""
    return len({round(values[strategy], 6) for values in pivot.values()}) == 1


def _by_series(rows: Rows, metric: str) -> Dict[object, float]:
    return {row.x_value: row.extras[metric] for row in rows}


# ---------------------------------------------------------------------------
# Table 1
# ---------------------------------------------------------------------------

def _run_table1(scale: float, seed: int) -> List[MetricRow]:
    return [
        MetricRow(
            x_label="parameter",
            x_value=parameter,
            strategy="-",
            extras={
                "default": values[0] if not isinstance(values[0], str) else 0.0,
                "values": ", ".join(str(v) for v in values),  # type: ignore[dict-item]
            },
        )
        for parameter, values in TABLE1_PARAMETERS.items()
    ]


def _check_table1(rows: Rows) -> None:
    assert {row.x_value for row in rows} == set(TABLE1_PARAMETERS)


# ---------------------------------------------------------------------------
# Figure 5: effect of epsilon (a)-(d), the distance threshold D (e)-(f) and
# the maximum distance moved between updates (g)-(h)
# ---------------------------------------------------------------------------

EPSILON_VALUES = (0.0, 0.003, 0.007, 0.015, 0.03)


def _check_fig5_epsilon(rows: Rows) -> None:
    update = _pivot(rows, "avg_update_io")
    query = _pivot(rows, "avg_query_io")
    assert {row.strategy for row in rows} == set(DEFAULT_STRATEGIES)
    # TD ignores epsilon entirely.
    assert _flat(update, "TD")
    # GBU beats TD on update I/O at every epsilon.
    for values in update.values():
        assert values["GBU"] < values["TD"]
    # Larger epsilon helps GBU updates ...
    smallest, largest = min(update), max(update)
    assert update[largest]["GBU"] <= update[smallest]["GBU"] + 1e-9
    # ... and hurts GBU queries.
    assert query[largest]["GBU"] >= query[smallest]["GBU"] - 1e-9
    # LBU queries are no better than TD queries (enlargement costs overlap).
    for values in query.values():
        assert values["LBU"] >= values["TD"] * 0.95


DISTANCE_THRESHOLD_VALUES = (0.0, 0.03, 0.3, 3.0)


def _check_fig5_distance(rows: Rows) -> None:
    update = _pivot(rows, "avg_update_io")
    for values in update.values():
        assert values["GBU"] < values["TD"]
    # D only applies to GBU.
    assert _flat(update, "TD") and _flat(update, "LBU")
    # GBU's sensitivity to D is mild: max/min within 25 %.
    gbu_values = [values["GBU"] for values in update.values()]
    assert max(gbu_values) <= min(gbu_values) * 1.25


MAX_DISTANCE_VALUES = (0.003, 0.015, 0.03, 0.06, 0.1, 0.15)


def _check_fig5_max_distance(rows: Rows) -> None:
    update = _pivot(rows, "avg_update_io")
    slowest, fastest = update[min(update)], update[max(update)]

    # Faster movement costs more updates for every strategy (monotone trend
    # between the slowest and the fastest setting).
    for strategy in DEFAULT_STRATEGIES:
        assert fastest[strategy] > slowest[strategy]

    # GBU cheapest at every speed, and TD most expensive at every speed.
    for values in update.values():
        assert values["GBU"] <= values["TD"]
        assert values["GBU"] <= values["LBU"] * 1.05
        assert values["TD"] >= values["LBU"]

    # The bottom-up strategies lose part of their advantage at the fastest
    # setting (more updates escape the local repairs), so their own costs
    # grow faster than TD's in relative terms — but GBU never loses the lead.
    assert fastest["GBU"] / slowest["GBU"] >= fastest["TD"] / slowest["TD"]


# ---------------------------------------------------------------------------
# Figure 6: effect of the level threshold (a)-(b), the initial data
# distribution (c)-(d), the number of updates (e)-(f) and the buffer size (g)-(h)
# ---------------------------------------------------------------------------

LEVEL_THRESHOLDS = (0, 1, 2, 3)
LEVEL_MAX_DISTANCES = (0.03, 0.1, 0.15)
LEVEL_SERIES = _plain("TD", "LBU") + tuple(
    Series(f"GBU-{level}", "GBU", params={"level_threshold": level}) for level in LEVEL_THRESHOLDS
)


def _check_fig6_level(rows: Rows) -> None:
    update = _pivot(rows, "avg_update_io")
    for values in update.values():
        # Unlimited ascent is at least as good as forbidding it.
        assert values["GBU-3"] <= values["GBU-0"] * 1.05
        # GBU-0 (optimised localized bottom-up) does not lose to LBU.
        assert values["GBU-0"] <= values["LBU"] * 1.10
        # Every GBU variant beats TD.
        for level in LEVEL_THRESHOLDS:
            assert values[f"GBU-{level}"] < values["TD"]
        # GBU-2 and GBU-3 are nearly equivalent (the paper notes this).
        assert abs(values["GBU-2"] - values["GBU-3"]) <= 0.15 * values["GBU-3"] + 0.3


DISTRIBUTIONS = ("uniform", "gaussian", "skewed")


def _check_fig6_distribution(rows: Rows) -> None:
    update = _pivot(rows, "avg_update_io")
    query = _pivot(rows, "avg_query_io")

    # GBU is the cheapest updater on every distribution.
    for values in update.values():
        assert values["GBU"] <= values["TD"]
        assert values["GBU"] <= values["LBU"] * 1.05

    for strategy in DEFAULT_STRATEGIES:
        # Clustered data is at least as expensive to update as uniform data.
        assert update["gaussian"][strategy] >= update["uniform"][strategy] * 0.9
        # Queries on the skewed distribution are cheaper than on uniform
        # data (most of the space is empty).  The Gaussian case is not
        # compared: at this reproduction's scale the Gaussian cluster is
        # tight enough that most uniformly-placed query windows miss the
        # data entirely, which makes its queries artificially cheap (see
        # EXPERIMENTS.md).
        assert query["skewed"][strategy] <= query["uniform"][strategy]


UPDATE_MULTIPLIERS = (1, 2, 3, 5, 7, 10)


def _update_volumes(base: WorkloadSpec) -> List[int]:
    return [max(1_000, base.num_updates // 2) * m for m in UPDATE_MULTIPLIERS]


def _check_fig6_updates(rows: Rows) -> None:
    update = _pivot(rows, "avg_update_io")
    query = _pivot(rows, "avg_query_io")
    fewest, most = min(update), max(update)

    # GBU cheapest updater at every update volume.
    for values in update.values():
        assert values["GBU"] < values["TD"]

    # Query cost after the largest volume: GBU does not degrade more than TD.
    assert query[most]["GBU"] <= query[most]["TD"] * 1.1

    # Costs at the largest volume are not lower than at the smallest volume
    # (the index only gets worse with churn) for the top-down baseline.
    assert update[most]["TD"] >= update[fewest]["TD"] * 0.9


BUFFER_PERCENTAGES = (0.0, 1.0, 3.0, 5.0, 10.0)


def _check_fig6_buffers(rows: Rows) -> None:
    update = _pivot(rows, "avg_update_io")
    query = _pivot(rows, "avg_query_io")
    none, largest = min(update), max(update)

    # Bigger buffers help every strategy (comparing the extremes).
    for strategy in DEFAULT_STRATEGIES:
        assert update[largest][strategy] < update[none][strategy]
        assert query[largest][strategy] <= query[none][strategy] + 1e-9

    # GBU remains the cheapest updater at the paper-relevant buffer sizes
    # (up to 5 %); at 10 % the working set of this scaled-down index fits
    # almost entirely in the buffer and TD catches up to within a few
    # percent, so only near-parity is required there.
    for percent, values in update.items():
        if percent <= 5.0:
            assert values["GBU"] < values["TD"]
        else:
            assert values["GBU"] <= values["TD"] * 1.1

    # The buffer shrinks TD's disadvantage: the TD/GBU gap is smaller at the
    # largest buffer than without a buffer.
    gap_none = update[none]["TD"] - update[none]["GBU"]
    gap_large = update[largest]["TD"] - update[largest]["GBU"]
    assert gap_large <= gap_none

    # Once a buffer exists LBU loses (most of) its advantage over TD — the
    # paper's Figure 6(g) observation.  At the largest buffer LBU must not be
    # meaningfully cheaper than TD anymore.
    assert update[largest]["LBU"] >= update[largest]["TD"] * 0.95


# ---------------------------------------------------------------------------
# Figure 7: scalability with the dataset size
# ---------------------------------------------------------------------------

DATASET_MULTIPLIERS = (1, 2, 5, 10)


def _dataset_sizes(base: WorkloadSpec) -> List[int]:
    return [max(500, base.num_objects // 2) * m for m in DATASET_MULTIPLIERS]


def _check_fig7_scalability(rows: Rows) -> None:
    update = _pivot(rows, "avg_update_io")
    query = _pivot(rows, "avg_query_io")
    smallest, largest = query[min(query)], query[max(query)]

    # GBU cheapest updater at every dataset size.
    for values in update.values():
        assert values["GBU"] < values["TD"]

    # Query cost rises with density for every strategy (largest vs smallest).
    for strategy in DEFAULT_STRATEGIES:
        assert largest[strategy] > smallest[strategy]

    # Query costs converge at the largest size: the relative spread between
    # the best and worst strategy stays within ~50 % (the paper reports
    # "pretty much the same" query cost for all techniques at scale).
    assert max(largest.values()) <= min(largest.values()) * 1.5


# ---------------------------------------------------------------------------
# Figure 8: throughput under DGL for varying update fractions
# ---------------------------------------------------------------------------

UPDATE_FRACTIONS = (0.0, 0.25, 0.5, 0.75, 1.0)

#: Scaled-down stand-ins for the paper's throughput setup (50 threads over a
#: one-million-object index with query windows in [0, 0.01]).  At a few
#: thousand objects those windows would make queries far cheaper than updates
#: and 50 clients would contend on a few hundred leaf granules, inverting the
#: cost ratios the figure is about; the substitutions below keep the
#: query/update cost ratio and the client-to-granule ratio close to the
#: paper's (see EXPERIMENTS.md).
THROUGHPUT_QUERY_SIDE = 0.15
THROUGHPUT_CLIENTS = 16


def _throughput_workload(scale: float, seed: int) -> Tuple[WorkloadSpec, int]:
    """The online figures' initial placement and their operation count."""
    spec = WorkloadSpec(
        num_objects=max(1_000, int(8_000 * scale)),
        num_updates=0,
        num_queries=0,
        seed=seed,
        query_max_side=THROUGHPUT_QUERY_SIDE,
    )
    return spec, max(200, int(1_000 * scale))


def _throughput_row(x_label: str, x_value, strategy: str, result) -> MetricRow:
    return MetricRow(
        x_label=x_label,
        x_value=x_value,
        strategy=strategy,
        throughput=result.throughput,
        extras={
            "lock_waits": float(result.lock_waits),
            "utilisation": result.utilisation,
        },
    )


def _run_fig8_throughput(scale: float, seed: int) -> List[MetricRow]:
    rows: List[MetricRow] = []
    spec, num_operations = _throughput_workload(scale, seed)
    for fraction in UPDATE_FRACTIONS:
        for strategy in DEFAULT_STRATEGIES:
            generator = WorkloadGenerator(spec)
            index = MovingObjectIndex(IndexConfig(strategy=strategy))
            index.load(generator.initial_objects())
            experiment = ThroughputExperiment(
                num_operations=num_operations,
                update_fraction=fraction,
                num_clients=THROUGHPUT_CLIENTS,
            )
            result = run_throughput(index, generator, experiment)
            rows.append(_throughput_row("update_fraction", fraction, strategy, result))
    return rows


def _check_fig8_throughput(rows: Rows) -> None:
    throughput = _pivot(rows, "throughput")

    # TD loses throughput as the update share rises.
    assert throughput[max(throughput)]["TD"] < throughput[min(throughput)]["TD"]

    # GBU's throughput at a pure-update mix is at least as high as at a
    # balanced mix (the paper's "reverse" trend).
    assert throughput[1.0]["GBU"] >= throughput[0.5]["GBU"] * 0.95

    # GBU is consistently at or above TD whenever updates are present
    # (pure-query mixes are identical by construction).
    for fraction, values in throughput.items():
        if fraction > 0.0:
            assert values["GBU"] >= values["TD"]

    # At a pure-update mix the GBU advantage over TD is substantial.
    assert throughput[1.0]["GBU"] >= throughput[1.0]["TD"] * 1.2


# ---------------------------------------------------------------------------
# Contention sweep: throughput vs. number of clients on the online engine
# ---------------------------------------------------------------------------

CONTENTION_CLIENT_COUNTS = (1, 4, 16, 50)
CONTENTION_UPDATE_FRACTION = 0.75


def _run_online(index_spec: Dict, workload: WorkloadSpec, num_operations: int, update_fraction: float):
    """Load *workload* into ``open_index(index_spec)`` and run its mixed
    stream on the index's engine session; returns the index and the result."""
    generator = WorkloadGenerator(workload)
    index = open_index(index_spec)
    index.load(generator.initial_objects())
    return index, index.engine().run_mixed(generator, num_operations, update_fraction)


def _run_contention_sweep(scale: float, seed: int) -> List[MetricRow]:
    """Sweep the number of virtual clients at a fixed update-heavy mix.

    Every point runs **online**: the engine deals the generator's mixed
    stream over the clients (one stream per client), each operation predicts
    its granule lock scope and executes for real, so the sweep exposes how
    each strategy's lock footprint limits its scaling — the Section 3.2.2
    argument the record/replay pipeline could not show.
    """
    rows: List[MetricRow] = []
    spec, num_operations = _throughput_workload(scale, seed)
    for clients in CONTENTION_CLIENT_COUNTS:
        for strategy in DEFAULT_STRATEGIES:
            # Declarative construction (API v2): one spec names the index
            # kind, configuration and session defaults.
            _, result = _run_online(
                {
                    "kind": "single",
                    "config": {"strategy": strategy},
                    "engine": {"num_clients": clients},
                },
                spec,
                num_operations,
                CONTENTION_UPDATE_FRACTION,
            )
            rows.append(_throughput_row("num_clients", clients, strategy, result))
    return rows


def _check_contention_sweep(rows: Rows) -> None:
    throughput = _pivot(rows, "throughput")
    fewest, most = min(throughput), max(throughput)
    assert fewest == 1

    # More clients never hurt: the engine's all-or-nothing acquisition has
    # no lock thrashing, so throughput is monotone up to saturation noise.
    for strategy in DEFAULT_STRATEGIES:
        assert throughput[most][strategy] >= throughput[fewest][strategy]

    # Bottom-up updates lock fewer exclusive granules, so under many clients
    # the bottom-up strategies sustain a higher transaction rate than TD.
    assert throughput[most]["LBU"] >= throughput[most]["TD"]
    assert throughput[most]["GBU"] >= throughput[most]["TD"]

    # A lone client never waits for a lock; several clients do contend.
    assert all(row.extras["lock_waits"] == 0 for row in rows if row.x_value == 1)
    assert any(row.extras["lock_waits"] > 0 for row in rows if row.x_value > 1)


# ---------------------------------------------------------------------------
# Conflict-aware batch scheduling vs. serial group execution
# ---------------------------------------------------------------------------

BATCH_SCHEDULING_CLIENTS = 16
BATCH_SCHEDULING_STRATEGIES = ("TD", "NAIVE", "LBU", "GBU")


def _run_batch_throughput(scale: float, seed: int) -> List[MetricRow]:
    """Makespan of one Gaussian update batch: serial groups vs. the engine.

    The same batch is planned into group-by-leaf buckets twice; the serial
    run drains them on one virtual client (the PR 1 pipeline's semantics),
    the concurrent run schedules non-conflicting groups in parallel under
    their ``group_lock_scope()`` granule sets.
    """
    rows: List[MetricRow] = []
    num_objects = max(1_000, int(4_000 * scale))
    num_updates = max(1_000, int(10_000 * scale))
    for strategy in BATCH_SCHEDULING_STRATEGIES:
        spec = WorkloadSpec(
            num_objects=num_objects,
            num_updates=num_updates,
            num_queries=0,
            distribution="gaussian",
            seed=seed,
        )
        makespans: Dict[str, float] = {}
        lock_waits = 0
        for label, clients in (("serial", 1), ("concurrent", BATCH_SCHEDULING_CLIENTS)):
            generator = WorkloadGenerator(spec)
            index = MovingObjectIndex(IndexConfig(strategy=strategy))
            index.load(generator.initial_objects())
            operations = [Update(oid, new) for oid, _old, new in generator.updates()]
            result = index.engine(num_clients=clients).engine.run_batch(operations)
            makespans[label] = result.makespan
            if label == "concurrent":
                lock_waits = result.schedule.lock_waits
        concurrent = makespans["concurrent"]
        rows.append(
            MetricRow(
                x_label="strategy",
                x_value=strategy,
                strategy=strategy,
                throughput=(num_updates / concurrent) if concurrent > 0 else 0.0,
                extras={
                    "serial_makespan": makespans["serial"],
                    "concurrent_makespan": concurrent,
                    "speedup": (makespans["serial"] / concurrent)
                    if concurrent > 0
                    else 0.0,
                    "lock_waits": float(lock_waits),
                },
            )
        )
    return rows


def _check_batch_throughput(rows: Rows) -> None:
    assert {row.strategy for row in rows} == set(BATCH_SCHEDULING_STRATEGIES)
    for row in rows:
        assert row.extras["concurrent_makespan"] < row.extras["serial_makespan"]
        assert row.extras["speedup"] > 1.0


# ---------------------------------------------------------------------------
# Shard scaling: concurrent makespan vs. number of spatial shards
# ---------------------------------------------------------------------------

SHARD_COUNTS = (1, 2, 4, 8)
SHARD_SCALING_CLIENTS = 16
SHARD_SCALING_WORKLOADS = ("uniform", "hotspot")


def _run_shard_scaling(scale: float, seed: int) -> List[MetricRow]:
    """Concurrent makespan of an update stream vs. the shard count.

    Every point runs the same seeded update stream through a
    :class:`~repro.shard.index.ShardedIndex` over a uniform grid, with a
    fixed number of virtual clients; per-shard DGL lock namespaces let
    operations on different shards schedule in parallel, and migrations
    (boundary-crossing moves) lock both shards.  The strategy is **TD**
    and the buffer is 0 % (a paper configuration): top-down update cost
    scales with tree height, so spatial partitioning — which shortens every
    shard's tree — is exactly the axis this figure isolates.  The bottom-up
    strategies already removed that height dependence per the paper's own
    argument, which is why they are not the interesting series here.
    """
    rows: List[MetricRow] = []
    num_objects = max(1_000, int(8_000 * scale))
    num_operations = max(300, int(1_000 * scale))
    for distribution in SHARD_SCALING_WORKLOADS:
        spec = WorkloadSpec(
            num_objects=num_objects,
            num_updates=0,
            num_queries=0,
            seed=seed,
            distribution=distribution,
        )
        for num_shards in SHARD_COUNTS:
            index, result = _run_online(
                {
                    "kind": "sharded",
                    "shards": num_shards,
                    "config": {
                        "strategy": "TD",
                        "page_size": BENCH_PAGE_SIZE,
                        "buffer_percent": 0.0,
                    },
                    "engine": {"num_clients": SHARD_SCALING_CLIENTS},
                },
                spec,
                num_operations,
                update_fraction=1.0,
            )
            populations = index.shard_populations()
            rows.append(
                MetricRow(
                    x_label="num_shards",
                    x_value=num_shards,
                    strategy=distribution,
                    throughput=result.throughput,
                    extras={
                        "makespan": result.makespan,
                        "lock_waits": float(result.lock_waits),
                        "migrations": float(index.migrations),
                        # 1.0 = perfectly balanced; k = the hottest shard
                        # holds k times its fair share.
                        "imbalance": max(populations)
                        * num_shards
                        / max(1, sum(populations)),
                    },
                )
            )
    return rows


def _check_shard_scaling(rows: Rows) -> None:
    makespan = _pivot(rows, "makespan")
    imbalance = _pivot(rows, "imbalance")
    migrations = _pivot(rows, "migrations")
    assert {row.strategy for row in rows} == set(SHARD_SCALING_WORKLOADS)
    assert sorted(makespan) == list(SHARD_COUNTS)

    # Acceptance criterion: multi-shard concurrent makespan strictly below
    # the single-shard makespan at 4+ shards on the uniform workload.
    for num_shards in makespan:
        if num_shards >= 4:
            assert makespan[num_shards]["uniform"] < makespan[1]["uniform"]

    # The hotspot variant is reported alongside, with a measurably less
    # balanced shard assignment than the uniform workload.
    most = max(makespan)
    assert imbalance[most]["hotspot"] > imbalance[most]["uniform"]

    # Sharded execution is not free: boundary-crossing updates migrate, and
    # only once there is a boundary to cross.
    assert migrations[most]["uniform"] > 0
    assert all(migrations[1][series] == 0 for series in SHARD_SCALING_WORKLOADS)


# ---------------------------------------------------------------------------
# Rebalance hotspot: online boundary adjustment vs. the static grid
# ---------------------------------------------------------------------------

REBALANCE_HOTSPOT_SHARDS = 4
REBALANCE_HOTSPOT_CLIENTS = 16
#: Small pages make the hot shard's tree measurably taller than a balanced
#: shard's — the height penalty the rebalancer removes.
REBALANCE_HOTSPOT_PAGE_SIZE = 256
#: One decisive boundary adjustment per run: trigger at 1.5x max/mean load
#: once 150 operations of evidence exist; the huge cooldown prevents re-cut
#: thrash inside one measured run.
REBALANCE_HOTSPOT_POLICY = {"threshold": 1.5, "min_ops": 150, "cooldown": 100_000}


def _run_rebalance_hotspot(scale: float, seed: int) -> List[MetricRow]:
    """Hotspot makespan with the online rebalancer vs. the static grid.

    Three runs of the same seeded pure-update stream at 4 shards and a
    fixed client count (TD strategy — the one whose cost scales with tree
    height — at the paper's default 1 % buffer): the **uniform** workload
    on the static grid (the balanced reference), the **hotspot** workload
    on the static grid (a sharply skewed Zipf distribution concentrates
    ~85 % of the objects and update traffic on one shard, whose tree grows
    a level taller), and the hotspot workload with the **rebalancer**
    attached, whose one-off migration cost is paid inside the measured
    makespan.

    The workload floors are deliberately high relative to *scale*: the
    rebalancer's one-off migration cost only amortises over a long enough
    update stream, which is exactly the regime the figure demonstrates.
    """
    rows: List[MetricRow] = []
    num_objects = max(1_200, int(1_200 * scale))
    num_operations = max(9_600, int(9_600 * scale))
    variants = (
        ("uniform", "uniform", False),
        ("hotspot", "hotspot", False),
        ("hotspot+rebalance", "hotspot", True),
    )
    for label, distribution, rebalance in variants:
        spec = WorkloadSpec(
            num_objects=num_objects,
            num_updates=0,
            num_queries=0,
            seed=seed,
            distribution=distribution,
            hotspot_cells=2,
            hotspot_exponent=3.0,
        )
        index_spec: Dict = {
            "kind": "sharded",
            "shards": REBALANCE_HOTSPOT_SHARDS,
            "config": {
                "strategy": "TD",
                "page_size": REBALANCE_HOTSPOT_PAGE_SIZE,
                "buffer_percent": 1.0,
            },
            "engine": {"num_clients": REBALANCE_HOTSPOT_CLIENTS},
        }
        if rebalance:
            index_spec["rebalance"] = dict(REBALANCE_HOTSPOT_POLICY)
        index, result = _run_online(index_spec, spec, num_operations, update_fraction=1.0)
        rows.append(
            MetricRow(
                x_label="series",
                x_value=label,
                strategy=label,
                throughput=result.throughput,
                extras={
                    "makespan": result.makespan,
                    "lock_waits": float(result.lock_waits),
                    "migrations": float(index.migrations),
                    "imbalance": index.population_imbalance(),
                    "rebalances": float(
                        index.rebalancer.rebalances
                        if index.rebalancer is not None
                        else 0
                    ),
                    # Scheduled rebalance operations (leaf buckets + loose
                    # members), not objects moved — migrations counts those.
                    "rebalance_ops": float(result.kinds.get("rebalance", 0)),
                },
            )
        )
    return rows


def _check_rebalance_hotspot(rows: Rows) -> None:
    makespan = _by_series(rows, "makespan")
    imbalance = _by_series(rows, "imbalance")
    rebalances = _by_series(rows, "rebalances")
    assert set(makespan) == {"uniform", "hotspot", "hotspot+rebalance"}

    # Acceptance criterion: the rebalancer — including the one-off migration
    # cost — strictly beats the static grid on the hotspot workload and
    # lands within 1.5x of the uniform makespan.
    assert makespan["hotspot+rebalance"] < makespan["hotspot"]
    assert makespan["hotspot+rebalance"] <= 1.5 * makespan["uniform"]

    # The control loop ran exactly once (the cooldown prevents thrash) and
    # actually balanced the shard populations.
    assert rebalances["hotspot+rebalance"] == 1
    assert rebalances["hotspot"] == 0
    assert imbalance["hotspot+rebalance"] < imbalance["hotspot"]

    # The static hotspot run shows the skew the rebalancer removes.
    assert imbalance["hotspot"] > 1.5


# ---------------------------------------------------------------------------
# Adaptive strategy: per-shard cost-model selection vs. static globals
# ---------------------------------------------------------------------------

#: Two shards: the grid splits the unit square into left/right halves.
ADAPTIVE_STRATEGY_SHARDS = 2
#: The calibrated operating point: at 8 % buffer the hot-cell update shard's
#: working set is cached (top-down descents nearly free, every bottom-up
#: update still pays its unbuffered hash probe → TD wins), while the uniform
#: query-heavy shard thrashes the buffer (GBU's summary-guided leaf-only
#: queries win).  No single global strategy wins both.
ADAPTIVE_STRATEGY_BUFFER_PERCENT = 8.0
ADAPTIVE_STRATEGY_PAGE_SIZE = 4096
#: Evidence gate of the adaptive runs: first switch after 256 observed
#: operations on a shard, later switches after 400.
ADAPTIVE_STRATEGY_POLICY = {"cooldown": 400, "min_ops": 256}
#: The adaptive variant starts on NAIVE — a strategy that wins *neither*
#: shard, so both observed switches are real work, and their cost (the LBU/
#: GBU transitions plus the warmup spent under the wrong strategy) is paid
#: inside the measured makespan.
ADAPTIVE_STRATEGY_INITIAL = "NAIVE"
ADAPTIVE_STRATEGY_VARIANTS = ("TD", "NAIVE", "LBU", "GBU", "adaptive")
#: The controller is polled every this many operations — the stand-in for
#: the engine's maintenance interleave in the benchmark's serial driver.
ADAPTIVE_STRATEGY_MAINTENANCE_EVERY = 100


def adaptive_mixed_workload(scale: float, seed: Optional[int]):
    """Initial placements + op stream of the two-regime mixed workload.

    Shard 0 (left half) holds a hot cell of objects making short moves —
    pure update traffic over a cacheable working set.  Shard 1 (right half)
    holds a uniform spread answering 0.1-extent window queries with a
    trickle of short moves — query-heavy traffic over a buffer-thrashing
    working set.  The floors are deliberately high relative to *scale*
    (like the rebalance-hotspot figure): the buffer-regime contrast that
    separates the strategies only exists at the calibrated size, so smoke
    runs shrink nothing — they are simply the same workload.

    Returns ``(points, ops)`` where ops are typed ``Update`` and
    ``RangeQuery`` operations, identical for every variant.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    rng = random.Random(DEFAULT_SEED if seed is None else seed)
    per_shard = max(3_000, int(3_000 * scale))
    steps = max(3_000, int(3_000 * scale))
    hot_cell = (0.05, 0.20, 0.40, 0.55)  # inside shard 0
    spread = (0.55, 0.95, 0.05, 0.95)  # uniform over shard 1
    positions = [
        Point(rng.uniform(x0, x1), rng.uniform(y0, y1))
        for x0, x1, y0, y1 in (hot_cell, spread)
        for _ in range(per_shard)
    ]
    points = list(enumerate(positions))
    ops: List[Operation] = []

    def move(oids: range, step: float, x0: float, x1: float, y0: float, y1: float) -> None:
        o = rng.choice(oids)
        p = positions[o]
        positions[o] = Point(
            min(x1, max(x0, p.x + rng.uniform(-step, step))),
            min(y1, max(y0, p.y + rng.uniform(-step, step))),
        )
        ops.append(Update(o, positions[o]))

    for _ in range(steps):
        move(range(per_shard), 0.01, *hot_cell)
        if rng.random() < 0.9:
            x, y = rng.uniform(0.55, 0.85), rng.uniform(0.05, 0.85)
            ops.append(RangeQuery(Rect(x, y, x + 0.1, y + 0.1)))
        else:
            move(range(per_shard, 2 * per_shard), 0.02, *spread)
    return points, ops


def run_adaptive_variant(variant: str, points, ops) -> Dict:
    """One cell of the comparison: a static global strategy or ``adaptive``.

    The makespan is the summed per-shard charged I/O (physical reads +
    writes + unbuffered hash probes) over the op stream — the serial
    execution cost, deterministic at fixed seed.  For the adaptive variant
    every switch (the LBU sweep's leaf writes, the warmup spent under the
    initial strategy) lands inside the measured window.
    """
    spec: Dict = {
        "kind": "sharded",
        "shards": ADAPTIVE_STRATEGY_SHARDS,
        "config": {
            "strategy": ADAPTIVE_STRATEGY_INITIAL
            if variant == "adaptive"
            else variant,
            "page_size": ADAPTIVE_STRATEGY_PAGE_SIZE,
            "buffer_percent": ADAPTIVE_STRATEGY_BUFFER_PERCENT,
        },
    }
    if variant == "adaptive":
        spec["adaptive"] = dict(ADAPTIVE_STRATEGY_POLICY)
    index = open_index(spec)
    index.load(points)
    index.reset_statistics()
    for i, op in enumerate(ops):
        # Direct calls, not execute(): a RangeQuery through execute() returns
        # an unconsumed cursor, which would do no I/O.
        if isinstance(op, Update):
            index.update(op.oid, op.new_location)
        else:
            index.range_query(op.window)
        if i % ADAPTIVE_STRATEGY_MAINTENANCE_EVERY == (
            ADAPTIVE_STRATEGY_MAINTENANCE_EVERY - 1
        ):
            index.auto_adapt()
    per_shard = [shard.stats.total_physical_io for shard in index.shards]
    index.validate()
    return {
        "variant": variant,
        "makespan_io": sum(per_shard),
        "shard_io": per_shard,
        "strategies": index.active_strategies(),
        "switches": index.adaptive.switches if index.adaptive is not None else 0,
        "fingerprint": tuple(
            sorted(
                (oid, index.position_of(oid).x, index.position_of(oid).y)
                for oid in index.object_directory()
            )
        ),
    }


def _run_adaptive_strategy(scale: float, seed: int) -> List[MetricRow]:
    """Adaptive per-shard selection vs. every static global strategy.

    Every variant must end on the same object positions: the makespans are
    only comparable if every cell indexes the same data.
    """
    points, ops = adaptive_mixed_workload(scale, seed)
    rows: List[MetricRow] = []
    fingerprints = set()
    for variant in ADAPTIVE_STRATEGY_VARIANTS:
        cell = run_adaptive_variant(variant, points, ops)
        fingerprints.add(cell["fingerprint"])
        rows.append(
            MetricRow(
                x_label="series",
                x_value=variant,
                strategy=variant,
                extras={
                    "makespan": float(cell["makespan_io"]),
                    "shard0_io": float(cell["shard_io"][0]),
                    "shard1_io": float(cell["shard_io"][1]),
                    "switches": float(cell["switches"]),
                },
            )
        )
    if len(fingerprints) != 1:
        raise AssertionError(
            "strategy variants diverged on final object positions — the "
            "comparison is meaningless unless every variant indexes the "
            "same data"
        )
    return rows


def _check_adaptive_strategy(rows: Rows) -> None:
    makespan = _by_series(rows, "makespan")
    switches = _by_series(rows, "switches")
    assert set(makespan) == set(ADAPTIVE_STRATEGY_VARIANTS)
    # Switch cost included, adaptive is below every static global strategy.
    for static in ADAPTIVE_STRATEGY_VARIANTS:
        if static != "adaptive":
            assert makespan["adaptive"] < makespan[static], static
            assert switches[static] == 0
    # Both shards adapted away from the NAIVE start.
    assert switches["adaptive"] >= 2


# ---------------------------------------------------------------------------
# Section 4: analytical cost model vs. measurement
# ---------------------------------------------------------------------------

COST_DISTANCES = (0.003, 0.015, 0.03, 0.06, 0.1, 0.15)

#: Measured counterpart of the analytic rows: GBU at the same movement scales.
_measured_cost = Sweep("distance", _plain("GBU"), "spec", COST_DISTANCES, name="max_distance")


def _run_cost_model(scale: float, seed: int) -> List[MetricRow]:
    index = MovingObjectIndex(IndexConfig(strategy="GBU", page_size=BENCH_PAGE_SIZE))
    index.load(WorkloadGenerator(_base_spec(scale, seed)).initial_objects())
    shape = TreeShape.from_tree(index.tree)
    bottom_up = BottomUpCostModel(shape)
    rows = [
        MetricRow(
            x_label="distance",
            x_value="best-case",
            strategy="TD-analytic",
            avg_update_io=TopDownCostModel(shape).best_case_cost(),
        )
    ]
    for distance in COST_DISTANCES:
        rows.append(
            MetricRow(
                x_label="distance",
                x_value=distance,
                strategy="GBU-analytic",
                avg_update_io=bottom_up.update_cost(distance),
            )
        )
    return rows + _measured_cost(scale, seed)


def _check_cost_model(rows: Rows) -> None:
    series: Dict[str, List[MetricRow]] = {}
    for row in rows:
        series.setdefault(row.strategy, []).append(row)
    td_best_case = series["TD-analytic"][0].avg_update_io
    analytic, measured = series["GBU-analytic"], series["GBU"]

    # The analytical bottom-up cost never exceeds the top-down best case.
    for row in analytic:
        assert row.avg_update_io <= td_best_case

    # The measured GBU update cost is bounded by the top-down best case plus
    # a small allowance for node splits the model does not charge.
    for row in measured:
        assert row.avg_update_io <= td_best_case + 2.0

    # Both the model and the measurement increase with the movement distance.
    model_costs = [row.avg_update_io for row in sorted(analytic, key=lambda r: r.x_value)]
    assert model_costs == sorted(model_costs)
    measured_costs = [row.avg_update_io for row in sorted(measured, key=lambda r: r.x_value)]
    assert measured_costs[-1] > measured_costs[0]


# ---------------------------------------------------------------------------
# Section 3: the naive bottom-up fallback fraction (3.1) and ablations of
# GBU's optimisations (3.2.1)
# ---------------------------------------------------------------------------

def _check_naive_fallback(rows: Rows) -> None:
    fractions = {row.strategy: row.extras["top_down_fraction"] for row in rows}
    assert fractions["NAIVE"] > fractions["LBU"] > fractions["GBU"]
    # The naive strategy loses the majority of its updates to top-down
    # processing (82 % in the paper's full-scale setting).
    assert fractions["NAIVE"] > 0.5
    # GBU handles almost everything bottom-up.
    assert fractions["GBU"] < 0.05


ABLATION_VARIANTS = (
    Series("GBU", "GBU"),
    Series("GBU-no-piggyback", "GBU", params={"piggyback": False}),
    Series("GBU-no-summary-queries", "GBU", config={"use_summary_for_queries": False}),
    Series("GBU-L0", "GBU", params={"level_threshold": 0}),
    Series("GBU-eps0", "GBU", params={"epsilon": 0.0}),
)


def _check_ablations(rows: Rows) -> None:
    by_variant = {row.strategy: row for row in rows}
    baseline = by_variant["GBU"]

    # Forbidding ascent (L=0) pushes far more updates back to top-down and
    # therefore costs update I/O.
    no_ascent = by_variant["GBU-L0"]
    assert no_ascent.extras["top_down_fraction"] > baseline.extras["top_down_fraction"]
    assert no_ascent.avg_update_io >= baseline.avg_update_io

    # Disabling the ε-extension cannot make updates cheaper.
    assert by_variant["GBU-eps0"].avg_update_io >= baseline.avg_update_io * 0.98

    # Disabling summary-assisted queries cannot make queries cheaper.
    assert by_variant["GBU-no-summary-queries"].avg_query_io >= baseline.avg_query_io

    # Disabling piggybacking never helps query cost (it exists to reduce
    # overlap); allow a small tolerance for noise at benchmark scale.
    assert by_variant["GBU-no-piggyback"].avg_query_io >= baseline.avg_query_io * 0.95


# ---------------------------------------------------------------------------
# The table
# ---------------------------------------------------------------------------

_FIGURES: Dict[str, FigureDefinition] = {
    definition.key: definition
    for definition in (
        FigureDefinition(
            "table1", "Workload parameters and their values", "Table 1", "parameter",
            _run_table1, _check_table1,
            notes="Reported verbatim; paper-scale counts are recorded in WorkloadSpec.",
        ),
        FigureDefinition(
            "fig5_epsilon", "Effect of epsilon on update and query cost",
            "Figure 5(a)-(d)", "epsilon",
            Sweep("epsilon", _DEFAULT_SERIES, "params", EPSILON_VALUES), _check_fig5_epsilon,
            expected_shape="GBU lowest update I/O; larger eps helps GBU updates, hurts queries; LBU above TD.",
        ),
        FigureDefinition(
            "fig5_distance", "Effect of the distance threshold D",
            "Figure 5(e)-(f)", "distance threshold",
            Sweep("distance_threshold", _DEFAULT_SERIES, "params", DISTANCE_THRESHOLD_VALUES),
            _check_fig5_distance,
            expected_shape="GBU best throughout; TD/LBU flat (D only applies to GBU).",
        ),
        FigureDefinition(
            "fig5_max_distance", "Effect of the maximum distance moved between updates",
            "Figure 5(g)-(h)", "max distance moved",
            Sweep("max_distance", _DEFAULT_SERIES, "spec", MAX_DISTANCE_VALUES),
            _check_fig5_max_distance,
            expected_shape="All strategies degrade with faster movement; TD degrades the most; GBU best.",
        ),
        FigureDefinition(
            "fig6_level", "Effect of the level threshold (ascending the R-tree)",
            "Figure 6(a)-(b)", "max distance moved",
            Sweep("max_distance", LEVEL_SERIES, "spec", LEVEL_MAX_DISTANCES), _check_fig6_level,
            expected_shape="GBU-3 ~ GBU-2 best; GBU-0 better than LBU; TD worst at high speeds.",
        ),
        FigureDefinition(
            "fig6_distribution", "Effect of the initial data distribution",
            "Figure 6(c)-(d)", "distribution",
            Sweep("distribution", _DEFAULT_SERIES, "spec", DISTRIBUTIONS), _check_fig6_distribution,
            expected_shape="Updates cheapest on uniform; skewed queries cheap (mostly empty space).",
        ),
        FigureDefinition(
            "fig6_updates", "Effect of the number of updates",
            "Figure 6(e)-(f)", "number of updates",
            Sweep("num_updates", _DEFAULT_SERIES, "spec", _update_volumes), _check_fig6_updates,
            expected_shape="Costs grow with update volume; GBU lowest update cost and best query cost after many updates.",
        ),
        FigureDefinition(
            "fig6_buffers", "Effect of the buffer size",
            "Figure 6(g)-(h)", "buffer (% of database)",
            Sweep("buffer_percent", _DEFAULT_SERIES, "config", BUFFER_PERCENTAGES), _check_fig6_buffers,
            expected_shape="Everything improves with buffering; LBU drops below TD once a buffer exists; GBU best.",
        ),
        FigureDefinition(
            "fig7_scalability", "Scalability with the dataset size",
            "Figure 7(a)-(b)", "number of objects",
            Sweep("num_objects", _DEFAULT_SERIES, "spec", _dataset_sizes), _check_fig7_scalability,
            expected_shape="Update cost grows slowly with dataset size; GBU remains best; query costs converge.",
        ),
        FigureDefinition(
            "fig8_throughput", "Throughput for varying update/query mixes under DGL",
            "Figure 8", "update fraction",
            _run_fig8_throughput, _check_fig8_throughput,
            expected_shape="TD/LBU throughput falls as updates dominate; GBU rises and stays above TD.",
        ),
        FigureDefinition(
            "contention_sweep", "Throughput vs. number of concurrent clients (online engine)",
            "Section 3.2.2", "number of clients",
            _run_contention_sweep, _check_contention_sweep,
            notes="Online multi-client streams; every operation predicts and acquires its DGL lock scope.",
            expected_shape="Throughput grows with clients until contention saturates; GBU >= LBU >= TD throughout.",
        ),
        FigureDefinition(
            "batch_throughput", "Conflict-aware batch scheduling vs. serial group execution",
            "beyond paper", "strategy",
            _run_batch_throughput, _check_batch_throughput,
            notes="Group-by-leaf buckets scheduled as concurrent virtual operations under group_lock_scope().",
            expected_shape="Concurrent makespan strictly below serial for every strategy.",
        ),
        FigureDefinition(
            "shard_scaling", "Concurrent makespan vs. number of spatial shards",
            "beyond paper", "number of shards",
            _run_shard_scaling, _check_shard_scaling,
            notes=(
                "ShardedIndex over a uniform grid, TD strategy, 0% buffer, fixed "
                "client count; per-shard DGL lock namespaces, migrations lock both "
                "shards.  Hotspot variant shows the skew caveat (imbalance column)."
            ),
            expected_shape=(
                "Uniform: makespan at 4+ shards strictly below 1 shard (shorter "
                "per-shard trees + conflict isolation).  Hotspot: smaller win, "
                "higher imbalance."
            ),
        ),
        FigureDefinition(
            "rebalance_hotspot", "Online shard rebalancing under the hotspot workload",
            "beyond paper", "series",
            _run_rebalance_hotspot, _check_rebalance_hotspot,
            notes=(
                "4 shards, TD, 1% buffer, small pages, fixed client count; the "
                "rebalancer monitors per-shard load, re-cuts the partition "
                "boundaries and migrates displaced objects as conflict-scheduled "
                "bulk leaf groups interleaved with the live clients."
            ),
            expected_shape=(
                "Rebalanced hotspot makespan strictly below the static hotspot "
                "makespan and within 1.5x of the uniform-workload makespan; final "
                "imbalance drops towards 1."
            ),
        ),
        FigureDefinition(
            "adaptive_strategy",
            "Adaptive per-shard strategy selection vs. static global strategies",
            "beyond paper", "series",
            _run_adaptive_strategy, _check_adaptive_strategy,
            notes=(
                "2 shards, 8% buffer: a hot-cell update shard (cached working set "
                "-> TD wins) next to a uniform query-heavy shard (buffer-thrashing "
                "-> GBU's summary-guided queries win).  The adaptive variant starts "
                "on NAIVE and the cost-model controller hot-swaps each shard; the "
                "switch cost is inside the measured makespan."
            ),
            expected_shape=(
                "Adaptive total I/O makespan strictly below every static global "
                "strategy (TD loses the query shard, GBU/LBU/NAIVE lose the "
                "update shard)."
            ),
        ),
        FigureDefinition(
            "cost_model", "Analytical bottom-up cost vs. measured GBU cost",
            "Section 4", "distance moved",
            _run_cost_model, _check_cost_model,
            expected_shape="Bottom-up worst case stays below the top-down best case (2h+1).",
        ),
        FigureDefinition(
            "naive_fallback", "Fraction of bottom-up updates degrading to top-down",
            "Section 3.1 (82% observation)", "strategy",
            Sweep(
                "strategy", _plain("NAIVE", "LBU", "GBU"),
                columns=("avg_update_io",), outcomes=("top_down", "in_place"),
            ),
            _check_naive_fallback,
            expected_shape="NAIVE falls back far more often than LBU, which falls back more often than GBU.",
        ),
        FigureDefinition(
            "ablations", "GBU optimisation ablations", "Section 3.2.1", "variant",
            Sweep("variant", ABLATION_VARIANTS, columns=("avg_update_io", "avg_query_io")), _check_ablations,
            expected_shape="Disabling piggybacking/summary queries/ascent each costs update or query I/O.",
        ),
    )
}


def all_figures() -> List[FigureDefinition]:
    """Every figure definition, in table order."""
    return list(_FIGURES.values())


def get_figure(key: str) -> FigureDefinition:
    """Look up a figure definition by key (raises ``KeyError`` with guidance)."""
    try:
        return _FIGURES[key]
    except KeyError:
        raise KeyError(
            f"unknown figure {key!r}; available: {', '.join(sorted(_FIGURES))}"
        ) from None
