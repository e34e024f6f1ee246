"""Update-outcome counts are part of the shard's ``IOStatistics``.

Each update's class (in place, extended, sibling shift, ascended, top-down,
inserted new) is counted in ``stats.extra`` beside the page counters, so the
counts window, merge and travel like the I/O: they survive a strategy
switch, agree between the serial and the process executor, and a batch's
``BatchReport.io`` delta carries exactly that batch's mix.
"""

import functools
from collections import Counter

import pytest

from repro.api import Update
from repro.core import IndexConfig
from repro.shard import GridPartitioner, ShardedIndex
from repro.update import UpdateOutcome, outcome_fractions
from repro.workload import WorkloadGenerator, WorkloadSpec

from tests.conftest import SMALL_PAGE_SIZE

SPEC = WorkloadSpec(
    num_objects=400, num_updates=600, num_queries=0, max_distance=0.03, seed=5
)


def two_shards():
    config = IndexConfig(strategy="GBU", page_size=SMALL_PAGE_SIZE)
    return ShardedIndex(config, partitioner=GridPartitioner(2, 1))


@functools.lru_cache(maxsize=None)
def switched_run(backend):
    """Half the updates under GBU, a switch to LBU, the other half.

    Returns the merged counts before and after the switch, at the end, each
    shard's strategy view, and the per-update outcomes ``update`` returned.
    """
    index = two_shards()
    generator = WorkloadGenerator(SPEC)
    index.load(generator.initial_objects())
    if backend == "process":
        index.set_parallel("process", workers=2)
    try:
        updates = list(generator.updates())
        half = len(updates) // 2
        returned = [index.update(oid, new) for oid, _old, new in updates[:half]]
        before = index.io_snapshot().extra
        index.set_strategy("LBU")
        after_switch = index.io_snapshot().extra
        returned += [index.update(oid, new) for oid, _old, new in updates[half:]]
        views = [dict(shard.strategy.outcome_counts) for shard in index.shards]
        final = index.io_snapshot().extra
    finally:
        index.detach_parallel()
    return before, after_switch, final, views, returned


class TestStrategySwitch:
    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_counts_survive_the_switch(self, backend):
        before, after_switch, final, views, returned = switched_run(backend)
        assert before and after_switch == before
        # Every in-shard update is counted once, across the switch; a
        # migration is the coordinator's (``index.migrations``).
        in_shard = Counter(
            outcome.value for outcome in returned if outcome is not UpdateOutcome.MIGRATED
        )
        assert final == dict(in_shard)
        merged_views = Counter()
        for view in views:
            merged_views.update({outcome.value: n for outcome, n in view.items() if n})
        assert dict(merged_views) == final

    def test_serial_and_process_agree(self):
        assert switched_run("process") == switched_run("serial")


class TestBatchDelta:
    def test_batch_report_carries_its_own_mix(self):
        index = two_shards()
        generator = WorkloadGenerator(SPEC)
        index.load(generator.initial_objects())
        updates = [Update(oid, new) for oid, _old, new in generator.updates()]
        first = index.execute_many(updates[:300])
        between = index.io_snapshot().extra
        second = index.execute_many(updates[300:])
        for report in (first, second):
            applied = report.updates - report.coalesced - report.migrations
            assert sum(report.io.extra.values()) == applied
        assert first.io.extra == between
        total = Counter(first.io.extra) + Counter(second.io.extra)
        assert dict(total) == index.io_snapshot().extra
        assert outcome_fractions(second.io) == pytest.approx(
            {name: n / sum(second.io.extra.values()) for name, n in second.io.extra.items()}
        )

    def test_reset_statistics_clears_the_counts(self):
        index = two_shards()
        generator = WorkloadGenerator(SPEC)
        index.load(generator.initial_objects())
        index.execute_many(Update(oid, new) for oid, _old, new in generator.updates())
        assert index.io_snapshot().extra
        index.reset_statistics()
        assert index.io_snapshot().extra == {}
        assert outcome_fractions(index.io_snapshot()) == {}
