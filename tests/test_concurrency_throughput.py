"""Integration tests for the online engine's throughput (Figure 8 machinery)."""

import pytest

from repro.concurrency import OnlineOperationEngine
from repro.core import IndexConfig
from repro.shard import ShardedIndex
from repro.workload import WorkloadGenerator, WorkloadSpec

from tests.conftest import SMALL_PAGE_SIZE


def loaded(strategy, num_objects=800, seed=3):
    spec = WorkloadSpec(
        num_objects=num_objects, num_updates=0, num_queries=0, seed=seed, query_max_side=0.15
    )
    generator = WorkloadGenerator(spec)
    index = ShardedIndex(
        IndexConfig(strategy=strategy, page_size=SMALL_PAGE_SIZE), num_shards=1
    )
    index.load(generator.initial_objects())
    return index, generator


def run_mix(index, generator, num_operations, update_fraction, num_clients):
    """The generator's mixed stream run online over *num_clients* clients."""
    engine = OnlineOperationEngine(index, num_clients=num_clients)
    return engine.run(generator.operations(num_operations, update_fraction))


class TestEndToEnd:
    def test_throughput_positive_for_all_strategies(self):
        for strategy in ("TD", "NAIVE", "LBU", "GBU"):
            index, generator = loaded(strategy, num_objects=500)
            result = run_mix(index, generator, 150, 0.5, 8)
            assert result.throughput > 0
            assert result.operations == 150

    def test_execution_is_online_and_leaves_the_index_valid(self):
        """The engine mutates the real index: positions advance and the
        structural invariants hold afterwards."""
        index, generator = loaded("GBU")
        before = {oid: index.position_of(oid) for oid in range(len(index))}
        run_mix(index, generator, 120, 1.0, 8)
        index.validate()
        moved = sum(
            1 for oid, position in before.items() if index.position_of(oid) != position
        )
        assert moved > 0

    def test_deterministic_makespan_across_repeated_runs(self):
        """Same seed ⇒ identical makespan, bit for bit (acceptance criterion)."""
        outcomes = []
        for _ in range(2):
            index, generator = loaded("GBU", num_objects=600, seed=11)
            outcomes.append(run_mix(index, generator, 200, 0.6, 16))
        assert outcomes[0].makespan == outcomes[1].makespan
        assert outcomes[0].lock_waits == outcomes[1].lock_waits
        assert outcomes[0].total_physical_io == outcomes[1].total_physical_io

    def test_figure8_ordering_at_fifty_clients(self):
        """The paper's Figure 8 ordering: GBU ≥ LBU ≥ TD ops/sec at 50
        virtual clients on an update-heavy mix (acceptance criterion)."""
        throughput = {}
        for strategy in ("TD", "LBU", "GBU"):
            index, generator = loaded(strategy, num_objects=1500, seed=5)
            throughput[strategy] = run_mix(index, generator, 400, 0.8, 50).throughput
        assert throughput["GBU"] >= throughput["LBU"] >= throughput["TD"]

    def test_pure_query_mix_equalises_td_and_lbu(self):
        """With no updates, TD and LBU answer queries identically, so their
        scheduled throughput must match exactly."""
        outcomes = {}
        for strategy in ("TD", "LBU"):
            index, generator = loaded(strategy, num_objects=500, seed=9)
            outcomes[strategy] = run_mix(index, generator, 100, 0.0, 8)
        assert outcomes["TD"].throughput == pytest.approx(outcomes["LBU"].throughput, rel=1e-6)

    def test_more_clients_never_reduce_throughput(self):
        results = {}
        for clients in (2, 16):
            index, generator = loaded("GBU", num_objects=600, seed=7)
            results[clients] = run_mix(index, generator, 150, 0.5, clients)
        assert results[16].throughput >= results[2].throughput - 1e-9
