"""Tests for the deterministic discrete-event operation scheduler."""

import pytest

from repro.concurrency import LockMode, OperationScheduler, VirtualOperation

#: The synthetic disk every canned operation charges its I/O to.
DISK = {"io": 0}


def make_scheduler(**kwargs):
    """A scheduler that measures the synthetic disk's I/O counter."""
    return OperationScheduler(lambda: DISK["io"], **kwargs)


def op(io, granule=None, mode=LockMode.EXCLUSIVE, on_execute=None):
    """A canned operation: fixed lock set, fixed I/O cost, runs a callback."""
    pairs = [(granule, mode)] if granule is not None else []

    def work():
        DISK["io"] += io
        if on_execute is not None:
            on_execute()

    return VirtualOperation("synthetic", lambda: list(pairs), work)


class TestScheduler:
    def test_independent_operations_run_in_parallel(self):
        scheduler = make_scheduler(num_clients=4, time_per_io=0.01, cpu_time_per_op=0.0)
        result = scheduler.run([op(io=10, granule=i) for i in range(4)])
        # Four non-conflicting operations of 0.1s each on four clients: the
        # makespan is one operation's duration.
        assert result.makespan == pytest.approx(0.1)
        assert result.throughput == pytest.approx(40.0)
        assert result.lock_waits == 0

    def test_conflicting_operations_serialise(self):
        scheduler = make_scheduler(num_clients=4, time_per_io=0.01, cpu_time_per_op=0.0)
        result = scheduler.run([op(io=10, granule="hot") for _ in range(4)])
        assert result.makespan == pytest.approx(0.4)
        assert result.lock_waits > 0

    def test_shared_locks_do_not_serialise(self):
        scheduler = make_scheduler(num_clients=4, time_per_io=0.01, cpu_time_per_op=0.0)
        result = scheduler.run(
            [op(io=10, granule="hot", mode=LockMode.SHARED) for _ in range(4)]
        )
        assert result.makespan == pytest.approx(0.1)

    def test_single_client_serialises_everything(self):
        scheduler = make_scheduler(num_clients=1, time_per_io=0.01, cpu_time_per_op=0.0)
        result = scheduler.run([op(io=5, granule=i) for i in range(6)])
        assert result.makespan == pytest.approx(0.3)

    def test_more_clients_never_reduce_throughput(self):
        def traces():
            return [op(io=4, granule=i % 7) for i in range(50)]

        few = make_scheduler(num_clients=2, time_per_io=0.01).run(traces())
        many = make_scheduler(num_clients=16, time_per_io=0.01).run(traces())
        assert many.throughput >= few.throughput - 1e-9

    def test_execution_is_real_and_ordered_by_lock_grants(self):
        """Conflicting operations mutate shared state in lock-grant order."""
        log = []
        ops = [
            op(10, granule="hot", on_execute=lambda i=i: log.append(i))
            for i in range(4)
        ]
        make_scheduler(num_clients=4, time_per_io=0.01).run(ops)
        assert log == [0, 1, 2, 3]

    def test_lock_scope_is_predicted_at_every_dispatch_attempt(self):
        calls = []

        def scope():
            calls.append(len(calls))
            return [("hot", LockMode.EXCLUSIVE)]

        probe = VirtualOperation("probe", scope, lambda: None)
        scheduler = make_scheduler(num_clients=2, time_per_io=0.01, cpu_time_per_op=0.0)
        result = scheduler.run([op(io=10, granule="hot"), probe])
        # Predicted afresh at the draw, at the retry pass of the same tick
        # (still blocked) and at the retry after the release (granted).
        assert len(calls) == 3
        assert result.kinds == {"synthetic": 1, "probe": 1}

    def test_operation_count_and_client_reports(self):
        scheduler = make_scheduler(num_clients=2, time_per_io=0.01)
        result = scheduler.run([op(io=1, granule=1), op(io=1, granule=2)])
        assert result.operations == 2
        assert sum(report.operations for report in result.clients.values()) == 2
        assert result.total_physical_io == 2

    def test_empty_stream(self):
        result = make_scheduler(num_clients=2).run([])
        assert result.operations == 0
        assert result.throughput == 0.0

    def test_utilisation_bounded_by_one(self):
        traces = [op(io=3, granule=i % 3) for i in range(30)]
        result = make_scheduler(num_clients=5, time_per_io=0.01).run(traces)
        assert 0.0 < result.utilisation <= 1.0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            make_scheduler(num_clients=0)
        with pytest.raises(ValueError):
            make_scheduler(time_per_io=-1.0)

    def test_determinism(self):
        def traces():
            return [op(io=(i % 5) + 1, granule=i % 4) for i in range(60)]

        first = make_scheduler(num_clients=6, time_per_io=0.01).run(traces())
        second = make_scheduler(num_clients=6, time_per_io=0.01).run(traces())
        assert first.makespan == second.makespan
        assert first.lock_waits == second.lock_waits


class TestPerClientStreams:
    def test_streams_are_consumed_per_client(self):
        scheduler = make_scheduler(num_clients=3, time_per_io=0.01, cpu_time_per_op=0.0)
        streams = [[op(io=10, granule=f"g{c}") for _ in range(2)] for c in range(3)]
        result = scheduler.run_streams(streams)
        assert result.operations == 6
        assert result.num_clients == 3
        # Each client worked through its own two non-conflicting operations.
        assert result.makespan == pytest.approx(0.2)
        for report in result.clients.values():
            assert report.operations == 2

    def test_client_count_follows_streams(self):
        scheduler = make_scheduler(num_clients=50)
        result = scheduler.run_streams([[op(io=1, granule=1)]])
        assert result.num_clients == 1

    def test_uneven_streams(self):
        scheduler = make_scheduler(num_clients=2, time_per_io=0.01, cpu_time_per_op=0.0)
        result = scheduler.run_streams([[op(io=10, granule="a")], []])
        assert result.operations == 1
        assert result.makespan == pytest.approx(0.1)

    def test_empty_streams_rejected(self):
        with pytest.raises(ValueError):
            make_scheduler().run_streams([])

    def test_conflicting_streams_serialise_across_clients(self):
        scheduler = make_scheduler(num_clients=2, time_per_io=0.01, cpu_time_per_op=0.0)
        streams = [[op(io=10, granule="hot")], [op(io=10, granule="hot")]]
        result = scheduler.run_streams(streams)
        assert result.makespan == pytest.approx(0.2)
        assert result.lock_waits == 1
