"""Unit tests for the typed operation model, error taxonomy and result types."""

import pytest

from repro.api import (
    KNN,
    BatchReport,
    Delete,
    DuplicateObjectError,
    Insert,
    InvalidNeighborCountError,
    InvalidOperationError,
    InvalidWindowError,
    OperationError,
    OperationResult,
    QueryCursor,
    RangeQuery,
    UnknownObjectError,
    Update,
)
from repro.geometry import Point, Rect
from repro.storage import IOStatistics


class TestOperationModel:
    def test_kind_labels_are_the_scheduler_report_labels(self):
        point = Point(0.3, 0.4)
        assert Update(1, point).kind == "update"
        assert Insert(2, point).kind == "insert"
        assert Delete(3).kind == "delete"
        assert RangeQuery(Rect(0.1, 0.1, 0.5, 0.5)).kind == "query"
        assert KNN(point, 4).kind == "knn"

    def test_operations_are_frozen_and_hashable(self):
        op = Update(1, Point(0.3, 0.4))
        with pytest.raises(Exception):
            op.oid = 2
        assert len({op, Update(1, Point(0.3, 0.4)), Delete(1)}) == 2

    def test_range_query_validates_the_window(self):
        with pytest.raises(InvalidWindowError):
            RangeQuery((0.1, 0.1, 0.5, 0.5))
        with pytest.raises(TypeError):  # taxonomy inherits the legacy builtin
            RangeQuery("not a window")

    def test_knn_validates_the_neighbour_count(self):
        with pytest.raises(InvalidNeighborCountError):
            KNN(Point(0.5, 0.5), -1)
        with pytest.raises(InvalidNeighborCountError):
            KNN(Point(0.5, 0.5), True)  # bools are not counts
        with pytest.raises(InvalidNeighborCountError):
            KNN(Point(0.5, 0.5), 2.5)
        assert KNN(Point(0.5, 0.5), 0).k == 0  # permissive like the facade


class TestErrorTaxonomy:
    def test_every_error_is_an_operation_error(self):
        for error_type in (
            UnknownObjectError,
            DuplicateObjectError,
            InvalidWindowError,
            InvalidNeighborCountError,
            InvalidOperationError,
        ):
            assert issubclass(error_type, OperationError)

    def test_errors_inherit_their_legacy_builtins(self):
        assert issubclass(UnknownObjectError, KeyError)
        assert issubclass(DuplicateObjectError, ValueError)
        assert issubclass(InvalidWindowError, TypeError)
        assert issubclass(InvalidNeighborCountError, ValueError)
        assert issubclass(InvalidOperationError, ValueError)

    def test_unknown_object_error_carries_the_oid(self):
        error = UnknownObjectError(42)
        assert error.oid == 42
        assert "42" in str(error)


class TestQueryCursor:
    def test_fetch_all_consumed_exhausted(self):
        cursor = QueryCursor(iter([5, 3, 1, 2]))
        assert cursor.fetch(2) == [5, 3]
        assert cursor.consumed == 2
        assert not cursor.exhausted
        assert cursor.all() == [1, 2]
        assert cursor.consumed == 4
        assert cursor.exhausted

    def test_exhausted_cursor_keeps_returning_empty(self):
        cursor = QueryCursor(iter([1]))
        assert list(cursor) == [1]
        assert cursor.fetch(3) == []
        assert cursor.all() == []
        with pytest.raises(StopIteration):
            next(cursor)

    def test_fetch_beyond_the_source_stops_short(self):
        cursor = QueryCursor(iter([1, 2]))
        assert cursor.fetch(10) == [1, 2]
        assert cursor.exhausted

    def test_fetch_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            QueryCursor(iter([])).fetch(-1)

    def test_cursor_is_lazy(self):
        consumed = []

        def source():
            for value in (1, 2, 3):
                consumed.append(value)
                yield value

        cursor = QueryCursor(source())
        assert consumed == []
        next(cursor)
        assert consumed == [1]


class TestResultEnvelopes:
    def test_operation_result_cursor_accessor(self):
        query = RangeQuery(Rect(0, 0, 1, 1))
        result = OperationResult(query, value=QueryCursor(iter([1])))
        assert result.ok
        assert result.cursor().all() == [1]
        bad = OperationResult(Delete(1), value=True)
        with pytest.raises(TypeError):
            bad.cursor()

    def test_operation_result_describe(self):
        failed = OperationResult(Delete(1), error=UnknownObjectError(1))
        assert not failed.ok
        assert "error" in failed.describe()

    def test_batch_report_counts(self):
        report = BatchReport(
            updates=10, inserts=2, deletes=1, coalesced=3, groups=4,
            largest_group=5, residuals=2, migrations=1,
        )
        report.queries.append([1, 2])
        report.neighbors.append([(0.1, 7)])
        assert report.operations == 10 + 2 + 1 + 1 + 1
        assert "knn=1" in report.describe()


class TestPicklability:
    """Operations and result envelopes cross process boundaries intact.

    The parallel shard-execution backend (``repro.shard.parallel``) ships
    commands and results between the coordinator and its worker processes by
    pickling them, so every value object of the typed API must round-trip.
    """

    OPERATIONS = [
        Insert(7, Point(0.1, 0.2)),
        Update(7, Point(0.3, 0.4)),
        Delete(7),
        RangeQuery(Rect(0.1, 0.1, 0.5, 0.5)),
        KNN(Point(0.25, 0.75), 5),
    ]

    def test_every_operation_round_trips(self):
        import pickle

        for operation in self.OPERATIONS:
            clone = pickle.loads(pickle.dumps(operation))
            assert clone == operation
            assert type(clone) is type(operation)

    def test_operation_result_round_trips(self):
        import pickle

        from repro.update import UpdateOutcome

        result = OperationResult(
            Update(3, Point(0.2, 0.9)), outcome=UpdateOutcome.IN_PLACE
        )
        clone = pickle.loads(pickle.dumps(result))
        assert clone == result
        assert clone.ok

    def test_batch_report_round_trips(self):
        import pickle

        report = BatchReport(
            updates=5,
            queries=[[1, 2], []],
            neighbors=[[(0.1, 4)]],
            coalesced=1,
            groups=2,
            largest_group=3,
            residuals=1,
            io=IOStatistics(physical_reads=3),
        )
        clone = pickle.loads(pickle.dumps(report))
        assert clone == report
        assert clone.io.as_dict() == report.io.as_dict()
