"""Structured error taxonomy of the typed operation API.

Every failure the public surface can signal is an :class:`OperationError`
subclass, so callers catch one base class instead of fishing ``KeyError`` /
``ValueError`` / ``TypeError`` out of deep call stacks.  Each concrete error
*also* inherits the builtin exception the pre-v2 tuple API raised for the
same condition (``UnknownObjectError`` is a ``KeyError``, and so on), which
is what lets the legacy surface keep its exact observable behaviour while
the typed surface documents one coherent taxonomy.

>>> from repro.api.errors import OperationError, UnknownObjectError
>>> issubclass(UnknownObjectError, OperationError)
True
>>> issubclass(UnknownObjectError, KeyError)  # legacy-compatible
True
>>> raise UnknownObjectError(42)
Traceback (most recent call last):
    ...
repro.api.errors.UnknownObjectError: object 42 is not in the index
"""

from __future__ import annotations

from typing import Any


class OperationError(Exception):
    """Base class of every error the typed operation API raises."""


class UnknownObjectError(OperationError, KeyError):
    """An ``Update`` or strict ``Delete`` named an object id that is not indexed."""

    def __init__(self, oid: int) -> None:
        super().__init__(oid)
        self.oid = oid

    def __str__(self) -> str:
        return f"object {self.oid} is not in the index"


class DuplicateObjectError(OperationError, ValueError):
    """An ``Insert`` named an object id that is already indexed."""

    def __init__(self, oid: int) -> None:
        super().__init__(f"object {oid} already exists; use update()")
        self.oid = oid


class InvalidWindowError(OperationError, TypeError):
    """A ``RangeQuery`` carried something that is not a query window."""

    def __init__(self, window: Any) -> None:
        super().__init__(f"query operand must be a Rect, got {window!r}")
        self.window = window


class NonFiniteCoordinateError(OperationError, ValueError):
    """A position, kNN point or query window has a NaN or infinite coordinate.

    Raised when the operation is built (and by the facade's ``insert`` /
    ``update``), so no counter, position or page has changed yet.  Node
    entries must be finite: the geometry kernels' answers assume it.
    """

    def __init__(self, operand: Any) -> None:
        super().__init__(f"coordinates must be finite, got {operand!r}")
        self.operand = operand


class InvalidNeighborCountError(OperationError, ValueError):
    """A ``KNN`` asked for a negative or non-integer number of neighbours."""

    def __init__(self, k: Any) -> None:
        super().__init__(f"k must be a non-negative integer, got {k!r}")
        self.k = k


class InvalidOperationError(OperationError, ValueError):
    """An operation could not be parsed (unknown kind, wrong arity, bad operand)."""

    def __init__(self, message: str) -> None:
        super().__init__(message)


class CheckpointError(OperationError, ValueError):
    """A checkpoint file could not be written or restored.

    Raised by :func:`repro.core.persistence.load_index` for unsupported
    format versions and truncated/garbled checkpoint documents.  Inherits
    ``ValueError`` because that is what ``load_index`` raised pre-durability,
    so legacy ``except ValueError`` handlers keep working.
    """

    def __init__(self, message: str) -> None:
        super().__init__(message)


class CorruptLogError(OperationError, ValueError):
    """A write-ahead-log frame is structurally corrupt.

    Distinct from a *torn* frame (an incomplete tail write, which recovery
    silently truncates at): a corrupt frame passes the length/CRC checks yet
    decodes to nonsense — an unknown record kind, a record overrunning its
    frame, or a log sequence number running backwards.
    """

    def __init__(self, message: str) -> None:
        super().__init__(message)


class WorkerFailedError(OperationError, RuntimeError):
    """A shard worker process of the process backend failed.

    Raised by :class:`repro.shard.parallel.ProcessBackend` in two cases the
    message tells apart.  A worker that **died** or **timed out** (no reply
    within the dispatch deadline) fails the whole backend: its workers are
    stopped, every later dispatch and ``detach_parallel()`` raise this error
    again, and the tree state the workers held since attach is lost — reload
    the index from its checkpoint/WAL.  A shard call that merely raised in a
    live worker surfaces as the same type with the remote traceback, and the
    backend keeps serving.  Inherits ``RuntimeError`` because that is what
    the backend raised before the failure had a type.
    """

    def __init__(self, message: str) -> None:
        super().__init__(message)


__all__ = [
    "OperationError",
    "UnknownObjectError",
    "DuplicateObjectError",
    "InvalidWindowError",
    "NonFiniteCoordinateError",
    "InvalidNeighborCountError",
    "InvalidOperationError",
    "CheckpointError",
    "CorruptLogError",
    "WorkerFailedError",
]
