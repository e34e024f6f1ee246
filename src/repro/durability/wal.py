"""Append-only write-ahead log of typed index operations.

The frozen :class:`~repro.api.operations.Operation` dataclasses are already
the system's canonical description of a mutation, so they are the log record
too — this module only gives them a durable binary shape.  A log file is a
sequence of **frames**; each frame is one commit unit (a single routed
operation, or a whole batch dispatch under group commit) and is written as::

    <I body_length> <I crc32(body)>      frame header (8 bytes)
    <Q lsn> <I record_count>             body prefix  (12 bytes, CRC-covered)
    record*                              CRC-covered records

Records are fixed little-endian structs keyed by a kind byte:

========  ======================  ==========================================
kind      payload                 replay semantics
========  ======================  ==========================================
insert    ``<Q oid><d x><d y>``   upsert the object at (x, y)
update    ``<Q oid><d x><d y>``   upsert the object at (x, y)
delete    ``<Q oid>``             remove the object (no-op when absent)
migr_in   ``<Q oid><d x><d y>``   shard-local half of a migration: arrive
migr_out  ``<Q oid>``             shard-local half of a migration: depart
repart    ``<I len><bytes json>`` install this partitioner spec (meta log)
set_strat ``<I len><bytes name>`` switch the shard's live update strategy
========  ======================  ==========================================

Two corruption classes are kept deliberately distinct:

* a **torn frame** — the tail of a log whose last write never completed
  (short header, body running past EOF, CRC mismatch).  This is the normal
  signature of a crash; :func:`read_frames` stops cleanly at the first torn
  frame and recovery replays the intact prefix.  A :class:`WriteAheadLog`
  reopening such a file truncates it to that prefix
  (:func:`intact_prefix_length`) before appending, so frames logged after
  a recovery never land beyond the tear where a second recovery would
  miss them.
* a **corrupt frame** — a frame that passes the length and CRC checks yet
  decodes to nonsense (unknown kind byte, record overrunning the body, LSN
  running backwards).  That is media/logic corruption, not a crash, and
  always raises :class:`~repro.api.errors.CorruptLogError`.

Sync policy is the writer's knob (see
:class:`~repro.durability.commit.DurabilityManager`): the log itself only
exposes :meth:`WriteAheadLog.append` (buffered write + OS flush) and
:meth:`WriteAheadLog.sync` (fsync).
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, BinaryIO, Dict, Iterator, List, Sequence, Tuple, Union

from repro.api.errors import CorruptLogError
from repro.geometry import Point

#: Writer sync policies: ``always`` fsyncs every frame; ``group`` fsyncs once
#: per dirty log when the facade *call* that appended the frames returns (the
#: call is the group — a batch frame logged outside such a call is synced at
#: once) and every ``group_size`` single-operation frames; ``none`` never
#: fsyncs (the OS decides; an OS crash may lose the tail).  A ``group`` call
#: that returned is durable in full; one that did not may survive as any
#: per-log prefix of its frames, which recovery merges without losing or
#: duplicating an object (see :mod:`repro.durability.commit`).
SYNC_POLICIES: Tuple[str, ...] = ("always", "group", "none")

KIND_INSERT = "insert"
KIND_UPDATE = "update"
KIND_DELETE = "delete"
KIND_MIGRATE_IN = "migrate_in"
KIND_MIGRATE_OUT = "migrate_out"
KIND_REPARTITION = "repartition"
KIND_SET_STRATEGY = "set_strategy"

_KIND_CODES: Dict[str, int] = {
    KIND_INSERT: 1,
    KIND_UPDATE: 2,
    KIND_DELETE: 3,
    KIND_MIGRATE_IN: 4,
    KIND_MIGRATE_OUT: 5,
    KIND_REPARTITION: 6,
    KIND_SET_STRATEGY: 7,
}
_CODE_KINDS: Dict[int, str] = {code: kind for kind, code in _KIND_CODES.items()}

#: Kinds whose record carries a position.
_POINT_KINDS = frozenset((KIND_INSERT, KIND_UPDATE, KIND_MIGRATE_IN))
#: Kinds whose record carries only the object id.
_OID_KINDS = frozenset((KIND_DELETE, KIND_MIGRATE_OUT))

_FRAME_HEADER = struct.Struct("<II")  # body length, crc32(body)
_BODY_PREFIX = struct.Struct("<QI")  # lsn, record count
_POINT_RECORD = struct.Struct("<BQdd")  # kind, oid, x, y
_OID_RECORD = struct.Struct("<BQ")  # kind, oid
_PAYLOAD_HEADER = struct.Struct("<BI")  # kind, payload length

#: Upper bound on a sane frame body; anything larger read back from disk is
#: treated as a torn length field rather than attempted as an allocation.
MAX_FRAME_BODY = 64 * 1024 * 1024


@dataclass(frozen=True)
class LogRecord:
    """One logged mutation (shard-local) or metadata event.

    ``oid``/``x``/``y`` are meaningful for the object kinds; ``payload``
    carries the UTF-8 JSON document of a ``repartition`` record.
    """

    kind: str
    oid: int = 0
    x: float = 0.0
    y: float = 0.0
    payload: bytes = b""

    def position(self) -> Point:
        """The record's position as a :class:`~repro.geometry.Point`."""
        return Point(self.x, self.y)


# ----------------------------------------------------------------------
# Record constructors (the vocabulary the facade logs with)
# ----------------------------------------------------------------------
def insert_record(oid: int, location: Point) -> LogRecord:
    return LogRecord(KIND_INSERT, oid=oid, x=location.x, y=location.y)


def update_record(oid: int, new_location: Point) -> LogRecord:
    return LogRecord(KIND_UPDATE, oid=oid, x=new_location.x, y=new_location.y)


def delete_record(oid: int) -> LogRecord:
    return LogRecord(KIND_DELETE, oid=oid)


def migrate_in_record(oid: int, location: Point) -> LogRecord:
    return LogRecord(KIND_MIGRATE_IN, oid=oid, x=location.x, y=location.y)


def migrate_out_record(oid: int) -> LogRecord:
    return LogRecord(KIND_MIGRATE_OUT, oid=oid)


def repartition_record(spec: Dict[str, Any]) -> LogRecord:
    return LogRecord(
        KIND_REPARTITION, payload=json.dumps(spec, sort_keys=True).encode("utf-8")
    )


def set_strategy_record(name: str) -> LogRecord:
    """A live strategy switch on the logging shard (payload = strategy name).

    Logged by ``set_strategy`` so recovery replays the log tail into the
    strategy that was active when each subsequent record was written, and
    recovers the shard with the strategy that was live at the crash.
    """
    return LogRecord(KIND_SET_STRATEGY, payload=name.upper().encode("utf-8"))


# ----------------------------------------------------------------------
# Binary codec
# ----------------------------------------------------------------------
def encode_record(record: LogRecord) -> bytes:
    """The binary image of one record."""
    code = _KIND_CODES.get(record.kind)
    if code is None:
        raise ValueError(f"unknown log record kind {record.kind!r}")
    if record.kind in _POINT_KINDS:
        return _POINT_RECORD.pack(code, record.oid, record.x, record.y)
    if record.kind in _OID_KINDS:
        return _OID_RECORD.pack(code, record.oid)
    return _PAYLOAD_HEADER.pack(code, len(record.payload)) + record.payload


def encode_frame(lsn: int, records: Sequence[LogRecord]) -> bytes:
    """One commit unit as a length-prefixed, CRC-checked frame."""
    body = _BODY_PREFIX.pack(lsn, len(records)) + b"".join(
        encode_record(record) for record in records
    )
    return _FRAME_HEADER.pack(len(body), zlib.crc32(body)) + body


def _decode_body(body: bytes, where: str) -> Tuple[int, List[LogRecord]]:
    """Decode a CRC-valid frame body; structural nonsense is corruption."""
    lsn, count = _BODY_PREFIX.unpack_from(body, 0)
    offset = _BODY_PREFIX.size
    records: List[LogRecord] = []
    for _ in range(count):
        if offset >= len(body):
            raise CorruptLogError(f"{where}: record count overruns frame body")
        kind = _CODE_KINDS.get(body[offset])
        if kind is None:
            raise CorruptLogError(f"{where}: unknown record kind byte {body[offset]}")
        try:
            if kind in _POINT_KINDS:
                code, oid, x, y = _POINT_RECORD.unpack_from(body, offset)
                offset += _POINT_RECORD.size
                records.append(LogRecord(kind, oid=oid, x=x, y=y))
            elif kind in _OID_KINDS:
                code, oid = _OID_RECORD.unpack_from(body, offset)
                offset += _OID_RECORD.size
                records.append(LogRecord(kind, oid=oid))
            else:
                code, length = _PAYLOAD_HEADER.unpack_from(body, offset)
                offset += _PAYLOAD_HEADER.size
                if offset + length > len(body):
                    raise CorruptLogError(
                        f"{where}: payload record overruns frame body"
                    )
                records.append(
                    LogRecord(kind, payload=bytes(body[offset : offset + length]))
                )
                offset += length
        except struct.error as error:
            raise CorruptLogError(f"{where}: truncated record inside frame") from error
    if offset != len(body):
        raise CorruptLogError(f"{where}: {len(body) - offset} trailing bytes in frame")
    return int(lsn), records


def _scan_frames(
    data: bytes, name: str, strict: bool
) -> Iterator[Tuple[int, List[LogRecord], int]]:
    """Walk the frames of *data*, yielding ``(lsn, records, end_offset)``.

    ``end_offset`` is the byte just past the frame — the running length of
    the intact prefix.  Torn-tail handling follows *strict* (see
    :func:`read_frames`); structural corruption always raises.
    """
    offset = 0
    frame_index = 0
    previous_lsn = -1
    while offset < len(data):
        where = f"{name}: frame {frame_index} at byte {offset}"
        if offset + _FRAME_HEADER.size > len(data):
            if strict:
                raise CorruptLogError(f"{where}: torn frame header")
            return
        body_length, crc = _FRAME_HEADER.unpack_from(data, offset)
        body_start = offset + _FRAME_HEADER.size
        if body_length < _BODY_PREFIX.size or body_length > MAX_FRAME_BODY:
            if strict:
                raise CorruptLogError(f"{where}: implausible body length {body_length}")
            return
        if body_start + body_length > len(data):
            if strict:
                raise CorruptLogError(f"{where}: torn frame body")
            return
        body = data[body_start : body_start + body_length]
        if zlib.crc32(body) != crc:
            if strict:
                raise CorruptLogError(f"{where}: CRC mismatch")
            return
        lsn, records = _decode_body(body, where)
        if lsn <= previous_lsn:
            raise CorruptLogError(
                f"{where}: LSN {lsn} does not advance past {previous_lsn}"
            )
        previous_lsn = lsn
        offset = body_start + body_length
        yield lsn, records, offset
        frame_index += 1


def read_frames(
    path: Union[str, Path], strict: bool = False
) -> Iterator[Tuple[int, List[LogRecord]]]:
    """Iterate ``(lsn, records)`` frames from a log file.

    With ``strict=False`` (recovery mode) the iteration stops cleanly at the
    first *torn* frame — a short header, a body length running past EOF, or
    a CRC mismatch — which is the on-disk signature of a crash mid-append.
    With ``strict=True`` a torn frame raises
    :class:`~repro.api.errors.CorruptLogError` instead.

    A frame that passes the CRC yet decodes to nonsense, or whose LSN runs
    backwards, raises :class:`CorruptLogError` in **both** modes: that is
    not what a crash produces.
    """
    path = Path(path)
    if not path.exists():
        return
    data = path.read_bytes()
    for lsn, records, _end in _scan_frames(data, path.name, strict):
        yield lsn, records


def intact_prefix_length(path: Union[str, Path]) -> int:
    """Byte length of the intact frame prefix of *path* (0 when absent).

    Everything past this offset is a torn tail — the debris of a crash
    mid-append.  A writer reopening the log must truncate to this length
    before appending: frames written after a torn frame would be
    unreachable (:func:`read_frames` stops at the tear), so the next
    recovery would silently lose them.
    """
    path = Path(path)
    if not path.exists():
        return 0
    data = path.read_bytes()
    end = 0
    for _lsn, _records, end in _scan_frames(data, path.name, strict=False):
        pass
    return end


def last_lsn(path: Union[str, Path]) -> int:
    """Highest LSN of the intact frame prefix of *path* (0 when empty/absent)."""
    highest = 0
    for lsn, _records in read_frames(path):
        highest = lsn
    return highest


class WriteAheadLog:
    """One append-only log file (one shard's, or the coordinator meta log).

    The log is opened for append and every :meth:`append` writes one frame
    and flushes it to the OS; :meth:`sync` forces it to the device.  When to
    call :meth:`sync` is the :class:`~repro.durability.commit.DurabilityManager`'s
    decision — that is where the ``always``/``group``/``none`` policy lives.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # A crash can leave a torn frame at the tail.  Recovery replays the
        # intact prefix and stops there — so must the writer: appending
        # beyond the tear would put every new frame where read_frames never
        # reaches, and the *next* recovery would silently drop them all.
        # Truncate to the intact prefix before the first append resumes.
        intact = intact_prefix_length(self.path)
        self._file: BinaryIO = open(self.path, "ab")
        if self.path.stat().st_size > intact:
            self._file.truncate(intact)
            os.fsync(self._file.fileno())
        #: True when frames have been appended since the last :meth:`sync`.
        self.dirty = False

    def append(self, lsn: int, records: Sequence[LogRecord]) -> None:
        """Append one frame and flush it to the OS (not yet to the device)."""
        self._file.write(encode_frame(lsn, records))
        self._file.flush()
        self.dirty = True

    def sync(self) -> None:
        """fsync the file; after this the appended frames survive an OS crash."""
        if self._file.closed:
            return
        self._file.flush()
        os.fsync(self._file.fileno())
        self.dirty = False

    def truncate(self) -> None:
        """Drop every frame (checkpoint rotation: the log restarts empty)."""
        self._file.close()
        self._file = open(self.path, "wb")
        self._file.flush()
        os.fsync(self._file.fileno())
        self.dirty = False

    def close(self, sync: bool = True) -> None:
        if self._file.closed:
            return
        if sync and self.dirty:
            self.sync()
        self._file.close()

    def frames(self, strict: bool = False) -> Iterator[Tuple[int, List[LogRecord]]]:
        """Read the frames currently on disk (flushes buffered writes first)."""
        if not self._file.closed:
            self._file.flush()
        return read_frames(self.path, strict=strict)

    def __repr__(self) -> str:
        return f"WriteAheadLog({str(self.path)!r})"


__all__ = [
    "SYNC_POLICIES",
    "LogRecord",
    "WriteAheadLog",
    "read_frames",
    "intact_prefix_length",
    "last_lsn",
    "encode_frame",
    "encode_record",
    "insert_record",
    "update_record",
    "delete_record",
    "migrate_in_record",
    "migrate_out_record",
    "repartition_record",
    "set_strategy_record",
    "KIND_INSERT",
    "KIND_UPDATE",
    "KIND_DELETE",
    "KIND_MIGRATE_IN",
    "KIND_MIGRATE_OUT",
    "KIND_REPARTITION",
    "KIND_SET_STRATEGY",
]
