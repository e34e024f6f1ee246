"""Saving and restoring an index.

A monitoring service restarts; its index should not have to be rebuilt from a
full scan of the object table.  A checkpoint is one JSON document holding the
partitioner spec and, per shard, the page images of its flushed simulated
disk copied as they are (the binary node codec of
:mod:`repro.storage.serialization` wrote them, base64-encoded here), the
shard's configuration and its tree's root, height and size.  On load the
images are copied onto a fresh simulated disk, and each shard's secondary
hash index, summary structure and object positions are re-derived from its
tree in one uncharged walk (they are derived structures, exactly as the paper
treats them); the shard directory is rebuilt from the shards.

Every index is a :class:`~repro.shard.index.ShardedIndex`, so every
checkpoint is written in that one shape.  A document of the older
single-index shape (one page-image section at the top level, no
``partitioner``) loads as a one-shard index.  A restored index passes full
structural validation and answers queries identically to the original, which
the test suite checks (including after a concurrent engine run).
"""

from __future__ import annotations

import base64
import json
import os
import tempfile
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Union

# Module import (not name import): repro.api.builder reaches back into
# repro.core while initialising, so its names are resolved at call time.
import repro.api.builder as api_builder
from repro.api.errors import CheckpointError
from repro.core.index import MovingObjectIndex
from repro.geometry import Point

if TYPE_CHECKING:  # typing only: repro.shard imports this package
    from repro.shard.index import ShardedIndex

# Version 2: checkpoints use the lossless columnar page codec (binary64
# coordinates) instead of the paper's 4-byte sizing-model format, so a
# save/load round trip reproduces every coordinate bit for bit.
# Version 3: the page header of a non-empty node carries its tight MBR
# (NodeCodec flag bit 1).  The one decoder reads images with and without the
# bit, so a version-2 checkpoint loads unchanged.
# Version 4: the pages are the flushed disk's images as they are (no decode
# and re-encode), and the per-object position table is gone: positions are
# re-derived from the leaves.  Older documents' tables are ignored.
FORMAT_VERSION = 4
READABLE_FORMAT_VERSIONS = (2, 3, FORMAT_VERSION)


def _index_document(index: MovingObjectIndex) -> Dict[str, Any]:
    """The checkpoint document body of one shard.

    After the flush every page on the disk holds the image of its node's
    current state, so the images are copied without touching the codec.
    """
    index.buffer.flush()
    disk = index.disk
    pages = {
        str(page_id): base64.b64encode(disk.peek(page_id)).decode("ascii")
        for page_id in sorted(disk.page_ids())
    }

    return {
        # The embedded configuration IS the declarative builder spec's
        # ``config`` section (repro.api.builder) — one codec for both.
        "config": api_builder.config_to_spec(index.config),
        # The live strategy: ``config.strategy`` is the *initial* choice,
        # ``set_strategy`` may have moved the index since.  Restore re-enters
        # the live strategy so the round trip preserves the running index.
        "active_strategy": index.active_strategy,
        "tree": {
            "root_page_id": index.tree.root_page_id,
            "height": index.tree.height,
            "size": index.tree.size,
        },
        "pages": pages,
    }


def _restore_index(document: Dict[str, Any]) -> MovingObjectIndex:
    """Rebuild one shard from its checkpoint document body."""
    index = MovingObjectIndex(api_builder.config_from_spec(document["config"]))
    tree = index.tree
    images = {
        int(page_text): base64.b64decode(image_text.encode("ascii"))
        for page_text, image_text in document["pages"].items()
    }

    # Allocate page ids on the fresh disk until every checkpointed id exists,
    # free the ones no image names (the constructor's empty root among them,
    # unless an image overwrites it), then copy the images in as they are.
    index.buffer.clear()
    disk = index.disk
    missing = set(images).difference(disk.page_ids())
    while missing:
        missing.discard(disk.allocate_page())
    for page_id in sorted(set(disk.page_ids()).difference(images)):
        disk.deallocate_page(page_id)
    for page_id, image in images.items():
        disk.write_page(page_id, image)

    tree_meta = document["tree"]
    tree.root_page_id = tree_meta["root_page_id"]
    tree.height = tree_meta["height"]
    tree.size = tree_meta["size"]
    tree.observers.root_changed(tree.root_page_id, tree.height)

    # The pages were put in place below the tree, so no write event announced
    # their entries: one uncharged walk re-derives the hash index (empty on a
    # fresh index), the summary and the positions, decoding each page once
    # (so a garbled image still fails the load).  Positions come from the
    # leaf entries since format version 4 (lossless: binary64 since version
    # 2); the tables older documents carry are ignored.
    summary, hash_index = index.summary, index.hash_index
    if summary is not None:
        summary.restart()
    positions = index._positions
    for node, _parent in tree.iter_nodes():
        if summary is not None:
            summary.record_node(node)
        if node.level == 0:
            hash_index.add_leaf(node)
            it = iter(node.coords)  # centres read off the columns, as Rect.center()
            for xmin, ymin, xmax, ymax, oid in zip(it, it, it, it, node.children):
                positions[oid] = Point((xmin + xmax) / 2.0, (ymin + ymax) / 2.0)

    # Re-enter the strategy that was live at checkpoint time (a plain
    # construction starts on ``config.strategy``).  The restored pages carry
    # whatever parent pointers were installed, so an LBU re-entry's sweep
    # finds them correct; the buffer/statistics reset below keeps the
    # transition out of any measured phase.
    active = document.get("active_strategy")
    if active is not None and active != index.active_strategy:
        index.set_strategy(active)

    index.configure_buffer()
    index.reset_statistics()
    return index


def _atomic_write_text(path: Path, text: str) -> None:
    """Crash-atomic file replacement: temp file in the target directory,
    fsync, then ``os.replace`` — a killed write never destroys the previous
    checkpoint, and a reader only ever sees a complete document."""
    directory = path.parent if str(path.parent) else Path(".")
    fd, tmp_name = tempfile.mkstemp(
        dir=str(directory), prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def save_index(index: "ShardedIndex", path: Union[str, Path]) -> None:
    """Write a checkpoint of *index* to *path*.

    The write is crash-atomic (temp file + fsync + ``os.replace``).  When
    the index has a durability manager attached and *path* is the manager's
    own ``checkpoint.json``, the manager's spec section is embedded in the
    document and the write-ahead logs are rotated afterwards: the new
    checkpoint subsumes them.  Saving anywhere else is a plain export — a
    point-in-time snapshot that carries no ``durability`` section (loading
    it must not replay, or attach a second writer to, logs the live index
    still owns) and leaves the logs untouched.
    """
    document: Dict[str, Any] = {
        "format_version": FORMAT_VERSION,
        "kind": "sharded",
        "partitioner": index.partitioner.to_spec(),
        # Under the process backend the workers hold the authoritative
        # trees; shard_documents() checkpoints them in place (the local
        # mirror shards would be stale).
        "shards": index.shard_documents(),
    }
    for section, controller in index.controllers.items():
        # Builder spec section plus the runtime counters (rebalances,
        # switches), so a restored index resumes the same policy with its
        # history.  The live per-shard strategies travel inside each shard
        # document's ``active_strategy`` field, not here.
        document[section] = controller.state_to_spec()
    if index.parallel_spec is not None:
        # Builder spec section: the restored index re-attaches the same
        # execution backend.
        document["parallel"] = dict(index.parallel_spec)
    if index.engine_defaults:
        # Builder spec section: restored indexes keep their session defaults,
        # so spec -> index -> checkpoint -> load round-trips to the same spec.
        document["engine"] = dict(index.engine_defaults)
    target = Path(path)
    manager = index.durability
    if manager is not None and target.resolve() != manager.checkpoint_path.resolve():
        manager = None  # a plain export
    if manager is not None:
        # Builder spec section: loading this checkpoint replays the WAL
        # tail from the manager's directory and re-attaches the manager.
        # A save to any *other* path is a plain export and deliberately
        # omits the section — loading an export must not replay the live
        # index's logs, nor attach a second writer (with its own LSN
        # counter) to a directory the live manager is still appending to.
        document["durability"] = manager.to_spec()
    try:
        _atomic_write_text(target, json.dumps(document))
    except OSError as error:
        raise CheckpointError(
            f"failed to write checkpoint {target}: {error}"
        ) from error
    if manager is not None:
        # The durable checkpoint just landed: every logged record is now in
        # the checkpoint, so the logs restart empty (the LSN keeps counting).
        manager.rotate()


def load_index(path: Union[str, Path]) -> "ShardedIndex":
    """Restore an index from a checkpoint file.

    The index comes back with its derived structures (hash indexes,
    summaries, the shard directory) rebuilt and statistics reset.

    A checkpoint carrying a ``durability`` section replays the write-ahead
    log tail from that directory on top of the restored state (truncating
    at the first torn frame — see :mod:`repro.durability.recovery`) and
    re-attaches the durability manager, so the returned index keeps
    logging where the crashed process stopped.  Unsupported format versions
    and truncated/garbled documents raise
    :class:`~repro.api.errors.CheckpointError` (a ``ValueError``).
    """
    source = Path(path)
    try:
        document = json.loads(source.read_text(encoding="utf-8"))
    except json.JSONDecodeError as error:
        raise CheckpointError(
            f"checkpoint {source} is not valid JSON (torn write?): {error}"
        ) from error
    if document.get("format_version") not in READABLE_FORMAT_VERSIONS:
        raise CheckpointError(
            f"unsupported checkpoint format {document.get('format_version')!r}"
        )

    from repro.shard.index import ShardedIndex
    from repro.shard.partitioner import partitioner_from_spec

    # A single-index document (formats 2-4) is one shard's body at the top
    # level, with no partitioner: a one-cell grid, as for ``kind: "single"``.
    sharded = document.get("kind") == "sharded"
    shards = [
        _restore_index(section)
        for section in (document["shards"] if sharded else [document])
    ]
    partitioner = document.get("partitioner")
    index = ShardedIndex(
        shards[0].config,
        partitioner=None if partitioner is None else partitioner_from_spec(partitioner),
        num_shards=len(shards),
        shards=shards,
    )
    index.configure_buffer()  # the aggregate buffer split
    api_builder.install_sections(index, document)
    if document.get("durability"):
        # Replay before the parallel backend attaches: replay writes
        # directly into the in-process shards, which must still be
        # authoritative at that point.
        _replay_and_attach(index, document["durability"])
    parallel = document.get("parallel")
    # The thread executor is gone: a checkpoint that recorded it loads
    # on the in-process (serial) executor, which it only ever wrapped.
    if parallel and parallel.get("backend") != "thread":
        index.set_parallel(**parallel)
    return index


def _replay_and_attach(index: "ShardedIndex", spec: Dict[str, Any]) -> None:
    """Replay the WAL tail described by *spec* and re-attach its manager."""
    from repro.durability.commit import DurabilityManager
    from repro.durability.recovery import replay_into

    manager = DurabilityManager.from_spec(spec)
    report = replay_into(index, manager.directory)
    if report.records:
        # Replay is maintenance, not workload: re-split the buffer against
        # the (possibly grown) database and zero the counters again.
        index.configure_buffer()
        index.reset_statistics()
    index.attach_durability(manager)
