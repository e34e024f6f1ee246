"""Saving and restoring an index (single or sharded).

A monitoring service restarts; its index should not have to be rebuilt from a
full scan of the object table.  This module provides a simple checkpoint
format for both facade implementations: the page images of the flushed
simulated disk, copied as they are (the binary node codec of
:mod:`repro.storage.serialization` wrote them), along with the index
configuration and the tree's root, height and size.  On load the images are
copied onto a fresh simulated disk, and the secondary hash index, the summary
structure and the object positions are re-derived from the tree (they are
derived structures, exactly as the paper treats them).

A :class:`~repro.shard.index.ShardedIndex` checkpoints as one page-image
section per shard plus the partitioner spec; its object directory is derived
and is rebuilt from the restored shards.  :func:`save_index` and
:func:`load_index` dispatch on the index kind, so persistence is part of the
facade surface both implementations share.

The checkpoint is a single JSON document with base64-encoded page images —
deliberately boring and dependency-free; the interesting part is that a
restored index passes full structural validation and answers queries
identically to the original, which the test suite checks (including after a
concurrent engine run over a sharded index).
"""

from __future__ import annotations

import base64
import json
import os
import tempfile
from pathlib import Path
from typing import Dict, Union

# Module import (not name import): repro.api.builder reaches back into
# repro.core while initialising, so its names are resolved at call time.
import repro.api.builder as api_builder
from repro.api.errors import CheckpointError
from repro.core.index import MovingObjectIndex
from repro.geometry import Point

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


def _index_document(index: MovingObjectIndex) -> Dict:
    """The checkpoint document body of one single-machine index.

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


def _restore_index(document: Dict) -> MovingObjectIndex:
    """Rebuild one single-machine index from its checkpoint document body."""
    config = api_builder.config_from_spec(document["config"])

    index = MovingObjectIndex(config)

    # Throw away the empty root the constructor made and restore the pages.
    index.buffer.clear()
    empty_root = index.tree.peek_node(index.tree.root_page_id)
    index.tree._free_node(empty_root)

    tree_meta = document["tree"]
    images = {
        int(page_text): base64.b64decode(image_text.encode("ascii"))
        for page_text, image_text in document["pages"].items()
    }

    # Allocate page ids on the fresh disk until every checkpointed id exists,
    # then copy the images into place as they are.  The rebuild walks below
    # decode every page of the tree, so a garbled image still fails the load.
    disk = index.disk
    missing = set(images)
    allocated = []
    while missing:
        page_id = disk.allocate_page()
        allocated.append(page_id)
        missing.discard(page_id)
    for page_id in sorted(set(allocated).difference(images)):
        disk.deallocate_page(page_id)
    for page_id, image in images.items():
        disk.write_page(page_id, image)

    index.tree.root_page_id = tree_meta["root_page_id"]
    index.tree.height = tree_meta["height"]
    index.tree.size = tree_meta["size"]
    index.tree.observers.root_changed(index.tree.root_page_id, index.tree.height)

    # Rebuild the derived structures from the restored tree: the pages were
    # put in place below the tree, so no write event announced their entries.
    index.hash_index.rebuild_from_tree(index.tree)
    if index.summary is not None:
        index.summary.rebuild_from_tree()

    # Object positions are rebuilt from the restored leaf entries, the only
    # source since format version 4 (the page codec is binary64 since
    # version 2, so this is lossless; the tables older documents carry are
    # ignored).
    positions = index._positions = {}
    for leaf in index.tree.leaf_nodes():
        it = iter(leaf.coords)  # centres read off the columns, as Rect.center()
        for xmin, ymin, xmax, ymax, oid in zip(it, it, it, it, leaf.children):
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


def save_index(index, path: Union[str, Path]) -> None:
    """Write a checkpoint of *index* (single or sharded) to *path*.

    The write is crash-atomic (temp file + fsync + ``os.replace``).  When
    the index has a durability manager attached and *path* is the manager's
    own ``checkpoint.json``, the manager's spec section is embedded in the
    document and the write-ahead logs are rotated afterwards: the new
    checkpoint subsumes them.  Saving anywhere else is a plain export — a
    point-in-time snapshot that carries no ``durability`` section (loading
    it must not replay, or attach a second writer to, logs the live index
    still owns) and leaves the logs untouched.
    """
    from repro.shard.index import ShardedIndex  # local: avoids an import cycle

    if isinstance(index, ShardedIndex):
        document = {
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
            # switches), so a restored index resumes the same policy with
            # its history.  The live per-shard strategies travel inside each
            # shard document's ``active_strategy`` field, not here.
            document[section] = controller.state_to_spec()
        if index.parallel_spec is not None:
            # Builder spec section: the restored index re-attaches the same
            # execution backend.
            document["parallel"] = dict(index.parallel_spec)
    else:
        document = {"format_version": FORMAT_VERSION, **_index_document(index)}
    if index.engine_defaults:
        # Builder spec section: restored indexes keep their session defaults,
        # so spec -> index -> checkpoint -> load round-trips to the same spec.
        document["engine"] = dict(index.engine_defaults)
    target = Path(path)
    manager = getattr(index, "durability", None)
    is_durable_checkpoint = (
        manager is not None
        and target.resolve() == manager.checkpoint_path.resolve()
    )
    if is_durable_checkpoint:
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
    if is_durable_checkpoint:
        # The durable checkpoint just landed: every logged record is now in
        # the checkpoint, so the logs restart empty (the LSN keeps counting).
        manager.rotate()


def load_index(path: Union[str, Path]):
    """Restore an index from a checkpoint file.

    Returns a :class:`MovingObjectIndex` or a
    :class:`~repro.shard.index.ShardedIndex`, depending on what was saved;
    both come back with derived structures (hash indexes, summaries, the
    shard directory) rebuilt and statistics reset.

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

    if document.get("kind") == "sharded":
        from repro.shard.index import ShardedIndex
        from repro.shard.partitioner import partitioner_from_spec

        shards = [_restore_index(shard) for shard in document["shards"]]
        index = ShardedIndex(
            shards[0].config,
            partitioner=partitioner_from_spec(document["partitioner"]),
            shards=shards,
        )
        index.configure_buffer()  # facade contract: aggregate buffer split
    else:
        index = _restore_index(document)
    api_builder.install_sections(index, document)
    if document.get("durability"):
        # Replay before the parallel backend attaches: replay writes
        # directly into the in-process shard facades, which must still
        # be authoritative at that point.
        _replay_and_attach(index, document["durability"])
    parallel = document.get("parallel")
    # The thread executor is gone: a checkpoint that recorded it loads
    # on the in-process (serial) executor, which it only ever wrapped.
    if parallel and parallel.get("backend") != "thread":
        index.set_parallel(**parallel)
    return index


def _replay_and_attach(index, spec: Dict) -> None:
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
