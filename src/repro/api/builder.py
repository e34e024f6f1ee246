"""Declarative index construction: one JSON-round-trippable spec, one facade.

* :func:`open_index` — build a :class:`~repro.shard.index.ShardedIndex` from
  one plain-dict spec (``{"kind": "single"}``, the default, is one shard);
* :func:`index_spec` — recover the canonical spec of a live index, such that
  ``open_index(index_spec(index))`` builds an equivalent empty index.

The same config codec (:func:`config_to_spec` / :func:`config_from_spec`)
and section installer (:func:`install_sections`) serve the persistence
checkpoints, so a checkpoint's embedded configuration *is* a spec fragment:
spec → index → checkpoint → load round-trips to the identical spec.  What a
spec may hold is declared once, in :data:`repro.api.schema.SPEC_KEYS`.

>>> from repro.api import index_spec, open_index
>>> index = open_index({"kind": "single", "config": {"strategy": "LBU"}})
>>> (index.num_shards, index.config.strategy)
(1, 'LBU')
>>> index_spec(index)["kind"]
'single'
>>> sharded = open_index(
...     {
...         "config": {"strategy": "GBU", "buffer_percent": 2.0},
...         "shards": 4,
...         "engine": {"num_clients": 16},
...         "rebalance": {"threshold": 2.0, "cooldown": 300},
...     }
... )
>>> sharded.num_shards
4
>>> spec = index_spec(sharded)
>>> (spec["kind"], spec["partitioner"], spec["engine"]["num_clients"])
('sharded', {'kind': 'grid', 'columns': 2, 'rows': 2}, 16)
>>> spec["rebalance"]["threshold"]
2.0
>>> index_spec(open_index(spec)) == spec
True
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Any, Dict, Mapping, Optional, Tuple, Type

from repro.api.schema import read
from repro.core.config import IndexConfig
from repro.update.params import TuningParameters

if TYPE_CHECKING:
    from repro.shard.index import ShardedIndex


def config_to_spec(config: IndexConfig) -> Dict[str, Any]:
    """The ``config`` spec section of *config* (JSON-safe); checkpoints embed it."""
    return dataclasses.asdict(config)


def config_from_spec(spec: Mapping[str, Any]) -> IndexConfig:
    """Rebuild an :class:`IndexConfig` from its (possibly partial) spec dict,
    read against :data:`repro.api.schema.SPEC_KEYS`."""
    data = read("config", spec)
    params = data.pop("params", None) or {}
    return IndexConfig(params=TuningParameters(**params), **data)


def index_spec(index: "ShardedIndex") -> Dict[str, Any]:
    """The canonical declarative spec of a live index.

    ``open_index(index_spec(index))`` constructs an equivalent *empty* index
    (specs describe configuration, not contents; contents travel through
    :mod:`repro.core.persistence` checkpoints, which embed this same spec).
    """
    spec: Dict[str, Any] = {"kind": "single", "config": config_to_spec(index.config)}
    if index.num_shards > 1:
        spec["kind"] = "sharded"
        spec["partitioner"] = index.partitioner.to_spec()
    for section, controller in index.controllers.items():
        spec[section] = controller.to_spec()
    if index.parallel_spec is not None:
        spec["parallel"] = dict(index.parallel_spec)
    if index.engine_defaults:
        spec["engine"] = dict(index.engine_defaults)
    if index.durability is not None:
        spec["durability"] = index.durability.to_spec()
    return spec


# Any of these makes a spec without ``kind`` sharded.  ``kind: "single"`` is
# one shard over the unit square: it takes every section, but no ``shards``
# count or ``partitioner`` that names a second cell.
_SHARDED_KEYS = ("shards", "partitioner", "rebalance", "adaptive", "parallel")


def open_index(
    spec: Optional[Dict[str, Any]] = None, **overrides: Any
) -> "ShardedIndex":
    """Build an index facade from one declarative spec dict.

    The whole spec is read against :data:`repro.api.schema.SPEC_KEYS`, which
    declares every key of every section once, before anything is built; an
    unknown or malformed key raises ``ValueError`` naming it.  Keyword
    *overrides* are merged over the spec's top level, so
    ``open_index(spec, shards=8)`` re-shards a spec that names no
    partitioner; a ``shards`` count that disagrees with an explicit
    ``partitioner`` raises ``ValueError``, so re-shard a saved
    :func:`index_spec` with ``open_index(saved, partitioner=None, shards=8)``.
    The facade is always a :class:`~repro.shard.index.ShardedIndex`;
    ``kind: "single"`` (the default) builds it with one shard, the paper's
    :class:`~repro.core.index.MovingObjectIndex`.  A single index takes
    every section, and a ``shards`` count or ``partitioner`` of more than
    one cell conflicts with it.
    """
    from repro.shard.index import ShardedIndex
    from repro.shard.partitioner import partitioner_from_spec

    merged = read("spec", {**(spec or {}), **overrides})
    kind = merged.get("kind")
    partitioner_spec = merged.get("partitioner")
    partitioner = (
        partitioner_from_spec(partitioner_spec) if partitioner_spec is not None else None
    )
    if kind == "single":
        shards = merged.get("shards")
        if (shards is not None and shards != 1) or (
            partitioner is not None and partitioner.num_shards != 1
        ):
            raise ValueError(
                "kind 'single' is one shard; it conflicts with a shards count "
                "or partitioner of more than one cell"
            )
    sharded = kind == "sharded" or (
        kind is None and any(merged.get(key) is not None for key in _SHARDED_KEYS)
    )
    index = ShardedIndex(
        config_from_spec(merged.get("config") or {}),
        partitioner=partitioner,
        num_shards=merged.get("shards") if sharded else 1,
    )
    install_sections(index, merged)
    return index


def install_sections(
    index: "ShardedIndex", spec: Mapping[str, Any], replay: bool = False
) -> None:
    """Install the controller, ``engine``, ``durability`` and ``parallel`` sections.

    Shared by :func:`open_index` and :func:`repro.core.persistence.load_index`
    (a checkpoint carries the same sections), which both read *spec* against
    :data:`repro.api.schema.SPEC_KEYS` first.  With *replay* (a checkpoint's
    log directory) the write-ahead log tail is replayed before the manager
    attaches, and before any worker process takes the shards over.
    """
    from repro.durability.commit import DurabilityManager
    from repro.durability.recovery import replay_into
    from repro.shard import (
        AdaptiveStrategyController,
        MaintenanceController,
        ShardRebalancer,
    )

    controllers: Tuple[Type[MaintenanceController[Any]], ...] = (
        ShardRebalancer,
        AdaptiveStrategyController,
    )
    for controller in controllers:
        section = spec.get(controller.section)
        if section is not None:
            index.attach(controller.from_spec(section, index.num_shards))
    if spec.get("engine"):
        index.engine_defaults = dict(spec["engine"])
    if spec.get("durability") is not None:
        manager = DurabilityManager.from_spec(spec["durability"])
        if replay and replay_into(index, manager.directory).records:
            # Replay is maintenance, not workload: re-split the buffer
            # against the (possibly grown) database and zero the counters.
            index.configure_buffer()
            index.reset_statistics()
        index.attach_durability(manager)
    if spec.get("parallel") is not None:
        index.set_parallel(**spec["parallel"])


__all__ = [
    "config_from_spec",
    "config_to_spec",
    "index_spec",
    "install_sections",
    "open_index",
]
