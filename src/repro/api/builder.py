"""Declarative index construction: one JSON-round-trippable spec, two facades.

* :func:`open_index` — build a :class:`~repro.core.index.MovingObjectIndex`
  or a :class:`~repro.shard.index.ShardedIndex` from one plain-dict spec;
* :func:`index_spec` — recover the canonical spec of a live index, such that
  ``open_index(index_spec(index))`` builds an equivalent empty index.

The same config codec (:func:`config_to_spec` / :func:`config_from_spec`)
and section installer (:func:`install_sections`) serve the persistence
checkpoints, so a checkpoint's embedded configuration *is* a spec fragment:
spec → index → checkpoint → load round-trips to the identical spec.

>>> from repro.api import index_spec, open_index
>>> index = open_index({"kind": "single", "config": {"strategy": "LBU"}})
>>> index.config.strategy
'LBU'
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
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
    Type,
)

from repro.core.config import IndexConfig
from repro.update.params import TuningParameters

if TYPE_CHECKING:
    from repro.core.protocol import SpatialIndexFacade


def config_to_spec(config: IndexConfig) -> Dict[str, Any]:
    """The plain-dict form of an :class:`IndexConfig` (JSON-safe).

    This is the exact shape persistence checkpoints embed, so a checkpoint's
    ``config`` section round-trips through :func:`config_from_spec`.
    """
    return {
        "page_size": config.page_size,
        "buffer_percent": config.buffer_percent,
        "strategy": config.strategy,
        "use_summary_for_queries": config.use_summary_for_queries,
        "params": {
            "epsilon": config.params.epsilon,
            "distance_threshold": config.params.distance_threshold,
            "level_threshold": config.params.level_threshold,
            "piggyback": config.params.piggyback,
        },
    }


# Format-version-2 checkpoints and saved ``index_spec`` JSON carry these two
# representation switches.  Whatever they say, the page images beside them
# were always the columnar codec format, so such documents load as they are.
_RETIRED_CONFIG_KEYS = ("node_layout", "page_store")

# Settings that older specs and checkpoints carry but the index no longer
# varies.  Each still loads at the one value the index always uses; any other
# value raises, because the index cannot honour it.
_RETIRED_CONFIG_VALUES: Dict[str, Any] = {
    "split": "quadratic",
    "reinsert_on_underflow": True,
    "charge_hash_io": True,
    "bulk_load_fill": 0.66,
    "min_fill_factor": 0.4,
}
_RETIRED_PARAMS_VALUES: Dict[str, Any] = {"max_piggyback_objects": 8}


def _reject_unknown_keys(
    section: str, data: Mapping[str, Any], known: Iterable[str]
) -> None:
    unknown = set(data) - set(known)
    if unknown:
        raise ValueError(f"unknown spec keys {sorted(unknown)!r} in {section!r}")


def _drop_retired(
    section: str, data: Mapping[str, Any], retired: Mapping[str, Any]
) -> Dict[str, Any]:
    for key, constant in retired.items():
        if key in data and data[key] != constant:
            raise ValueError(
                f"{section}.{key} is retired and only accepts {constant!r}, "
                f"got {data[key]!r}"
            )
    return {key: value for key, value in data.items() if key not in retired}


def _field_names(schema: type) -> List[str]:
    return [field.name for field in dataclasses.fields(schema)]


def config_from_spec(spec: Dict[str, Any]) -> IndexConfig:
    """Rebuild an :class:`IndexConfig` from its (possibly partial) spec dict.

    Raises ``ValueError`` for a key neither :class:`IndexConfig` nor (under
    ``"params"``) :class:`TuningParameters` declares, for a retired key at
    any value other than the constant that replaced it, and for a malformed
    value (see :class:`IndexConfig` and :class:`TuningParameters`).
    """
    data = _drop_retired("config", spec, _RETIRED_CONFIG_VALUES)
    for key in _RETIRED_CONFIG_KEYS:
        data.pop(key, None)
    params_data = data.pop("params", None)
    _reject_unknown_keys("config", data, _field_names(IndexConfig))
    if params_data is None:
        return IndexConfig(**data)
    params_data = _drop_retired("config.params", params_data, _RETIRED_PARAMS_VALUES)
    _reject_unknown_keys("config.params", params_data, _field_names(TuningParameters))
    return IndexConfig(params=TuningParameters(**params_data), **data)


def index_spec(index: "SpatialIndexFacade") -> Dict[str, Any]:
    """The canonical declarative spec of a live index.

    ``open_index(index_spec(index))`` constructs an equivalent *empty* index
    (specs describe configuration, not contents; contents travel through
    :mod:`repro.core.persistence` checkpoints, which embed this same spec).
    """
    from repro.shard.index import ShardedIndex  # local: avoids import cycle

    spec: Dict[str, Any]
    if isinstance(index, ShardedIndex):
        spec = {
            "kind": "sharded",
            "config": config_to_spec(index.config),
            "partitioner": index.partitioner.to_spec(),
        }
        for section, controller in index.controllers.items():
            spec[section] = controller.to_spec()
        if index.parallel_spec is not None:
            spec["parallel"] = dict(index.parallel_spec)
    else:
        spec = {"kind": "single", "config": config_to_spec(index.config)}
    if index.engine_defaults:
        spec["engine"] = dict(index.engine_defaults)
    if index.durability is not None:
        spec["durability"] = index.durability.to_spec()
    return spec


_SPEC_KEYS = (
    "kind",
    "config",
    "shards",
    "partitioner",
    "engine",
    "rebalance",
    "adaptive",
    "parallel",
    "durability",
)
# Any of these makes a spec without ``kind`` sharded (``shards: 1`` too: the
# single-shard baseline the shard-scaling experiments compare against).
_SHARDED_KEYS = ("shards", "partitioner", "rebalance", "adaptive", "parallel")
_ENGINE_KEYS = ("num_clients", "time_per_io", "cpu_time_per_op")
_PARALLEL_KEYS = ("backend", "workers")


def open_index(
    spec: Optional[Dict[str, Any]] = None, **overrides: Any
) -> "SpatialIndexFacade":
    """Build an index facade from one declarative spec dict.

    Spec schema (every key optional)::

        {
            "kind": "single" | "sharded",        # default "single"
            "config": {...IndexConfig fields..., "params": {...}},
            "shards": N,                         # sharded: uniform grid of N
            "partitioner": {...partitioner spec...},
            "engine": {"num_clients": ..., "time_per_io": ...,
                       "cpu_time_per_op": ...},  # session defaults
            "rebalance": {"threshold": ..., "cooldown": ...,
                          "min_ops": ...},       # sharded: online rebalancer
            "adaptive": {"cooldown": ...,
                         "min_ops": ...},        # sharded: strategy selection
            "parallel": {"backend": "serial" | "process",
                         "workers": N},          # sharded: execution backend
            "durability": {"dir": "...", "sync": "always"|"group"|"none",
                           "group_size": N},     # write-ahead logging
        }

    Keyword *overrides* are merged over the spec's top level, so
    ``open_index(spec, shards=8)`` re-shards a spec that names no
    partitioner.  A ``shards`` count that disagrees with an explicit
    ``partitioner`` raises ``ValueError``; a saved :func:`index_spec` always
    names its partitioner, so re-shard one with
    ``open_index(saved, partitioner=None, shards=8)``.  Unknown keys, at the
    top level or in any section, raise ``ValueError``.  The returned facade
    is a :class:`~repro.core.index.MovingObjectIndex` or a
    :class:`~repro.shard.index.ShardedIndex`; both speak the same
    :class:`~repro.core.protocol.SpatialIndexFacade` surface.
    """
    from repro.core.index import MovingObjectIndex
    from repro.shard.index import ShardedIndex
    from repro.shard.partitioner import partitioner_from_spec

    merged: Dict[str, Any] = {**(spec or {}), **overrides}
    _reject_unknown_keys("spec", merged, _SPEC_KEYS)
    kind = merged.get("kind")
    if kind not in (None, "single", "sharded"):
        raise ValueError(f"unknown index kind {kind!r}")
    sharded = kind == "sharded" or any(
        merged.get(key) is not None for key in _SHARDED_KEYS
    )
    if kind == "single" and sharded:
        raise ValueError(
            "kind 'single' conflicts with a shards/partitioner/"
            "rebalance/adaptive/parallel entry"
        )
    parallel = merged.get("parallel")
    if parallel is not None:
        # Checked before anything is built: a bad backend must not leave a
        # durability directory behind.
        from repro.shard.parallel import BACKENDS

        _reject_unknown_keys("parallel", parallel, _PARALLEL_KEYS)
        backend = parallel.get("backend", "process")
        if backend not in BACKENDS:
            raise ValueError(f"unknown parallel backend {backend!r}")
    config = config_from_spec(merged.get("config", {}))

    index: "SpatialIndexFacade"
    if sharded:
        partitioner = merged.get("partitioner")
        index = ShardedIndex(
            config,
            partitioner=(
                partitioner_from_spec(partitioner) if partitioner is not None else None
            ),
            num_shards=merged.get("shards"),
        )
    else:
        index = MovingObjectIndex(config)
    install_sections(index, merged)
    if merged.get("durability") is not None:
        from repro.durability.commit import DurabilityManager

        index.attach_durability(DurabilityManager.from_spec(merged["durability"]))
    if parallel is not None:
        index.set_parallel(**parallel)
    return index


def install_sections(index: "SpatialIndexFacade", spec: Mapping[str, Any]) -> None:
    """Install the ``rebalance``, ``adaptive`` and ``engine`` sections of *spec*.

    Shared by :func:`open_index` and :func:`repro.core.persistence.load_index`
    (a checkpoint carries the same sections), so both validate and wire them
    alike.  Durability and ``parallel`` stay with each caller: a restored
    index must replay its log before any worker process attaches.
    """
    from repro.shard.index import ShardedIndex

    if isinstance(index, ShardedIndex):
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
    engine = spec.get("engine")
    if engine:
        _reject_unknown_keys("engine", engine, _ENGINE_KEYS)
        index.engine_defaults = dict(engine)


__all__ = [
    "config_from_spec",
    "config_to_spec",
    "index_spec",
    "install_sections",
    "open_index",
]
