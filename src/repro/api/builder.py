"""Declarative index construction: one JSON-round-trippable spec, one facade.

* :func:`open_index` — build a :class:`~repro.shard.index.ShardedIndex` from
  one plain-dict spec (``{"kind": "single"}``, the default, is one shard);
* :func:`index_spec` — recover the canonical spec of a live index, such that
  ``open_index(index_spec(index))`` builds an equivalent empty index.

The same config codec (:func:`config_to_spec` / :func:`config_from_spec`)
and section installer (:func:`install_sections`) serve the persistence
checkpoints, so a checkpoint's embedded configuration *is* a spec fragment:
spec → index → checkpoint → load round-trips to the identical spec.

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
from repro.update.params import TuningParameters, is_int

if TYPE_CHECKING:
    from repro.shard.index import ShardedIndex


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


def spec_section(spec: Mapping[str, Any], name: str) -> Optional[Mapping[str, Any]]:
    """The *name* section of *spec*, ``None`` when absent.

    A section that is present but not a mapping raises ``ValueError``.
    """
    value = spec.get(name)
    return None if value is None else _mapping(name, value)


def _mapping(section: str, value: Any) -> Mapping[str, Any]:
    if not isinstance(value, Mapping):
        raise ValueError(f"spec section {section!r} must be a mapping, got {value!r}")
    return value


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


def config_from_spec(spec: Mapping[str, Any]) -> IndexConfig:
    """Rebuild an :class:`IndexConfig` from its (possibly partial) spec dict.

    Raises ``ValueError`` for a key neither :class:`IndexConfig` nor (under
    ``"params"``) :class:`TuningParameters` declares, for a retired key at
    any value other than the constant that replaced it, and for a malformed
    value (see :class:`IndexConfig` and :class:`TuningParameters`).
    """
    data = _drop_retired("config", _mapping("config", spec), _RETIRED_CONFIG_VALUES)
    for key in _RETIRED_CONFIG_KEYS:
        data.pop(key, None)
    params_data = data.pop("params", None)
    _reject_unknown_keys("config", data, _field_names(IndexConfig))
    if params_data is None:
        return IndexConfig(**data)
    params_data = _drop_retired(
        "config.params", _mapping("config.params", params_data), _RETIRED_PARAMS_VALUES
    )
    _reject_unknown_keys("config.params", params_data, _field_names(TuningParameters))
    return IndexConfig(params=TuningParameters(**params_data), **data)


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
# Any of these makes a spec without ``kind`` sharded.  ``kind: "single"`` is
# one shard over the unit square: it takes every section, but no ``shards``
# count or ``partitioner`` that names a second cell.
_SHARDED_KEYS = ("shards", "partitioner", "rebalance", "adaptive", "parallel")
_ENGINE_KEYS = ("num_clients", "time_per_io", "cpu_time_per_op")
_PARALLEL_KEYS = ("backend", "workers")


def open_index(
    spec: Optional[Dict[str, Any]] = None, **overrides: Any
) -> "ShardedIndex":
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
                          "min_ops": ...},       # online rebalancer
            "adaptive": {"cooldown": ...,
                         "min_ops": ...},        # strategy selection
            "parallel": {"backend": "serial" | "process",
                         "workers": N},          # execution backend
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
    is always a :class:`~repro.shard.index.ShardedIndex`; ``kind: "single"``
    builds it with one shard, whose one
    :class:`~repro.core.index.MovingObjectIndex` is the paper's system.  A
    single index takes every section (``rebalance``, ``adaptive``,
    ``parallel``, ...) and still has one shard; a ``shards`` count or
    ``partitioner`` naming more than one cell conflicts with it.
    :func:`index_spec` writes every one-cell index as ``kind: "single"``.
    """
    from repro.shard.index import ShardedIndex
    from repro.shard.partitioner import partitioner_from_spec

    merged: Dict[str, Any] = {**(spec or {}), **overrides}
    _reject_unknown_keys("spec", merged, _SPEC_KEYS)
    kind = merged.get("kind")
    if kind not in (None, "single", "sharded"):
        raise ValueError(f"unknown index kind {kind!r}")
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
    parallel = spec_section(merged, "parallel")
    if parallel is not None:
        # Checked before anything is built: a bad backend must not leave a
        # durability directory behind.
        check_parallel(parallel)
    durability = spec_section(merged, "durability")
    config = config_from_spec(spec_section(merged, "config") or {})

    index = ShardedIndex(
        config,
        partitioner=partitioner,
        num_shards=merged.get("shards") if sharded else 1,
    )
    install_sections(index, merged)
    if durability is not None:
        from repro.durability.commit import DurabilityManager

        index.attach_durability(DurabilityManager.from_spec(durability))
    if parallel is not None:
        index.set_parallel(**parallel)
    return index


def install_sections(index: "ShardedIndex", spec: Mapping[str, Any]) -> None:
    """Install the ``rebalance``, ``adaptive`` and ``engine`` sections of *spec*.

    Shared by :func:`open_index` and :func:`repro.core.persistence.load_index`
    (a checkpoint carries the same sections), so both validate and wire them
    alike.  Durability and ``parallel`` stay with each caller: a restored
    index must replay its log before any worker process attaches.
    """
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
    engine = spec_section(spec, "engine")
    if engine:
        _reject_unknown_keys("engine", engine, _ENGINE_KEYS)
        index.engine_defaults = dict(engine)
        try:
            index.engine()  # the scheduler applies its own rules to each value
        except (TypeError, ValueError) as error:
            raise ValueError(
                f"malformed engine section {dict(engine)!r}: {error}"
            ) from error


def check_parallel(parallel: Mapping[str, Any]) -> None:
    """Reject unknown keys, an unknown backend and a bad ``workers`` count.

    Shared by :func:`open_index` and :func:`repro.core.persistence.load_index`.
    """
    from repro.shard.parallel import BACKENDS

    _reject_unknown_keys("parallel", parallel, _PARALLEL_KEYS)
    backend = parallel.get("backend", "process")
    if backend not in BACKENDS:
        raise ValueError(f"unknown parallel backend {backend!r}")
    workers = parallel.get("workers")
    if workers is not None and not (is_int(workers) and workers >= 0):
        raise ValueError(f"parallel.workers must be an int >= 0, got {workers!r}")


__all__ = [
    "config_from_spec",
    "config_to_spec",
    "index_spec",
    "install_sections",
    "open_index",
]
