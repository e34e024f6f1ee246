"""Declarative index construction: one JSON-round-trippable spec, two facades.

The pre-v2 surface required callers to know which facade class to
instantiate and how to wire a partitioner.  The v2 entry points are
declarative:

* :func:`open_index` — build a :class:`~repro.core.index.MovingObjectIndex`
  or a :class:`~repro.shard.index.ShardedIndex` from one plain-dict spec;
* :class:`IndexBuilder` — the fluent equivalent, for callers that prefer
  chained configuration over a dict;
* :func:`index_spec` — recover the canonical spec of a live index, such that
  ``open_index(index_spec(index))`` builds an equivalent empty index.

The same config codec (:func:`config_to_spec` / :func:`config_from_spec`)
is used by the persistence checkpoints, so a checkpoint's embedded
configuration *is* a spec fragment: spec → index → checkpoint → load
round-trips to the identical spec.

>>> from repro.api import IndexBuilder, index_spec, open_index
>>> index = open_index({"kind": "single", "config": {"strategy": "LBU"}})
>>> index.config.strategy
'LBU'
>>> sharded = (
...     IndexBuilder()
...     .strategy("GBU")
...     .buffer_percent(2.0)
...     .shards(4)
...     .engine(num_clients=16)
...     .rebalance(threshold=2.0, cooldown=300)
...     .build()
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
import json
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Optional, Union

from repro.core.config import IndexConfig
from repro.update.params import TuningParameters

if TYPE_CHECKING:
    from repro.core.protocol import SpatialIndexFacade
    from repro.shard.partitioner import Partitioner


def config_to_spec(config: IndexConfig) -> Dict[str, Any]:
    """The plain-dict form of an :class:`IndexConfig` (JSON-safe).

    This is the exact shape persistence checkpoints embed, so a checkpoint's
    ``config`` section round-trips through :func:`config_from_spec`.
    """
    return {
        "page_size": config.page_size,
        "buffer_percent": config.buffer_percent,
        "strategy": config.strategy,
        "split": config.split,
        "reinsert_on_underflow": config.reinsert_on_underflow,
        "use_summary_for_queries": config.use_summary_for_queries,
        "charge_hash_io": config.charge_hash_io,
        "bulk_load_fill": config.bulk_load_fill,
        "min_fill_factor": config.min_fill_factor,
        "params": {
            "epsilon": config.params.epsilon,
            "distance_threshold": config.params.distance_threshold,
            "level_threshold": config.params.level_threshold,
            "piggyback": config.params.piggyback,
            "max_piggyback_objects": config.params.max_piggyback_objects,
        },
    }


# Format-version-2 checkpoints and saved ``index_spec`` JSON carry these two
# representation switches.  Whatever they say, the page images beside them
# were always the columnar codec format, so such documents load as they are.
_RETIRED_CONFIG_KEYS = ("node_layout", "page_store")


def _reject_unknown_keys(section: str, data: Dict[str, Any], schema: type) -> None:
    unknown = set(data) - {field.name for field in dataclasses.fields(schema)}
    if unknown:
        raise ValueError(f"unknown spec keys {sorted(unknown)!r} in {section!r}")


def config_from_spec(spec: Dict[str, Any]) -> IndexConfig:
    """Rebuild an :class:`IndexConfig` from its (possibly partial) spec dict.

    Raises ``ValueError`` for a key neither :class:`IndexConfig` nor (under
    ``"params"``) :class:`TuningParameters` declares.
    """
    data = {
        key: value for key, value in spec.items() if key not in _RETIRED_CONFIG_KEYS
    }
    params_data = data.pop("params", None)
    _reject_unknown_keys("config", data, IndexConfig)
    if params_data is None:
        return IndexConfig(**data)
    _reject_unknown_keys("config.params", params_data, TuningParameters)
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
        if index.rebalancer is not None:
            spec["rebalance"] = index.rebalancer.to_spec()
        if index.adaptive is not None:
            spec["adaptive"] = index.adaptive.to_spec()
        if index.parallel_spec is not None:
            spec["parallel"] = dict(index.parallel_spec)
    else:
        spec = {"kind": "single", "config": config_to_spec(index.config)}
    if index.engine_defaults:
        spec["engine"] = dict(index.engine_defaults)
    if index.durability is not None:
        spec["durability"] = index.durability.to_spec()
    return spec


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
            "adaptive": {"enabled": ..., "cooldown": ...,
                         "min_ops": ...},        # sharded: strategy selection
            "parallel": {"backend": "serial" | "process",
                         "workers": N},          # sharded: execution backend
            "durability": {"dir": "...", "sync": "always"|"group"|"none",
                           "group_size": N},     # write-ahead logging
        }

    Keyword *overrides* are merged over the spec's top level, so
    ``open_index(spec, shards=8)`` re-shards a saved spec.  The returned
    facade is a :class:`~repro.core.index.MovingObjectIndex` or a
    :class:`~repro.shard.index.ShardedIndex`; both speak the same
    :class:`~repro.core.protocol.SpatialIndexFacade` surface.
    """
    merged: Dict[str, Any] = dict(spec) if spec is not None else {}
    merged.update(overrides)
    builder = IndexBuilder.from_spec(merged)
    return builder.build()


class IndexBuilder:
    """Fluent construction of single or sharded indexes.

    Every method returns the builder, so configuration chains; ``build()``
    constructs the facade and ``spec()`` emits the equivalent declarative
    dict (JSON-serialisable, accepted by :func:`open_index`).
    """

    def __init__(self) -> None:
        self._config: Dict[str, Any] = {}
        self._params: Dict[str, Any] = {}
        self._kind: str = "single"
        self._shards: Optional[int] = None
        self._partitioner_spec: Optional[Dict[str, Any]] = None
        self._engine: Dict[str, Any] = {}
        self._rebalance: Optional[Dict[str, Any]] = None
        self._adaptive: Optional[Dict[str, Any]] = None
        self._parallel: Optional[Dict[str, Any]] = None
        self._durability: Optional[Dict[str, Any]] = None

    # -- index configuration -------------------------------------------
    def strategy(self, name: str) -> "IndexBuilder":
        """Update strategy: ``"TD"``, ``"NAIVE"``, ``"LBU"`` or ``"GBU"``."""
        self._config["strategy"] = name
        return self

    def page_size(self, size: int) -> "IndexBuilder":
        self._config["page_size"] = size
        return self

    def buffer_percent(self, percent: float) -> "IndexBuilder":
        """Buffer pool size as a percentage of the database size."""
        self._config["buffer_percent"] = percent
        return self

    def split(self, algorithm: str) -> "IndexBuilder":
        """Node split algorithm: ``"quadratic"``, ``"linear"`` or ``"rstar"``."""
        self._config["split"] = algorithm
        return self

    def config_field(self, name: str, value: Any) -> "IndexBuilder":
        """Set any other :class:`IndexConfig` field by name."""
        self._config[name] = value
        return self

    def params(self, **tuning: Any) -> "IndexBuilder":
        """Override bottom-up tuning parameters (``epsilon``, ``distance_threshold``, ...)."""
        self._params.update(tuning)
        return self

    # -- topology -------------------------------------------------------
    def shards(self, count: int) -> "IndexBuilder":
        """Shard over a near-square uniform grid of *count* cells.

        ``shards(1)`` still builds a (single-shard) sharded topology — the
        baseline the shard-scaling experiments compare against; omit the
        call entirely for a plain single index.
        """
        if count < 1:
            raise ValueError("shard count must be positive")
        self._kind = "sharded"
        self._shards = count
        return self

    def partitioner(
        self, partitioner: Union["Partitioner", Dict[str, Any]]
    ) -> "IndexBuilder":
        """Shard behind an explicit partitioner (instance or spec dict)."""
        spec = (
            partitioner
            if isinstance(partitioner, dict)
            else partitioner.to_spec()
        )
        self._kind = "sharded"
        self._partitioner_spec = spec
        return self

    def rebalance(
        self,
        threshold: Optional[float] = None,
        cooldown: Optional[int] = None,
        min_ops: Optional[int] = None,
    ) -> "IndexBuilder":
        """Attach the online shard rebalancer (implies a sharded topology).

        The built :class:`~repro.shard.index.ShardedIndex` monitors per-shard
        load and — when the max/mean load exceeds *threshold* after at least
        *min_ops* observed operations, re-checked every *cooldown* operations
        — re-cuts the partition boundaries and migrates the displaced
        objects through conflict-scheduled engine batches.  Unset parameters
        keep the :class:`~repro.shard.rebalance.RebalancePolicy` defaults.
        """
        section: Dict[str, Any] = {}
        if threshold is not None:
            section["threshold"] = threshold
        if cooldown is not None:
            section["cooldown"] = cooldown
        if min_ops is not None:
            section["min_ops"] = min_ops
        self._kind = "sharded"
        self._rebalance = section
        return self

    def adaptive(
        self,
        enabled: bool = True,
        cooldown: Optional[int] = None,
        min_ops: Optional[int] = None,
    ) -> "IndexBuilder":
        """Attach the adaptive strategy controller (implies a sharded topology).

        The built :class:`~repro.shard.index.ShardedIndex` observes each
        shard's update/query mix, movement distances and buffer hit ratio,
        ranks the four update strategies with the paper's Section 4 cost
        models (:mod:`repro.cost.model`), and hot-swaps any shard whose
        observed workload favours a different strategy — after at least
        *min_ops* observed operations (first switch) and every *cooldown*
        operations thereafter.  See :mod:`repro.shard.adaptive`.
        """
        section: Dict[str, Any] = {"enabled": bool(enabled)}
        if cooldown is not None:
            section["cooldown"] = cooldown
        if min_ops is not None:
            section["min_ops"] = min_ops
        self._kind = "sharded"
        self._adaptive = section
        return self

    def parallel(
        self, backend: str = "process", workers: Optional[int] = None
    ) -> "IndexBuilder":
        """Attach a shard-execution backend (implies a sharded topology).

        ``backend`` is ``"serial"`` (the default in-process execution —
        clears any previous setting) or ``"process"`` (one long-lived worker
        process per shard group; see :mod:`repro.shard.parallel`).
        *workers* caps the worker count and defaults to one per shard.
        """
        from repro.shard.parallel import BACKENDS

        if backend not in BACKENDS:
            raise ValueError(f"unknown parallel backend {backend!r}")
        self._kind = "sharded"
        if backend == "serial":
            self._parallel = None
            return self
        section: Dict[str, Any] = {"backend": backend}
        if workers is not None:
            section["workers"] = int(workers)
        self._parallel = section
        return self

    def durability(
        self,
        directory: Union[str, Path],
        sync: str = "group",
        group_size: int = 64,
    ) -> "IndexBuilder":
        """Attach write-ahead logging under *directory* (single or sharded).

        Every mutation is logged once it has been applied (apply first, log
        on success) — one log per shard plus a coordinator meta log, framed
        as CRC-checked commit units with monotonic LSNs (see
        :mod:`repro.durability`).  *sync* picks the
        fsync policy: ``"always"`` syncs every commit unit, ``"group"``
        (default) syncs batch dispatches immediately and single operations
        every *group_size* ops, ``"none"`` leaves syncing to the OS.
        ``load()`` and ``checkpoint()`` write ``<directory>/checkpoint.json``
        and rotate the logs; after a crash,
        :func:`repro.durability.recover_index` replays the intact log tail
        on top of that checkpoint.
        """
        from repro.durability.commit import normalise_spec

        self._durability = normalise_spec(
            {"dir": str(directory), "sync": sync, "group_size": group_size}
        )
        return self

    # -- engine session defaults ---------------------------------------
    def engine(
        self,
        num_clients: Optional[int] = None,
        time_per_io: Optional[float] = None,
        cpu_time_per_op: Optional[float] = None,
    ) -> "IndexBuilder":
        """Default parameters for sessions opened via ``index.engine()``."""
        if num_clients is not None:
            self._engine["num_clients"] = num_clients
        if time_per_io is not None:
            self._engine["time_per_io"] = time_per_io
        if cpu_time_per_op is not None:
            self._engine["cpu_time_per_op"] = cpu_time_per_op
        return self

    # -- spec round-trip ------------------------------------------------
    @classmethod
    def from_spec(cls, spec: Dict[str, Any]) -> "IndexBuilder":
        """A builder pre-loaded from a declarative spec dict."""
        known = {
            "kind",
            "config",
            "shards",
            "partitioner",
            "engine",
            "rebalance",
            "adaptive",
            "parallel",
            "durability",
        }
        unknown = set(spec) - known
        if unknown:
            raise ValueError(f"unknown spec keys {sorted(unknown)!r}")
        builder = cls()
        config = dict(spec.get("config", {}))
        params = config.pop("params", None)
        builder._config = config
        builder._params = dict(params) if params is not None else {}
        if spec.get("shards") is not None:
            builder.shards(int(spec["shards"]))
        if spec.get("partitioner") is not None:
            builder.partitioner(dict(spec["partitioner"]))
        if spec.get("rebalance") is not None:
            builder._kind = "sharded"
            builder._rebalance = dict(spec["rebalance"])
        if spec.get("adaptive") is not None:
            builder._kind = "sharded"
            builder._adaptive = dict(spec["adaptive"])
        if spec.get("parallel") is not None:
            section = dict(spec["parallel"])
            builder.parallel(
                backend=section.get("backend", "process"),
                workers=section.get("workers"),
            )
        if spec.get("durability") is not None:
            from repro.durability.commit import normalise_spec

            builder._durability = normalise_spec(dict(spec["durability"]))
        kind = spec.get("kind")
        if kind is not None:
            if kind not in ("single", "sharded"):
                raise ValueError(f"unknown index kind {kind!r}")
            if kind == "single" and builder._kind == "sharded":
                raise ValueError(
                    "kind 'single' conflicts with a shards/partitioner/"
                    "rebalance/adaptive/parallel entry"
                )
            builder._kind = kind
        builder._engine = dict(spec.get("engine", {}))
        return builder

    def spec(self) -> Dict[str, Any]:
        """The canonical declarative spec this builder would build from.

        Derived from the builder's own state (no index is constructed):
        the config is normalised through the shared codec and an implicit
        shard count becomes its explicit grid partitioner, so the result
        matches :func:`index_spec` of the built facade exactly.
        """
        config_spec = dict(self._config)
        if self._params:
            config_spec["params"] = dict(self._params)
        spec: Dict[str, Any] = {
            "kind": self._kind,
            "config": config_to_spec(config_from_spec(config_spec)),
        }
        if self._kind == "sharded":
            spec["partitioner"] = self._grid_partitioner_spec()
        if self._rebalance is not None:
            # Normalise through the policy codec (defaults made explicit;
            # a checkpoint's runtime counters are not part of the spec).
            from repro.shard.rebalance import RebalancePolicy

            policy_data = dict(self._rebalance)
            policy_data.pop("rebalances", None)
            spec["rebalance"] = RebalancePolicy.from_spec(policy_data).to_spec()
        if self._adaptive is not None:
            # Same normalisation: explicit defaults, runtime counters dropped.
            from repro.shard.adaptive import AdaptiveStrategyPolicy

            adaptive_data = dict(self._adaptive)
            adaptive_data.pop("switches", None)
            spec["adaptive"] = AdaptiveStrategyPolicy.from_spec(
                adaptive_data
            ).to_spec()
        if self._parallel is not None:
            # Normalise the worker count to the concrete value the built
            # index would resolve (one per shard unless capped lower), so
            # builder.spec() matches index_spec(builder.build()).
            from repro.shard.partitioner import partitioner_from_spec

            num_shards = partitioner_from_spec(spec["partitioner"]).num_shards
            workers = self._parallel.get("workers")
            resolved = max(
                1, min(workers if workers is not None else num_shards, num_shards)
            )
            spec["parallel"] = {
                "backend": self._parallel["backend"],
                "workers": resolved,
            }
        if self._engine:
            spec["engine"] = dict(self._engine)
        if self._durability is not None:
            from repro.durability.commit import normalise_spec

            spec["durability"] = normalise_spec(self._durability)
        return spec

    def _grid_partitioner_spec(self) -> Dict[str, Any]:
        from repro.shard.partitioner import GridPartitioner, partitioner_from_spec

        if self._partitioner_spec is not None:
            # Normalise through the partitioner codec (canonical key order).
            return partitioner_from_spec(self._partitioner_spec).to_spec()
        return GridPartitioner.for_shards(
            self._shards if self._shards is not None else 4
        ).to_spec()

    # -- construction ---------------------------------------------------
    def build(self) -> "SpatialIndexFacade":
        """Construct the configured facade (single or sharded)."""
        from repro.core.index import MovingObjectIndex
        from repro.shard.index import ShardedIndex
        from repro.shard.partitioner import (
            GridPartitioner,
            partitioner_from_spec,
        )

        config_spec = dict(self._config)
        if self._params:
            config_spec["params"] = dict(self._params)
        config = config_from_spec(config_spec)

        index: "SpatialIndexFacade"
        if self._kind == "sharded":
            if self._partitioner_spec is not None:
                partitioner = partitioner_from_spec(self._partitioner_spec)
            else:
                partitioner = GridPartitioner.for_shards(
                    self._shards if self._shards is not None else 4
                )
            index = ShardedIndex(config, partitioner=partitioner)
            if self._rebalance is not None:
                from repro.shard.rebalance import ShardRebalancer

                index.attach_rebalancer(
                    ShardRebalancer.from_spec(self._rebalance, index.num_shards)
                )
            if self._adaptive is not None:
                from repro.shard.adaptive import AdaptiveStrategyController

                index.attach_adaptive(
                    AdaptiveStrategyController.from_spec(
                        self._adaptive, index.num_shards
                    )
                )
        else:
            index = MovingObjectIndex(config)
        if self._engine:
            index.engine_defaults = dict(self._engine)
        if self._durability is not None:
            from repro.durability.commit import DurabilityManager

            index.attach_durability(DurabilityManager.from_spec(self._durability))
        if self._parallel is not None:
            index.set_parallel(
                backend=self._parallel["backend"],
                workers=self._parallel.get("workers"),
            )
        return index

    def to_json(self) -> str:
        """The spec as a JSON document."""
        return json.dumps(self.spec(), sort_keys=True)


__all__ = [
    "IndexBuilder",
    "config_from_spec",
    "config_to_spec",
    "index_spec",
    "open_index",
]
