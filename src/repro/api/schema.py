"""The spec schema: one declaration per key of an index spec.

:data:`SPEC_KEYS` maps each spec section to its keys; a :class:`Key` states
a key's type, range or choices, default, and whether it is retired.
:func:`read` checks a spec or checkpoint section, or the fields a
constructor was given, against the table, so ``open_index``, ``load_index``
and every class built from a section apply one rule per key.
A ``bool`` is never a number and a non-``bool`` never a flag, numbers are
finite, and every section rejects an unknown key with one message format.
This module imports nothing else from :mod:`repro`.

>>> read("partitioner", {"kind": "grid", "columns": 2, "rows": 1, "extra": 3})
Traceback (most recent call last):
    ...
ValueError: unknown spec keys ['extra'] in 'partitioner.grid'
"""

from __future__ import annotations

import math
import os
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional, Tuple

#: The default of a key that its section must name.
REQUIRED: Any = object()
#: The :attr:`Key.retired` value of a key that is still live.
LIVE: Any = object()
#: The :attr:`Key.retired` value of a retired key that loads at any value.
ANY: Any = object()


@dataclass(frozen=True)
class Key:
    """The rule of one spec key.

    ``low`` and ``high`` bound a number, or the length of a str or list
    (``above``: ``low`` is exclusive); ``items`` is the rule of each list
    element; ``fold`` upper-cases a str before its ``choices`` are compared;
    a str key takes a path object as its path string.  A ``dict`` key is a
    nested section, read against the table named by ``section``.
    ``retired`` is the one value a retired key still accepts (:data:`ANY`:
    every value); such a key is dropped when read.  ``legacy`` maps values
    only a checkpoint may still hold to the value that replaced them.
    """

    kind: type
    default: Any = REQUIRED
    low: Optional[float] = None
    high: Optional[float] = None
    above: bool = False
    choices: Tuple[Any, ...] = ()
    fold: bool = False
    nullable: bool = False
    items: Optional["Key"] = None
    section: Optional[str] = None
    retired: Any = LIVE
    legacy: Mapping[str, str] = field(default_factory=dict)


def _section(name: str) -> Key:
    return Key(dict, None, nullable=True, section=name)


def _retired(value: Any) -> Key:
    return Key(type(value), None, retired=value)


#: The most shards one index may have: 128x the largest count any test,
#: figure or workload uses (8), so a mistyped count raises instead of
#: building one index per cell.
MAX_SHARDS = 1024

_COORDINATE = Key(float)
_SHARD_COUNT = Key(int, low=1, high=MAX_SHARDS)
_GATE = {"cooldown": Key(int, 400, low=0), "min_ops": Key(int, 128, low=0)}

SPEC_KEYS: Dict[str, Dict[str, Key]] = {
    "spec": {
        "kind": Key(str, None, choices=("single", "sharded"), nullable=True),
        "config": _section("config"),
        "shards": replace(_SHARD_COUNT, default=None, nullable=True),
        "partitioner": _section("partitioner"),
        "engine": _section("engine"),
        "rebalance": _section("rebalance"),
        "adaptive": _section("adaptive"),
        "parallel": _section("parallel"),
        "durability": _section("durability"),
    },
    "config": {
        "page_size": Key(int, 1024, low=1),
        "buffer_percent": Key(float, 1.0, low=0),
        "strategy": Key(str, "GBU", choices=("TD", "NAIVE", "LBU", "GBU"), fold=True),
        "params": _section("config.params"),
        "use_summary_for_queries": Key(bool, True),
        # Settings the index no longer varies, at the one value it uses.
        "split": _retired("quadratic"),
        "reinsert_on_underflow": _retired(True),
        "charge_hash_io": _retired(True),
        "bulk_load_fill": _retired(0.66),
        "min_fill_factor": _retired(0.4),
        # Representation switches of format-version-2 checkpoints: the page
        # images beside them were the columnar codec format whatever they say.
        "node_layout": Key(object, None, retired=ANY),
        "page_store": Key(object, None, retired=ANY),
    },
    # The defaults are the bold values of the paper's Table 1.
    "config.params": {
        "epsilon": Key(float, 0.003, low=0),
        "distance_threshold": Key(float, 0.03, low=0),
        # None: ascend up to the root (height - 1).
        "level_threshold": Key(int, None, low=0, nullable=True),
        "piggyback": Key(bool, True),
        "max_piggyback_objects": _retired(8),
    },
    "engine": {
        "num_clients": Key(int, 50, low=1),
        "time_per_io": Key(float, 0.01, low=0),
        "cpu_time_per_op": Key(float, 0.001, low=0),
    },
    # The policy keys, then the runtime counters a checkpoint adds.
    "rebalance": {
        **_GATE,
        "threshold": Key(float, 1.5, low=1.0, above=True),
        "rebalances": Key(int, 0, low=0),
    },
    "adaptive": {
        **_GATE,
        "switches": Key(int, 0, low=0),
        "shard_switches": Key(list, None, nullable=True, items=Key(int, low=0)),
        "enabled": _retired(True),
    },
    "parallel": {
        # The deleted thread executor only ever wrapped the serial one.
        "backend": Key(
            str, "process", choices=("serial", "process"), legacy={"thread": "serial"}
        ),
        "workers": Key(int, None, low=0, nullable=True),
    },
    "durability": {
        "dir": Key(str, low=1),
        "sync": Key(str, "group", choices=("always", "group", "none")),
        "group_size": Key(int, 64, low=1),
    },
    # The partitioner section is read by its ``kind``.
    "partitioner.grid": {
        "kind": Key(str, choices=("grid",)),
        "columns": _SHARD_COUNT,
        "rows": _SHARD_COUNT,
    },
    "partitioner.boundaries": {
        "kind": Key(str, choices=("boundaries",)),
        "boundaries": Key(
            list, low=1, high=MAX_SHARDS, items=Key(list, low=4, high=4, items=_COORDINATE)
        ),
    },
    "partitioner.quantile_grid": {
        "kind": Key(str, choices=("quantile_grid",)),
        "x_cuts": Key(list, low=2, high=MAX_SHARDS + 1, items=_COORDINATE),
        "y_cuts": Key(
            list,
            low=1,
            high=MAX_SHARDS,
            items=Key(list, low=2, high=MAX_SHARDS + 1, items=_COORDINATE),
        ),
    },
}


def default(section: str, name: str) -> Any:
    """The default of key *name* in *section*."""
    return SPEC_KEYS[section][name].default


def read(section: str, data: Any, *, checkpoint: bool = False) -> Dict[str, Any]:
    """*data* checked against *section*'s keys, nested sections read too.

    Returns the keys *data* names, in its order, with retired keys dropped;
    absent keys stay absent (the constructors, which pass their own fields
    as *data*, fill the defaults).  A *checkpoint* section may also hold a
    key's ``legacy`` values.  Raises ``ValueError`` naming the offending key.
    """
    if not isinstance(data, Mapping):
        raise ValueError(f"spec section {section!r} must be a mapping, got {data!r}")
    if section not in SPEC_KEYS:  # the partitioner: one table per kind
        kind = data.get("kind")
        if f"{section}.{kind}" not in SPEC_KEYS:
            raise ValueError(f"unknown {section} kind {kind!r}")
        section = f"{section}.{kind}"
    keys, prefix = SPEC_KEYS[section], "" if section == "spec" else f"{section}."
    unknown = [name for name in data if name not in keys]
    if unknown:
        raise ValueError(f"unknown spec keys {sorted(unknown, key=str)!r} in {section!r}")
    values: Dict[str, Any] = {}
    for name, value in data.items():
        key = keys[name]
        if key.retired is LIVE:
            values[name] = _value(prefix + name, key, value, checkpoint)
        elif key.retired is not ANY and not (
            type(value) is type(key.retired) and value == key.retired
        ):
            raise ValueError(
                f"{prefix}{name} is retired and only accepts {key.retired!r}, got {value!r}"
            )
    for name, key in keys.items():
        if key.default is REQUIRED and name not in data:
            raise ValueError(f"{prefix}{name} is required")
    return values


def check_shard_count(path: str, count: int) -> None:
    """Raise ``ValueError`` (naming *path*) unless 1 <= *count* <= :data:`MAX_SHARDS`.

    The partitioners whose cell count is a product of keys check it here,
    before any cell is built.
    """
    _value(path, _SHARD_COUNT, count, False)


def _is(kind: type, value: Any) -> bool:
    if kind is bool or isinstance(value, bool):
        return kind is bool and isinstance(value, bool)
    if kind is float:
        return isinstance(value, int) or (isinstance(value, float) and math.isfinite(value))
    if kind is list:
        return isinstance(value, (list, tuple))
    return isinstance(value, kind)


def _describe(key: Key) -> str:
    if key.choices:
        text = f"one of {key.choices!r}"
    else:
        nouns = {float: "a finite number", int: "an int"}
        text = nouns.get(key.kind, f"a {key.kind.__name__}")
        if key.kind in (str, list):
            text += " of length"
        if key.low is not None:
            text += f" {'>' if key.above else '>='} {key.low}"
        if key.high is not None:
            text += f" and <= {key.high}"
    return f"None or {text}" if key.nullable else text


def _value(path: str, key: Key, value: Any, checkpoint: bool) -> Any:
    if value is None and key.nullable:
        return None
    if key.section is not None:
        return read(key.section, value, checkpoint=checkpoint)
    if key.kind is str and isinstance(value, os.PathLike):
        value = os.fspath(value)
    if not _is(key.kind, value):
        raise ValueError(f"{path} must be {_describe(key)}, got {value!r}")
    checked = value
    if checkpoint and key.legacy:
        checked = key.legacy.get(checked, checked)
    if key.fold:
        checked = checked.upper()
    if key.choices and checked not in key.choices:
        raise ValueError(f"{path} must be {_describe(key)}, got {value!r}")
    sized = key.kind in (str, list)
    size = len(checked) if sized else checked
    if (key.low is not None and (size <= key.low if key.above else size < key.low)) or (
        key.high is not None and size > key.high
    ):
        # A sized value is reported by its length: the list itself can be huge.
        got = f"a {type(value).__name__} of length {size}" if sized else repr(value)
        raise ValueError(f"{path} must be {_describe(key)}, got {got}")
    if key.items is not None:
        return [
            _value(f"{path}[{index}]", key.items, item, checkpoint)
            for index, item in enumerate(checked)
        ]
    return checked


__all__ = [
    "ANY",
    "Key",
    "LIVE",
    "MAX_SHARDS",
    "REQUIRED",
    "SPEC_KEYS",
    "check_shard_count",
    "default",
    "read",
]
