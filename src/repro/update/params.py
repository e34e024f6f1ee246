"""Tuning parameters of the bottom-up strategies (Section 3.2.1).

The paper exposes three tuning knobs plus a sibling-selection policy:

* **epsilon (ε)** — the maximum MBR enlargement.  LBU enlarges by ε in every
  direction; GBU enlarges only in the direction of movement and only as far
  as needed.  The paper's default is 0.003 (Table 1).
* **distance threshold (D)** — objects that moved further than D between
  consecutive updates are treated as fast movers: GBU tries a sibling shift
  before an MBR extension for them.  Default 0.03.
* **level threshold (L)** — the maximum number of levels GBU may ascend above
  the leaf when neither extension nor shifting works.  ``L = 0`` reduces GBU
  to an optimised localized strategy; ``None`` means "height − 1" (ascend up
  to the root), which is the paper's default setting.
* **piggyback** — when shifting an object to a sibling, also move other
  objects of the source leaf that fit in the sibling, redistributing objects
  and reducing overlap.  On by default (it is one of GBU's optimisations);
  exposed so the ablation benchmarks can switch it off.  One shift moves at
  most :data:`~repro.update.generalized.MAX_PIGGYBACK_OBJECTS` such objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Optional


def is_int(value: Any) -> bool:
    """Whether *value* is an ``int`` proper (a ``bool`` is not a count)."""
    return isinstance(value, int) and not isinstance(value, bool)


def check_non_negative(name: str, value: Any) -> None:
    """Raise ``ValueError`` unless *value* is a finite number ≥ 0."""
    if not (isinstance(value, (int, float)) and math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be a finite number >= 0, got {value!r}")


@dataclass(frozen=True)
class TuningParameters:
    """Parameter bundle shared by the bottom-up strategies."""

    epsilon: float = 0.003
    distance_threshold: float = 0.03
    level_threshold: Optional[int] = None
    piggyback: bool = True

    def __post_init__(self) -> None:
        check_non_negative("epsilon", self.epsilon)
        check_non_negative("distance_threshold", self.distance_threshold)
        level = self.level_threshold
        if level is not None and (not is_int(level) or level < 0):
            raise ValueError(f"level_threshold must be None or an int >= 0, got {level!r}")

    def with_overrides(self, **changes) -> "TuningParameters":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)

    # The defaults above are the bold values of the paper's Table 1.
    @classmethod
    def paper_defaults(cls) -> "TuningParameters":
        """Defaults from Table 1: ε = 0.003, D = 0.03, L = height − 1."""
        return cls()
