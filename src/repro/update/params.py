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

from dataclasses import dataclass, replace
from typing import Optional

from repro.api.schema import default, read


@dataclass(frozen=True)
class TuningParameters:
    """Parameter bundle shared by the bottom-up strategies.

    The defaults and the rules of each field are the ``config.params`` keys
    of :data:`repro.api.schema.SPEC_KEYS`.
    """

    epsilon: float = default("config.params", "epsilon")
    distance_threshold: float = default("config.params", "distance_threshold")
    level_threshold: Optional[int] = default("config.params", "level_threshold")
    piggyback: bool = default("config.params", "piggyback")

    def __post_init__(self) -> None:
        read("config.params", vars(self))

    def with_overrides(self, **changes) -> "TuningParameters":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)

    @classmethod
    def paper_defaults(cls) -> "TuningParameters":
        """Defaults from Table 1: ε = 0.003, D = 0.03, L = height − 1."""
        return cls()
