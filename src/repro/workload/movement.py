"""Object movement model.

Between consecutive updates an object moves a random distance bounded by the
workload's *maximum distance moved* parameter (Table 1: 0.003 to 0.15, with a
default of 0.03).  The movement model draws, per update, a displacement
vector whose components are uniform in ``[-max_distance, +max_distance]``,
and keeps objects inside the unit square by clamping — the same behaviour the
GSTD-style generator of the paper exhibits with its "adjustment" option.

Optionally, a fraction of objects can be given a persistent drift direction
("trend"), which produces the directional movement GBU's directional MBR
extension was designed for; the sensitivity benchmarks use pure random
movement to match the paper, while one ablation exercises the trend mode.
"""

from __future__ import annotations

import math
import random
from typing import Dict, Union

from repro.geometry import Point


class MovementModel:
    """Generates successive positions for moving objects.

    Parameters
    ----------
    max_distance:
        Upper bound on the per-axis displacement between consecutive updates
        of the same object.
    seed:
        Seed or :class:`random.Random` instance for reproducibility.
    trend_fraction:
        Fraction of objects (chosen by object id hash) that move with a
        persistent drift direction instead of a fresh random direction each
        update.
    trend_strength:
        How much of a trending object's displacement follows its drift
        direction (the remainder stays random).
    """

    def __init__(
        self,
        max_distance: float = 0.03,
        seed: Union[int, random.Random, None] = 0,
        trend_fraction: float = 0.0,
        trend_strength: float = 0.8,
    ) -> None:
        if max_distance < 0:
            raise ValueError("max_distance must be non-negative")
        if not 0.0 <= trend_fraction <= 1.0:
            raise ValueError("trend_fraction must be in [0, 1]")
        if not 0.0 <= trend_strength <= 1.0:
            raise ValueError("trend_strength must be in [0, 1]")
        self.max_distance = max_distance
        self.rng = seed if isinstance(seed, random.Random) else random.Random(seed)
        self.trend_fraction = trend_fraction
        self.trend_strength = trend_strength
        self._trend_direction: Dict[int, float] = {}

    # ------------------------------------------------------------------
    def next_position(self, oid: int, current: Point) -> Point:
        """The object's next position after one movement step."""
        dx = self.rng.uniform(-self.max_distance, self.max_distance)
        dy = self.rng.uniform(-self.max_distance, self.max_distance)
        if self.trend_fraction > 0.0 and self._is_trending(oid):
            angle = self._direction_of(oid)
            drift = self.max_distance * self.trend_strength
            dx = (1.0 - self.trend_strength) * dx + drift * math.cos(angle)
            dy = (1.0 - self.trend_strength) * dy + drift * math.sin(angle)
        return current.translated(dx, dy).clamped()

    # ------------------------------------------------------------------
    def _is_trending(self, oid: int) -> bool:
        # Deterministic per-object choice so re-running a workload gives the
        # same trending set regardless of the order updates are generated in.
        return (hash(oid) % 1000) / 1000.0 < self.trend_fraction

    def _direction_of(self, oid: int) -> float:
        direction = self._trend_direction.get(oid)
        if direction is None:
            direction = self.rng.uniform(0.0, 2.0 * math.pi)
            self._trend_direction[oid] = direction
        return direction
