"""Query workload.

The paper issues window (range) queries whose centres are uniformly
distributed over the data space and whose side lengths are uniform in
``[0, 0.1]`` (Section 5: "Query rectangles are uniformly distributed with
dimensions in the range of [0, 0.1]").  The throughput experiment uses a
smaller range, ``[0, 0.01]``.

:class:`QueryWorkload` generates such windows reproducibly and clips them to
the unit square.
"""

from __future__ import annotations

import random
from typing import Iterator, Union

from repro.geometry import Rect


class QueryWorkload:
    """Generator of uniformly distributed query windows.

    Parameters
    ----------
    max_side:
        Upper bound of the uniformly drawn window side length.
    min_side:
        Lower bound of the window side length (0 produces point-like
        windows occasionally, exactly as the paper's range ``[0, 0.1]``
        allows).
    seed:
        Seed or :class:`random.Random` for reproducibility.
    """

    def __init__(
        self,
        max_side: float = 0.1,
        min_side: float = 0.0,
        seed: Union[int, random.Random, None] = 0,
    ) -> None:
        if max_side < 0 or min_side < 0 or min_side > max_side:
            raise ValueError("require 0 <= min_side <= max_side")
        self.max_side = max_side
        self.min_side = min_side
        self.rng = seed if isinstance(seed, random.Random) else random.Random(seed)

    def next_window(self) -> Rect:
        """One query window, clipped to the unit square."""
        width = self.rng.uniform(self.min_side, self.max_side)
        height = self.rng.uniform(self.min_side, self.max_side)
        cx = self.rng.random()
        cy = self.rng.random()
        xmin = max(0.0, cx - width / 2.0)
        ymin = max(0.0, cy - height / 2.0)
        xmax = min(1.0, cx + width / 2.0)
        ymax = min(1.0, cy + height / 2.0)
        return Rect(xmin, ymin, xmax, ymax)

    def iter_windows(self, count: int) -> Iterator[Rect]:
        """Iterate over *count* query windows without materialising the list."""
        for _ in range(count):
            yield self.next_window()
