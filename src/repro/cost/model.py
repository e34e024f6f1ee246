"""Cost formulas from Section 4.

The data space is the unit square and object movement distances are bounded
by sqrt(2).  The model uses three ingredients:

* **Lemma 1** — a point falls in a window of size ``x * y`` with probability
  ``x * y``.
* **Lemma 2** — two windows of sizes ``(x1, y1)`` and ``(x2, y2)`` placed
  uniformly in the unit square overlap with probability
  ``min(1, (x1 + x2) * (y1 + y2))``.
* **Theorem 1** — the expected number of node accesses of a window query is
  the sum over all nodes of the probability that the node's MBR overlaps the
  query window.

From these the model derives:

* the cost of a **top-down update** — one query-shaped descent to find the
  old entry, plus the insert descent and the leaf write
  (``C_td = DA(query) + height + 1`` in the paper's accounting);
* the cost of a **bottom-up update** as a function of the distance *d* the
  object moved (Section 4.2's three cases: still inside the leaf MBR,
  extendable, or requiring a sibling/ascent), with and without the summary
  structure's direct access table.

The formulas are intentionally simple — the point of Section 4 (and of the
corresponding benchmark here) is the *bound*: even the worst bottom-up case
does not exceed the best top-down case for realistic tree heights.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Dict, List, Tuple

from repro.rtree.tree import RTree


def window_overlap_probability(
    width_a: float, height_a: float, width_b: float, height_b: float
) -> float:
    """Lemma 2: probability that two uniformly placed windows overlap."""
    for value in (width_a, height_a, width_b, height_b):
        if value < 0:
            raise ValueError("window dimensions must be non-negative")
    return min(1.0, (width_a + width_b) * (height_a + height_b))


@dataclass(frozen=True)
class TreeShape:
    """The node-size statistics the cost formulas need.

    ``node_extents[level]`` lists the (width, height) of every node MBR at
    that level (level 0 = leaves).  ``height`` is the number of levels.
    """

    height: int
    node_extents: Tuple[Tuple[Tuple[float, float], ...], ...]

    @classmethod
    def from_tree(cls, tree: RTree) -> "TreeShape":
        """Measure the shape of an existing tree (no I/O charged)."""
        per_level: Dict[int, List[Tuple[float, float]]] = {}
        for node, _parent in tree.iter_nodes():
            if not len(node):
                continue
            mbr = node.mbr()
            per_level.setdefault(node.level, []).append((mbr.width, mbr.height))
        height = tree.height
        extents = tuple(
            tuple(per_level.get(level, ())) for level in range(height)
        )
        return cls(height=height, node_extents=extents)

    def average_leaf_extent(self) -> Tuple[float, float]:
        """Average leaf MBR width and height."""
        leaves = self.node_extents[0] if self.node_extents else ()
        if not leaves:
            return (0.0, 0.0)
        width = sum(w for w, _ in leaves) / len(leaves)
        height = sum(h for _, h in leaves) / len(leaves)
        return (width, height)


def expected_query_node_accesses(
    shape: TreeShape, query_width: float, query_height: float
) -> float:
    """Theorem 1: expected node accesses of a window query of the given size."""
    total = 0.0
    for level_extents in shape.node_extents:
        for width, height in level_extents:
            total += window_overlap_probability(width, height, query_width, query_height)
    return total


@dataclass(frozen=True)
class TopDownCostModel:
    """Expected cost of a top-down update (Section 4.1)."""

    shape: TreeShape

    def locate_cost(self, target_width: float = 0.0, target_height: float = 0.0) -> float:
        """Expected node accesses of the delete's FindLeaf descent.

        A deletion searches with a degenerate (point-sized) window; the
        formula still charges every node whose MBR may contain the point.
        """
        return expected_query_node_accesses(self.shape, target_width, target_height)

    def update_cost(self) -> float:
        """Total expected I/O of a top-down update.

        Locate-and-delete descent, plus the insert descent (one path of
        ``height`` nodes in the best case), plus the leaf write the paper
        adds explicitly.
        """
        return self.locate_cost() + self.shape.height + 1.0

    def best_case_cost(self) -> float:
        """The paper's best case: a single root-to-leaf path plus the write.

        ``C = 2 * height + 1`` — one descent of ``height`` node reads for the
        delete, the same for the insert, plus writing the leaf.
        """
        return 2.0 * self.shape.height + 1.0


@dataclass(frozen=True)
class BottomUpCostModel:
    """Expected cost of a bottom-up update as a function of distance moved (Section 4.2)."""

    shape: TreeShape
    epsilon: float = 0.003
    use_direct_access_table: bool = True

    # I/O constants from the paper's case analysis.
    COST_IN_PLACE: ClassVar[float] = 3.0          # hash probe + leaf read + leaf write
    COST_EXTEND: ClassVar[float] = 4.0            # + parent read
    COST_SIBLING: ClassVar[float] = 6.0           # + sibling read/write
    COST_ASCEND_WITH_TABLE: ClassVar[float] = 7.0  # worst case with the direct access table

    def probability_within_leaf(self, distance: float) -> float:
        """Probability the new position stays inside the leaf MBR.

        The paper's worst case puts the object at a corner of its leaf MBR
        and lets it move a distance *d* in a random direction; the chance of
        staying inside is roughly the fraction of directions that point into
        the MBR, attenuated by how far *d* is relative to the leaf extent.
        """
        width, height = self.shape.average_leaf_extent()
        if width <= 0 or height <= 0:
            return 0.0
        if distance <= 0:
            return 1.0
        # Fraction of the quarter-plane of directions that stays inside, for
        # each axis independently, bounded to [0, 1].
        fraction_x = max(0.0, 1.0 - distance / max(width, 1e-12))
        fraction_y = max(0.0, 1.0 - distance / max(height, 1e-12))
        return 0.25 * (1.0 + fraction_x) * (1.0 + fraction_y)

    def probability_extendable(self, distance: float) -> float:
        """Probability the ε-extension suffices when the object left its leaf MBR."""
        if distance <= 0:
            return 1.0
        return max(0.0, min(1.0, self.epsilon / distance))

    def update_cost(self, distance: float) -> float:
        """Expected I/O of a bottom-up update for movement distance *distance*."""
        p_in = self.probability_within_leaf(distance)
        p_out = 1.0 - p_in
        p_extend = self.probability_extendable(distance)
        escalate_cost = (
            self.COST_ASCEND_WITH_TABLE
            if self.use_direct_access_table
            else self.COST_SIBLING + self.shape.height - 2
        )
        return (
            p_in * self.COST_IN_PLACE
            + p_out * p_extend * self.COST_EXTEND
            + p_out * (1.0 - p_extend) * escalate_cost
        )
