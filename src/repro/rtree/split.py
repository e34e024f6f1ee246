"""Guttman's quadratic node split.

When an R-tree node overflows its page it is split into two nodes.  The
paper's experiments use the original (Guttman) R-tree, whose standard split
is the **quadratic** algorithm, and it is the only one this tree uses: given
the overflowing entry list and the minimum number of entries a node must
hold, it returns two disjoint groups that each satisfy the minimum.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.rtree.node import Entry

SplitResult = Tuple[List[Entry], List[Entry]]


class QuadraticSplit:
    """Guttman's quadratic split.

    Seeds are the pair of entries that would waste the most area if placed in
    the same node; remaining entries are assigned one at a time to the group
    whose MBR needs the least enlargement, with ties broken by smaller area
    and then smaller group size.  When one group must take all remaining
    entries to reach the minimum fill, they are assigned wholesale.
    """

    name = "quadratic"

    def split(self, entries: Sequence[Entry], min_entries: int) -> SplitResult:
        # The whole algorithm runs on flat float tuples: the O(n^2) seed scan
        # and the per-entry assignment loop dominate split cost, and unpacked
        # coordinates avoid a Rect allocation per considered pair.  Every
        # formula mirrors the Rect methods operation for operation, so the
        # resulting groups are identical to the object-based implementation.
        self._validate(entries, min_entries)
        remaining = list(entries)
        bounds = [entry.rect.as_tuple() for entry in remaining]
        areas = [(b[2] - b[0]) * (b[3] - b[1]) for b in bounds]
        seed_a, seed_b = self._pick_seeds_from_bounds(bounds, areas)
        axmin, aymin, axmax, aymax = bounds[seed_a]
        bxmin, bymin, bxmax, bymax = bounds[seed_b]
        area_a = areas[seed_a]
        area_b = areas[seed_b]
        # Remove the later index first so the earlier index stays valid.
        for index in sorted((seed_a, seed_b), reverse=True):
            remaining.pop(index)
            bounds.pop(index)
        group_a = [entries[seed_a]]
        group_b = [entries[seed_b]]

        while remaining:
            # Force-assign when one group needs every remaining entry.
            if len(group_a) + len(remaining) == min_entries:
                group_a.extend(remaining)
                remaining.clear()
                break
            if len(group_b) + len(remaining) == min_entries:
                group_b.extend(remaining)
                remaining.clear()
                break

            # PickNext: the entry with the greatest |d1 - d2| preference.
            best_index = 0
            best_difference = -1.0
            best_d1 = best_d2 = 0.0
            for index, (exmin, eymin, exmax, eymax) in enumerate(bounds):
                uw = (axmax if axmax > exmax else exmax) - (
                    axmin if axmin < exmin else exmin
                )
                uh = (aymax if aymax > eymax else eymax) - (
                    aymin if aymin < eymin else eymin
                )
                d1 = uw * uh - area_a
                uw = (bxmax if bxmax > exmax else exmax) - (
                    bxmin if bxmin < exmin else exmin
                )
                uh = (bymax if bymax > eymax else eymax) - (
                    bymin if bymin < eymin else eymin
                )
                d2 = uw * uh - area_b
                difference = abs(d1 - d2)
                if difference > best_difference:
                    best_difference = difference
                    best_index = index
                    best_d1 = d1
                    best_d2 = d2

            entry = remaining.pop(best_index)
            exmin, eymin, exmax, eymax = bounds.pop(best_index)
            if best_d1 < best_d2:
                choose_a = True
            elif best_d2 < best_d1:
                choose_a = False
            elif area_a != area_b:
                choose_a = area_a < area_b
            else:
                choose_a = len(group_a) <= len(group_b)
            if choose_a:
                group_a.append(entry)
                if exmin < axmin:
                    axmin = exmin
                if eymin < aymin:
                    aymin = eymin
                if exmax > axmax:
                    axmax = exmax
                if eymax > aymax:
                    aymax = eymax
                area_a = (axmax - axmin) * (aymax - aymin)
            else:
                group_b.append(entry)
                if exmin < bxmin:
                    bxmin = exmin
                if eymin < bymin:
                    bymin = eymin
                if exmax > bxmax:
                    bxmax = exmax
                if eymax > bymax:
                    bymax = eymax
                area_b = (bxmax - bxmin) * (bymax - bymin)
        return group_a, group_b

    @staticmethod
    def _validate(entries: Sequence[Entry], min_entries: int) -> None:
        if len(entries) < 2:
            raise ValueError("cannot split fewer than two entries")
        if min_entries < 1:
            raise ValueError("min_entries must be at least 1")
        if len(entries) < 2 * min_entries:
            raise ValueError(
                f"cannot split {len(entries)} entries into two groups of "
                f"at least {min_entries}"
            )

    @staticmethod
    def _pick_seeds_from_bounds(
        bounds: Sequence[Tuple[float, float, float, float]],
        areas: Sequence[float],
    ) -> Tuple[int, int]:
        worst_waste = -1.0
        seeds = (0, 1)
        for i in range(len(bounds)):
            ixmin, iymin, ixmax, iymax = bounds[i]
            area_i = areas[i]
            for j in range(i + 1, len(bounds)):
                jxmin, jymin, jxmax, jymax = bounds[j]
                uw = (ixmax if ixmax > jxmax else jxmax) - (
                    ixmin if ixmin < jxmin else jxmin
                )
                uh = (iymax if iymax > jymax else jymax) - (
                    iymin if iymin < jymin else jymin
                )
                waste = uw * uh - area_i - areas[j]
                if waste > worst_waste:
                    worst_waste = waste
                    seeds = (i, j)
        return seeds
