"""Configuration of a :class:`~repro.core.index.MovingObjectIndex`."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.update.params import TuningParameters


@dataclass(frozen=True)
class IndexConfig:
    """Everything needed to build an index instance.

    Parameters mirror the paper's experimental setup (Table 1 and Section 5):

    * ``page_size`` — bytes per disk page (paper: 1024);
    * ``buffer_percent`` — buffer pool size as a percentage of the database
      size (paper default: 1 %);
    * ``strategy`` — update strategy: ``"TD"``, ``"NAIVE"``, ``"LBU"`` or
      ``"GBU"``;
    * ``split`` — node split algorithm: ``"quadratic"`` (default),
      ``"linear"`` or ``"rstar"``;
    * ``params`` — the ε / D / ℓ tuning parameters of the bottom-up
      strategies;
    * ``reinsert_on_underflow`` — Guttman condense-and-reinsert on deletes
      (the paper's "R-tree with re-insertions");
    * ``use_summary_for_queries`` — let GBU answer window queries through the
      summary structure (Section 3.2); exposed for ablations;
    * ``charge_hash_io`` — charge one disk read per secondary-index probe
      (Section 4.2's accounting); exposed for ablations.

    The physical representation is not configurable: nodes are columnar
    (:mod:`repro.rtree.node`) and the simulated disk holds their binary page
    images (:class:`~repro.storage.serialization.NodeCodec`).
    """

    page_size: int = 1024
    buffer_percent: float = 1.0
    strategy: str = "GBU"
    split: str = "quadratic"
    params: TuningParameters = field(default_factory=TuningParameters.paper_defaults)
    reinsert_on_underflow: bool = True
    use_summary_for_queries: bool = True
    charge_hash_io: bool = True
    bulk_load_fill: float = 0.66
    min_fill_factor: float = 0.4

    def __post_init__(self) -> None:
        if self.page_size <= 0:
            raise ValueError("page_size must be positive")
        if self.buffer_percent < 0:
            raise ValueError("buffer_percent must be non-negative")
        if not 0.0 < self.bulk_load_fill <= 1.0:
            raise ValueError("bulk_load_fill must be in (0, 1]")
        strategy = self.strategy.upper()
        if strategy not in {"TD", "NAIVE", "LBU", "GBU"}:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        object.__setattr__(self, "strategy", strategy)
        if self.split not in {"quadratic", "linear", "rstar"}:
            raise ValueError(f"unknown split algorithm {self.split!r}")

    def with_overrides(self, **changes) -> "IndexConfig":
        """Return a copy of this configuration with the given fields replaced."""
        return replace(self, **changes)

    @property
    def needs_parent_pointers(self) -> bool:
        """Whether the configured strategy stores parent pointers in leaves."""
        return self.strategy == "LBU"

    def describe(self) -> str:
        """One-line human-readable description used in benchmark reports."""
        bits = [
            f"strategy={self.strategy}",
            f"page={self.page_size}B",
            f"buffer={self.buffer_percent:g}%",
            f"split={self.split}",
            f"eps={self.params.epsilon:g}",
            f"D={self.params.distance_threshold:g}",
            f"L={'max' if self.params.level_threshold is None else self.params.level_threshold}",
        ]
        return " ".join(bits)
