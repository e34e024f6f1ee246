"""Configuration of a :class:`~repro.core.index.MovingObjectIndex`."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

from repro.update.params import TuningParameters, check_non_negative, is_int


@dataclass(frozen=True)
class IndexConfig:
    """Everything needed to build an index instance.

    Parameters mirror the paper's experimental setup (Table 1 and Section 5):

    * ``page_size`` — bytes per disk page (paper: 1024);
    * ``buffer_percent`` — buffer pool size as a percentage of the database
      size (paper default: 1 %);
    * ``strategy`` — update strategy: ``"TD"``, ``"NAIVE"``, ``"LBU"`` or
      ``"GBU"``;
    * ``params`` — the ε / D / ℓ tuning parameters of the bottom-up
      strategies;
    * ``use_summary_for_queries`` — let GBU answer window queries through the
      summary structure (Section 3.2); exposed for ablations.

    The rest of the structure is the one the paper evaluates and is not
    configurable: a Guttman R-tree with the quadratic split and CondenseTree
    re-insertion on underflow (:mod:`repro.rtree`), STR bulk loading at the
    loader's default fill, one charged I/O per secondary-index probe
    (Section 4.2), columnar nodes (:mod:`repro.rtree.node`) and binary page
    images on the simulated disk
    (:class:`~repro.storage.serialization.NodeCodec`).
    """

    page_size: int = 1024
    buffer_percent: float = 1.0
    strategy: str = "GBU"
    params: TuningParameters = field(default_factory=TuningParameters.paper_defaults)
    use_summary_for_queries: bool = True

    def __post_init__(self) -> None:
        if not is_int(self.page_size) or self.page_size <= 0:
            raise ValueError(f"page_size must be a positive int, got {self.page_size!r}")
        check_non_negative("buffer_percent", self.buffer_percent)
        if not isinstance(self.strategy, str):
            raise ValueError(f"strategy must be a str, got {self.strategy!r}")
        strategy = self.strategy.upper()
        if strategy not in {"TD", "NAIVE", "LBU", "GBU"}:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        object.__setattr__(self, "strategy", strategy)

    def with_overrides(self, **changes: Any) -> "IndexConfig":
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
            f"eps={self.params.epsilon:g}",
            f"D={self.params.distance_threshold:g}",
            f"L={'max' if self.params.level_threshold is None else self.params.level_threshold}",
        ]
        return " ".join(bits)
