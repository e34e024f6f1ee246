"""Configuration of a :class:`~repro.core.index.MovingObjectIndex`."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

from repro.api.schema import default, read
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
    * ``params`` — the ε / D / ℓ tuning parameters of the bottom-up
      strategies;
    * ``use_summary_for_queries`` — let GBU answer window queries through the
      summary structure (Section 3.2); exposed for ablations.

    Each field's default and rule is its ``config`` key in
    :data:`repro.api.schema.SPEC_KEYS`.

    The rest of the structure is the one the paper evaluates and is not
    configurable: a Guttman R-tree with the quadratic split and CondenseTree
    re-insertion on underflow (:mod:`repro.rtree`), STR bulk loading at the
    loader's default fill, one charged I/O per secondary-index probe
    (Section 4.2), columnar nodes (:mod:`repro.rtree.node`) and binary page
    images on the simulated disk
    (:class:`~repro.storage.serialization.NodeCodec`).
    """

    page_size: int = default("config", "page_size")
    buffer_percent: float = default("config", "buffer_percent")
    strategy: str = default("config", "strategy")
    params: TuningParameters = field(default_factory=TuningParameters.paper_defaults)
    use_summary_for_queries: bool = default("config", "use_summary_for_queries")

    def __post_init__(self) -> None:
        fields = dict(vars(self), params=vars(self.params))
        # The strategy comes back upper-cased.
        object.__setattr__(self, "strategy", read("config", fields)["strategy"])

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
