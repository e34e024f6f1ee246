"""Declarative workload specification.

:class:`WorkloadSpec` captures the workload half of the paper's Table 1 — the
number of objects, the initial distribution, the number of updates and
queries, the maximum distance moved between updates, and the query-window
size range — independently of any index configuration.  The benchmark
harness combines one :class:`WorkloadSpec` with one
:class:`~repro.core.config.IndexConfig` per experimental point.

The paper runs at 1-10 million objects and updates; this reproduction scales
the defaults down while keeping every ratio configurable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class WorkloadSpec:
    """Description of one experiment workload."""

    num_objects: int = 10_000
    num_updates: int = 20_000
    num_queries: int = 1_000
    distribution: str = "uniform"
    max_distance: float = 0.03
    query_max_side: float = 0.1
    query_min_side: float = 0.0
    seed: int = 1
    #: Hotspot distribution shape (used only when ``distribution="hotspot"``):
    #: the space is a ``hotspot_cells x hotspot_cells`` grid whose cells get
    #: Zipf weights ``1/rank**hotspot_exponent``.
    hotspot_cells: int = 4
    hotspot_exponent: float = 1.5

    def __post_init__(self) -> None:
        if self.num_objects <= 0:
            raise ValueError("num_objects must be positive")
        if self.num_updates < 0 or self.num_queries < 0:
            raise ValueError("num_updates and num_queries must be non-negative")
        if self.max_distance < 0:
            raise ValueError("max_distance must be non-negative")
        if self.distribution.lower() not in (
            "uniform", "gaussian", "skew", "skewed", "hotspot"
        ):
            raise ValueError(f"unknown distribution {self.distribution!r}")
        if self.hotspot_cells <= 0:
            raise ValueError("hotspot_cells must be positive")
        if self.hotspot_exponent <= 0:
            raise ValueError("hotspot_exponent must be positive")

    def with_overrides(self, **changes) -> "WorkloadSpec":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)

    def describe(self) -> str:
        """One-line description used in benchmark reports."""
        return (
            f"objects={self.num_objects} updates={self.num_updates} "
            f"queries={self.num_queries} dist={self.distribution} "
            f"maxdist={self.max_distance:g} qside<={self.query_max_side:g}"
        )
