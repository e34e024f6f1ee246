"""The shard engine and the facade's shared surface.

:class:`~repro.core.index.MovingObjectIndex` wires together the simulated
disk, the buffer pool, the R-tree, the secondary object-ID index, the
summary structure and the chosen update strategy: the paper's system, and
one shard of the :class:`~repro.shard.index.ShardedIndex` facade that
``open_index`` returns.  :class:`~repro.core.config.IndexConfig` captures
every knob, so a configuration can be described, logged and reproduced as
a single value; :mod:`repro.core.persistence` checkpoints an index.
"""

from repro.core.config import IndexConfig
from repro.core.index import MovingObjectIndex
from repro.core.persistence import load_index, save_index
from repro.core.protocol import SpatialIndexFacade

__all__ = [
    "IndexConfig",
    "MovingObjectIndex",
    "SpatialIndexFacade",
    "save_index",
    "load_index",
]
