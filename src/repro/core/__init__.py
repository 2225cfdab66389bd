"""H-ORAM: the paper's contribution (Section 4).

The hybrid ORAM splits state across three layers (Figure 4-1):

* **control layer** (trusted): permutation list, position map, ROB table
  and the secure scheduler -- :mod:`repro.core.rob`,
  :mod:`repro.core.scheduler`, :mod:`repro.core.stages`;
* **memory layer**: a Path ORAM tree used as a cache --
  :mod:`repro.core.cache_tree`;
* **storage layer**: N encrypted blocks at permuted slots in sqrt(N)
  partitions, with the group/partition shuffle and the partial-shuffle
  optimization -- :mod:`repro.core.storage_layer`.

:mod:`repro.core.horam` wires the layers into the
:class:`~repro.core.horam.HybridORAM` protocol;
:mod:`repro.core.analysis` implements the closed-form model of Section
5.1 (equations 5-1 through 5-6, Table 5-1, Figure 5-1);
:mod:`repro.core.multiuser` adds the Section 5.3.2 multi-user front end;
:mod:`repro.core.sharding` scales past one instance by striping the
address space across independent shards behind the same interface;
:mod:`repro.core.executor` runs that fleet either in-process (serial)
or across one worker process per shard (parallel), bit-identically;
:mod:`repro.core.recipe` holds the :class:`~repro.core.recipe.StackRecipe`
every stack is built from and the one builder.
"""

from repro.core.config import HORAMConfig
from repro.core.stages import Stage, StageSchedule
from repro.core.rob import EntryState, RobEntry, RobTable
from repro.core.scheduler import CyclePlan, SecureScheduler
from repro.core.cache_tree import CacheTree
from repro.core.storage_layer import PermutedStorage
from repro.core.horam import HybridORAM, build_horam
from repro.core.multiuser import MultiUserFrontEnd, UserStats
from repro.core.recipe import StackRecipe, build
from repro.core.executor import ParallelExecutor, SerialExecutor, ShardExecutor
from repro.core.sharding import ShardedHORAM, build_sharded_horam
from repro.core.checkpoint import (
    CHECKPOINT_VERSION,
    Checkpoint,
    CheckpointError,
    load_checkpoint,
    recover,
    restore_stack,
    save_checkpoint,
    snapshot_stack,
)
from repro.core import analysis

__all__ = [
    "HORAMConfig",
    "Stage",
    "StageSchedule",
    "EntryState",
    "RobEntry",
    "RobTable",
    "CyclePlan",
    "SecureScheduler",
    "CacheTree",
    "PermutedStorage",
    "HybridORAM",
    "build_horam",
    "StackRecipe",
    "build",
    "MultiUserFrontEnd",
    "UserStats",
    "ShardedHORAM",
    "build_sharded_horam",
    "ShardExecutor",
    "SerialExecutor",
    "ParallelExecutor",
    "CHECKPOINT_VERSION",
    "Checkpoint",
    "CheckpointError",
    "snapshot_stack",
    "restore_stack",
    "save_checkpoint",
    "load_checkpoint",
    "recover",
    "analysis",
]
