"""Baseline ORAM protocols and their shared building blocks.

The paper measures H-ORAM against one classical scheme, and this
package holds it beside the unprotected floor:

* :mod:`repro.oram.path_oram` -- Path ORAM (Stefanov et al. 2013) with the
  tree-top cache of ZeroTrace-style designs: top levels in memory, bottom
  levels on storage (Figure 3-1a).  This is the paper's baseline, run
  with the naive (non-recursive) position map of its Section 5.3.
* :mod:`repro.oram.insecure` -- the plain store: encrypted, one slot per
  block, no obliviousness; the cost floor and the attack target.

Shared building blocks: the record codec (:mod:`repro.oram.base`), tree
geometry math (:mod:`repro.oram.tree`), the stash
(:mod:`repro.oram.stash`), and position maps
(:mod:`repro.oram.position_map`).
"""

from repro.oram.base import (
    DUMMY_ADDR,
    BlockCodec,
    CapacityError,
    IntegrityError,
    ORAMError,
    ORAMProtocol,
    OpKind,
    Request,
    StackClosedError,
    StashOverflowError,
)
from repro.oram.tree import TreeGeometry
from repro.oram.stash import Stash
from repro.oram.position_map import ArrayPositionMap, DictPositionMap
from repro.oram.path_oram import PathORAM, PathOramTree
from repro.oram.insecure import PlainStore

__all__ = [
    "DUMMY_ADDR",
    "BlockCodec",
    "ORAMError",
    "CapacityError",
    "IntegrityError",
    "StashOverflowError",
    "StackClosedError",
    "ORAMProtocol",
    "OpKind",
    "Request",
    "TreeGeometry",
    "Stash",
    "ArrayPositionMap",
    "DictPositionMap",
    "PathORAM",
    "PathOramTree",
    "PlainStore",
]
