"""H-ORAM: a cacheable ORAM interface for efficient I/O accesses.

A full reproduction of the DAC 2019 H-ORAM design (Liu, 2019): the hybrid
protocol itself, the three classical ORAM baselines it is evaluated
against, and the simulated machine (device timing models, encrypted block
stores, oblivious shuffles, workload generators, obliviousness analyzers)
needed to regenerate every table and figure of the paper's evaluation.

Quickstart::

    from repro import build_horam

    oram = build_horam(n_blocks=4096, mem_tree_blocks=512)
    oram.write(7, b"secret")
    assert oram.read(7).rstrip(b"\\x00") == b"secret"

See README.md for the architecture tour; ``horam-bench all`` prints the
paper-vs-measured results.
"""

from repro.core import (
    HORAMConfig,
    HybridORAM,
    MultiUserFrontEnd,
    StageSchedule,
    build_horam,
)
from repro.oram import (
    BlockCodec,
    ORAMProtocol,
    OpKind,
    PartitionORAM,
    PathORAM,
    Request,
    SquareRootORAM,
)
from repro.sim import Metrics, SimulationEngine, run_workload
from repro.storage import (
    StorageHierarchy,
    ddr4_2133,
    hdd_paper,
    hdd_realistic,
    ssd_sata,
)
from repro.workload import hotspot, make_workload, uniform, zipfian

__version__ = "1.0.0"

__all__ = [
    "HORAMConfig",
    "HybridORAM",
    "MultiUserFrontEnd",
    "StageSchedule",
    "build_horam",
    "ORAMProtocol",
    "OpKind",
    "Request",
    "BlockCodec",
    "PathORAM",
    "SquareRootORAM",
    "PartitionORAM",
    "Metrics",
    "SimulationEngine",
    "run_workload",
    "StorageHierarchy",
    "hdd_paper",
    "hdd_realistic",
    "ssd_sata",
    "ddr4_2133",
    "hotspot",
    "uniform",
    "zipfian",
    "make_workload",
    "__version__",
]
