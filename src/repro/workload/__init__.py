"""Workload generation: the request streams of Section 5.2.

The paper drives both schemes with a synthetic stream in which "80% of
chance it will distribute in a certain area, and 20% of chance it requests
a random data".  :func:`~repro.workload.generators.hotspot` reproduces
that; uniform, Zipfian, sequential-scan and read/write-mix generators
cover the ablations.  Every generator is seeded, so experiments are
exactly repeatable across protocols.
"""

from repro.workload.generators import (
    WorkloadSpec,
    hotspot,
    make_workload,
    read_write_mix,
    sequential_scan,
    uniform,
    zipfian,
)

__all__ = [
    "WorkloadSpec",
    "hotspot",
    "uniform",
    "zipfian",
    "sequential_scan",
    "read_write_mix",
    "make_workload",
]
