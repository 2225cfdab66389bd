"""Conformance and fault-injection harness.

Everything needed to ask "does every stack in this repository serve the
same answers as an insecure reference store, even under adverse I/O?":

* :mod:`repro.testing.stacks` -- build any protocol/shard/front-end/device
  combination from a declarative :class:`StackSpec`;
* :mod:`repro.testing.oracle` -- the insecure logical-store oracle;
* :mod:`repro.testing.scenario` -- :class:`ScenarioRunner`, which replays
  one deterministic workload through a stack and differentially compares
  served results, final state and metrics invariants;
* :mod:`repro.storage.faults` (re-exported) -- deterministic transient
  read errors, latency spikes, torn bulk writes, silent corruption;
* :mod:`repro.testing.shrinker` -- ddmin minimization of failing streams
  to a replayable explicit spec;
* :mod:`repro.testing.conformance` -- the standing scenario matrix behind
  ``horam-bench conformance`` and the tier-2 pytest suite;
* ``python -m repro.testing.replay spec.json`` -- reproduce a (shrunk)
  scenario from its saved spec.
"""

from repro.storage.faults import (
    CrashFault,
    FaultInjector,
    FaultPlan,
    FaultStats,
    UnrecoverableFaultError,
)
from repro.testing.conformance import (
    default_matrix,
    matrix_summary,
    run_matrix,
    seeded_fault_demo,
)
from repro.testing.oracle import ReferenceOracle
from repro.testing.scenario import (
    CrashSpec,
    ScenarioResult,
    ScenarioRunner,
    ScenarioSpec,
    ServeSpec,
)
from repro.testing.shrinker import ShrinkResult, shrink
from repro.testing.stacks import DEVICES, PROTOCOLS, StackSpec, build_stack

__all__ = [
    "CrashFault",
    "CrashSpec",
    "FaultInjector",
    "FaultPlan",
    "FaultStats",
    "UnrecoverableFaultError",
    "ReferenceOracle",
    "ScenarioRunner",
    "ScenarioResult",
    "ScenarioSpec",
    "ServeSpec",
    "ShrinkResult",
    "shrink",
    "StackSpec",
    "build_stack",
    "DEVICES",
    "PROTOCOLS",
    "default_matrix",
    "run_matrix",
    "matrix_summary",
    "seeded_fault_demo",
]
