"""Discrete simulated-time substrate.

The paper evaluates H-ORAM with wall-clock measurements on a real machine
(Table 5-2).  A Python re-run cannot reproduce those numbers with
wall-clock -- it would measure the interpreter, not the protocol -- so this
package provides *simulated* time:

* :mod:`repro.sim.clock` -- a microsecond clock plus channels that model
  overlapped memory/I-O work (Section 4.1: "the I/O loads and in-memory
  reads are conducted simultaneously").
* :mod:`repro.sim.metrics` -- the counters every experiment reports
  (I/O count, per-tier time, shuffle time, dummy ratios...).
* :mod:`repro.sim.engine` -- :func:`~repro.sim.engine.drive`, the one
  loop that feeds a request stream to any stack, and the engine that
  runs a workload through it and collects a
  :class:`~repro.sim.metrics.Metrics`.

Device models (:mod:`repro.storage.device`) convert byte movement into
durations; protocols compose those durations (serially for Path ORAM,
overlapped for H-ORAM cycles) and advance the clock.
"""

from repro.sim.clock import Channel, SimClock
from repro.sim.metrics import Metrics
from repro.sim.engine import SimulationEngine, drive

__all__ = ["SimClock", "Channel", "Metrics", "SimulationEngine", "drive"]
