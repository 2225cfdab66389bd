"""Experiment harness: one function per paper table/figure.

* :mod:`repro.bench.tables` -- plain-text table rendering (the CLI prints
  paper-style tables).
* :mod:`repro.bench.experiments` -- experiment definitions; each returns
  an :class:`~repro.bench.experiments.ExperimentResult` with raw rows, a
  rendered table and the checks that hold it to the paper's shape.
* :mod:`repro.bench.runner` -- the ``horam-bench`` CLI, the one entry
  point beside the spine (``benchmarks/spine/``).

Every experiment accepts a ``scale`` ("quick", "medium", "full"): quick
runs in seconds and is what CI gates on; full matches the paper's dataset
sizes.
"""

from repro.bench.experiments import (
    Check,
    ExperimentResult,
    EXPERIMENTS,
    get_experiment,
)
from repro.bench.tables import render_kv, render_table

__all__ = [
    "Check",
    "ExperimentResult",
    "EXPERIMENTS",
    "get_experiment",
    "render_table",
    "render_kv",
]
