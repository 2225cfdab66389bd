"""Optional numpy acceleration gate for the batch kernels.

The hot-path batch kernels (record sealing/opening in
:class:`~repro.oram.base.BlockCodec`, counter-block keystreams in
:mod:`repro.crypto.cipher`, batched rejection sampling in
:mod:`repro.crypto.random`, the partition survivor scan and relocation
in :mod:`repro.core.storage_layer`) are written twice: a vectorized
numpy form and a pure-Python fallback.  Both produce bit-identical
results -- the golden-fingerprint and parity tests pin that -- so which
one runs is purely a wall-clock concern.

Consumers look up :data:`np` through this module *at call time*, which
gives one switch with three positions:

* numpy importable (the normal case): vectorized kernels run;
* numpy missing: the fallback runs, no feature lost;
* ``REPRO_NO_NUMPY=1`` in the environment: the fallback runs even with
  numpy installed -- the CI fallback leg and the parity tests use this
  (tests may also monkeypatch ``repro.accel.np`` to cover both paths in
  one process).
"""

from __future__ import annotations

import os

np = None
if not os.environ.get("REPRO_NO_NUMPY"):
    try:
        import numpy as np  # type: ignore[no-redef]
    except ImportError:  # pragma: no cover - the image bakes numpy in
        np = None

#: Import-time availability (bench/CI metadata); kernels must consult
#: ``accel.np`` at call time instead, so monkeypatching works.
HAVE_NUMPY = np is not None
