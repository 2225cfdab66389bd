"""Drives workloads through ORAM protocols and assembles final metrics.

:func:`drive` is the one feed loop: every caller that pushes a request
stream into a stack -- the engine, the conformance harness, the bench
experiments, the serving twin -- goes through it.  It understands both
API styles:

* batch protocols (H-ORAM, fleets, the supervisor): ``submit`` ``batch``
  requests, then ``drain`` -- how full the ROB window is when the
  scheduler plans decides the cycle schedule, so the batch is the one
  knob a caller turns;
* synchronous protocols (the two baselines): one ``read``/``write`` per
  request.

:class:`SimulationEngine` runs a stream as one batch (the ROB window stays
full so the scheduler can do its job) and owns the bookkeeping split:
protocol objects update their own :class:`~repro.sim.metrics.Metrics`
for protocol-level events (cycles, dummies, shuffles), while tier I/O
counts and times come from the store counters, with the
shuffle-attributed share subtracted so the "I/O latency" rows match the
paper's definition (average over access-period loads, shuffle reported
separately).

With ``verify=True`` the engine shadows every write in a reference dict
and checks every read -- the integration-level correctness oracle.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.oram.base import OpKind, ORAMProtocol, Request
from repro.oram.base import initial_payload
from repro.sim.metrics import Metrics
from repro.storage.hierarchy import StorageHierarchy


class VerificationError(AssertionError):
    """A read returned different bytes than the reference model expects."""


def is_batched(stack) -> bool:
    """True for the ``submit``/``drain`` API style."""
    return hasattr(stack, "submit") and hasattr(stack, "drain")


def drive(stack, requests: Iterable[Request], batch: int = 1) -> "list[bytes | None]":
    """Serve ``requests`` in stream order; one result per request.

    A batched stack gets ``batch`` submits per ``drain``; a synchronous
    one a ``read`` or ``write`` per request.  A result is the served
    bytes of a read, the written record of a batched write (``None`` for
    a synchronous write, whose API returns nothing), and ``None`` for a
    request a fenced stripe refused at submit or failed in flight.  A
    batch whose every submit was refused is not drained: a supervisor's
    drain also saves the checkpoints that are due.
    """
    results: list[bytes | None] = []
    if not is_batched(stack):
        for request in requests:
            if request.op is OpKind.READ:
                results.append(stack.read(request.addr))
            else:
                stack.write(request.addr, request.data)
                results.append(None)
        return results

    from repro.core.sharding import ShardUnavailableError  # core imports sim

    requests = list(requests)
    batch = max(1, batch)
    for start in range(0, len(requests), batch):
        entries = []
        for request in requests[start : start + batch]:
            try:
                entries.append(stack.submit(request))
            except ShardUnavailableError:
                entries.append(None)
        if any(entry is not None for entry in entries):
            stack.drain()
        # An entry fenced in flight carries ``error`` and never a result.
        results.extend(None if entry is None else entry.result for entry in entries)
    return results


class SimulationEngine:
    """Runs request streams and produces per-run metric deltas."""

    def __init__(
        self,
        protocol: ORAMProtocol,
        hierarchy: StorageHierarchy | None = None,
        verify: bool = False,
    ):
        self.protocol = protocol
        self.hierarchy = hierarchy if hierarchy is not None else getattr(protocol, "hierarchy", None)
        if self.hierarchy is None:
            raise ValueError("engine needs the protocol's hierarchy for timing/IO accounting")
        self.verify = verify
        #: the last run's per-request results in stream order, as
        #: :func:`drive` returns them; replaced on every run.
        self.results: list[bytes | None] = []
        self._reference: dict[int, bytes] = {}

    # ----------------------------------------------------------------- run
    def run(self, requests: Iterable[Request]) -> Metrics:
        """Serve every request; return the metrics delta for this run.

        Before it returns, the stack writes back every partition rewrite
        its shuffle periods left pending (:meth:`ORAMProtocol.write_back`),
        so a run's wall time covers whole periods.  The write-back charges
        nothing: the simulated numbers are those of the periods' plans.
        """
        requests = list(requests)
        clock_before = self.hierarchy.clock.now_us
        io_before = self.hierarchy.storage.snapshot()
        mem_before = self.hierarchy.memory.snapshot()
        proto_metrics = getattr(self.protocol, "metrics", Metrics())
        proto_before = proto_metrics.copy()

        # Expectations come before this run's writes fold into the
        # reference, so a read that precedes a write in *this* stream still
        # sees the value left by earlier runs.
        expected = self._expected_sequence(requests) if self.verify else None
        self.results = drive(self.protocol, requests, batch=len(requests))
        write_back = getattr(self.protocol, "write_back", None)
        if write_back is not None:
            write_back()
        if expected is not None:
            self._check(requests, expected)

        metrics = getattr(self.protocol, "metrics", Metrics()).diff(proto_before)
        metrics.requests_submitted = len(requests)

        io_delta = self.hierarchy.storage.snapshot().delta(io_before)
        mem_delta = self.hierarchy.memory.snapshot().delta(mem_before)
        # Access-period I/O = total storage traffic minus the shuffle share.
        metrics.io_reads = io_delta.reads - metrics.shuffle_io_reads
        metrics.io_writes = io_delta.writes - metrics.shuffle_io_writes
        metrics.io_bytes_read = io_delta.bytes_read - metrics.shuffle_bytes_read
        metrics.io_bytes_written = io_delta.bytes_written - metrics.shuffle_bytes_written
        metrics.io_time_us = io_delta.busy_us - metrics.shuffle_io_time_us
        metrics.mem_accesses = mem_delta.reads + mem_delta.writes
        metrics.mem_bytes = mem_delta.bytes_read + mem_delta.bytes_written
        metrics.mem_time_us = mem_delta.busy_us
        metrics.total_time_us = self.hierarchy.clock.now_us - clock_before
        return metrics

    # -------------------------------------------------------- verification
    def _check(self, requests: Sequence[Request], expected: Sequence[bytes]) -> None:
        """Hold this run's results to the shadow history, in stream order."""
        synchronous = not is_batched(self.protocol)
        for request, got, want in zip(requests, self.results, expected):
            if synchronous and request.op is OpKind.WRITE:
                continue  # synchronous APIs return nothing for writes
            if got != want:
                raise VerificationError(f"addr {request.addr}: got {got!r}, want {want!r}")

    def _initial(self, addr: int) -> bytes:
        codec = getattr(self.protocol, "codec", None)
        payload = initial_payload(addr)
        return codec.pad(payload) if codec is not None else payload

    def _pad(self, data: bytes) -> bytes:
        codec = getattr(self.protocol, "codec", None)
        return codec.pad(data) if codec is not None else data

    def _expected_sequence(self, requests: Sequence[Request]) -> list[bytes]:
        """Expected result per request, replaying writes in program order.

        The replay starts from ``self._reference`` -- the shadow state left
        by earlier :meth:`run` calls on this engine -- and leaves this
        run's writes in it, so a later run that reads an address written
        here verifies against that write.
        """
        state = self._reference
        expected: list[bytes] = []
        for request in requests:
            if request.op is OpKind.WRITE:
                assert request.data is not None
                state[request.addr] = self._pad(request.data)
                expected.append(state[request.addr])
            else:
                expected.append(state.get(request.addr, self._initial(request.addr)))
        return expected
