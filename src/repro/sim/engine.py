"""Drives workloads through ORAM protocols and assembles final metrics.

The engine is the one place that understands both API styles:

* batch protocols (H-ORAM): ``submit`` everything, then ``drain`` -- the
  ROB window stays full so the scheduler can do its job;
* synchronous protocols (the two baselines): one ``access`` per request.

It also owns the bookkeeping split: protocol objects update their own
:class:`~repro.sim.metrics.Metrics` for protocol-level events (cycles,
dummies, shuffles), while tier I/O counts and times come from the store
counters, with the shuffle-attributed share subtracted so the "I/O
latency" rows match the paper's definition (average over access-period
loads, shuffle reported separately).

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


class SimulationEngine:
    """Runs request streams and produces per-run metric deltas."""

    def __init__(
        self,
        protocol: ORAMProtocol,
        hierarchy: StorageHierarchy | None = None,
        verify: bool = False,
        record_results: bool = False,
    ):
        self.protocol = protocol
        self.hierarchy = hierarchy if hierarchy is not None else getattr(protocol, "hierarchy", None)
        if self.hierarchy is None:
            raise ValueError("engine needs the protocol's hierarchy for timing/IO accounting")
        self.verify = verify
        self.record_results = record_results
        #: per-request served payloads in stream order (``record_results``
        #: only); synchronous writes record ``None`` -- their protocols
        #: return nothing -- while batched entries carry the written value.
        self.results: list[bytes | None] = []
        self._reference: dict[int, bytes] = {}

    # ----------------------------------------------------------------- run
    def run(self, requests: Iterable[Request]) -> Metrics:
        """Serve every request; return the metrics delta for this run."""
        requests = list(requests)
        clock_before = self.hierarchy.clock.now_us
        io_before = self.hierarchy.storage.snapshot()
        mem_before = self.hierarchy.memory.snapshot()
        proto_metrics = getattr(self.protocol, "metrics", Metrics())
        proto_before = proto_metrics.copy()

        if hasattr(self.protocol, "submit") and hasattr(self.protocol, "drain"):
            self._run_batched(requests)
        else:
            self._run_synchronous(requests)

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

    # ------------------------------------------------------------ plumbing
    def _run_batched(self, requests: Sequence[Request]) -> None:
        entries = [self.protocol.submit(request) for request in requests]
        if self.verify:
            # Compute expectations before folding this run's writes into the
            # reference, so reads that precede a write in *this* stream still
            # see the value left by earlier runs.
            expected = self._expected_sequence(requests)
            for request in requests:
                self._shadow_write(request)
        self.protocol.drain()
        if self.record_results:
            self.results.extend(entry.result for entry in entries)
        if self.verify:
            # Replay the stream order against the shadow history.
            for entry, want in zip(entries, expected):
                if want is None:
                    continue
                if entry.result != want:
                    raise VerificationError(
                        f"addr {entry.addr}: got {entry.result!r}, want {want!r}"
                    )

    def _run_synchronous(self, requests: Sequence[Request]) -> None:
        for request in requests:
            if request.op is OpKind.READ:
                result = self.protocol.read(request.addr)
                if self.record_results:
                    self.results.append(result)
                if self.verify:
                    want = self._reference.get(request.addr, self._initial(request.addr))
                    if result != want:
                        raise VerificationError(
                            f"addr {request.addr}: got {result!r}, want {want!r}"
                        )
            else:
                assert request.data is not None
                self.protocol.write(request.addr, request.data)
                if self.record_results:
                    self.results.append(None)
                if self.verify:
                    self._shadow_write(request)

    # -------------------------------------------------------- verification
    def _initial(self, addr: int) -> bytes:
        codec = getattr(self.protocol, "codec", None)
        payload = initial_payload(addr)
        return codec.pad(payload) if codec is not None else payload

    def _pad(self, data: bytes) -> bytes:
        codec = getattr(self.protocol, "codec", None)
        return codec.pad(data) if codec is not None else data

    def _shadow_write(self, request: Request) -> None:
        if request.op is OpKind.WRITE and request.data is not None:
            self._reference[request.addr] = self._pad(request.data)

    def _expected_sequence(self, requests: Sequence[Request]) -> list[bytes | None]:
        """Expected result per request, replaying writes in program order.

        The replay starts from ``self._reference`` -- the shadow state left
        by earlier :meth:`run` calls on this engine -- so a second batched
        run that reads an address written in an earlier run verifies against
        that earlier write, exactly like the synchronous path does.
        """
        state: dict[int, bytes] = dict(self._reference)
        expected: list[bytes | None] = []
        for request in requests:
            if request.op is OpKind.WRITE:
                assert request.data is not None
                state[request.addr] = self._pad(request.data)
                expected.append(state[request.addr])
            else:
                expected.append(state.get(request.addr, self._initial(request.addr)))
        return expected


def run_workload(
    protocol: ORAMProtocol,
    requests: Iterable[Request],
    verify: bool = False,
) -> Metrics:
    """One-shot convenience wrapper around :class:`SimulationEngine`."""
    return SimulationEngine(protocol, verify=verify).run(requests)
