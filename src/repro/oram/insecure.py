"""An UNPROTECTED store: the motivation baseline and the attack target.

:class:`PlainStore` implements the same :class:`~repro.oram.base.ORAMProtocol`
interface with zero obliviousness: block ``addr`` always lives at slot
``addr``, reads touch exactly that slot, nothing is ever re-encrypted or
moved.  It exists for two jobs:

1. **cost of security** — benchmarks report each ORAM's overhead relative
   to this floor (the paper's introduction motivates ORAM by exactly this
   trade-off);
2. **attack demonstration** — :mod:`repro.security.attacks` shows that a
   frequency-analysis adversary recovers the hot logical blocks from a
   PlainStore trace and learns nothing from any of the ORAMs.

Data is still encrypted at rest (confidentiality without obliviousness),
which is precisely the setting the paper's Section 1 warns about: access
patterns leak even when contents do not.
"""

from __future__ import annotations

from repro.oram.base import (
    BlockCodec,
    CapacityError,
    OpKind,
    ORAMProtocol,
    initial_payloads,
)
from repro.sim.metrics import Metrics
from repro.storage.backend import BlockStore


class PlainStore(ORAMProtocol):
    """Encrypted but pattern-leaking storage (one slot per block)."""

    def __init__(
        self,
        n_blocks: int,
        codec: BlockCodec,
        storage_store: BlockStore,
        clock,
    ):
        if n_blocks <= 0:
            raise ValueError("n_blocks must be positive")
        if storage_store.slots < n_blocks:
            raise CapacityError(
                f"storage store has {storage_store.slots} slots, need {n_blocks}"
            )
        self._n_blocks = self._address_limit = n_blocks
        self.codec = codec
        self.storage = storage_store
        self.clock = clock
        self.metrics = Metrics()
        addrs = range(n_blocks)
        payloads = initial_payloads(addrs, codec.payload_bytes)
        storage_store.poke_run(0, codec.seal_columns(addrs, payloads))

    @property
    def n_blocks(self) -> int:
        return self._n_blocks

    def _access(self, op: OpKind, addr: int, data: bytes | None) -> bytes:
        self.check_addr(addr)
        record, duration = self.storage.read_slot(addr)
        stored_addr, payload = self.codec.open(record)
        if stored_addr != addr:
            raise CapacityError(f"slot {addr} held block {stored_addr}")
        if op is OpKind.WRITE:
            assert data is not None
            payload = self.codec.pad(data)
            duration += self.storage.write_slot(addr, self.codec.seal(addr, payload))
        self.clock.advance(duration)
        self.metrics.requests_served += 1
        if op is OpKind.READ:
            self.metrics.read_requests += 1
        else:
            self.metrics.write_requests += 1
        return payload

    def read(self, addr: int) -> bytes:
        return self._access(OpKind.READ, addr, None)

    def write(self, addr: int, data: bytes) -> None:
        self._access(OpKind.WRITE, addr, data)
