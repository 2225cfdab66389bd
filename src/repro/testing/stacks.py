"""Stack construction for conformance scenarios.

A *stack* is everything between the workload and the simulated device:
one of the protocols (H-ORAM, Path ORAM, the unprotected store),
optionally sharded, optionally fronted by the multi-user multiplexer --
built on a named device model from one declarative :class:`StackSpec`,
which is the :class:`~repro.core.recipe.StackRecipe` every stack is
built from.  Every combination the repo can serve is reachable here,
which is what lets one scenario replay across every protocol.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from dataclasses import dataclass, field, replace

from repro.core.multiuser import MultiUserFrontEnd
from repro.core.recipe import DEVICES, PROTOCOLS, StackRecipe, build  # noqa: F401
from repro.sim.engine import is_batched
from repro.storage.backend import BlockStore

#: A scenario's stack description is the stack recipe itself.
StackSpec = StackRecipe


@dataclass
class BuiltStack:
    """A live stack plus the handles the harness needs around it."""

    spec: StackSpec
    protocol: object  # the engine-facing protocol instance
    front: MultiUserFrontEnd | None
    #: directly attachable storage stores; empty for parallel stacks,
    #: whose stores live inside the worker processes, and for supervised
    #: stacks, whose injector must survive shard restores (use
    #: :meth:`install_faults` for both).
    storage_stores: list[BlockStore] = field(default_factory=list)
    #: temporary directory holding durable slabs ("file" backend only);
    #: owned by this stack, removed by :meth:`cleanup`.
    storage_dir: str | None = None
    #: the fleet supervisor ("supervised" specs only); the harness drives
    #: it instead of the raw protocol so crashes are auto-recovered.
    supervisor: object = None
    #: temporary directory of the supervisor's checkpoint stores; owned
    #: by this stack, removed by :meth:`cleanup`.
    checkpoint_dir: str | None = None

    @property
    def payload_bytes(self) -> int:
        return self.protocol.codec.payload_bytes

    @property
    def batched(self) -> bool:
        return is_batched(self.protocol)

    @property
    def driver(self):
        """What the harness drives: the supervisor when present."""
        return self.supervisor if self.supervisor is not None else self.protocol

    def install_faults(self, plan) -> None:
        """Route a fault plan to stores the harness cannot reach directly."""
        if self.supervisor is not None:
            self.supervisor.install_fault_plan(plan)
        else:
            self.protocol.executor.install_fault_plan(plan)

    def fault_stats(self):
        executor = getattr(self.protocol, "executor", None)
        return executor.fault_stats() if executor is not None else None

    def close(self) -> None:
        """Close the stack: every stack gives back its slabs, tables and
        worker processes (see :meth:`~repro.oram.base.ORAMProtocol.close`);
        idempotent.  Its temporary directories stay until :meth:`cleanup`."""
        self.protocol.close()

    def cleanup(self) -> None:
        """Close *and* remove the stack's on-disk directories (if any)."""
        self.close()
        if self.storage_dir is not None:
            shutil.rmtree(self.storage_dir, ignore_errors=True)
            self.storage_dir = None
        if self.checkpoint_dir is not None:
            shutil.rmtree(self.checkpoint_dir, ignore_errors=True)
            self.checkpoint_dir = None


def build_stack(spec: StackSpec) -> BuiltStack:
    """Instantiate the stack a spec describes (fresh stores, zero clock).

    A ``file``-backed spec without a ``storage_path`` gets its slabs in a
    temporary directory the returned stack owns.
    """
    recipe = spec
    storage_dir = None
    if spec.storage_backend == "file" and spec.storage_path is None:
        storage_dir = tempfile.mkdtemp(prefix="horam-slab-")
        path = storage_dir if spec.protocol == "sharded" else os.path.join(storage_dir, "main.slab")
        recipe = replace(spec, storage_path=path)
    protocol = None
    checkpoint_dir = None
    try:
        protocol = build(recipe)
        if spec.protocol != "sharded":
            stores = [protocol.hierarchy.storage]
        elif spec.executor == "parallel" or spec.supervised:
            stores = []  # reach them via install_faults
        else:
            stores = [shard.hierarchy.storage for shard in protocol.shards]

        supervisor = None
        if spec.supervised:
            from repro.core.supervisor import FleetSupervisor, SupervisorConfig

            checkpoint_dir = tempfile.mkdtemp(prefix="horam-sup-")
            supervisor = FleetSupervisor(
                protocol,
                checkpoint_dir,
                SupervisorConfig(
                    checkpoint_every_ops=spec.checkpoint_every_ops,
                    max_restarts=spec.max_restarts,
                    keep_checkpoints=spec.keep_checkpoints,
                    heartbeat_timeout_s=spec.heartbeat_timeout_s,
                ),
            )

        front = None
        if spec.users:
            front = MultiUserFrontEnd(protocol)
            for user in range(spec.users):
                front.register_user(user)
    except Exception:
        # A half-built stack must not leak worker processes or slabs.
        if protocol is not None:
            protocol.close()
        if storage_dir is not None:
            shutil.rmtree(storage_dir, ignore_errors=True)
        if checkpoint_dir is not None:
            shutil.rmtree(checkpoint_dir, ignore_errors=True)
        raise
    return BuiltStack(
        spec=spec,
        protocol=protocol,
        front=front,
        storage_stores=stores,
        storage_dir=storage_dir,
        supervisor=supervisor,
        checkpoint_dir=checkpoint_dir,
    )
