"""Full-stack checkpoints: snapshot, restore, crash recovery.

A *checkpoint* captures everything a stack needs to resume bit-identical
to the moment it was taken: store contents, control-layer bookkeeping,
RNG stream positions, codec nonce counters, clocks, channels, metrics,
the latency histogram and the served-order digest.  None of it grows
with the number of requests served (the bus trace, off by default, is
the one opt-in exception).  Restoring builds a fresh stack from the
recorded geometry and overwrites its mutable state, so the restored
instance serves the rest of a workload exactly as the uninterrupted
original would -- the property the crash-recovery test tier pins.

On-disk format (version :data:`CHECKPOINT_VERSION`)::

    <directory>/
        checkpoint.json     # manifest: format, version, kind, state,
                            # blob index (file name, size, sha256)
        <blob>.bin          # one binary file per store's slot array

The manifest's ``state`` is pure JSON (small byte strings are base64
inline); bulk slot arrays ship as sidecar ``.bin`` blobs whose size and
SHA-256 are pinned in the manifest.  :meth:`Checkpoint.load` re-verifies
all of it -- version, blob presence, sizes, digests -- and raises
:class:`CheckpointError` on any mismatch, which is what makes
:func:`recover` safe to point at a slab that died mid-write.

Supported stacks: every :class:`~repro.core.kernel.EngineKernel`
protocol (H-ORAM, the succinct hierarchical and BIOS variants),
:class:`~repro.core.sharding.ShardedHORAM` under both executors (the
parallel executor checkpoints its workers over IPC), and the classic
baselines built by :mod:`repro.oram.factory`.  Snapshots of a sharded
fleet require a quiesced coordinator (everything submitted has drained).
"""

from __future__ import annotations

import hashlib
import json
from base64 import b64decode, b64encode
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.core.config import HORAMConfig
from repro.core.stages import StageSchedule
from repro.crypto.random import DeterministicRandom
from repro.sim.metrics import Metrics
from repro.storage.device import DeviceModel
from repro.storage.hierarchy import StorageHierarchy
from repro.storage.trace import TraceEvent, TraceRecorder

#: Checkpoint format version; bumped on any manifest/state layout change,
#: and whenever the record cipher changes the bytes a blob decrypts under
#: (2: records wider than 64 bytes moved to the SHAKE-256 keystream;
#: 3: one shard-checkpoint shape and one fleet layout for both executors;
#: 4: fixed-size kernel state -- ``served_digest``, ``latency_histogram``
#: and per-leaf ``leaf_counts`` replace the per-request logs, and the
#: storage layer's per-partition pools are rebuilt instead of stored).
CHECKPOINT_VERSION = 4

_FORMAT = "horam-checkpoint"
_MANIFEST = "checkpoint.json"


class CheckpointError(Exception):
    """A checkpoint could not be taken, validated, or restored."""


@dataclass
class Checkpoint:
    """One validated stack snapshot (manifest state + binary blobs)."""

    kind: str
    state: dict
    blobs: dict = field(default_factory=dict)  # name -> bytes

    # ------------------------------------------------------------- persist
    def save(self, directory) -> Path:
        """Write the versioned manifest + blob files; returns the directory.

        The write is staged into a temporary sibling directory and swapped
        in with renames, so overwriting an existing checkpoint never
        leaves a half-written mix of old manifest and new blobs: a crash
        during save loses at most the *new* checkpoint, not the previous
        recovery point.
        """
        import os
        import shutil

        path = Path(directory)
        path.parent.mkdir(parents=True, exist_ok=True)
        staging = Path(f"{path}.saving-{os.getpid()}")
        if staging.exists():
            shutil.rmtree(staging)
        staging.mkdir()
        index = {}
        for name, blob in self.blobs.items():
            file_name = f"{name}.bin"
            (staging / file_name).write_bytes(blob)
            index[name] = {
                "file": file_name,
                "size": len(blob),
                "sha256": hashlib.sha256(blob).hexdigest(),
            }
        manifest = {
            "format": _FORMAT,
            "version": CHECKPOINT_VERSION,
            "kind": self.kind,
            "state": self.state,
            "blobs": index,
        }
        (staging / _MANIFEST).write_text(
            json.dumps(manifest, sort_keys=True), encoding="utf-8"
        )
        if path.exists():
            retired = Path(f"{path}.replaced-{os.getpid()}")
            if retired.exists():
                shutil.rmtree(retired)
            os.rename(path, retired)
            os.rename(staging, path)
        else:
            os.rename(staging, path)
        # The swap succeeded, so every retired copy and every staging
        # directory -- ours and any left over from an earlier crashed
        # save under a different pid -- is now superseded.
        for pattern in (f"{path.name}.replaced-*", f"{path.name}.saving-*"):
            for stale in path.parent.glob(pattern):
                shutil.rmtree(stale, ignore_errors=True)
        return path

    @classmethod
    def load(cls, directory) -> "Checkpoint":
        """Read and *validate* a saved checkpoint (version, sizes, digests).

        If the target directory is missing its manifest but a
        ``<path>.replaced-*`` sibling holds one, the newest such sibling
        is loaded instead: that is the previous recovery point a crash
        inside :meth:`save`'s rename swap left stranded mid-swap.
        """
        path = Path(directory)
        manifest_path = path / _MANIFEST
        if not manifest_path.exists():
            retired = [
                sibling
                for sibling in path.parent.glob(f"{path.name}.replaced-*")
                if (sibling / _MANIFEST).exists()
            ]
            if retired:
                path = max(retired, key=lambda p: (p / _MANIFEST).stat().st_mtime)
                manifest_path = path / _MANIFEST
            else:
                raise CheckpointError(f"no checkpoint manifest at '{manifest_path}'")
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except ValueError as error:
            raise CheckpointError(f"manifest '{manifest_path}' is not valid JSON") from error
        if manifest.get("format") != _FORMAT:
            raise CheckpointError(f"'{manifest_path}' is not a {_FORMAT} manifest")
        version = manifest.get("version")
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"checkpoint is format version {version}, this build reads "
                f"version {CHECKPOINT_VERSION}"
            )
        blobs = {}
        for name, entry in manifest.get("blobs", {}).items():
            blob_path = path / entry["file"]
            if not blob_path.exists():
                raise CheckpointError(f"checkpoint blob '{blob_path}' is missing")
            blob = blob_path.read_bytes()
            if len(blob) != entry["size"]:
                raise CheckpointError(
                    f"blob '{name}' is {len(blob)} bytes, manifest pins {entry['size']}"
                )
            digest = hashlib.sha256(blob).hexdigest()
            if digest != entry["sha256"]:
                raise CheckpointError(
                    f"blob '{name}' failed its SHA-256 check (torn or corrupt write)"
                )
            blobs[name] = blob
        return cls(kind=manifest["kind"], state=manifest["state"], blobs=blobs)


# ---------------------------------------------------------------------------
# Geometry serialization (the "rebuild recipe" half of a checkpoint)
# ---------------------------------------------------------------------------
def _device_to_dict(device) -> dict | None:
    if device is None:
        return None
    return {
        "name": device.name,
        "read_overhead_us": device.read_overhead_us,
        "write_overhead_us": device.write_overhead_us,
        "read_mb_per_s": device.read_mb_per_s,
        "write_mb_per_s": device.write_mb_per_s,
    }


def _device_from_dict(data: dict | None) -> DeviceModel | None:
    # Rebuilt as a plain frozen DeviceModel: timing behavior is a pure
    # function of these five parameters, so subclasses round-trip exactly.
    return DeviceModel(**data) if data is not None else None


def _config_to_dict(config: HORAMConfig) -> dict:
    data = asdict(config)
    data["stages"] = config.stages.to_pairs()
    return data


def _config_from_dict(data: dict) -> HORAMConfig:
    data = dict(data)
    data["stages"] = StageSchedule([tuple(pair) for pair in data["stages"]])
    return HORAMConfig(**data)


def _hierarchy_info(hierarchy: StorageHierarchy) -> dict:
    return {
        "memory_slots": hierarchy.memory.slots,
        "storage_slots": hierarchy.storage.slots,
        "slot_bytes": hierarchy.slot_bytes,
        "modeled_slot_bytes": hierarchy.modeled_slot_bytes,
        "memory_device": _device_to_dict(hierarchy.memory.device),
        "storage_device": _device_to_dict(hierarchy.storage.device),
        "trace_capacity": hierarchy.trace.capacity,
        "storage_backend": hierarchy.storage_backend,
        "storage_path": hierarchy.storage_path,
    }


def _build_hierarchy(info: dict) -> StorageHierarchy:
    return StorageHierarchy(
        memory_slots=info["memory_slots"],
        storage_slots=info["storage_slots"],
        slot_bytes=info["slot_bytes"],
        modeled_slot_bytes=info["modeled_slot_bytes"],
        memory_device=_device_from_dict(info["memory_device"]),
        storage_device=_device_from_dict(info["storage_device"]),
        trace=TraceRecorder(capacity=info["trace_capacity"]),
        storage_backend=info["storage_backend"],
        storage_path=info["storage_path"],
    )


def _hierarchy_state(hierarchy: StorageHierarchy) -> "tuple[dict, dict[str, bytes]]":
    """Shared clock/channel/trace/store state (baseline protocols)."""
    state = {
        "memory_store": hierarchy.memory.state_dict(),
        "storage_store": hierarchy.storage.state_dict(),
        "clock_now_us": hierarchy.clock.now_us,
        "channels": {
            name: {
                "busy_until_us": channel.busy_until_us,
                "busy_time_us": channel.busy_time_us,
                "operations": channel.operations,
            }
            for name, channel in (
                ("memory", hierarchy.memory_channel),
                ("io", hierarchy.io_channel),
            )
        },
        "trace": {
            "dropped": hierarchy.trace.dropped,
            "events": [asdict(event) for event in hierarchy.trace.events],
        },
    }
    blobs = {
        "memory": hierarchy.memory.export_data(),
        "storage": hierarchy.storage.export_data(),
    }
    return state, blobs


def _load_hierarchy_state(
    hierarchy: StorageHierarchy, state: dict, blobs: "dict[str, bytes]"
) -> None:
    hierarchy.memory.import_data(blobs["memory"])
    hierarchy.storage.import_data(blobs["storage"])
    hierarchy.memory.load_state(state["memory_store"])
    hierarchy.storage.load_state(state["storage_store"])
    hierarchy.clock._now_us = state["clock_now_us"]
    for name, channel in (
        ("memory", hierarchy.memory_channel),
        ("io", hierarchy.io_channel),
    ):
        saved = state["channels"][name]
        channel.busy_until_us = saved["busy_until_us"]
        channel.busy_time_us = saved["busy_time_us"]
        channel.operations = saved["operations"]
    hierarchy.trace.events[:] = [
        TraceEvent(**event) for event in state["trace"]["events"]
    ]
    hierarchy.trace.dropped = state["trace"]["dropped"]


# ---------------------------------------------------------------------------
# EngineKernel protocols (HybridORAM, succinct hierarchical, BIOS, ...)
# ---------------------------------------------------------------------------
def _kernel_rebuild_info(oram) -> dict:
    return {
        "protocol": oram.protocol_name,
        "config": _config_to_dict(oram.config),
        "hierarchy": _hierarchy_info(oram.hierarchy),
        "integrity": oram.codec.mac_key is not None,
        "params": oram.backend_params(),
    }


def _rebuild_kernel(rebuild: dict):
    # Importing these registers every bundled protocol in KERNEL_PROTOCOLS.
    import repro.core.horam  # noqa: F401
    import repro.oram.factory  # noqa: F401
    from repro.core.kernel import KERNEL_PROTOCOLS
    from repro.crypto.ctr import StreamCipher
    from repro.oram.base import BlockCodec

    name = rebuild.get("protocol", "horam")
    try:
        cls = KERNEL_PROTOCOLS[name]
    except KeyError:
        raise CheckpointError(f"unknown kernel protocol {name!r}") from None
    config = _config_from_dict(rebuild["config"])
    hierarchy = _build_hierarchy(rebuild["hierarchy"])
    codec = None
    if rebuild["integrity"]:
        # Mirror build_horam's integrity codec derivation exactly.
        rng = DeterministicRandom(config.seed)
        codec = BlockCodec(
            config.payload_bytes,
            StreamCipher(rng.spawn("record-key").token(32)),
            mac_key=rng.spawn("mac-key").token(32),
        )
    return cls(config, hierarchy, codec=codec, **rebuild.get("params", {}))


def _snapshot_kernel(oram) -> Checkpoint:
    state, blobs = oram.state_dict()
    return Checkpoint(
        kind=oram.protocol_name,
        state={"rebuild": _kernel_rebuild_info(oram), "stack": state},
        blobs=blobs,
    )


def _restore_kernel(checkpoint: Checkpoint):
    oram = _rebuild_kernel(checkpoint.state["rebuild"])
    oram.load_state(checkpoint.state["stack"], checkpoint.blobs)
    return oram


# ---------------------------------------------------------------------------
# ShardedHORAM (serial and parallel executors)
# ---------------------------------------------------------------------------
def _require_quiesced(fleet) -> None:
    if fleet.has_work() or fleet._held or fleet._inflight:
        raise CheckpointError(
            "sharded fleets snapshot at quiescent points only; drain() "
            "before snapshot()"
        )


def _snapshot_sharded(fleet) -> Checkpoint:
    from repro.core.executor import ParallelExecutor

    _require_quiesced(fleet)
    executor = fleet.executor
    # The one place that must know the runtime: what it takes to construct
    # the executor again (worker build specs, or each kernel's geometry).
    if isinstance(executor, ParallelExecutor):
        kind = "sharded-parallel"
        rebuild = []
        for spec in executor.specs:
            data = asdict(spec)
            data["storage_device"] = _device_to_dict(spec.storage_device)
            data["memory_device"] = _device_to_dict(spec.memory_device)
            rebuild.append(data)
    else:
        kind = "sharded"
        rebuild = [_kernel_rebuild_info(shard) for shard in executor.shards]
    state = {
        "n_blocks": fleet.n_blocks,
        "lockstep": fleet.lockstep,
        "template_config": _config_to_dict(fleet.config),
        "rebuild": rebuild,
        "shards": [],
    }
    blobs: dict = {}
    for index in range(fleet.n_shards):
        shard_state, shard_blobs = executor.shard_state(index)
        state["shards"].append(shard_state)
        for name, blob in shard_blobs.items():
            blobs[f"shard{index}.{name}"] = blob
    return Checkpoint(kind=kind, state=state, blobs=blobs)


def _shard_blobs(checkpoint: Checkpoint, index: int) -> "dict[str, bytes]":
    prefix = f"shard{index}."
    return {
        name[len(prefix) :]: blob
        for name, blob in checkpoint.blobs.items()
        if name.startswith(prefix)
    }


def _restore_sharded(checkpoint: Checkpoint):
    from repro.core.executor import ParallelExecutor, SerialExecutor, ShardBuildSpec
    from repro.core.sharding import ShardedHORAM

    state = checkpoint.state
    if checkpoint.kind == "sharded-parallel":
        specs = []
        for data in state["rebuild"]:
            data = dict(data)
            data["storage_device"] = _device_from_dict(data["storage_device"])
            data["memory_device"] = _device_from_dict(data["memory_device"])
            specs.append(ShardBuildSpec(**data))
        executor = ParallelExecutor(specs)
    else:
        executor = SerialExecutor([_rebuild_kernel(info) for info in state["rebuild"]])
    try:
        for index, shard_state in enumerate(state["shards"]):
            executor.load_shard_state(
                index, (shard_state, _shard_blobs(checkpoint, index))
            )
    except Exception:
        executor.close()
        raise
    return ShardedHORAM(
        n_blocks=state["n_blocks"],
        config=_config_from_dict(state["template_config"]),
        lockstep=state["lockstep"],
        executor=executor,
    )


# ---------------------------------------------------------------------------
# Single-shard checkpoints (the supervisor's unit of recovery)
# ---------------------------------------------------------------------------
def snapshot_shard(fleet, index: int) -> Checkpoint:
    """Checkpoint one shard of a (quiescent) sharded fleet.

    Fleet-level snapshots capture every shard at once; the supervisor
    instead checkpoints shards independently on an op-count cadence, so
    recovering one crashed shard never touches the survivors.  The
    checkpoint is the shard's state payload and nothing else: the
    executor that takes it back
    (:meth:`~repro.core.executor.ShardExecutor.recover_shard`) knows how
    to build the blank shard it is loaded into.
    """
    state, blobs = fleet.executor.shard_state(index)
    return Checkpoint(kind="shard", state={"index": index, "stack": state}, blobs=blobs)


def shard_state_payload(checkpoint: Checkpoint) -> "tuple[dict, dict[str, bytes]]":
    """The ``(state, blobs)`` payload ``recover_shard`` rolls a shard to."""
    if checkpoint.kind != "shard":
        raise CheckpointError(f"expected a shard checkpoint, got {checkpoint.kind!r}")
    return checkpoint.state["stack"], checkpoint.blobs


class CheckpointStore:
    """Rotating keep-last-K checkpoint directories with validated fallback.

    Checkpoints land in ``<root>/ckpt-NNNNNN`` with a monotonically
    increasing sequence number.  :meth:`prune` keeps the newest
    ``keep_last`` directories *plus* the newest one that still validates
    -- retention can never garbage-collect the only good recovery point,
    even when every newer checkpoint is torn.  :meth:`load_latest_valid`
    walks newest to oldest, skipping anything :meth:`Checkpoint.load`
    rejects, so a corrupted newest manifest degrades to an older
    recovery point instead of an unrecoverable shard.
    """

    def __init__(self, root, keep_last: int = 3):
        if keep_last < 1:
            raise ValueError("keep_last must be >= 1")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.keep_last = keep_last

    def paths(self) -> "list[Path]":
        """Checkpoint directories, oldest first."""
        found = []
        for path in self.root.iterdir():
            name = path.name
            if path.is_dir() and name.startswith("ckpt-") and name[5:].isdigit():
                found.append((int(name[5:]), path))
        return [path for _, path in sorted(found)]

    def save(self, checkpoint: Checkpoint) -> Path:
        """Persist under the next sequence number, then prune."""
        existing = self.paths()
        seq = int(existing[-1].name[5:]) + 1 if existing else 0
        path = checkpoint.save(self.root / f"ckpt-{seq:06d}")
        self.prune()
        return path

    def prune(self) -> "list[Path]":
        """Drop all but the newest ``keep_last`` checkpoints; returns the
        removed paths.  The newest *valid* checkpoint is always retained,
        even if retention count alone would have rotated it out."""
        import shutil

        paths = self.paths()
        keep = set(paths[-self.keep_last :])
        for path in reversed(paths):
            if path in keep:
                if self._valid(path):
                    break
                continue
            if self._valid(path):
                keep.add(path)
                break
        removed = [path for path in paths if path not in keep]
        for path in removed:
            shutil.rmtree(path, ignore_errors=True)
        return removed

    def load_latest_valid(self) -> "tuple[Checkpoint, Path]":
        """Newest checkpoint that passes full validation, falling back
        past torn or corrupt ones; raises if none survive."""
        for path in reversed(self.paths()):
            try:
                return Checkpoint.load(path), path
            except CheckpointError:
                continue
        raise CheckpointError(f"no valid checkpoint under '{self.root}'")

    @staticmethod
    def _valid(path: Path) -> bool:
        try:
            Checkpoint.load(path)
        except CheckpointError:
            return False
        return True


# ---------------------------------------------------------------------------
# Baselines (factory-built: path / sqrt / partition / plain)
# ---------------------------------------------------------------------------
def _baseline_build_info(protocol) -> dict:
    info = getattr(protocol, "_build_info", None)
    if info is None:
        raise CheckpointError(
            f"{type(protocol).__name__} was not built by repro.oram.factory; "
            "only factory-built baselines are checkpointable"
        )
    args = dict(info["args"])
    args["storage_device"] = _device_to_dict(args.get("storage_device"))
    args["memory_device"] = _device_to_dict(args.get("memory_device"))
    return {"baseline": info["baseline"], "args": args}


def _snapshot_baseline(protocol) -> Checkpoint:
    info = _baseline_build_info(protocol)
    hierarchy_state, blobs = _hierarchy_state(protocol.hierarchy)
    state = {
        "rebuild": info,
        "codec_nonce": protocol.codec._nonce_counter,
        "metrics": protocol.metrics.to_dict(),
        "hierarchy": hierarchy_state,
    }
    kind = info["baseline"]
    if kind == "path":
        state.update(
            rng=protocol.rng.state_dict(),
            positions=list(protocol.position_map._positions),
            stash=[
                [e.addr, e.leaf, b64encode(e.payload).decode("ascii")]
                for e in protocol.stash
            ],
            stash_peak=protocol.stash.peak,
            real=b64encode(protocol.tree._real).decode("ascii"),
            leaf_counts=list(protocol.tree.leaf_counts),
        )
    elif kind == "sqrt":
        state.update(
            rng=protocol.rng.state_dict(),
            perm_forward=list(protocol.permutation._forward),
            perm_inverse=list(protocol.permutation._inverse),
            perm_rng=protocol.permutation._rng.state_dict(),
            shelter=[
                [addr, b64encode(payload).decode("ascii")]
                for addr, payload in protocol._shelter.items()
            ],
            dummy_cursor=protocol._dummy_cursor,
            accesses_this_period=protocol._accesses_this_period,
        )
    elif kind == "partition":
        state.update(
            rng=protocol.rng.state_dict(),
            position=[[addr, slot] for addr, slot in protocol._position.items()],
            stash=[
                [addr, b64encode(e.payload).decode("ascii"), e.target_partition]
                for addr, e in protocol._stash.items()
            ],
            accesses_since_evict=protocol._accesses_since_evict,
            partitions=[
                {
                    "resident": [[a, s] for a, s in p.resident.items()],
                    "holes": sorted(p.holes),
                    "unread_dummies": list(p.unread_dummies),
                }
                for p in protocol._partitions
            ],
        )
    elif kind != "plain":
        raise CheckpointError(f"unsupported baseline kind {kind!r}")
    return Checkpoint(kind=f"baseline-{kind}", state=state, blobs=blobs)


def _restore_baseline(checkpoint: Checkpoint):
    from repro.oram.factory import build_baseline

    state = checkpoint.state
    rebuild = state["rebuild"]
    args = dict(rebuild["args"])
    args["storage_device"] = _device_from_dict(args.get("storage_device"))
    args["memory_device"] = _device_from_dict(args.get("memory_device"))
    protocol = build_baseline(rebuild["baseline"], **args)
    _load_hierarchy_state(protocol.hierarchy, state["hierarchy"], checkpoint.blobs)
    protocol.codec._nonce_counter = state["codec_nonce"]
    protocol.metrics = Metrics.from_dict(state["metrics"])
    kind = rebuild["baseline"]
    if kind == "path":
        protocol.rng.load_state(state["rng"])
        protocol.position_map._positions[:] = state["positions"]
        protocol.stash.clear()
        for addr, leaf, payload in state["stash"]:
            protocol.stash.put(addr, leaf, b64decode(payload))
        protocol.stash.peak = state["stash_peak"]
        protocol.tree._real[:] = b64decode(state["real"])
        protocol.tree.leaf_counts[:] = state["leaf_counts"]
    elif kind == "sqrt":
        protocol.rng.load_state(state["rng"])
        protocol.permutation._forward[:] = state["perm_forward"]
        protocol.permutation._inverse[:] = state["perm_inverse"]
        protocol.permutation._rng.load_state(state["perm_rng"])
        protocol._shelter = {
            addr: b64decode(payload) for addr, payload in state["shelter"]
        }
        protocol._dummy_cursor = state["dummy_cursor"]
        protocol._accesses_this_period = state["accesses_this_period"]
    elif kind == "partition":
        from repro.oram.partition import _StashEntry

        protocol.rng.load_state(state["rng"])
        protocol._position = {addr: slot for addr, slot in state["position"]}
        protocol._stash = {
            addr: _StashEntry(payload=b64decode(payload), target_partition=target)
            for addr, payload, target in state["stash"]
        }
        protocol._accesses_since_evict = state["accesses_since_evict"]
        for partition, saved in zip(protocol._partitions, state["partitions"]):
            partition.resident = {a: s for a, s in saved["resident"]}
            partition.holes = set(saved["holes"])
            partition.unread_dummies = list(saved["unread_dummies"])
    return protocol


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------
def snapshot_stack(protocol) -> Checkpoint:
    """Checkpoint any supported stack (see the module docstring)."""
    from repro.core.kernel import EngineKernel
    from repro.core.sharding import ShardedHORAM

    if isinstance(protocol, EngineKernel):
        return _snapshot_kernel(protocol)
    if isinstance(protocol, ShardedHORAM):
        return _snapshot_sharded(protocol)
    return _snapshot_baseline(protocol)


def restore_stack(checkpoint: Checkpoint):
    """Rebuild + rehydrate the stack a checkpoint describes.

    For durable (file-backed) stacks this reopens the recorded slab and
    rolls its contents back to the checkpoint, discarding anything --
    including a torn most-recent write -- that landed after it.
    """
    from repro.core.kernel import KERNEL_PROTOCOLS

    if checkpoint.kind in KERNEL_PROTOCOLS:
        return _restore_kernel(checkpoint)
    if checkpoint.kind in ("sharded", "sharded-parallel"):
        return _restore_sharded(checkpoint)
    if checkpoint.kind.startswith("baseline-"):
        return _restore_baseline(checkpoint)
    raise CheckpointError(f"unknown checkpoint kind {checkpoint.kind!r}")


def save_checkpoint(protocol, directory) -> Path:
    """``snapshot_stack`` + :meth:`Checkpoint.save` in one call."""
    return snapshot_stack(protocol).save(directory)


def load_checkpoint(directory) -> Checkpoint:
    """Read and validate a checkpoint directory (no stack is built)."""
    return Checkpoint.load(directory)


def recover(directory):
    """Crash recovery: validate the checkpoint on disk and resume from it.

    This is the restart path after a :class:`~repro.storage.faults.CrashFault`
    (or a real process death): reopen the slab, verify the manifest and
    every blob digest, rebuild the stack, roll persistent state back to
    the checkpoint, and hand back a protocol ready to serve the rest of
    the workload bit-identically to an uninterrupted run.
    """
    return restore_stack(load_checkpoint(directory))
