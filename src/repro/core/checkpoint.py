"""Full-stack checkpoints: snapshot, restore, crash recovery.

A *checkpoint* captures everything a stack needs to resume bit-identical
to the moment it was taken: store contents, control-layer bookkeeping,
RNG stream positions, codec nonce counters, clocks, channels, metrics,
the latency histogram and the served-order digest.  None of it grows
with the number of requests served (the bus trace, off by default, is
the one opt-in exception), and nothing is stored that a restore can
derive.  Beside the state, a checkpoint stores the
:class:`~repro.core.recipe.StackRecipe` the stack was built from,
verbatim, and a restore is :func:`~repro.core.recipe.build` on that
recipe with the checkpoint as its ``image``: the one step that writes a
fresh stack's initial image (initial permutation, sealed slab and tree)
loads the checkpoint in its place, so a restore seals nothing and draws
no initial permutation.  The restored instance serves the rest of a
workload exactly as the uninterrupted original would -- the property
the crash-recovery test tier pins.

On-disk format (version :data:`CHECKPOINT_VERSION`)::

    <directory>/
        checkpoint.json         # manifest: format, version, kind, state,
                                # blob index (file name, size, sha256)
        memory.bin              # the memory store's slot array
        storage.bin             # the storage store's slot array
        control.location.bin    # H-ORAM permutation list: addr -> slot
        control.unread.bin      # H-ORAM dummy-load pool, in pool order
        control.consumed.bin    # H-ORAM read-once flags, one bit per slot

(a sharded fleet prefixes each shard's blobs with ``shard<i>.``).  The
manifest's ``kind`` is the recipe's protocol (``"shard"`` for the
supervisor's single-shard checkpoints), and its ``state`` is pure JSON:
``recipe`` plus the stack's state (``stack`` for one H-ORAM, ``shards``
for a fleet under either executor).  It holds no per-slot integer list
(small byte strings are base64 inline).  ``control.location`` and
``control.unread`` are little-endian fixed-width tables in the narrowest
integer type the layout's slot count allows; ``control.consumed`` is
packed little-endian, slot ``i`` at bit ``i % 8`` of byte ``i // 8``.
Derived on load and never stored: the slot -> address table (the
inverse of ``location``) and the pool's slot index; the pool must be
exactly the slots ``location`` names, the blocks still in storage.
Every blob's size and SHA-256 are pinned in the manifest.
:meth:`Checkpoint.load` re-verifies all of it -- version, blob
presence, sizes, digests -- and raises :class:`CheckpointError` on any
mismatch, which is what makes :func:`recover` safe to point at a slab
that died mid-write.

Supported stacks: :class:`~repro.core.horam.HybridORAM`,
:class:`~repro.core.sharding.ShardedHORAM` under both executors (the
parallel executor checkpoints its workers over IPC), and the classic
baselines -- every stack :func:`~repro.core.recipe.build` makes.
Snapshots of a sharded fleet require a quiesced coordinator (everything
submitted has drained).
"""

from __future__ import annotations

import hashlib
import json
from base64 import b64decode, b64encode
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.oram.base import StackClosedError
from repro.sim.metrics import Metrics
from repro.storage.hierarchy import StorageHierarchy
from repro.storage.trace import TraceEvent

#: Checkpoint format version; bumped on any manifest/state layout change,
#: and whenever the record cipher changes the bytes a blob decrypts under
#: (2: records wider than 64 bytes moved to the SHAKE-256 keystream;
#: 3: one shard-checkpoint shape and one fleet layout for both executors;
#: 4: fixed-size kernel state -- ``served_digest``, ``latency_histogram``
#: and per-leaf ``leaf_counts`` replace the per-request logs, and the
#: storage layer's per-partition pools stop being stored;
#: 5: the storage layer's control tables move to binary ``control.*``
#: blobs, and ``slot_addr`` / ``occupied`` are derived on load;
#: 6: the ``rebuild`` dicts give way to the stack's ``recipe``, and the
#: two fleet kinds, one per executor, merge into ``sharded``;
#: 7: the dummy-load pool holds only the slots of stored blocks, never a
#: dummy slot, and the storage layer's empty-pool counter goes;
#: 8: the recipe loses its per-shard protocol field, since H-ORAM is
#: the one protocol a shard runs).
CHECKPOINT_VERSION = 8

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
# Hierarchy state (the classic baselines)
# ---------------------------------------------------------------------------
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
# ShardedHORAM (either executor)
# ---------------------------------------------------------------------------
def _require_quiesced(fleet) -> None:
    if fleet.has_work() or fleet._held or fleet._inflight:
        raise CheckpointError(
            "sharded fleets snapshot at quiescent points only; drain() "
            "before snapshot()"
        )


def _fleet_state(fleet) -> "tuple[dict, dict[str, bytes]]":
    _require_quiesced(fleet)
    shards = []
    blobs: dict = {}
    for index in range(fleet.n_shards):
        shard_state, shard_blobs = fleet.executor.shard_state(index)
        shards.append(shard_state)
        for name, blob in shard_blobs.items():
            blobs[f"shard{index}.{name}"] = blob
    return {"shards": shards}, blobs


def _shard_blobs(blobs: "dict[str, bytes]", index: int) -> "dict[str, bytes]":
    prefix = f"shard{index}."
    return {
        name[len(prefix) :]: blob for name, blob in blobs.items() if name.startswith(prefix)
    }


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
    (:meth:`~repro.core.executor.ShardExecutor.recover_shard`) builds the
    replacement shard directly from it.
    """
    state, blobs = fleet.executor.shard_state(index)
    return Checkpoint(kind="shard", state={"index": index, "stack": state}, blobs=blobs)


def shard_state_payload(checkpoint: Checkpoint) -> "tuple[dict, dict[str, bytes]]":
    """The ``(state, blobs)`` payload ``recover_shard`` builds the
    replacement shard from."""
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
# Classic baselines (path / plain)
# ---------------------------------------------------------------------------
def _baseline_state(protocol, kind: str) -> "tuple[dict, dict[str, bytes]]":
    hierarchy_state, blobs = _hierarchy_state(protocol.hierarchy)
    state = {
        "codec_nonce": protocol.codec._nonce_counter,
        "metrics": protocol.metrics.to_dict(),
        "hierarchy": hierarchy_state,
    }
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
    return state, blobs


def _load_baseline_state(protocol, kind: str, state: dict, blobs: "dict[str, bytes]") -> None:
    _load_hierarchy_state(protocol.hierarchy, state["hierarchy"], blobs)
    protocol.codec._nonce_counter = state["codec_nonce"]
    protocol.metrics = Metrics.from_dict(state["metrics"])
    if kind == "path":
        protocol.rng.load_state(state["rng"])
        protocol.position_map._positions[:] = state["positions"]
        protocol.stash.clear()
        for addr, leaf, payload in state["stash"]:
            protocol.stash.put(addr, leaf, b64decode(payload))
        protocol.stash.peak = state["stash_peak"]
        protocol.tree._real[:] = b64decode(state["real"])
        protocol.tree.leaf_counts[:] = state["leaf_counts"]


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------
def snapshot_stack(protocol) -> Checkpoint:
    """Checkpoint any stack :func:`~repro.core.recipe.build` made (see the
    module docstring): its state, and the recipe it was built from."""
    from repro.core.horam import HybridORAM
    from repro.core.sharding import ShardedHORAM

    recipe = getattr(protocol, "recipe", None)
    if recipe is None:
        raise CheckpointError(
            f"{type(protocol).__name__} was not built by a stack factory "
            "(repro.core.recipe.build); only built stacks are checkpointable"
        )
    if protocol.closed:
        raise StackClosedError(f"{type(protocol).__name__} is closed; nothing to checkpoint")
    if isinstance(protocol, HybridORAM):
        stack, blobs = protocol.state_dict()
        state = {"stack": stack}
    elif isinstance(protocol, ShardedHORAM):
        state, blobs = _fleet_state(protocol)
    else:
        state, blobs = _baseline_state(protocol, recipe.protocol)
    state["recipe"] = recipe.to_dict()
    return Checkpoint(kind=recipe.protocol, state=state, blobs=blobs)


def restore_stack(checkpoint: Checkpoint):
    """Build the stack a checkpoint describes, directly from its image.

    For durable (file-backed) stacks this reopens the recorded slab and
    rolls its contents back to the checkpoint, discarding anything --
    including a torn most-recent write -- that landed after it.
    """
    from repro.core.recipe import PROTOCOLS, StackRecipe, build

    if checkpoint.kind not in PROTOCOLS:
        raise CheckpointError(f"unknown checkpoint kind {checkpoint.kind!r}")
    state, blobs = checkpoint.state, checkpoint.blobs
    try:
        recipe = StackRecipe.from_dict(state["recipe"])
    except (KeyError, TypeError, ValueError) as error:
        raise CheckpointError(f"checkpoint holds no valid stack recipe: {error}") from error
    if recipe.protocol == "sharded":
        return build(
            recipe,
            [(shard, _shard_blobs(blobs, index)) for index, shard in enumerate(state["shards"])],
        )
    if recipe.protocol == "horam":
        return build(recipe, (state["stack"], blobs))
    protocol = build(recipe)
    _load_baseline_state(protocol, recipe.protocol, state, blobs)
    return protocol


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
    every blob digest, build the stack from the checkpoint (rolling a
    durable slab back to it), and hand back a protocol ready to serve the rest of
    the workload bit-identically to an uninterrupted run.
    """
    return restore_stack(load_checkpoint(directory))
