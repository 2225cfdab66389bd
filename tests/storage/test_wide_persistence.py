"""Persistence of wide-record stacks across the keystream change.

Records wider than 64 bytes decrypt under a different keystream than
they did at format version 1, so both on-disk stamps moved past it: an
artifact written then must be refused outright, never opened into
garbage.  Within the current version a 1 KiB-block stack on the ``file``
backend checkpoints and resumes bit-identically, like a narrow one.
"""

import json

import pytest

from repro.core.checkpoint import CheckpointError, recover, save_checkpoint
from repro.core.horam import build_horam
from repro.crypto.random import DeterministicRandom
from repro.sim.engine import drive
from repro.storage.durable import SlabError, slab_meta_path
from repro.workload.generators import zipfian

N_BLOCKS = 256
MEM_BLOCKS = 64
PAYLOAD_BYTES = 1024
REQUESTS = 90
CUT = 40
#: The format version whose wide records used the BLAKE2b digest chain.
CHAIN_VERSION = 1


def build(tmp_path, label):
    return build_horam(
        n_blocks=N_BLOCKS,
        mem_tree_blocks=MEM_BLOCKS,
        payload_bytes=PAYLOAD_BYTES,
        seed=23,
        storage_backend="file",
        storage_path=tmp_path / f"{label}.slab",
    )


def workload():
    rng = DeterministicRandom("wide-persistence")
    requests = list(zipfian(N_BLOCKS, REQUESTS, rng, write_ratio=0.5))
    for request in requests:
        if request.data is not None:  # full-width writes, like block1k_write
            request.data = (request.data * PAYLOAD_BYTES)[:PAYLOAD_BYTES]
    return requests


def restamp(path, version):
    data = json.loads(path.read_text())
    assert data["version"] != version
    data["version"] = version
    path.write_text(json.dumps(data))


def test_mid_stream_checkpoint_resumes_identical_to_an_uninterrupted_twin(tmp_path):
    requests = workload()
    twin = build(tmp_path, "twin")
    expected = drive(twin, requests)
    assert twin.period_index >= 1, "the stream must cross a shuffle"

    victim = build(tmp_path, "victim")
    head = drive(victim, requests[:CUT])
    nonce_at_cut = victim.codec._nonce_counter
    save_checkpoint(victim, tmp_path / "ckpt")
    drive(victim, requests[CUT : CUT + 10])  # state past the checkpoint is rolled back
    victim.close()

    restored = recover(tmp_path / "ckpt")
    assert restored.codec.payload_bytes == PAYLOAD_BYTES
    assert restored.codec._nonce_counter == nonce_at_cut
    tail = drive(restored, requests[CUT:])

    assert head + tail == expected
    assert restored.served_digest == twin.served_digest
    assert restored.metrics.to_dict() == twin.metrics.to_dict()
    assert restored.hierarchy.clock.now_us == twin.hierarchy.clock.now_us
    assert restored.codec._nonce_counter == twin.codec._nonce_counter
    storage, reference = restored.hierarchy.storage, twin.hierarchy.storage
    assert bytes(storage.peek_run(0, storage.slots)) == bytes(reference.peek_run(0, reference.slots))
    restored.close()
    twin.close()


@pytest.fixture
def checkpointed(tmp_path):
    """A saved checkpoint of a closed wide stack, and its slab."""
    victim = build(tmp_path, "old")
    drive(victim, workload()[:10])
    save_checkpoint(victim, tmp_path / "ckpt")
    victim.close()
    return tmp_path / "ckpt", tmp_path / "old.slab"


def test_manifest_stamped_with_the_previous_version_is_refused(checkpointed):
    ckpt, _ = checkpointed
    restamp(ckpt / "checkpoint.json", CHAIN_VERSION)
    with pytest.raises(CheckpointError, match="version 1"):
        recover(ckpt)


def test_slab_stamped_with_the_previous_version_is_refused(checkpointed, tmp_path):
    ckpt, slab = checkpointed
    restamp(slab_meta_path(slab), CHAIN_VERSION)
    with pytest.raises(SlabError, match="version 1"):
        recover(ckpt)
    with pytest.raises(SlabError, match="version 1"):
        build(tmp_path, "old")
