"""Slab images pinned byte for byte.

Every stack writes its initial image (the permuted slab, the sealed cache
tree or bucket tree, the plain store's slots) and H-ORAM rewrites its slab
partition by partition every shuffle period.  These pins hold what those
writes leave behind -- the storage and memory slabs, the ``control.*``
tables, every RNG ``state_dict`` and the codec's nonce counter -- as one
sha256 per stack, after the build and after three rounds of traffic (each
ended by ``force_shuffle()`` on H-ORAM stacks), with the kernel size
selections as shipped and with the small-run forms forced at every size
(the ``kernel_form`` fixture).  A change to how images are sealed, opened or
permuted that moves any byte, nonce or draw fails here, whatever the
goldens (which never fingerprint ciphertext) say.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core.checkpoint import snapshot_stack
from repro.core.recipe import StackRecipe, build
from repro.crypto.random import DeterministicRandom
from repro.sim.engine import drive
from repro.workload.generators import hotspot

#: 63 partitions of 64 slots, 32 of them holding a dummy: the numpy form runs on
#: partition rewrites too, and the initial image has dummy rows.
N_BLOCKS = 4000

#: recipe per pinned stack
STACKS = {
    "horam": StackRecipe(n_blocks=N_BLOCKS, mem_blocks=128, seed=3),
    "horam-r4": StackRecipe(n_blocks=N_BLOCKS, mem_blocks=128, seed=3, shuffle_period_ratio=4),
    "fleet": StackRecipe(
        protocol="sharded", n_blocks=2 * N_BLOCKS, mem_blocks=128, n_shards=2, seed=3
    ),
    "horam-mac": StackRecipe(n_blocks=N_BLOCKS, mem_blocks=128, seed=3, integrity=True),
    "path": StackRecipe(protocol="path", n_blocks=N_BLOCKS, mem_blocks=128, seed=3),
    "plain": StackRecipe(protocol="plain", n_blocks=N_BLOCKS, seed=3),
}

#: sha256 of :func:`image_digest` per stack: (after the build, after the traffic)
PINS = {
    "fleet": (
        "66228b22a5ede6caa07345a909f7dbffa24618fcd79303211e149fe11d742fe0",
        "175f4ca1b698b705b5e7eb76c40d5af40a5754db25138913fa3b4610b94ed4c3",
    ),
    "horam": (
        "4c67cc092959cbc7cc1e8dae7cd37d579fb543db537f007169c53f3a6cb8ee99",
        "be0a816fb449018d30d5fbf13f2ab760a028a1b0b185382a3a3a5d853c9e5267",
    ),
    "horam-mac": (
        "c28dac96d91eef113b20946093f137a9609ec3b6731c42b45c246855d2c1ee06",
        "bdd48b44a9bf0bb088c3af0e1e34122bb9cdcff54f48a3cfe0fa90525b0213fd",
    ),
    "horam-r4": (
        "8a6742f9e0591a4da2c4544239e24172d3750bacecfe4f7dd3a088639002fbab",
        "5bbb570e8c882ac6c0fa64689e0ff5222493be3157ef116b73143f6590857b2d",
    ),
    "path": (
        "94b5d7d794b3b0ea65b0c23652c722146cd0c264c6be47ed831f2983e2d1b661",
        "11a89c6243f23473d7d13c7c042174e050adfab2712f14583fc1202fa6a5e851",
    ),
    "plain": (
        "9867c4520dfe3527d77d1975b9c9ccded259e55a753bd570e23f1612eac7a93d",
        "0d467bdf3649f993b79c59d3fe034bdb0212e7572ec3e08837ef5a11600b71d4",
    ),
}


def _kept_state(value, path: str = "") -> dict:
    """The RNG states and nonce counters anywhere in a checkpoint state,
    by path."""
    kept = {}
    if isinstance(value, dict):
        for key, item in value.items():
            if key in ("rng", "codec_nonce"):
                kept[f"{path}/{key}"] = item
            else:
                kept.update(_kept_state(item, f"{path}/{key}"))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            kept.update(_kept_state(item, f"{path}/{index}"))
    return kept


def image_digest(stack) -> str:
    """sha256 over every checkpoint blob (slabs, ``control.*`` tables) and
    the RNG states and nonce counters of the stack's checkpoint."""
    checkpoint = snapshot_stack(stack)
    pinned = {
        "blobs": {
            name: hashlib.sha256(blob).hexdigest() for name, blob in checkpoint.blobs.items()
        },
        "state": _kept_state(checkpoint.state),
    }
    return hashlib.sha256(json.dumps(pinned, sort_keys=True).encode()).hexdigest()


def traffic(stack, n_blocks: int) -> None:
    """Three rounds of hotspot reads and writes, each ending a shuffle period."""
    rng = DeterministicRandom(11)
    for _ in range(3):
        requests = list(hotspot(n_blocks, 200, rng, hot_fraction=0.1, write_ratio=0.5))
        drive(stack, requests, 32)
        if hasattr(stack, "force_shuffle"):
            stack.force_shuffle()


def digests(name: str) -> "tuple[str, str]":
    recipe = STACKS[name]
    stack = build(recipe)
    try:
        built = image_digest(stack)
        traffic(stack, recipe.n_blocks)
        return built, image_digest(stack)
    finally:
        stack.close()


@pytest.mark.parametrize("name", sorted(STACKS))
def test_image_bytes_are_pinned(name, kernel_form):
    assert digests(name) == PINS[name]


if __name__ == "__main__":  # prints the PINS table
    for name in sorted(STACKS):
        built, served = digests(name)
        print(f'    "{name}": (\n        "{built}",\n        "{served}",\n    ),')
