"""Shared fixtures: small, fast protocol instances for the test suite."""

from __future__ import annotations

import pytest

from repro import accel
from repro.core.horam import HybridORAM, build_horam
from repro.crypto.ctr import StreamCipher
from repro.crypto.random import DeterministicRandom
from repro.oram.base import BlockCodec
from repro.oram.factory import build_path_oram


@pytest.fixture(params=["numpy", "loop"])
def backend(request, monkeypatch):
    """Run the test once per kernel: vectorized, then the pure-Python loop."""
    if request.param == "numpy":
        if accel.np is None:
            pytest.skip("numpy unavailable; the loop is the only kernel")
    else:
        monkeypatch.setattr(accel, "np", None)
    return request.param


@pytest.fixture
def rng() -> DeterministicRandom:
    return DeterministicRandom(1234)


@pytest.fixture
def codec() -> BlockCodec:
    return BlockCodec(16, StreamCipher(b"unit-test-key"))


@pytest.fixture
def small_horam() -> HybridORAM:
    """A 512-block H-ORAM with a 128-block memory tree (tree slots 124)."""
    return build_horam(n_blocks=512, mem_tree_blocks=128, seed=42, trace=True)


@pytest.fixture
def small_path_oram():
    return build_path_oram(n_blocks=256, memory_blocks=64, seed=42, trace=True)

