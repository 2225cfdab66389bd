"""Shared fixtures: small, fast protocol instances for the test suite."""

from __future__ import annotations

import sys

import pytest

from repro.core.horam import HybridORAM, build_horam
from repro.crypto import random as drbg
from repro.crypto.ctr import StreamCipher
from repro.crypto.random import DeterministicRandom
from repro.oram import base
from repro.oram.base import BlockCodec
from repro.oram.factory import build_path_oram


@pytest.fixture(params=["by-size", "small"])
def kernel_form(request, monkeypatch):
    """Run the test once with the size selections as shipped, then with
    the small-run forms forced at every size: the DRBG's rejection loop
    (past ``_NP_MIN_DRAWS``) and the codec's single-record loop, the
    reference form (past ``_BATCH_MIN``).  A selection picks a form for
    speed only, so both runs must see the same bytes, draws and stream
    positions."""
    if request.param == "small":
        monkeypatch.setattr(drbg, "_NP_MIN_DRAWS", sys.maxsize)
        monkeypatch.setattr(base, "_BATCH_MIN", sys.maxsize)
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

