"""Shared helpers for the serving-tier tests: in-process socketpairs."""

import asyncio
import socket
import time

import pytest

from repro.serve import ORAMServer, ServeClient


class ManualClock:
    """Injectable clock so rate-limit tests are fully deterministic."""

    def __init__(self, start: float = 0.0):
        self.t = start

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


class RecordingConnection:
    """Stand-in for a server connection: records what the server sends.

    For tests that drive ``ORAMServer._admit`` with no socket: the
    server answers an admitted request through ``send`` once it retires.
    """

    def __init__(self):
        self.sent: list[dict] = []
        self._arrived = asyncio.Event()

    def send(self, message: dict) -> None:
        self.sent.append(message)
        self._arrived.set()

    async def responses(self, count: int) -> "list[dict]":
        """Wait until ``count`` responses have arrived; return them."""
        while len(self.sent) < count:
            self._arrived.clear()
            await self._arrived.wait()
        return self.sent[:count]


async def _make_pair(stack, config=None, clock=time.monotonic):
    """An ORAMServer and a connected ServeClient over a socketpair."""
    server = ORAMServer(stack, config, clock=clock)
    server_end, client_end = socket.socketpair()
    await server.attach(server_end)
    client = await ServeClient.from_socket(client_end)
    return server, client


@pytest.fixture
def make_pair():
    return _make_pair


@pytest.fixture
def manual_clock():
    return ManualClock


@pytest.fixture
def recording_connection():
    return RecordingConnection


@pytest.fixture
def run():
    """Run one async scenario to completion (no pytest-asyncio here)."""
    return lambda coro: asyncio.run(coro)
