"""The per-shard worker transport: one process, one duplex pipe, no
coordinator-side helper thread.  Ordering, large messages both ways,
timeouts vs. lost workers, error types, and reaping."""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from contextlib import contextmanager

import pytest

from repro.core.executor import _default_context, _failure_kind
from repro.core.sharding import build_sharded_horam
from repro.core.worker_channel import FuturesTimeout, WorkerChannel, WorkerLost
from repro.oram.base import Request
from repro.storage.faults import CrashFault, HangFault

MIB = 1 << 20


def _nothing() -> None:
    pass


def _raise(error):
    raise error


def _late_bytes(size: int) -> bytes:
    """A large reply the worker cannot have written by the time ``submit``
    returns (``submit`` takes any reply that is already there)."""
    time.sleep(0.2)
    return bytes(size)


@contextmanager
def _within(seconds):
    """Fail (instead of hanging the suite) if the body blocks."""

    def _expired(signum, frame):
        raise AssertionError(f"still blocked after {seconds}s")

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def channel():
    children = set(multiprocessing.active_children())
    channel = WorkerChannel(_default_context(), _nothing)
    yield channel
    channel.kill()
    with _within(10):
        channel.shutdown()
    assert not channel.process.is_alive()
    assert not (set(multiprocessing.active_children()) - children)


class TestOrdering:
    def test_worker_is_forked_eagerly(self, channel):
        assert channel.process.is_alive() and channel.pid != os.getpid()
        assert channel.submit(os.getpid).result(timeout=10) == channel.pid

    def test_two_calls_in_flight_answer_in_order(self, channel):
        slow = channel.submit(time.sleep, 0.2)
        fast = channel.submit(len, b"abc")
        # Asking for the later answer first still settles the earlier one.
        assert fast.result(timeout=10) == 3
        assert slow.done() and slow.result(timeout=0) is None

    @pytest.mark.parametrize("settle_s", [0.0, 0.3])
    def test_large_argument_behind_an_unread_large_reply(self, channel, settle_s):
        """Neither side may sit in send() against a pipe the other is not
        reading -- whether the worker is still computing the big reply
        (0.0) or already blocked writing it (0.3)."""
        with _within(30):
            reply = channel.submit(bytes, 2 * MIB)
            time.sleep(settle_s)
            size = channel.submit(len, b"y" * (2 * MIB))
            assert size.result(timeout=20) == 2 * MIB
            assert len(reply.result(timeout=0)) == 2 * MIB

    def test_done_and_zero_timeout_never_wait(self, channel):
        first = channel.submit(time.sleep, 30)
        second = channel.submit(len, b"")
        began = time.monotonic()
        assert not first.done() and not second.done()
        for reply in (first, second):
            with pytest.raises(FuturesTimeout):
                reply.result(timeout=0)
        assert time.monotonic() - began < 1.0


class TestFailures:
    def test_timeout_leaves_the_worker_alive_then_a_kill_is_dead(self, channel):
        reply = channel.submit(time.sleep, 30)
        with pytest.raises(FuturesTimeout) as timeout:
            reply.result(timeout=0.1)
        assert _failure_kind(timeout.value) == "hung"
        assert channel.process.is_alive() and not reply.done()
        os.kill(channel.pid, signal.SIGKILL)
        with pytest.raises(WorkerLost) as lost, _within(10):
            reply.result()
        assert _failure_kind(lost.value) == "dead"
        # ...and stays dead: later calls fail at once, never block.
        with pytest.raises(WorkerLost):
            channel.submit(len, b"").result(timeout=0)

    @pytest.mark.parametrize(
        "error, kind",
        [(CrashFault("read_slot", 7, torn=True), "crash"), (HangFault("write_run", 3), "hung")],
    )
    def test_worker_exception_keeps_its_type(self, channel, error, kind):
        with pytest.raises(type(error)) as raised:
            channel.submit(_raise, error).result(timeout=10)
        assert raised.value.op_index == error.op_index
        assert _failure_kind(raised.value) == kind
        assert "_raise" in str(raised.value.__cause__)  # the worker's traceback
        assert channel.submit(len, b"ok").result(timeout=10) == 2  # still serving

    def test_unpicklable_result_is_an_error_not_a_wedge(self, channel):
        with pytest.raises(RuntimeError, match="unsendable"):
            channel.submit(threading.Lock).result(timeout=10)
        assert channel.submit(len, b"ok").result(timeout=10) == 2

    def test_failing_initializer_surfaces_on_the_first_call(self):
        channel = WorkerChannel(_default_context(), _raise, (KeyError("no shard"),))
        try:
            with pytest.raises(KeyError, match="no shard"):
                channel.submit(len, b"").result(timeout=10)
        finally:
            channel.shutdown()
        assert not channel.process.is_alive()


class TestShutdown:
    def test_shutdown_waits_for_the_running_call_and_is_idempotent(self):
        channel = WorkerChannel(_default_context(), _nothing)
        dropped = channel.submit(_late_bytes, 2 * MIB)  # nobody will read this reply
        with _within(10):
            channel.shutdown()
            channel.shutdown()
        assert channel.process.exitcode == 0
        with pytest.raises(WorkerLost):
            dropped.result(timeout=0)

    def test_sigkilled_worker_is_still_reaped(self):
        children = set(multiprocessing.active_children())
        channel = WorkerChannel(_default_context(), _nothing)
        channel.submit(time.sleep, 30)
        os.kill(channel.pid, signal.SIGKILL)
        with _within(10):
            channel.shutdown()
        assert channel.process.exitcode == -signal.SIGKILL
        assert not (set(multiprocessing.active_children()) - children)


def test_parallel_fleet_adds_no_coordinator_thread():
    before = threading.active_count()
    fleet = build_sharded_horam(
        n_blocks=256, mem_tree_blocks=64, n_shards=2, seed=0, executor="parallel"
    )
    try:
        assert threading.active_count() == before
        for round_ in range(10):
            entries = [fleet.submit(Request.read(round_ * 4 + i)) for i in range(4)]
            assert len(fleet.step()) == 4
            assert all(entry.result is not None for entry in entries)
            assert threading.active_count() == before
    finally:
        fleet.close()
    assert threading.active_count() == before
