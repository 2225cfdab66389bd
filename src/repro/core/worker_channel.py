"""One dedicated worker process on one duplex pipe.

:class:`WorkerChannel` is the whole transport under
:class:`~repro.core.executor.ParallelExecutor`: the calling thread
pickles ``(fn, args)`` straight into a :mod:`multiprocessing` pipe, the
worker loops ``recv -> call -> send``, and a :class:`Reply` is read with
``poll(timeout)`` + ``recv()`` by whoever asks for it.  The coordinator
runs no helper thread and no queue for it, so nothing else takes the GIL
while the caller (an asyncio server framing replies, say) works.

Calls are answered strictly in submission order.  Only one call is in
the pipe at a time: a call submitted while an earlier reply is unread
waits on the coordinator side and goes out as soon as that reply has
been taken.  The worker is therefore idle in ``recv()`` whenever the
coordinator writes, and the coordinator never writes while the worker
may be writing -- neither side can block in ``send()`` against a full
pipe the other is not reading, whatever the message sizes.
"""

from __future__ import annotations

import time
import traceback
from collections import deque
from concurrent.futures import TimeoutError as FuturesTimeout
from multiprocessing.reduction import ForkingPickler

__all__ = ["FuturesTimeout", "Reply", "WorkerChannel", "WorkerLost"]


class WorkerLost(RuntimeError):
    """The worker process went away (killed, crashed hard, or shut down)
    with this call unanswered."""


class _RemoteTraceback(Exception):
    """Carries a worker-side traceback as the ``__cause__`` of the error
    re-raised in the coordinator (tracebacks themselves do not pickle)."""

    def __str__(self) -> str:
        return f"\n'''\n{self.args[0]}'''"


def _serve(conn, initializer, initargs, idle=None) -> None:
    """Worker main loop.  A failing ``initializer`` does not kill the
    worker: its error answers every call, so the caller sees the real
    exception instead of a bare lost pipe.

    Between calls the worker runs ``idle()`` while no call is waiting,
    one unit of work at a time, until it returns False; a call that
    arrives meanwhile waits for one unit at most.  An ``idle`` that
    raises is not run again: the call that next needs its work does it
    and reports the error where it belongs."""
    broken = None
    try:
        initializer(*initargs)
    except Exception as error:
        broken = (error, traceback.format_exc())
        idle = None
    while True:
        try:
            while idle is not None and not conn.poll(0) and idle():
                pass
        except Exception:
            idle = None
        try:
            call = conn.recv()
        except (EOFError, OSError):
            return  # the coordinator is gone
        if call is None:
            return
        fn, args = call
        try:
            reply = (True, fn(*args), None) if broken is None else (False, *broken)
        except Exception as error:
            reply = (False, error, traceback.format_exc())
        try:
            conn.send(reply)
        except OSError:
            return  # the coordinator is gone
        except Exception as error:  # the value (or the error) does not pickle
            conn.send((False, RuntimeError(f"unsendable reply: {error!r}"), None))


class Reply:
    """The pending answer to one :meth:`WorkerChannel.submit`."""

    __slots__ = ("_channel", "_payload", "_done", "_value", "_error")

    def __init__(self, channel: "WorkerChannel", payload: "bytes | None"):
        self._channel = channel
        self._payload = payload  # the pickled call; None once written to the pipe
        self._done = False
        self._value = None
        self._error: BaseException | None = None

    def _finish(self, value=None, error: BaseException | None = None) -> None:
        self._done = True
        self._value = value
        self._error = error
        self._payload = None  # a call that never went out is dropped

    def done(self) -> bool:
        """Whether the answer is here; never waits for the worker."""
        while not self._done and self._channel._advance(0):
            pass
        return self._done

    def result(self, timeout: float | None = None):
        """The call's return value; raises what the call raised (its own
        type), :class:`WorkerLost` if the worker vanished, or
        :class:`FuturesTimeout` after ``timeout`` seconds with the call
        still pending (``timeout=0`` never waits)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while not self._done:
            remaining = None if deadline is None else max(0.0, deadline - time.monotonic())
            # The timeout is raised out here, not beside the pipe errors:
            # FuturesTimeout is an OSError and must not read as a lost pipe.
            if not self._channel._advance(remaining):
                raise FuturesTimeout()
        if self._error is not None:
            raise self._error
        return self._value


class WorkerChannel:
    """A worker process that runs ``initializer(*initargs)`` once and then
    answers :meth:`submit` calls in order, running ``idle()`` between
    them (see :func:`_serve`).  Forked eagerly; ``pid`` and ``process``
    are the worker's."""

    def __init__(self, context, initializer, initargs=(), idle=None):
        self._conn, child = context.Pipe()
        self.process = context.Process(
            target=_serve, args=(child, initializer, initargs, idle), daemon=True
        )
        self.process.start()
        child.close()
        #: unanswered replies, oldest first; only the head can be in the pipe.
        self._waiting: "deque[Reply]" = deque()
        self._lost: BaseException | None = None

    @property
    def pid(self) -> int:
        return self.process.pid

    def submit(self, fn, *args) -> Reply:
        """Queue ``fn(*args)`` for the worker.  It is written at once if no
        earlier reply is unread, otherwise when a later ``done``/``result``
        (on any reply of this channel) has taken the replies before it."""
        if self._lost is not None:
            reply = Reply(self, None)
            reply._finish(error=WorkerLost(f"worker {self.pid} is gone: {self._lost!r}"))
            return reply
        reply = Reply(self, ForkingPickler.dumps((fn, args)))
        self._waiting.append(reply)
        while self._waiting and self._advance(0):
            pass
        return reply

    def _advance(self, timeout: float | None) -> bool:
        """Write the oldest pending call if it has not gone out, then wait
        up to ``timeout`` for its reply.  False means it timed out."""
        head = self._waiting[0]
        try:
            if head._payload is not None:
                self._conn.send_bytes(head._payload)
                head._payload = None
            if not self._conn.poll(timeout):
                return False
            ok, value, remote = self._conn.recv()
        except (EOFError, OSError) as error:
            self._lose(error)
            return True
        self._waiting.popleft()
        if ok:
            head._finish(value)
        else:
            if remote is not None:
                value.__cause__ = _RemoteTraceback(remote)
            head._finish(error=value)
        return True

    def _lose(self, cause: BaseException) -> None:
        self._lost = cause
        while self._waiting:
            self._waiting.popleft()._finish(
                error=WorkerLost(f"worker {self.pid} vanished: {cause!r}")
            )

    def kill(self) -> None:
        """SIGKILL a worker that will not answer (a stopped or wedged process
        may never act on SIGTERM); :meth:`shutdown` reaps it."""
        self.process.kill()

    def shutdown(self) -> None:
        """Tell the worker to exit once it has finished what it is running
        (callers that cannot wait :meth:`kill` first), fail whatever is
        unanswered and reap the process.  Idempotent."""
        if self._lost is None:
            try:
                self._conn.send(None)
            except OSError:
                pass  # already dead
            self._lose(RuntimeError("channel shut down"))
        # Read to EOF before joining: a worker still writing a reply nobody
        # wants must be able to finish the write and see the exit request.
        try:
            while True:
                self._conn.recv_bytes()
        except (EOFError, OSError):
            pass
        self._conn.close()
        self.process.join()
