"""The three phases every workload runs, with their drivers and gates.

``engine``   in-process ``SimulationEngine(stack, verify=True)`` over the
             stream: host rate and the exact simulated counters.
``closed32`` closed loop through ``ORAMServer``/``ServeClient`` with 32
             requests outstanding: saturated throughput.
``open``     open loop, Poisson arrivals at one fixed rate, each request
             timed from the instant it was due.

The load generator is one task on the event loop that also runs the
server, over a ``socketpair`` -- the shape the conformance tier uses, and
the only one that gave repeatable latencies on a two-core sandbox.
"""

from __future__ import annotations

import asyncio
import socket
import statistics
import time

from repro.crypto.random import DeterministicRandom
from repro.oram.base import OpKind, Request
from repro.serve import (
    LoadSpec,
    ORAMServer,
    ServeClient,
    ServeConfig,
    diff_served,
)
from repro.serve.loadgen import arrival_times
from repro.serve.protocol import to_hex
from repro.sim.engine import SimulationEngine, VerificationError
from repro.sim.metrics import percentile
from repro.testing.oracle import ReferenceOracle

from spine_pace import Pace
from spine_trace import instrument_fleet, instrument_kernel, instrument_server
from spine_workloads import CLOSED_DEPTH, MAX_INFLIGHT, Stack

clock = time.perf_counter

#: The open loop samples machine speed only when the next send is at least
#: this far off (a sample takes ~1.4 ms, ~3 ms when the machine is slow).
IDLE_SAMPLE_MARGIN_S = 0.004
IDLE_POLL_S = 0.002
#: Consecutive windows of the open phase whose p99s ``serve_p99_ms`` is the
#: median of: at the workloads' counts each has 250-500 requests and one
#: shuffle stall or more (6-18 shuffles fall in the phase).
P99_WINDOWS = 4


class Gates:
    """Operations attempted and failed, and why, across all phases."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.per_phase: dict[str, dict] = {}

    def phase(self, name: str, attempted: int, **failed_by_cause: int) -> None:
        """Count one repetition of a phase; repetitions add up by name."""
        failed = sum(failed_by_cause.values())
        self.attempted += attempted
        self.failed += failed
        counts = self.per_phase.setdefault(name, {"repetitions": 0, "attempted": 0, "served": 0})
        counts["repetitions"] += 1
        counts["attempted"] += attempted
        counts["served"] += attempted - failed
        for cause, count in failed_by_cause.items():
            counts[cause] = counts.get(cause, 0) + count
        if failed:
            self.failures.append(f"{name}: {failed_by_cause}")

    def require(self, ok: bool, what: str) -> None:
        """A gate that is not an operation: a miss still fails the run."""
        if not ok:
            self.failed += 1
            self.failures.append(what)


def quartiles(values: "list[float]") -> "list[float]":
    """[q1, median, q3]; a single value is its own quartiles."""
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


# ------------------------------------------------------------ engine phase
def engine_phase(stack: Stack, stream: list, gates: Gates, pace: Pace) -> dict:
    """One repetition: the whole stream through a fresh stack, verified."""
    engine = SimulationEngine(stack.driver, verify=True)
    wrong = 0
    metrics = None
    pace.burst()
    began = clock()
    try:
        metrics = engine.run(stream)
    except VerificationError as error:
        wrong = len(stream)
        gates.failures.append(f"engine: {error}")
    ended = clock()
    pace.burst()
    gates.phase("engine", len(stream), byte_mismatched=wrong)
    return {
        "requests": len(stream),
        "wall_s": ended - began,
        "paced_s": pace.paced(began, ended),
        "metrics": metrics,
    }


# ------------------------------------------------------------ serve phases
async def serve_phase(workload, drive, pace: Pace, tracer=None, probe=None) -> dict:
    """Bring a service up, run ``drive(client)`` against it, tear it down.

    Bringing up is: build the stack, attach the server to one end of a
    socketpair, register the tenants, connect the client to the other end;
    the time it takes is one ``setup_s`` sample.  Returns ``drive``'s
    report plus what the gates and the layer metrics read off the service:
    the closed server (its journal and served bytes) and the fleet's
    reports.  ``probe(server)`` runs after the drive, for direct timings
    that need the live server.
    """
    pace.burst()
    began = clock()
    stack = Stack(workload)
    try:
        if tracer is not None:
            # Before the server exists: its backend shim binds stack.step.
            instrument_stack(tracer, stack)
        server = ORAMServer(stack.driver, ServeConfig(max_inflight=MAX_INFLIGHT))
        if tracer is not None:
            instrument_server(tracer, server)
        server_end, client_end = socket.socketpair()
        client = None
        try:
            await server.attach(server_end)
            for tenant in range(workload.tenants):
                server.add_tenant(tenant)
            client = await ServeClient.from_socket(client_end)
            up = clock()
            pace.burst()
            report = await drive(client)
            pace.burst()
            if probe is not None:
                report["probe"] = probe(server)
        finally:
            if client is not None:
                await client.close()
            await server.close()
            # No-ops once a transport has owned and closed them.
            client_end.close()
            server_end.close()
        fleet = stack.supervisor.fleet if stack.supervisor is not None else None
        report.update(
            setup_s=up - began,
            setup_paced_s=pace.paced(began, up),
            paced_s=pace.paced(report["began"], report["ended"]),
            server=server,
            cycles=stack.driver.metrics.cycles,
            shuffles=stack.driver.metrics.shuffle_count,
            recovery=stack.supervisor.recovery_report() if fleet is not None else None,
            ipc=fleet.executor.ipc_stats() if fleet is not None else None,
            load_balance=fleet.load_balance() if fleet is not None else None,
        )
    finally:
        stack.close()
    return report


def instrument_stack(tracer, stack: Stack) -> None:
    if stack.kernel is not None:
        instrument_kernel(tracer, stack.kernel)
    else:
        instrument_fleet(tracer, stack.supervisor)


def wire_messages(stream: list, tenants: int) -> "list[dict]":
    messages = []
    for index, request in enumerate(stream):
        message = {
            "op": "read" if request.op is OpKind.READ else "write",
            "addr": request.addr,
            "tenant": index % tenants,
        }
        if request.data is not None:
            message["data"] = to_hex(request.data)
        messages.append(message)
    return messages


async def _ask(client: ServeClient, message: dict):
    """One request/response; None when the connection died under it."""
    try:
        return await client.request(message)
    except ConnectionError:
        return None


async def closed_loop(client: ServeClient, messages: "list[dict]") -> dict:
    """CLOSED_DEPTH callers, each sending its next request on a reply."""
    count = len(messages)
    responses: list = [None] * count
    latencies_ms = [0.0] * count
    cursor = iter(range(count))

    async def caller() -> None:
        for index in cursor:
            sent = clock()
            responses[index] = await _ask(client, messages[index])
            latencies_ms[index] = (clock() - sent) * 1000.0

    began = clock()
    await asyncio.gather(*(caller() for _ in range(min(CLOSED_DEPTH, count))))
    ended = clock()
    return {
        "requests": count,
        "began": began,
        "ended": ended,
        "wall_s": ended - began,
        "latencies_ms": latencies_ms,
        "responses": responses,
    }


async def open_loop(
    client: ServeClient, messages: "list[dict]", due_s: "list[float]", pace: Pace
) -> dict:
    """Send each request at its due time whatever the replies are doing.

    Latency runs from the due time, so a stall charges every request that
    should have been sent during it; how late the generator itself ran is
    reported beside it.  While nothing is in flight and the next send is
    comfortably far off, the generator takes one machine-speed sample, so
    each latency can be paced by the speed around it.
    """
    count = len(messages)
    done_at = [0.0] * count
    due_at = [0.0] * count
    late_ms = [0.0] * count
    futures = []
    in_flight = 0

    def stamp(index: int):
        def on_done(_future) -> None:
            nonlocal in_flight
            in_flight -= 1
            done_at[index] = clock()

        return on_done

    began = clock()
    for index, (message, at) in enumerate(zip(messages, due_s)):
        due = due_at[index] = began + at
        sampled = False
        while (delay := due - clock()) > 0:
            if not sampled and not in_flight and delay > IDLE_SAMPLE_MARGIN_S:
                pace.sample()
                sampled = True
            else:
                # Poll while a reply is pending: the sample waits for it.
                await asyncio.sleep(delay if sampled else min(delay, IDLE_POLL_S))
        late_ms[index] = (clock() - due) * 1000.0
        future = client.send(message)
        in_flight += 1
        future.add_done_callback(stamp(index))
        futures.append(future)
        await client.drain()
    responses = []
    for future in futures:
        try:
            responses.append(await future)
        except ConnectionError:
            responses.append(None)
    ended = clock()
    return {
        "requests": count,
        "began": began,
        "ended": ended,
        "wall_s": ended - began,
        "due_at": due_at,
        "done_at": done_at,
        "late_ms": late_ms,
        "responses": responses,
    }


def poisson_due_times(count: int, rate_per_s: float, label: str) -> "list[float]":
    """The first ``count`` arrivals of a Poisson process at ``rate_per_s``."""
    rng = DeterministicRandom(label)
    horizon = 2.0 * count / rate_per_s + 1.0
    times = arrival_times(LoadSpec(rate_per_s=rate_per_s, duration_s=horizon), rng)
    if len(times) < count:
        raise RuntimeError(f"only {len(times)} arrivals drawn for {count} requests")
    return times[:count]


# ------------------------------------------------------------------- gates
def expected_by_seq(journal, payload_bytes: int) -> "dict[int, bytes]":
    """What a correct block store serves for the journal, seq by seq.

    Served bytes are a pure function of the order requests reached the
    stack, which the journal records, so the conformance tier's dict
    oracle replayed in that order says what every reply must carry --
    without a twin stack's kernel cycle per request, which the run's time
    cap cannot pay for on every repetition.
    """
    oracle = ReferenceOracle(payload_bytes)
    expected = {}
    for record in journal:
        if record.op == "read":
            request = Request.read(record.addr)
        else:
            request = Request.write(record.addr, record.data)
        expected[record.seq] = oracle.expect(request)
    return expected


def check_served(name: str, workload, report: dict, gates: Gates) -> None:
    """Every served byte against the oracle; every refusal counted.

    ``report`` is what :func:`serve_phase` returned: the replies, the
    server (closed by now; its journal is what the oracle replays) and
    the supervisor's recovery report.
    """
    server = report["server"]
    responses = report["responses"]
    errored = sum(1 for response in responses if response is None)
    refused = sum(1 for r in responses if r is not None and not r.get("ok"))
    expected = expected_by_seq(server.journal, workload.payload_bytes)
    diff = diff_served(server.journal, server.served_by_seq, expected)
    mismatched = sum(
        1 for seq, payload in server.served_by_seq.items() if expected.get(seq) != payload
    )
    gates.phase(
        name,
        len(responses),
        refused=refused,
        errored=errored,
        byte_mismatched=mismatched,
        unserved=len(diff.unserved),
    )
    answered = len(responses) - refused - errored
    gates.require(
        diff.compared == len(server.journal) == answered,
        f"{name}: journal {len(server.journal)} / compared {diff.compared} / "
        f"answered {answered} disagree",
    )
    gates.require(
        not server.rejections, f"{name}: server rejections {dict(server.rejections)}"
    )
    recovery = report["recovery"]
    if recovery is not None:
        gates.require(
            recovery["crashes_detected"] == 0 and recovery["fences"] == 0,
            f"{name}: supervisor saw {recovery['crashes_detected']} crashes, "
            f"{recovery['fences']} fences",
        )


def latency_summary(latencies_ms: "list[float]") -> dict:
    return {
        "samples": len(latencies_ms),
        "p50_ms": percentile(latencies_ms, 50),
        "p99_ms": percentile(latencies_ms, 99),
        "max_ms": max(latencies_ms),
    }


def window_p99s(latencies_ms: "list[float]") -> "list[float]":
    """The p99 of each of P99_WINDOWS equal, consecutive parts of a phase.

    ``serve_p99_ms`` is their median.  One host hiccup of a few hundred ms
    catches more requests than lie beyond the whole phase's p99, and so
    *becomes* that p99 (589 ms against 58 ms on the same work, observed);
    it reaches one window, two at most, and the median leaves it out.
    Periodic stalls -- the shuffles the metric is there to show -- fall in
    every window and stay.
    """
    count = len(latencies_ms)
    windows = min(P99_WINDOWS, count)
    return [
        percentile(latencies_ms[part * count // windows : (part + 1) * count // windows], 99)
        for part in range(windows)
    ]
