"""The bench spine: one command, four workloads, three phases each.

    python3 benchmarks/spine/run.py --seed 7 --out DIR [--trace]
        every workload, each in a fresh interpreter, untraced; with
        ``--trace`` a second, traced run of each for the per-layer numbers

    python3 benchmarks/spine/run.py --workload hot_fit --seed 7 --seconds 20 --trace 0
        one workload in this interpreter (the form BENCHMARK.json names);
        the last line of output is the result as one JSON object

    python3 benchmarks/spine/run.py compare A B
        two result directories, one row per workload x end-to-end metric

Every metric is printed by name with its unit; every served byte is
checked; the exit code is non-zero when anything failed.  See README.md.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from multiprocessing import resource_tracker
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
# The program under test is imported from the checkout this file sits in,
# never from an installed copy.
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from repro.core.checkpoint import recover, save_checkpoint  # noqa: E402
from repro.crypto.ctr import StreamCipher  # noqa: E402
from repro.serve.protocol import encode_frame, read_frame  # noqa: E402
from repro.storage.shm import active_segments  # noqa: E402

import spine_compare  # noqa: E402
from spine_phases import (  # noqa: E402
    Gates,
    check_served,
    clock,
    closed_loop,
    engine_phase,
    instrument_stack,
    latency_summary,
    open_loop,
    poisson_due_times,
    quartiles,
    serve_phase,
    window_p99s,
    wire_messages,
)
from spine_pace import Pace  # noqa: E402
from spine_trace import Tracer, write_spans  # noqa: E402
from spine_workloads import (  # noqa: E402
    END_TO_END,
    PER_LAYER,
    REFERENCE_SECONDS,
    WORKLOADS,
    Stack,
    make_stream,
    scaled,
)

#: Engine and closed32 repetitions of a traced run (an untraced run does
#: the workload's own count).
TRACED_REPETITIONS = 2
#: Passes of each direct timing (frames, keystream, health); median reported.
DIRECT_PASSES = 5


def machine() -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
    }


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip()


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # Linux reports KiB


# ----------------------------------------------------------- direct timings
def median_of_passes(one_pass) -> float:
    return statistics.median(one_pass() for _ in range(DIRECT_PASSES))


def frame_encode_us(messages: "list[dict]") -> float:
    def one_pass() -> float:
        began = clock()
        for message in messages:
            encode_frame(message)
        return (clock() - began) / len(messages) * 1e6

    return median_of_passes(one_pass)


def frame_decode_us(messages: "list[dict]") -> float:
    frames = b"".join(encode_frame(message) for message in messages)

    async def one_pass() -> float:
        reader = asyncio.StreamReader()
        reader.feed_data(frames)
        reader.feed_eof()
        began = clock()
        while await read_frame(reader) is not None:
            pass
        return (clock() - began) / len(messages) * 1e6

    return median_of_passes(lambda: asyncio.run(one_pass()))


def keystream_block_ns(blocks: int = 20000) -> float:
    cipher = StreamCipher(b"spine-direct-timing")

    def one_pass() -> float:
        began = clock()
        cipher.keystream_blocks(range(blocks))
        return (clock() - began) / blocks * 1e9

    return median_of_passes(one_pass)


def health_ms(server) -> float:
    def one_pass() -> float:
        began = clock()
        server.health()
        return (clock() - began) * 1000.0

    return median_of_passes(one_pass)


def checkpoint_cost(stack: Stack, directory: Path, restore: bool) -> dict:
    """Save the quiesced stack; optionally recover it; bytes and times."""
    began = clock()
    path = save_checkpoint(stack.checkpointable, directory)
    save_s = clock() - began
    size = sum(f.stat().st_size for f in Path(path).rglob("*") if f.is_file())
    cost = {"bytes": size, "save_ms": save_s * 1000.0, "restore_ms": 0.0}
    if restore:
        began = clock()
        recovered = recover(path)
        cost["restore_ms"] = (clock() - began) * 1000.0
        recovered.close()
    shutil.rmtree(path, ignore_errors=True)
    return cost


# ------------------------------------------------------------ child processes
def start_helper_processes(workload) -> None:
    """Start multiprocessing's resource tracker from this process.

    Shared memory needs it, and whichever process touches shared memory
    first starts it; started here, before any shard worker forks, it is a
    child of this process, which can therefore wait for it at the end.
    """
    if workload.fleet is not None:
        resource_tracker.ensure_running()


def stop_child_processes() -> "list[int]":
    """Stop every process this run started and wait until each has ended.

    Closing a stack ends its shard workers; any that is still alive here
    (returned, so the caller can fail the run) is terminated.  The resource
    tracker would otherwise outlive the run by a moment: it exits only on
    seeing this process's end of its pipe close, so it is stopped and
    waited for explicitly.
    """
    strays = multiprocessing.active_children()
    for process in strays:
        process.terminate()
    for process in strays:
        process.join()
    resource_tracker._resource_tracker._stop()
    return [process.pid for process in strays]


# --------------------------------------------------------------- one workload
def fastest(repetitions: "list[dict]") -> dict:
    return min(repetitions, key=lambda repetition: repetition["paced_s"])


def rates(repetitions: "list[dict]", clock_name: str = "paced_s") -> "list[float]":
    return [r["requests"] / r[clock_name] for r in repetitions]


def run_workload(workload, seed: int, trace: bool, work_dir: Path, out_dir: "Path | None" = None) -> dict:
    """All phases of one workload; returns the result record.

    The engine and closed32 phases run ``workload.repetitions`` times each
    after one warm-up round, alternating, every repetition the same stream
    on a fresh stack, so the repetitions are identical work spread over
    the run.  With ``trace`` every engine repetition is followed by a
    traced one and all serve phases are traced; the record then carries
    the per-layer metrics and no end-to-end ones, which are only ever
    taken from an untraced run.
    """
    segments_before = set(active_segments())
    gates = Gates()
    pace = Pace()
    #: where this run's own wall time went, set-up and gates included
    stage_s = {"streams": 0.0, "engine": 0.0, "closed32": 0.0, "open": 0.0}
    began = clock()
    cycle_span = "kernel.step" if workload.fleet is None else "executor.step"
    streams = {
        "engine": make_stream(workload, "engine", workload.engine_count, seed),
        "closed32": make_stream(workload, "closed32", workload.closed_count, seed),
        "open": make_stream(workload, "open", workload.open_count, seed),
    }
    due_s = poisson_due_times(
        workload.open_count, workload.open_rate, f"spine-{seed}-{workload.name}-arrivals"
    )
    messages = {
        phase: wire_messages(streams[phase], workload.tenants) for phase in ("closed32", "open")
    }
    stage_s["streams"] = clock() - began

    def tracer_or_none(traced: bool):
        # Raw spans are kept only when there is somewhere to write them.
        return Tracer(cycle_span, 2000 if out_dir is not None else 0) if traced else None

    def engine_repetition(traced: bool, checkpoint: bool = False) -> dict:
        tracer = tracer_or_none(traced)
        began = clock()
        stack = Stack(workload)
        try:
            if tracer is not None:
                instrument_stack(tracer, stack)
            report = engine_phase(stack, streams["engine"], gates, pace)
            if checkpoint:
                report["checkpoint"] = checkpoint_cost(
                    stack, work_dir / "checkpoint", restore=trace
                )
        finally:
            stack.close()
            stage_s["engine"] += clock() - began
        if tracer is not None:
            report["spans"], report["raw_spans"] = tracer.report(), tracer.raw
        return report

    def serve(phase: str, drive, probe=None) -> dict:
        tracer = tracer_or_none(trace)
        began = clock()
        report = asyncio.run(serve_phase(workload, drive, pace, tracer, probe))
        check_served(phase, workload, report, gates)
        stage_s[phase] += clock() - began
        if tracer is not None:
            report["spans"], report["raw_spans"] = tracer.report(), tracer.raw
        return report

    engines: list[dict] = []
    traced_engines: list[dict] = []
    closeds: list[dict] = []
    # A traced run is read layer against layer within its fastest
    # repetition, not against other runs: two repetitions are enough.
    repetitions = min(workload.repetitions, TRACED_REPETITIONS) if trace else workload.repetitions
    for round_index in range(1 + repetitions):
        engines.append(engine_repetition(traced=False, checkpoint=round_index == 0))
        if trace:
            traced_engines.append(engine_repetition(traced=True))
        closeds.append(serve("closed32", lambda client: closed_loop(client, messages["closed32"])))
    opened = serve(
        "open",
        lambda client: open_loop(client, messages["open"], due_s, pace),
        health_ms if trace else None,
    )

    # Latency from the due time, raw and paced by the speed around it.
    spans_of = list(zip(opened["due_at"], opened["done_at"]))
    opened["latencies_ms"] = [(done - due) * 1000.0 for due, done in spans_of]
    opened["paced_latencies_ms"] = [pace.paced(due, done) * 1000.0 for due, done in spans_of]

    reference = engines[0]["metrics"]
    gates.require(
        all(r["metrics"] is not None and r["metrics"].to_dict() == reference.to_dict()
            for r in engines + traced_engines),
        "engine: simulated counters differ between identical repetitions",
    )
    # The first round warms the process up (imports, allocator, worker
    # start-up: consistently the slowest); it is verified and counted like
    # the rest, and its stack is the one checkpointed, but it is not timed.
    checkpoint = engines[0]["checkpoint"]
    del engines[0], closeds[0], traced_engines[:1]
    leaked = sorted(set(active_segments()) - segments_before)
    gates.require(not leaked, f"shared-memory segments left behind: {leaked}")

    setup_samples = [r["setup_paced_s"] for r in closeds + [opened]]
    result = {
        "schema": "spine/1",
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "machine": machine(),
        "commit": git_commit(),
        "counts": {
            "repetitions": repetitions,
            "engine": workload.engine_count,
            "closed32": workload.closed_count,
            "open": workload.open_count,
            "open_rate_per_s": workload.open_rate,
        },
        "phases": gates.per_phase,
        "stage_s": stage_s,
        "samples": {
            "engine_rps": sorted(rates(engines)),
            "serve_rps": sorted(rates(closeds)),
            "setup_s": setup_samples,
            "serve_latency": latency_summary(opened["paced_latencies_ms"]),
            "serve_window_p99_ms": window_p99s(opened["paced_latencies_ms"]),
            "closed32_latency": latency_summary(fastest(closeds)["latencies_ms"]),
            "loadgen_late": latency_summary(opened["late_ms"]),
        },
        # The same quantities on the wall clock, before pacing.
        "raw": {
            "engine_rps": sorted(rates(engines, "wall_s")),
            "serve_rps": sorted(rates(closeds, "wall_s")),
            "setup_s": [r["setup_s"] for r in closeds + [opened]],
            "serve_latency": latency_summary(opened["latencies_ms"]),
        },
        "pace": pace.summary(),
        "serve_cycles": {
            "closed32": [[r["cycles"], r["shuffles"]] for r in closeds],
            "open": [opened["cycles"], opened["shuffles"]],
        },
        "attempted": gates.attempted,
        "failed": gates.failed,
        "correct": gates.failed == 0,
        "failures": gates.failures,
    }
    if trace:
        spans = {
            "engine": fastest(traced_engines),
            "closed32": fastest(closeds),
            "open": opened,
        }
        result["per_layer"] = per_layer_metrics(
            workload, engines, traced_engines, checkpoint, fastest(closeds), opened, messages
        )
        result["spans"] = {phase: report["spans"] for phase, report in spans.items()}
        if out_dir is not None:
            for phase, report in spans.items():
                write_spans(
                    out_dir / f"{workload.name}.seed{seed}.{phase}.spans.jsonl",
                    report["raw_spans"],
                )
    else:
        result["end_to_end"] = end_to_end_metrics(
            engines, checkpoint, closeds, opened, setup_samples, gates
        )
    return result


def end_to_end_metrics(engines, checkpoint, closeds, opened, setup_samples, gates) -> dict:
    metrics = engines[0]["metrics"]
    requests = engines[0]["requests"]
    io_bytes = (
        metrics.io_bytes_read
        + metrics.io_bytes_written
        + metrics.shuffle_bytes_read
        + metrics.shuffle_bytes_written
    )
    latency = latency_summary(opened["paced_latencies_ms"])
    values = {
        "setup_s": statistics.median(setup_samples),
        "engine_rps": statistics.median(rates(engines)),
        "serve_rps": statistics.median(rates(closeds)),
        "serve_p50_ms": latency["p50_ms"],
        "serve_p99_ms": statistics.median(window_p99s(opened["paced_latencies_ms"])),
        "sim_us_per_req": metrics.total_time_us / requests,
        "sim_io_bytes_per_req": io_bytes / requests,
        "checkpoint_bytes": checkpoint["bytes"],
        "peak_rss_mb": peak_rss_mb(),
        "failed_share": gates.failed / gates.attempted,
    }
    return {name: {"value": values[name], "unit": END_TO_END[name][0]} for name in END_TO_END}


def per_layer_metrics(workload, engines, traced_engines, checkpoint, closed, opened, messages) -> dict:
    """The 60 layer metrics, from the fastest traced repetition of each
    phase; counts come from the (identical) engine repetitions' Metrics."""
    metrics = engines[0]["metrics"]
    requests = engines[0]["requests"]
    user_bytes = requests * workload.payload_bytes
    traced = fastest(traced_engines)
    untraced_wall = statistics.median(r["paced_s"] for r in engines)
    traced_wall = statistics.median(r["paced_s"] for r in traced_engines)

    def span(report: dict, name: str, field: str = "self_s"):
        return report["spans"].get(name, {}).get(field, 0)

    def per(total, count):
        return total / count if count else 0.0

    crypto_s = span(traced, "crypto.seal") + span(traced, "crypto.open")
    crypto_records = span(traced, "crypto.seal", "items") + span(traced, "crypto.open", "items")
    closed_requests = closed["requests"]
    pump_s = span(closed, "serve.pump", "total_s")
    submit_s = span(closed, "multiuser.submit", "total_s")
    pump_calls = span(closed, "serve.pump", "calls")
    overhead_s = closed["wall_s"] - pump_s - submit_s
    frame_bytes = sum(len(encode_frame(m)) for m in messages["closed32"]) + sum(
        len(encode_frame(r)) for r in closed["responses"] if r is not None
    )
    steps = span(closed, "executor.step", "calls")
    ipc = closed["ipc"] or {}
    closed_latency = latency_summary(closed["latencies_ms"])
    values = {
        "serve.pump_s": pump_s,
        "serve.overhead_s": overhead_s,
        "serve.overhead_us_per_req": per(overhead_s, closed_requests) * 1e6,
        "serve.pump_calls": pump_calls,
        "serve.reqs_per_pump": per(span(closed, "serve.pump", "items"), pump_calls),
        "serve.frame_encode_us": frame_encode_us(messages["closed32"]),
        "serve.frame_decode_us": frame_decode_us(messages["closed32"]),
        "serve.frame_bytes_per_req": per(frame_bytes, closed_requests),
        "serve.rejected": sum(closed["server"].rejections.values())
        + sum(opened["server"].rejections.values()),
        "serve.health_ms": opened["probe"],
        "serve.loadgen_late_p99_ms": latency_summary(opened["late_ms"])["p99_ms"],
        "serve.closed32_p50_ms": closed_latency["p50_ms"],
        "serve.closed32_p99_ms": closed_latency["p99_ms"],
        "multiuser.submit_s": submit_s,
        "kernel.cycles": metrics.cycles,
        "kernel.cycles_per_req": metrics.cycles / requests,
        "kernel.us_per_cycle": per(fastest(engines)["wall_s"], metrics.cycles) * 1e6,
        "kernel.self_s": span(traced, "kernel.step") + span(traced, "kernel.submit"),
        "kernel.scheduler_plan_s": span(traced, "kernel.scheduler_plan"),
        "kernel.dummy_hit_ratio": metrics.dummy_hit_ratio,
        "kernel.dummy_miss_ratio": metrics.dummy_miss_ratio,
        "cache_tree.hit_s": span(traced, "cache_tree.serve_hits")
        + span(traced, "cache_tree.dummy_hit"),
        "cache_tree.path_accesses": metrics.scheduled_hits,
        "cache_tree.real_hit_share": per(
            metrics.scheduled_hits - metrics.dummy_hits, metrics.scheduled_hits
        ),
        "cache_tree.stash_peak": metrics.stash_peak,
        "cache_tree.evict_s": span(traced, "cache_tree.evict_all"),
        "storage_layer.load_s": span(traced, "storage_layer.fetch_path")
        + span(traced, "storage_layer.dummy_fetch_path"),
        "storage_layer.loads": metrics.scheduled_misses,
        "storage_layer.prefetched_hits": metrics.prefetched_hits,
        "storage_layer.dummy_pool_exhausted": metrics.extra.get("dummy_pool_exhausted", 0),
        "storage_layer.shuffle_into_s": span(traced, "storage_layer.shuffle_into"),
        "shuffle.periods": metrics.shuffle_count,
        "shuffle.wall_s": span(traced, "shuffle.run_shuffle_period", "total_s"),
        "shuffle.max_stall_ms": span(traced, "shuffle.run_shuffle_period", "max_s") * 1000.0,
        "shuffle.sim_bytes_per_req": (metrics.shuffle_bytes_read + metrics.shuffle_bytes_written)
        / requests,
        "crypto.seal_s": span(traced, "crypto.seal"),
        "crypto.open_s": span(traced, "crypto.open"),
        "crypto.records": crypto_records,
        "crypto.ns_per_record": per(crypto_s, crypto_records) * 1e9,
        "crypto.engine_share": crypto_s / traced["wall_s"],
        "crypto.keystream_block_ns": keystream_block_ns(),
        "storage.io_calls": span(traced, "storage.io", "calls"),
        "storage.io_s": span(traced, "storage.io"),
        "storage.mem_calls": span(traced, "storage.mem", "calls"),
        "storage.mem_s": span(traced, "storage.mem"),
        "storage.sim_io_ops_per_req": (
            metrics.io_reads + metrics.io_writes + metrics.shuffle_io_reads + metrics.shuffle_io_writes
        )
        / requests,
        "storage.sim_read_amp": (metrics.io_bytes_read + metrics.shuffle_bytes_read) / user_bytes,
        "storage.sim_write_amp": (metrics.io_bytes_written + metrics.shuffle_bytes_written)
        / user_bytes,
        "executor.step_s": span(closed, "executor.step", "total_s"),
        "executor.steps": steps,
        "executor.reqs_per_step": per(span(closed, "executor.step", "items"), steps),
        "executor.shm_bytes_per_req": per(ipc.get("shm_payload_bytes", 0), closed_requests),
        "executor.inline_bytes": ipc.get("inline_payload_bytes", 0),
        "sharding.imbalance": (closed["load_balance"] or {}).get("imbalance", 0.0),
        "supervisor.checkpoints": (closed["recovery"] or {}).get("checkpoints", 0),
        "supervisor.checkpoint_s": span(closed, "supervisor.checkpoint", "total_s"),
        "checkpoint.save_ms": checkpoint["save_ms"],
        "checkpoint.restore_ms": checkpoint["restore_ms"],
        "trace.overhead_ratio": traced_wall / untraced_wall,
        "trace.attributed_share": sum(s["self_s"] for s in traced["spans"].values())
        / traced["wall_s"],
    }
    return {name: {"value": values[name], "unit": PER_LAYER[name][0]} for name in PER_LAYER}


# -------------------------------------------------------------------- output
def print_metrics(result: dict) -> None:
    table = result.get("end_to_end") or result["per_layer"]
    print(f"# {result['workload']}  seed={result['seed']}  trace={result['trace']}")
    for phase, counts in result["phases"].items():
        print(f"#   {phase}: " + "  ".join(f"{k}={v}" for k, v in counts.items()))
    for name, cell in table.items():
        print(f"{result['workload']:<18}{name:<38}{cell['value']:>16.6g} {cell['unit']}")
    samples = result["samples"]
    for name in ("engine_rps", "serve_rps"):
        q1, median, q3 = quartiles(samples[name])
        print(
            f"#   {name} over {len(samples[name])} identical repetitions: "
            f"q1={q1:.6g} median={median:.6g} q3={q3:.6g} max={samples[name][-1]:.6g}"
        )
    raw = result["raw"]
    print(
        f"#   wall clock before pacing: engine_rps median {statistics.median(raw['engine_rps']):.6g}  "
        f"serve_rps median {statistics.median(raw['serve_rps']):.6g}  "
        f"serve p50 {raw['serve_latency']['p50_ms']:.6g} ms  p99 {raw['serve_latency']['p99_ms']:.6g} ms; "
        f"pace kernel median {result['pace']['unit_ms']['median']:.3f} ms "
        f"(reference {result['pace']['reference_unit_ms']:.3f})"
    )
    print(
        f"#   open-loop latency over {samples['serve_latency']['samples']} samples; "
        "p99 by window "
        + " ".join(f"{p99:.4g}" for p99 in samples["serve_window_p99_ms"])
        + f" ms, whole phase {samples['serve_latency']['p99_ms']:.4g} ms; "
        f"generator late p99 {samples['loadgen_late']['p99_ms']:.3f} ms"
    )
    print("#   wall by stage: " + "  ".join(f"{k}={v:.1f}s" for k, v in result["stage_s"].items()))
    for failure in result["failures"]:
        print(f"#   FAILED {failure}")


def driver_line(result: dict) -> str:
    """The last line of output: exactly the keys the driver reads."""
    table = result.get("end_to_end") or result["per_layer"]
    metrics = {
        name: cell
        for name, cell in table.items()
        # never 0 by contract; ``failed`` over ``attempted`` carries it
        if name != "failed_share"
    }
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        }
    )


def run_one(args) -> int:
    workload = scaled(WORKLOADS[args.workload], args.seconds)
    out_dir = Path(args.out) if args.out else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    work_dir = ROOT / ".spine_tmp" / f"run-{os.getpid()}"
    # Supervisor checkpoint stores go where tempfile points: keep them in
    # the checkout, like everything else the run writes.
    work_dir.mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(work_dir)
    start_helper_processes(workload)
    try:
        result = run_workload(workload, args.seed, bool(args.trace), work_dir, out_dir)
    finally:
        strays = stop_child_processes()
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()  # unless another run is using it
        except OSError:
            pass
    if strays:
        result["failed"] += len(strays)
        result["correct"] = False
        result["failures"].append(f"processes still running after the last phase: {strays}")
    result["seconds"] = args.seconds
    if out_dir is not None:
        path = out_dir / f"{workload.name}.seed{args.seed}.trace{int(bool(args.trace))}.json"
        path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print_metrics(result)
    print(driver_line(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload in its own interpreter; results land in ``--out``."""
    if not args.out:
        print("run.py: --out DIR is required without --workload", file=sys.stderr)
        return 2
    status = 0
    for trace in (0, 1) if args.trace else (0,):
        for name in WORKLOADS:
            command = [
                sys.executable,
                str(Path(__file__).resolve()),
                "--workload", name,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(trace),
                "--out", args.out,
            ]  # fmt: skip
            began = time.monotonic()
            done = subprocess.run(command, capture_output=True, text=True)
            lines = done.stdout.splitlines()
            # The child's last line is for the driver; the rest is the report.
            print("\n".join(lines[:-1] if done.returncode in (0, 1) else lines))
            print(f"#   wall {time.monotonic() - began:.1f} s, exit {done.returncode}")
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                status = 1
    return status


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        return spine_compare.main(argv[1:])
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds",
        type=float,
        default=REFERENCE_SECONDS,
        help=f"scales the fixed request counts; {REFERENCE_SECONDS} runs them as tabled",
    )
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--out", help="directory for result files and raw spans")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
