"""Span recording for the bench spine, from outside the program.

Nothing under ``src/`` knows it is being measured: a span is an
instance-level wrapper this module installs around a public callable
(``oram.step``, ``codec.seal``, ``server.front.pump``, ...).  Spans nest
by call order on the one thread that runs the stack, so a span's *self*
time is its duration minus the durations of the spans opened inside it,
and the self times of all spans sum to the time spent inside the
outermost ones.

Totals are kept per span name for the whole phase.  Raw spans (name,
start, end, parent, cycle) are kept only for the phase's first
``raw_cycle_limit`` cycles (spans opened before the first cycle, such as
the engine phase's up-front submits, are totalled but not kept raw); they
stay in memory until the caller writes them out.
"""

from __future__ import annotations

import json
import time

#: Index of each field in a span total (lists, not objects: the wrapper
#: body runs ~50 times per kernel cycle).
CALLS, TOTAL_S, SELF_S, MAX_S, ITEMS = range(5)


class Tracer:
    """Per-name span totals plus a bounded prefix of raw spans.

    One tracer serves one phase on one stack; the wrapped objects are
    discarded with the stack, so nothing is ever unwrapped.
    """

    def __init__(self, cycle_span: str, raw_cycle_limit: int = 2000):
        #: span name -> [calls, total_s, self_s, max_s, items]
        self.totals: dict[str, list] = {}
        #: the span whose every begin counts as one cycle of the phase
        self.cycle_span = cycle_span
        self.raw_cycle_limit = raw_cycle_limit
        self.cycle = 0
        #: (name, start_s, end_s, parent raw index or -1, cycle)
        self.raw: list[tuple] = []
        self._open: list[list] = []  # [child_s, raw_index] per open span

    # ------------------------------------------------------------ installing
    def wrap(self, obj, attr: str, name: str, items=None) -> None:
        """Replace ``obj.attr`` with a span-recording wrapper named ``name``.

        ``items(args, result)`` optionally counts the work units one call
        handled (records sealed, requests retired); they accumulate in the
        span total beside the call count.
        """
        inner = getattr(obj, attr)
        total = self.totals.setdefault(name, [0, 0.0, 0.0, 0.0, 0])
        open_spans = self._open
        raw = self.raw
        clock = time.perf_counter
        tracer = self
        counts_cycle = name == self.cycle_span

        def traced(*args, **kwargs):
            if counts_cycle:
                tracer.cycle += 1
            raw_index = -1
            if 0 < tracer.cycle <= tracer.raw_cycle_limit:
                raw_index = len(raw)
                raw.append(None)
            frame = [0.0, raw_index]
            open_spans.append(frame)
            start = clock()
            try:
                result = inner(*args, **kwargs)
            finally:
                end = clock()
                open_spans.pop()
                duration = end - start
                total[CALLS] += 1
                total[TOTAL_S] += duration
                total[SELF_S] += duration - frame[0]
                if duration > total[MAX_S]:
                    total[MAX_S] = duration
                parent = -1
                if open_spans:
                    open_spans[-1][0] += duration
                    parent = open_spans[-1][1]
                if raw_index >= 0:
                    raw[raw_index] = (name, start, end, parent, tracer.cycle)
            if items is not None:
                total[ITEMS] += items(args, result)
            return result

        setattr(obj, attr, traced)  # shadows the class's method on this instance

    # ------------------------------------------------------------- reporting
    def report(self) -> dict:
        """Span totals by name, as plain dictionaries."""
        return {
            name: {
                "calls": t[CALLS],
                "total_s": t[TOTAL_S],
                "self_s": t[SELF_S],
                "max_s": t[MAX_S],
                "items": t[ITEMS],
            }
            for name, t in self.totals.items()
        }


def write_spans(path, spans: list) -> None:
    """One JSON object per raw span, start/end relative to the first."""
    origin = spans[0][1] if spans and spans[0] is not None else 0.0
    with open(path, "w", encoding="utf-8") as out:
        for index, span in enumerate(spans):
            if span is None:  # still open when the phase ended
                continue
            name, start, end, parent, cycle = span
            record = {
                "span": index,
                "name": name,
                "start_us": round((start - origin) * 1e6, 3),
                "end_us": round((end - origin) * 1e6, 3),
                "parent": parent,
                "cycle": cycle,
            }
            out.write(json.dumps(record) + "\n")


# ---------------------------------------------------------------- wrappers
_CODEC_SEAL = ("seal", "seal_many", "seal_dummy")
_CODEC_OPEN = ("open", "open_many", "open_run")
_STORE_CALLS = (
    "read_slot",
    "read_slot_view",
    "write_slot",
    "read_run",
    "read_run_view",
    "write_run",
    "peek_slot",
    "poke_slot",
    "peek_run",
    "poke_run",
)


def _codec_items(codec):
    slot_bytes = codec.slot_bytes

    def sealed_many(args, result):
        # seal_many(entries, dummy_tail=0); entries may be any iterable,
        # so count what came out instead of what went in.
        return len(result) // slot_bytes

    def opened(args, result):
        return len(result)

    return {
        "seal": lambda args, result: 1,
        # seal_dummy calls seal, which counts the record.
        "seal_dummy": lambda args, result: 0,
        "seal_many": sealed_many,
        "open": lambda args, result: 1,
        "open_many": opened,
        "open_run": opened,
    }


def instrument_kernel(tracer: Tracer, oram) -> None:
    """Wrap one in-process kernel stack (``HybridORAM``) layer by layer.

    Must run before an ``ORAMServer`` is built over ``oram``: the server's
    backend shim binds ``stack.step`` at construction.
    """
    tracer.wrap(oram, "submit", "kernel.submit")
    tracer.wrap(oram, "step", "kernel.step", items=lambda args, result: len(result))
    tracer.wrap(oram.scheduler, "plan", "kernel.scheduler_plan")
    tracer.wrap(oram, "serve_hits", "cache_tree.serve_hits")
    tracer.wrap(oram, "dummy_hit", "cache_tree.dummy_hit")
    tracer.wrap(oram.cache, "evict_all", "cache_tree.evict_all")
    tracer.wrap(oram, "fetch_path", "storage_layer.fetch_path")
    tracer.wrap(oram, "dummy_fetch_path", "storage_layer.dummy_fetch_path")
    tracer.wrap(oram.storage, "shuffle_into", "storage_layer.shuffle_into")
    tracer.wrap(oram, "run_shuffle_period", "shuffle.run_shuffle_period")
    items = _codec_items(oram.codec)
    for method in _CODEC_SEAL:
        tracer.wrap(oram.codec, method, "crypto.seal", items=items[method])
    for method in _CODEC_OPEN:
        tracer.wrap(oram.codec, method, "crypto.open", items=items[method])
    for method in _STORE_CALLS:
        tracer.wrap(oram.hierarchy.storage, method, "storage.io")
        tracer.wrap(oram.hierarchy.memory, method, "storage.mem")


def instrument_fleet(tracer: Tracer, supervisor) -> None:
    """Wrap what the coordinator process can see of a supervised fleet.

    The shards run in worker processes, so their layers are out of reach;
    their host time lands in ``executor.step``.
    """
    tracer.wrap(
        supervisor.fleet.executor,
        "step",
        "executor.step",
        items=lambda args, result: len(result),
    )
    for store in supervisor.stores:
        tracer.wrap(store, "save", "supervisor.checkpoint")


def instrument_server(tracer: Tracer, server) -> None:
    tracer.wrap(
        server.front, "pump", "serve.pump", items=lambda args, result: len(result)
    )
    tracer.wrap(server.front, "submit", "multiuser.submit")
