"""Per-layer spans recorded from outside the program.

The traced run patches the public entry points of each layer (module
functions and class methods of the ``repro`` package) with timing wrappers
for the duration of one pass and restores them afterwards; nothing under
``src/`` changes.  Every wrapped call becomes one span: its name, start,
end, thread and parent span.  Spans are kept in memory, in compact
per-thread arrays, and written out once the run ends.

A span's *self time* is its duration minus the time of the child spans it
directly encloses, so the self times of one thread partition its outermost
spans exactly.  The wrappers also count wire probes, and charge each one to
the innermost algorithm span (tracing, collection, positioning,
exploration, heuristics) around it.
"""

from __future__ import annotations

import json
import os
import threading
from array import array
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: Span name -> layer.  The span name says which entry point was wrapped;
#: the layer is the unit the per-layer metrics aggregate over.
SPAN_LAYER = {
    "tracenet.trace": "tracenet",
    "collection.collect_hop": "collection",
    "positioning.position_subnet": "positioning",
    "exploration.explore_subnet": "exploration",
    "exploration.unpositioned_subnet": "exploration",
    "heuristics.evaluate_candidate": "heuristics",
    "prober.probe": "prober",
    "prober.probe_many": "prober",
    "transport.send": "transport",
    "transport.send_many": "transport",
    "engine.send": "engine",
    "engine.send_many": "engine",
    "routing.bfs": "routing",
    "sinks.emit": "sinks",
    "sinks.tally": "sinks",
    "store.save_archive": "store",
    "service.lease": "service",
    "service.heartbeat": "service",
    "service.stream": "service",
    "service.complete": "service",
    "service.fail": "service",
    "service.reap": "service",
    "service.merge": "service",
    "shard.run": "shard",
    "shard.build_tool": "shard",
}
SPAN_NAMES = tuple(SPAN_LAYER)
_SPAN_ID = {name: index for index, name in enumerate(SPAN_NAMES)}


#: Layers whose spans own the probes sent beneath them: a probe counts for
#: the innermost algorithm span around it (prober, transport and engine
#: spans pass their probes up to it).
ALGORITHM_LAYERS = ("tracenet", "collection", "positioning", "exploration",
                    "heuristics")
_ATTRIBUTING = tuple(SPAN_LAYER[name] in ALGORITHM_LAYERS
                     for name in SPAN_NAMES)

# Frame slots (a list per open span, for speed).
_NAME, _ID, _START, _CHILD_TIME, _SENDS, _CHILD_SENDS = range(6)


class _ThreadLog:
    """One thread's span stack, aggregates and raw span columns."""

    def __init__(self) -> None:
        self.stack: List[list] = []
        self.next_id = 0
        count = len(SPAN_NAMES)
        self.calls = [0] * count
        self.inclusive = [0.0] * count
        self.self_time = [0.0] * count
        self.self_sends = [0] * count
        self.span_id = array("q")
        self.parent = array("q")
        self.name = array("b")
        self.start = array("d")
        self.end = array("d")


class SpanRecorder:
    """Installs timing wrappers and aggregates what they record."""

    def __init__(self) -> None:
        self._logs: List[_ThreadLog] = []
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []
        #: Wire probes handed to the simulator transport (send + send_many).
        self.sends = 0
        self.origin = perf_counter()
        #: Engine.send split into memo hits and misses.
        self.engine_hit_s = 0.0
        self.engine_hits = 0
        self.engine_miss_s = 0.0
        self.engine_misses = 0
        #: (engine id, topology, src, dst, protocol, flow) of every probe
        #: that missed the engine's memo.
        self.miss_keys: List[tuple] = []
        #: Coordinator.lease outcomes as (thread, start, end, granted).
        self.leases: List[Tuple[int, float, float, bool]] = []
        #: Event deliveries by (bus id, event type name).
        self.events: Dict[Tuple[int, str], int] = {}
        self.checkpoint_bytes = 0
        #: Collectors built by service shards (their counters reconcile).
        self.shard_tools: list = []

    # -- recording ---------------------------------------------------------

    def _log(self) -> _ThreadLog:
        try:
            return self._local.log
        except AttributeError:
            log = self._local.log = _ThreadLog()
            self._logs.append(log)
            return log

    def enter(self, name: str) -> list:
        log = self._log()
        frame = [_SPAN_ID[name], log.next_id, 0.0, 0.0, self.sends, 0]
        log.next_id += 1
        log.stack.append(frame)
        frame[_START] = perf_counter()
        return frame

    def exit(self, frame: list) -> float:
        end = perf_counter()
        log = self._local.log
        stack = log.stack
        stack.pop()
        duration = end - frame[_START]
        sends = self.sends - frame[_SENDS]
        name = frame[_NAME]
        log.calls[name] += 1
        log.inclusive[name] += duration
        log.self_time[name] += duration - frame[_CHILD_TIME]
        log.self_sends[name] += sends - frame[_CHILD_SENDS]
        parent = -1
        if stack:
            outer = stack[-1]
            outer[_CHILD_TIME] += duration
            if _ATTRIBUTING[name]:
                outer[_CHILD_SENDS] += sends
            parent = outer[_ID]
        log.span_id.append(frame[_ID])
        log.parent.append(parent)
        log.name.append(name)
        log.start.append(frame[_START])
        log.end.append(end)
        return duration

    # -- patching ----------------------------------------------------------

    def patch(self, owner, attribute: str, name: str,
              make: Optional[Callable] = None) -> None:
        """Replace ``owner.attribute`` with a span-recording wrapper.

        ``make(original)`` builds a custom wrapper (it must call
        :meth:`enter`/:meth:`exit` itself); the default one only times.
        """
        original = owner.__dict__[attribute] if isinstance(owner, type) \
            else getattr(owner, attribute)
        target = getattr(owner, attribute)
        if make is not None:
            wrapper = make(target)
        else:
            enter, exit_ = self.enter, self.exit

            def wrapper(*args, **kwargs):
                frame = enter(name)
                try:
                    return target(*args, **kwargs)
                finally:
                    exit_(frame)
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, wrapper)

    def restore(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    def install(self) -> "SpanRecorder":
        """Wrap every layer entry point the survey and service paths use."""
        from repro import runner
        from repro.core import exploration, tracenet
        from repro.core.tracenet import TraceNET
        from repro.events import EventBus
        from repro.netsim.engine import Engine
        from repro.netsim.routing import RoutingTable
        from repro.parallel import ShardSpec
        from repro.probing.prober import Prober
        from repro.service import coordinator, worker
        from repro.service.coordinator import Coordinator
        from repro.transport.simulator import SimulatorTransport

        self.patch(TraceNET, "trace", "tracenet.trace")
        self.patch(tracenet, "collect_hop", "collection.collect_hop")
        self.patch(tracenet, "position_subnet",
                   "positioning.position_subnet")
        self.patch(tracenet, "explore_subnet", "exploration.explore_subnet")
        self.patch(tracenet, "unpositioned_subnet",
                   "exploration.unpositioned_subnet")
        self.patch(exploration, "evaluate_candidate",
                   "heuristics.evaluate_candidate")
        self.patch(Prober, "probe", "prober.probe")
        self.patch(Prober, "probe_many", "prober.probe_many")
        self.patch(SimulatorTransport, "send", "transport.send",
                   make=self._counting_send)
        self.patch(SimulatorTransport, "send_many", "transport.send_many",
                   make=self._counting_send_many)
        self.patch(Engine, "send", "engine.send", make=self._engine_send)
        self.patch(Engine, "send_many", "engine.send_many")
        self.patch(RoutingTable, "_bfs", "routing.bfs")
        self.patch(EventBus, "emit", "sinks.emit", make=self._bus_emit)
        self.patch(EventBus, "tally", "sinks.tally", make=self._bus_tally)
        self.patch(runner, "save_archive", "store.save_archive",
                   make=self._save_archive)
        self.patch(Coordinator, "lease", "service.lease",
                   make=self._lease)
        for method in ("heartbeat", "stream", "complete", "fail", "reap"):
            self.patch(Coordinator, method, f"service.{method}")
        self.patch(coordinator, "merge_outcomes", "service.merge")
        self.patch(worker, "run_shard", "shard.run")
        self.patch(ShardSpec, "build_tool", "shard.build_tool",
                   make=self._build_tool)
        return self

    # -- custom wrappers ---------------------------------------------------

    def _counting_send(self, original):
        enter, exit_ = self.enter, self.exit

        def send(transport, probe):
            frame = enter("transport.send")
            self.sends += 1
            try:
                return original(transport, probe)
            finally:
                exit_(frame)
        return send

    def _counting_send_many(self, original):
        enter, exit_ = self.enter, self.exit

        def send_many(transport, probes):
            frame = enter("transport.send_many")
            self.sends += len(probes)
            try:
                return original(transport, probes)
            finally:
                exit_(frame)
        return send_many

    def _engine_send(self, original):
        enter, exit_ = self.enter, self.exit

        def send(engine, probe):
            misses = engine.stats.path_cache_misses
            frame = enter("engine.send")
            try:
                return original(engine, probe)
            finally:
                duration = exit_(frame)
                if engine.stats.path_cache_misses != misses:
                    self.engine_misses += 1
                    self.engine_miss_s += duration
                    self.miss_keys.append((id(engine), engine.topology,
                                           probe.src, probe.dst,
                                           probe.protocol, probe.flow_id))
                else:
                    self.engine_hits += 1
                    self.engine_hit_s += duration
        return send

    def _count_event(self, bus, cls, count: int) -> None:
        key = (id(bus), cls.__name__)
        self.events[key] = self.events.get(key, 0) + count

    def _bus_emit(self, original):
        enter, exit_ = self.enter, self.exit

        def emit(bus, event):
            self._count_event(bus, event.__class__, 1)
            frame = enter("sinks.emit")
            try:
                return original(bus, event)
            finally:
                exit_(frame)
        return emit

    def _bus_tally(self, original):
        enter, exit_ = self.enter, self.exit

        def tally(bus, cls, count=1):
            self._count_event(bus, cls, count)
            frame = enter("sinks.tally")
            try:
                return original(bus, cls, count)
            finally:
                exit_(frame)
        return tally

    def _save_archive(self, original):
        enter, exit_ = self.enter, self.exit

        def save_archive(destination, archive):
            frame = enter("store.save_archive")
            try:
                return original(destination, archive)
            finally:
                exit_(frame)
                if isinstance(destination, str) and \
                        os.path.exists(destination):
                    self.checkpoint_bytes += os.path.getsize(destination)
        return save_archive

    def _build_tool(self, original):
        enter, exit_ = self.enter, self.exit

        def build_tool(spec, *args, **kwargs):
            frame = enter("shard.build_tool")
            try:
                tool = original(spec, *args, **kwargs)
            finally:
                exit_(frame)
            self.shard_tools.append(tool)
            return tool
        return build_tool

    def _lease(self, original):
        enter, exit_ = self.enter, self.exit

        def lease(coordinator, worker_id):
            frame = enter("service.lease")
            task = None
            try:
                task = original(coordinator, worker_id)
                return task
            finally:
                exit_(frame)
                self.leases.append((threading.get_ident(),
                                    frame[_START], perf_counter(),
                                    task is not None))
        return lease

    # -- results -----------------------------------------------------------

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, inclusive and self seconds, self probes."""
        out: Dict[str, Dict[str, float]] = {}
        for index, name in enumerate(SPAN_NAMES):
            row = {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0,
                   "self_probes": 0}
            for log in self._logs:
                row["calls"] += log.calls[index]
                row["inclusive_s"] += log.inclusive[index]
                row["self_s"] += log.self_time[index]
                row["self_probes"] += log.self_sends[index]
            out[name] = row
        return out

    def layer(self, layer: str, field: str) -> float:
        return sum(row[field] for name, row in self.totals().items()
                   if SPAN_LAYER[name] == layer)

    def lease_wait(self) -> Tuple[float, int]:
        """Seconds workers spent obtaining leases, and empty leases.

        A granted lease costs its call; an empty one also costs the idle
        wait until the same thread asks again (the worker's poll sleep).
        """
        wait = 0.0
        empty = 0
        by_thread: Dict[int, List[Tuple[float, float, bool]]] = {}
        for thread, start, end, granted in self.leases:
            by_thread.setdefault(thread, []).append((start, end, granted))
        for calls in by_thread.values():
            calls.sort()
            for index, (start, end, granted) in enumerate(calls):
                if granted or index + 1 == len(calls):
                    wait += end - start
                else:
                    wait += calls[index + 1][0] - start
                empty += 0 if granted else 1
        return wait, empty

    def span_count(self) -> int:
        return sum(len(log.span_id) for log in self._logs)

    def write(self, path: str) -> None:
        """Write every span as per-thread columns (times in microseconds
        from the recorder's origin)."""
        payload = {
            "span_names": list(SPAN_NAMES),
            "span_layer": SPAN_LAYER,
            "threads": [
                {
                    "thread": index,
                    "span_id": log.span_id.tolist(),
                    "parent": log.parent.tolist(),
                    "name": log.name.tolist(),
                    "start_us": [round((t - self.origin) * 1e6)
                                 for t in log.start],
                    "end_us": [round((t - self.origin) * 1e6)
                               for t in log.end],
                }
                for index, log in enumerate(self._logs)
            ],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))
